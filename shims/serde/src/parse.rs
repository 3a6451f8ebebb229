//! Parsing JSON text into a [`Tape`]: once per document, with an explicit
//! stack of open containers instead of recursion.

use crate::de::{Tape, Token};
use std::fmt;

/// The deepest nesting of arrays and objects [`Tape::parse`] accepts. The
/// documents this workspace writes reach 15 levels (a session snapshot),
/// and a chain of symbolic expressions nested right up to the bound still
/// decodes on a 2 MB thread stack in an unoptimized build, where 1,024
/// levels did not.
pub const MAX_DEPTH: usize = 512;

/// Why a text is not a document a [`Tape`] can hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The text is not well-formed JSON, or is longer than 4 GiB.
    Syntax(String),
    /// The text nests arrays and objects deeper than [`MAX_DEPTH`].
    TooDeep(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(msg) | ParseError::TooDeep(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    tape: Tape<'a>,
    /// The token indices of the arrays and objects still open, innermost
    /// last.
    open: Vec<usize>,
}

impl<'a> Tape<'a> {
    /// Parses a whole document. Total: malformed text of any kind is an
    /// error, never a panic, and nesting past [`MAX_DEPTH`] is refused
    /// before the tape grows past it.
    pub fn parse(text: &'a str) -> Result<Tape<'a>, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            // Compact JSON holds about one token per 4–6 bytes.
            tape: Tape {
                text,
                unescaped: String::new(),
                tokens: Vec::with_capacity(text.len() / 4),
            },
            open: Vec::new(),
        };
        if u32::try_from(text.len()).is_err() {
            return Err(p.err("documents longer than 4 GiB are not supported"));
        }
        loop {
            p.skip_ws();
            // A value that opens a non-empty container is complete only once
            // its contents are; parse them first.
            if !p.value()? {
                continue;
            }
            // Count the value in its container, then close every container it
            // completes, until one expects another value.
            loop {
                let Some(&top) = p.open.last() else {
                    p.skip_ws();
                    if p.pos != p.bytes.len() {
                        return Err(p.err("trailing characters after JSON value"));
                    }
                    return Ok(p.tape);
                };
                // `open` holds only arrays and objects.
                let object = match &mut p.tape.tokens[top] {
                    Token::Object { len, .. } => {
                        *len += 1;
                        true
                    }
                    Token::Array { len, .. } => {
                        *len += 1;
                        false
                    }
                    _ => false,
                };
                p.skip_ws();
                match p.peek() {
                    Some(b',') => {
                        p.pos += 1;
                        if object {
                            p.skip_ws();
                            p.key()?;
                        }
                        break;
                    }
                    Some(b']') if !object => p.close(),
                    Some(b'}') if object => p.close(),
                    _ if object => return Err(p.err("expected `,` or `}`")),
                    _ => return Err(p.err("expected `,` or `]`")),
                }
            }
        }
    }
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError::Syntax(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn push(&mut self, token: Token) -> Result<bool, ParseError> {
        self.tape.tokens.push(token);
        Ok(true)
    }

    fn keyword(&mut self, kw: &str, token: Token) -> Result<bool, ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            self.push(token)
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    /// Reads one value onto the tape. A scalar or an empty container is
    /// complete (`true`); a non-empty container is left open, positioned at
    /// its first value (`false`).
    fn value(&mut self) -> Result<bool, ParseError> {
        let close = match self.peek() {
            Some(b'n') => return self.keyword("null", Token::Null),
            Some(b't') => return self.keyword("true", Token::Bool(true)),
            Some(b'f') => return self.keyword("false", Token::Bool(false)),
            Some(b'"') => {
                let s = self.string()?;
                return self.push(s);
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let n = self.number()?;
                return self.push(n);
            }
            Some(b'[') => b']',
            Some(b'{') => b'}',
            _ => return Err(self.err("expected a JSON value")),
        };
        if self.open.len() == MAX_DEPTH {
            return Err(ParseError::TooDeep(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.pos += 1;
        self.open.push(self.tape.tokens.len());
        let object = close == b'}';
        self.tape.tokens.push(if object {
            Token::Object { len: 0, end: 0 }
        } else {
            Token::Array { len: 0, end: 0 }
        });
        self.skip_ws();
        if self.peek() == Some(close) {
            self.close();
            return Ok(true);
        }
        if object {
            self.key()?;
        }
        Ok(false)
    }

    /// Reads an object key and its `:`.
    fn key(&mut self) -> Result<(), ParseError> {
        let key = self.string()?;
        self.tape.tokens.push(key);
        self.skip_ws();
        self.eat(b':')
    }

    /// Steps past the closing bracket of the innermost open container,
    /// whose contents end here.
    fn close(&mut self) {
        self.pos += 1;
        // Token counts fit `u32`: a document has fewer tokens than bytes.
        let at = self.tape.tokens.len() as u32;
        if let Some(idx) = self.open.pop() {
            if let Token::Array { end, .. } | Token::Object { end, .. } = &mut self.tape.tokens[idx]
            {
                *end = at;
            }
        }
    }

    /// Reads a string: a span of the text when it holds no escape, else
    /// decoded onto the end of the tape's `unescaped`. Offsets fit `u32`
    /// because the document's length does.
    fn string(&mut self) -> Result<Token, ParseError> {
        self.eat(b'"')?;
        let mut unescaped: Option<usize> = None;
        loop {
            // Take the whole run up to the next quote or escape. Neither
            // byte occurs inside a multi-byte sequence, so a run never
            // splits a character.
            let start = self.pos;
            let rest = &self.bytes[start..];
            let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += len;
            let run = &self.tape.text[start..self.pos];
            let quote = self.bytes[self.pos] == b'"';
            self.pos += 1;
            let Some(from) = unescaped else {
                if quote {
                    return Ok(Token::Str { start: start as u32, len: len as u32 });
                }
                unescaped = Some(self.tape.unescaped.len());
                self.tape.unescaped.push_str(run);
                self.escape()?;
                continue;
            };
            self.tape.unescaped.push_str(run);
            if quote {
                let len = self.tape.unescaped.len() - from;
                return Ok(Token::Unescaped { start: from as u32, len: len as u32 });
            }
            self.escape()?;
        }
    }

    /// Decodes the escape after a backslash onto `unescaped`.
    fn escape(&mut self) -> Result<(), ParseError> {
        let out = &mut self.tape.unescaped;
        match self.bytes.get(self.pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                // Surrogate pairs are not produced by our writer; map lone
                // surrogates to the replacement char.
                self.tape.unescaped.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => return Err(self.err("unknown escape")),
        }
        self.pos += 1;
        Ok(())
    }

    fn number(&mut self) -> Result<Token, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The magnitude of a plain integer, while it fits a `u64`.
        let mut magnitude = Some(0u64);
        let mut digits = 0;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(c - b'0')));
            digits += 1;
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let integer = match (is_float || digits == 0, magnitude) {
            (false, Some(m)) if !negative => {
                Some(i64::try_from(m).map_or(Token::U64(m), Token::I64))
            }
            (false, Some(m)) => 0i64.checked_sub_unsigned(m).map(Token::I64),
            _ => None,
        };
        match integer {
            Some(token) => Ok(token),
            // Every byte consumed is ASCII, so both ends are char boundaries.
            None => self.tape.text[start..self.pos]
                .parse()
                .map(Token::F64)
                .map_err(|_| self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(text: &str) -> Vec<Token> {
        Tape::parse(text).unwrap().tokens
    }

    fn is_syntax(r: Result<Tape<'_>, ParseError>) -> bool {
        matches!(r, Err(ParseError::Syntax(_)))
    }

    /// The strings of `text`, in tape order.
    fn strings(text: &str) -> Vec<String> {
        let tape = Tape::parse(text).unwrap();
        let span = |s: &str, start: u32, len: u32| s[start as usize..][..len as usize].to_owned();
        (tape.tokens.iter())
            .filter_map(|t| match *t {
                Token::Str { start, len } => Some(span(tape.text, start, len)),
                Token::Unescaped { start, len } => Some(span(&tape.unescaped, start, len)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tokens_stay_small() {
        assert_eq!(std::mem::size_of::<Token>(), 16);
    }

    #[test]
    fn scalars_parse_to_one_token() {
        assert_eq!(tokens("null"), [Token::Null]);
        assert_eq!(tokens("true"), [Token::Bool(true)]);
        assert_eq!(tokens("-42"), [Token::I64(-42)]);
        assert_eq!(tokens("-9223372036854775808"), [Token::I64(i64::MIN)]);
        assert_eq!(tokens("18446744073709551615"), [Token::U64(u64::MAX)]);
        assert_eq!(tokens("18446744073709551616"), [Token::F64(18446744073709551616.0)]);
        assert_eq!(tokens("-9223372036854775809"), [Token::F64(-9223372036854775809.0)]);
        assert_eq!(tokens("1.5"), [Token::F64(1.5)]);
        assert_eq!(tokens("2e3"), [Token::F64(2000.0)]);
        assert_eq!(tokens("\"a\\nb\""), [Token::Unescaped { start: 0, len: 3 }]);
        assert_eq!(strings("\"a\\nb\""), ["a\nb"]);
    }

    #[test]
    fn containers_record_their_length_and_end() {
        let text = "{\"a\": [1, {\"b\": null}], \"c\": \"x\"}";
        let obj = |len, end| Token::Object { len, end };
        let arr = |len, end| Token::Array { len, end };
        let kinds = |t: &[Token]| -> Vec<Option<Token>> {
            t.iter()
                .map(|t| match t {
                    Token::Str { .. } => None,
                    other => Some(*other),
                })
                .collect()
        };
        let expected = [
            Some(obj(2, 9)),
            None,
            Some(arr(2, 7)),
            Some(Token::I64(1)),
            Some(obj(1, 7)),
            None,
            Some(Token::Null),
            None,
            None,
        ];
        assert_eq!(kinds(&tokens(text)), expected);
        assert_eq!(strings(text), ["a", "b", "c", "x"]);
        let compact: String = text.chars().filter(|c| *c != ' ').collect();
        assert_eq!(kinds(&tokens(&compact)), expected);
        assert_eq!(tokens("[[],{}]"), [arr(2, 3), arr(0, 2), obj(0, 3)]);
    }

    #[test]
    fn strings_without_escapes_are_spans_of_the_text() {
        let text = "[\"plain ünïcødé\", \"esc\\taped\", \"\\\"\"]";
        let tape = Tape::parse(text).unwrap();
        assert_eq!(tape.tokens[1], Token::Str { start: 2, len: 17 });
        assert_eq!(tape.unescaped, "esc\taped\"");
        assert_eq!(strings(text), ["plain ünïcødé", "esc\taped", "\""]);
    }

    #[test]
    fn strings_decode_multi_byte_runs_next_to_escapes() {
        let text = "\"ünïcødé\\n→\\\"x\\u00e9🦀 é\"";
        assert_eq!(strings(text), ["ünïcødé\n→\"xé🦀 é"]);
    }

    #[test]
    fn rejects_garbage() {
        for text in ["{\"a\":}", "[1,]", "1 2", "", "[", "{\"a\" 1}", "\"\\u12", "-", "[1 2]"] {
            assert!(is_syntax(Tape::parse(text)), "{text:?}");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_depth_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(Tape::parse(&nested(MAX_DEPTH)).unwrap().tokens.len(), MAX_DEPTH);
        let err = Tape::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        let expected = format!("nesting deeper than 512 levels at byte {MAX_DEPTH}");
        assert_eq!(err, ParseError::TooDeep(expected));
    }
}
