//! Deserializing: [`Deserialize`] impls read a [`Node`] of a parsed tape.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// A parsed JSON document: its text and the flat tape of tokens over it,
/// built by [`Tape::parse`].
///
/// The tokens are in text order: a container's token is followed by its
/// contents and records where they end, so a reader skips a whole value in
/// one step. A string without escapes is a span of the text; the others
/// are decoded once into `unescaped`. The parser keeps every count, end
/// index and span consistent, which is why the fields are private.
#[derive(Debug, Clone)]
pub struct Tape<'a> {
    /// The document's text.
    pub(crate) text: &'a str,
    /// The decoded contents of the strings that held escapes, back to back.
    pub(crate) unescaped: String,
    /// The tokens, in text order; never empty.
    pub(crate) tokens: Vec<Token>,
}

impl<'a> Tape<'a> {
    /// The document's root value.
    pub fn root(&self) -> Node<'_, 'a> {
        Node { tape: self, idx: 0 }
    }
}

/// One token of a [`Tape`]: a scalar, a string span, or the head of an
/// array or object. Offsets and counts are `u32`, which keeps a token at
/// 16 bytes; the parser refuses longer documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// An integer that fits `i64`.
    I64(i64),
    /// An integer above `i64::MAX`.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string or an object key without escapes: `len` bytes of the text
    /// from `start`.
    Str {
        /// The byte offset of the contents in the document text.
        start: u32,
        /// The byte length of the contents.
        len: u32,
    },
    /// A string or an object key that held escapes: `len` bytes of the
    /// tape's buffer of decoded escapes from `start`.
    Unescaped {
        /// The byte offset of the decoded contents in that buffer.
        start: u32,
        /// The byte length of the decoded contents.
        len: u32,
    },
    /// An array of `len` elements, which follow it; `end` is the index of
    /// the first token after the last of them.
    Array {
        /// The number of elements.
        len: u32,
        /// The index just past the array's last token.
        end: u32,
    },
    /// An object of `len` entries, each a string key followed by its value;
    /// `end` is the index of the first token after the last value.
    Object {
        /// The number of entries.
        len: u32,
        /// The index just past the object's last token.
        end: u32,
    },
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error for an unexpected value shape.
    pub fn expected(what: &str, got: Node<'_, '_>) -> DeError {
        DeError(format!("expected {what}, found {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can be rebuilt from a parsed JSON value.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the value at `v`.
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError>;
}

/// One value on a tape: the token at `idx` and, for a container, the
/// tokens of its contents.
#[derive(Clone, Copy)]
pub struct Node<'t, 'a> {
    tape: &'t Tape<'a>,
    idx: usize,
}

impl<'t, 'a> Node<'t, 'a> {
    /// The value's own token.
    pub fn token(self) -> Token {
        self.tape.tokens[self.idx]
    }

    /// A short name for the value's shape, used in error messages.
    pub fn kind(self) -> &'static str {
        match self.token() {
            Token::Null => "null",
            Token::Bool(_) => "bool",
            Token::I64(_) | Token::U64(_) | Token::F64(_) => "number",
            Token::Str { .. } | Token::Unescaped { .. } => "string",
            Token::Array { .. } => "array",
            Token::Object { .. } => "object",
        }
    }

    /// The index of the token after this value.
    fn end(self) -> usize {
        match self.token() {
            Token::Array { end, .. } | Token::Object { end, .. } => end as usize,
            _ => self.idx + 1,
        }
    }

    fn at(self, idx: usize) -> Node<'t, 'a> {
        Node { tape: self.tape, idx }
    }

    /// The string, if the value is one.
    pub fn as_str(self) -> Option<&'t str> {
        let span = |start: u32, len: u32| start as usize..start as usize + len as usize;
        match self.token() {
            Token::Str { start, len } => self.tape.text.get(span(start, len)),
            Token::Unescaped { start, len } => self.tape.unescaped.get(span(start, len)),
            _ => None,
        }
    }

    /// The array's elements, in order.
    pub fn elements(self) -> Result<Elements<'t, 'a>, DeError> {
        match self.token() {
            Token::Array { len, .. } => {
                Ok(Elements { next: self.at(self.idx + 1), left: len as usize })
            }
            _ => Err(DeError::expected("array", self)),
        }
    }

    /// The array's elements if it has exactly `N`, else `None`.
    pub fn array_of<const N: usize>(self) -> Option<[Node<'t, 'a>; N]> {
        match self.token() {
            Token::Array { len, .. } if len as usize == N => {}
            _ => return None,
        }
        let mut items = [self; N];
        let mut next = self.idx + 1;
        for item in &mut items {
            *item = self.at(next);
            next = item.end();
        }
        Some(items)
    }

    /// The object's entries, read by key.
    pub fn object(self) -> Result<Fields<'t, 'a>, DeError> {
        match self.token() {
            Token::Object { end, .. } => {
                Ok(Fields { first: self.at(self.idx + 1), cursor: self.idx + 1, end: end as usize })
            }
            _ => Err(DeError::expected("object", self)),
        }
    }

    /// An externally tagged enum value: a unit variant's name, or a data
    /// variant's name and contents (a one-entry object). `None` for any
    /// other shape.
    pub fn variant(self) -> Option<(&'t str, Option<Node<'t, 'a>>)> {
        match self.token() {
            Token::Object { len: 1, .. } => {
                let name = self.at(self.idx + 1).as_str()?;
                Some((name, Some(self.at(self.idx + 2))))
            }
            _ => Some((self.as_str()?, None)),
        }
    }
}

/// The elements of an array [`Node`], as an iterator of nodes.
pub struct Elements<'t, 'a> {
    next: Node<'t, 'a>,
    left: usize,
}

impl<'t, 'a> Iterator for Elements<'t, 'a> {
    type Item = Node<'t, 'a>;

    fn next(&mut self) -> Option<Node<'t, 'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = self.next;
        self.next = item.at(item.end());
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Elements<'_, '_> {}

/// The entries of an object [`Node`], looked up by key.
///
/// A derived impl asks for its fields in declaration order, which is the
/// order the derived writer emits them in, so each lookup first checks the
/// entry after the previous hit and only scans the whole object when that
/// entry has another key. Either way a key's first entry wins.
pub struct Fields<'t, 'a> {
    /// The first entry's key.
    first: Node<'t, 'a>,
    /// The key of the entry after the last one found in order.
    cursor: usize,
    end: usize,
}

impl<'t, 'a> Fields<'t, 'a> {
    /// The value of the first entry named `name`, if any.
    pub fn get(&mut self, name: &str) -> Option<Node<'t, 'a>> {
        // The entries before the cursor were found in order under other
        // names, so the entry at the cursor is its key's first.
        if self.cursor < self.end && self.first.at(self.cursor).as_str() == Some(name) {
            let value = self.first.at(self.cursor + 1);
            self.cursor = value.end();
            return Some(value);
        }
        let mut key = self.first;
        while key.idx < self.end {
            let value = key.at(key.idx + 1);
            if key.as_str() == Some(name) {
                return Some(value);
            }
            key = key.at(value.end());
        }
        None
    }

    /// The value of the field `name`, or a ``missing field `name` `` error.
    pub fn field(&mut self, name: &str) -> Result<Node<'t, 'a>, DeError> {
        self.get(name).ok_or_else(|| DeError(format!("missing field `{name}`")))
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
                let range = |n: &dyn fmt::Display| {
                    DeError(format!("{n} out of range for {}", stringify!($t)))
                };
                match v.token() {
                    Token::I64(n) => <$t>::try_from(n).map_err(|_| range(&n)),
                    Token::U64(n) => <$t>::try_from(n).map_err(|_| range(&n)),
                    _ => Err(DeError::expected("integer", v)),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Deserialize for bool {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        match v.token() {
            Token::Bool(b) => Ok(b),
            _ => Err(DeError::expected("bool", v)),
        }
    }
}

impl Deserialize for f64 {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        match v.token() {
            Token::F64(x) => Ok(x),
            Token::I64(n) => Ok(n as f64),
            Token::U64(n) => Ok(n as f64),
            _ => Err(DeError::expected("number", v)),
        }
    }
}

impl Deserialize for f32 {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        f64::deserialize(v).map(|x| x as f32)
    }
}

impl Deserialize for char {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        let mut chars = v.as_str().unwrap_or_default().chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::expected("single-character string", v)),
        }
    }
}

impl Deserialize for String {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        v.as_str().map(str::to_owned).ok_or_else(|| DeError::expected("string", v))
    }
}

impl Deserialize for () {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        match v.token() {
            Token::Null => Ok(()),
            _ => Err(DeError::expected("null", v)),
        }
    }
}

impl Deserialize for Duration {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        let (secs, nanos) = <(u64, u32)>::deserialize(v)?;
        // `Duration::new` panics when the nanosecond carry overflows the
        // seconds; decoding must stay total.
        let secs = secs
            .checked_add(u64::from(nanos / 1_000_000_000))
            .ok_or_else(|| DeError(format!("duration [{secs}, {nanos}] overflows")))?;
        Ok(Duration::new(secs, nanos % 1_000_000_000))
    }
}

// ---------------------------------------------------------------------------
// Smart pointers, Option and containers
// ---------------------------------------------------------------------------

macro_rules! impl_wrapper {
    ($($p:ident),*) => {$(
        impl<T: Deserialize> Deserialize for $p<T> {
            fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
                T::deserialize(v).map($p::new)
            }
        }
    )*};
}

impl_wrapper!(Box, Arc, Rc);

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        match v.token() {
            Token::Null => Ok(None),
            _ => T::deserialize(v).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        let items = v.elements()?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::deserialize(item)?);
        }
        Ok(out)
    }
}

/// Reads an array of `[key, value]` pairs, the form maps are written in.
/// Public so maps in other crates read the same way.
pub fn deserialize_pairs<K: Deserialize, V: Deserialize>(
    v: Node<'_, '_>,
) -> Result<Vec<(K, V)>, DeError> {
    let pairs = v.elements().map_err(|_| DeError::expected("array of [key, value] pairs", v))?;
    pairs
        .map(|pair| match pair.array_of::<2>() {
            Some([k, v]) => Ok((K::deserialize(k)?, V::deserialize(v)?)),
            None => Err(DeError::expected("[key, value] pair", pair)),
        })
        .collect()
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        deserialize_pairs(v).map(|pairs| pairs.into_iter().collect())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        deserialize_pairs(v).map(|pairs| pairs.into_iter().collect())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        v.elements()?.map(T::deserialize).collect()
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
        v.elements()?.map(T::deserialize).collect()
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($($len:literal => ($($name:ident : $item:ident),+))*) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(v: Node<'_, '_>) -> Result<Self, DeError> {
                let Some([$($item),+]) = v.array_of::<$len>() else {
                    let found = match v.token() {
                        Token::Array { len, .. } => len.to_string(),
                        _ => v.kind().to_string(),
                    };
                    return Err(DeError(format!(
                        "expected array of length {}, found {found}",
                        $len
                    )));
                };
                Ok(($($name::deserialize($item)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    1 => (A: a)
    2 => (A: a, B: b)
    3 => (A: a, B: b, C: c)
    4 => (A: a, B: b, C: c, D: d)
}
