//! Offline stand-in for `serde_json`.
//!
//! Exposes the exact call surface the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and [`Error`]. Writing is the
//! vendored [`serde::Writer`]'s job. Reading parses the text once, without
//! recursion, into a flat [`serde::Tape`] of tokens (one `Vec` per
//! document, strings without escapes left as spans of the text) and hands
//! its root [`serde::Node`] to the type's `Deserialize` impl.
//!
//! Parsing is total: malformed text of any kind is an [`Error`], never a
//! panic, and arrays and objects nested more than [`MAX_DEPTH`] deep are
//! refused with [`Category::Depth`] before the tape grows past them, so a
//! hostile document can neither exhaust the stack of the recursive
//! `Deserialize` impls nor abort the process.

use serde::{DeError, Deserialize, ParseError, Serialize, Tape, Writer};
use std::fmt;

pub use serde::MAX_DEPTH;

/// What kind of failure an [`Error`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// The text is not well-formed JSON.
    Syntax,
    /// The text nests arrays and objects deeper than [`MAX_DEPTH`].
    Depth,
    /// The JSON is well-formed but does not have the shape of the type.
    Data,
}

/// Error produced by serialization or deserialization.
#[derive(Clone, PartialEq, Eq)]
pub struct Error {
    category: Category,
    message: String,
}

impl Error {
    /// What kind of failure this is.
    pub fn classify(&self) -> Category {
        self.category
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// `Error("<message>")`, the form wire errors quote.
impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Error").field(&self.message).finish()
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        let category = match e {
            ParseError::Syntax(_) => Category::Syntax,
            ParseError::TooDeep(_) => Category::Depth,
        };
        Error { category, message: e.to_string() }
    }
}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error { category: Category::Data, message: e.0 }
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::compact();
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::pretty();
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let tape = Tape::parse(s)?;
    Ok(T::deserialize(tape.root())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_keep_their_category() {
        let err = from_str::<Vec<u8>>("[1,]").unwrap_err();
        assert_eq!(err.classify(), Category::Syntax);
        assert_eq!(err.to_string(), "expected a JSON value at byte 3");
        let err = from_str::<Vec<u8>>(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.classify(), Category::Depth);
    }

    #[test]
    fn shape_mismatches_are_data_errors() {
        let err = from_str::<Vec<u8>>("[1, 300]").unwrap_err();
        assert_eq!(err.classify(), Category::Data);
        assert_eq!(err.to_string(), "300 out of range for u8");
        assert_eq!(format!("{err:?}"), "Error(\"300 out of range for u8\")");
    }
}

#[cfg(test)]
mod order_pins {
    //! Unordered containers (and `BTreeMap`, whose entries sort the same
    //! way) are written in one canonical order: by the entry's compact
    //! text, with strings rendered as Rust `{:?}` and integral floats
    //! without `.0`. These pins were taken from the `Value`-tree codec.
    use super::*;
    use std::collections::{BTreeMap, HashMap, HashSet};
    use std::hash::{Hash, Hasher};

    #[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq)]
    struct F(f64);
    impl Eq for F {}
    impl Hash for F {
        fn hash<H: Hasher>(&self, h: &mut H) {
            self.0.to_bits().hash(h)
        }
    }

    fn owned(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unordered_containers_keep_their_canonical_order() {
        let strings: HashSet<String> =
            owned(&["b", "a\"", "é", "a\n", "A", "\u{1}", "\u{7f}", "a", "", "\\", "ab", "a b"])
                .into_iter()
                .collect();
        assert_eq!(
            to_string(&strings).unwrap(),
            "[\"\",\"A\",\"\\\\\",\"\\u0001\",\"\u{7f}\",\"a b\",\"a\",\"a\\\"\",\"a\\n\",\"ab\",\"b\",\"é\"]"
        );
        let floats: HashSet<F> =
            [1.0, 0.5, 10.0, 2.0, -1.0, 1.25, 1e20, -0.0, 0.0, 1.0000000000000002]
                .into_iter()
                .map(F)
                .collect();
        assert_eq!(
            to_string(&floats).unwrap(),
            "[-0.0,-1.0,0.0,0.5,1.0,1.0000000000000002,1.25,10.0,100000000000000000000,2.0]"
        );
        let pairs: HashSet<(F, u64)> = [(1.0, 5), (1.05, 0), (1.0, 0), (10.0, 1)]
            .into_iter()
            .map(|(a, b)| (F(a), b))
            .collect();
        assert_eq!(to_string(&pairs).unwrap(), "[[1.0,0],[1.0,5],[1.05,0],[10.0,1]]");
        let map: HashMap<i64, String> = [(-1, "x"), (10, "y"), (2, "z"), (1, "w"), (-10, "v")]
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect();
        assert_eq!(
            to_string(&map).unwrap(),
            "[[-1,\"x\"],[-10,\"v\"],[1,\"w\"],[10,\"y\"],[2,\"z\"]]"
        );
        let btree: BTreeMap<u64, u8> = [(2, 0), (10, 1), (1, 2), (100, 3)].into_iter().collect();
        assert_eq!(to_string(&btree).unwrap(), "[[1,2],[10,1],[100,3],[2,0]]");
        let options: HashSet<Option<String>> =
            [None, Some("x".to_string()), Some(String::new())].into_iter().collect();
        assert_eq!(to_string(&options).unwrap(), "[\"\",\"x\",null]");
        let tuples: HashMap<(u32, u32), ()> =
            [((1, 0), ()), ((11, 0), ()), ((1, 10), ()), ((2, 3), ())].into_iter().collect();
        assert_eq!(
            to_string(&tuples).unwrap(),
            "[[[1,0],null],[[1,10],null],[[11,0],null],[[2,3],null]]"
        );
        let keyed: HashMap<String, u8> =
            [("a\u{7f}", 1), ("a", 2), ("a~", 3), ("a\u{e9}", 4), ("a\t", 5)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        assert_eq!(
            to_string_pretty(&keyed).unwrap(),
            "[\n  [\n    \"a\",\n    2\n  ],\n  [\n    \"a\\t\",\n    5\n  ],\n  [\n    \"a\u{7f}\",\n    1\n  ],\n  [\n    \"a~\",\n    3\n  ],\n  [\n    \"aé\",\n    4\n  ]\n]"
        );
        let back: HashMap<String, u8> = from_str(&to_string(&keyed).unwrap()).unwrap();
        assert_eq!(back, keyed);
    }
}
