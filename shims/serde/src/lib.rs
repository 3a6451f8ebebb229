//! Offline stand-in for `serde`.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal replacement exposing the subset of the serde
//! surface the ESD crates use: the [`Serialize`] / [`Deserialize`] traits and
//! the same-named derive macros (re-exported from `serde_derive`).
//!
//! Unlike real serde there is no `Serializer`/`Deserializer` visitor
//! machinery: serialization goes through a single self-describing tree,
//! [`Value`], which `serde_json` renders to and parses from JSON text. The
//! derived impls follow serde's externally-tagged conventions (newtype
//! structs are transparent, unit variants are strings, data variants are
//! single-key objects) so the produced JSON looks like what real serde_json
//! would emit. The one deliberate difference: maps serialize as arrays of
//! `[key, value]` pairs, which lets non-string keys round-trip — something
//! real serde_json rejects at runtime.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Self-describing serialization tree (the analog of `serde_json::Value`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered, duplicate keys never produced.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object entries, if `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A short name for the value's shape, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error for an unexpected value shape.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError(format!("expected {what}, found {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to the serialization tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the serialization tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    other => Err(DeError::expected("integer", other)),
                }
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                match u64::try_from(*self) {
                    Ok(n) if n <= i64::MAX as u64 => Value::I64(n as i64),
                    Ok(n) => Value::U64(n),
                    Err(_) => unreachable!("unsigned fits u64"),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    other => Err(DeError::expected("integer", other)),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("single-character string", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            other => Err(DeError::expected("null", other)),
        }
    }
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.as_secs().to_value(), self.subsec_nanos().to_value()])
    }
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (secs, nanos) = <(u64, u32)>::from_value(v)?;
        // `Duration::new` panics when the nanosecond carry overflows the
        // seconds; decoding must stay total.
        let secs = secs
            .checked_add(u64::from(nanos / 1_000_000_000))
            .ok_or_else(|| DeError(format!("duration [{secs}, {nanos}] overflows")))?;
        Ok(Duration::new(secs, nanos % 1_000_000_000))
    }
}

// ---------------------------------------------------------------------------
// Smart pointers and references
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Rc::new)
    }
}

// ---------------------------------------------------------------------------
// Option / containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Orders two serialized values so map output is deterministic regardless of
/// `HashMap` iteration order. The key renders the whole value, so callers
/// sort with `sort_by_cached_key`, which renders each value once instead of
/// once per comparison.
fn value_sort_key(v: &Value) -> String {
    crate::to_compact_string(v)
}

/// Sorts serialized values into the canonical order this crate uses for
/// unordered containers (by compact-rendered text). Public so manual
/// `Serialize` impls over hash-ordered containers in other crates can emit
/// the same deterministic output as the built-in map/set impls.
pub fn sort_values(items: &mut [Value]) {
    items.sort_by_cached_key(value_sort_key);
}

/// Renders a `Value` compactly; used only for deterministic map ordering.
fn to_compact_string(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(x) => x.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(to_compact_string).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Object(entries) => {
            let inner: Vec<String> =
                entries.iter().map(|(k, v)| format!("{k:?}:{}", to_compact_string(v))).collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn serialize_map<'a, K, V, I>(entries: I) -> Value
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    let mut pairs: Vec<Value> =
        entries.map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()])).collect();
    pairs.sort_by_cached_key(value_sort_key);
    Value::Array(pairs)
}

fn deserialize_pairs<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, DeError> {
    let items = v.as_array().ok_or_else(|| DeError::expected("array of [key, value] pairs", v))?;
    items
        .iter()
        .map(|pair| match pair.as_array() {
            Some([k, v]) => Ok((K::from_value(k)?, V::from_value(v)?)),
            _ => Err(DeError::expected("[key, value] pair", pair)),
        })
        .collect()
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        serialize_map(self.iter())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        deserialize_pairs(v).map(|pairs| pairs.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        serialize_map(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        deserialize_pairs(v).map(|pairs| pairs.into_iter().collect())
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn to_value(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(Serialize::to_value).collect();
        items.sort_by_cached_key(value_sort_key);
        Value::Array(items)
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_value(v).map(|items| items.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_value(v).map(|items| items.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = [$($idx),+].len();
                match v.as_array() {
                    Some(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError(format!(
                        "expected array of length {LEN}, found {}",
                        other.map(|a| a.len().to_string()).unwrap_or_else(|| v.kind().into())
                    ))),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
