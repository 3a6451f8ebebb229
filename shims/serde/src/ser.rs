//! Serializing: [`Serialize`] impls write JSON text straight into a
//! [`Writer`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn serialize(&self, w: &mut Writer);
}

/// How a [`Writer`] lays out its text.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Style {
    /// No whitespace.
    Compact,
    /// One element per line, two spaces of indent per level.
    Pretty,
    /// Compact, with strings in Rust `{:?}` form and floats in `{}` form:
    /// the text unordered containers sort their entries by.
    SortKey,
}

/// A JSON text being written.
///
/// Scalars are written with [`null`](Self::null), [`bool`](Self::bool),
/// [`i64`](Self::i64), [`u64`](Self::u64), [`f64`](Self::f64) and
/// [`str`](Self::str). A container is written as `begin_*`, then one
/// [`element`](Self::element) or [`key`](Self::key) call before each of
/// its values, then `end_*`; the `first` and `empty` flags let the writer
/// place commas and (when pretty) line breaks without tracking them itself.
pub struct Writer {
    out: String,
    style: Style,
    level: usize,
}

impl Writer {
    fn with_style(style: Style) -> Writer {
        Writer { out: String::new(), style, level: 0 }
    }

    /// A writer of compact JSON.
    pub fn compact() -> Writer {
        Writer::with_style(Style::Compact)
    }

    /// A writer of pretty-printed JSON (two-space indent).
    pub fn pretty() -> Writer {
        Writer::with_style(Style::Pretty)
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes an unsigned integer, without an intermediate `String`.
    pub fn u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        for &d in &digits[start..] {
            self.out.push(char::from(d));
        }
    }

    /// Writes a float. Integral values below 1e15 keep a `.0` so they read
    /// back as floats; JSON has no NaN or infinity, so those are `null`.
    pub fn f64(&mut self, x: f64) {
        // Writing into a `String` cannot fail.
        let _ = match self.style {
            Style::SortKey => write!(self.out, "{x}"),
            _ if !x.is_finite() => {
                self.null();
                Ok(())
            }
            _ if x == x.trunc() && x.abs() < 1e15 => write!(self.out, "{x:.1}"),
            _ => write!(self.out, "{x}"),
        };
    }

    /// Writes a string, quoted and escaped; the runs between escapes are
    /// copied whole.
    pub fn str(&mut self, s: &str) {
        if self.style == Style::SortKey {
            let _ = write!(self.out, "{s:?}");
            return;
        }
        self.out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every byte matched above is ASCII, so `i` is a char boundary.
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.out.push_str("\\u00");
                self.out.push(char::from(HEX[usize::from(b >> 4)]));
                self.out.push(char::from(HEX[usize::from(b & 0xf)]));
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    fn begin(&mut self, bracket: char) {
        self.out.push(bracket);
        self.level += 1;
    }

    fn end(&mut self, bracket: char, empty: bool) {
        self.level -= 1;
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        if self.style == Style::Pretty {
            self.out.push('\n');
            for _ in 0..self.level {
                self.out.push_str("  ");
            }
        }
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.begin('[');
    }

    /// Closes an array; `empty` says whether any element was written.
    pub fn end_array(&mut self, empty: bool) {
        self.end(']', empty);
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.begin('{');
    }

    /// Closes an object; `empty` says whether any key was written.
    pub fn end_object(&mut self, empty: bool) {
        self.end('}', empty);
    }

    /// Starts an array element: the separator, unless it is the `first`.
    pub fn element(&mut self, first: bool) {
        if !first {
            self.out.push(',');
        }
        self.newline();
    }

    /// Starts an object entry with its key, a literal already quoted (the
    /// derive builds `"\"name\""` for field `name`); its value follows.
    pub fn key(&mut self, first: bool, quoted: &str) {
        self.element(first);
        self.out.push_str(quoted);
        self.out.push(':');
        if self.style == Style::Pretty {
            self.out.push(' ');
        }
    }

    /// Writes `items` as an array.
    pub fn seq<I>(&mut self, items: I)
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        self.begin_array();
        let mut empty = true;
        for item in items {
            self.element(empty);
            item.serialize(self);
            empty = false;
        }
        self.end_array(empty);
    }

    /// Writes `entries` as an array of `[key, value]` pairs in the
    /// canonical order of unordered containers, so the output does not
    /// depend on iteration order. That order sorts each pair by its compact
    /// text with strings in Rust `{:?}` form and floats in `{}` form
    /// (integral ones without `.0`). The text of the key followed by a comma
    /// orders the pairs the same way, since a rendered value is
    /// self-delimiting, so values are rendered only to break ties. Public
    /// so hash-ordered containers in other crates write the same way.
    pub fn unordered_map<'a, K, V, I>(&mut self, entries: I)
    where
        K: Serialize + 'a,
        V: Serialize + 'a,
        I: Iterator<Item = (&'a K, &'a V)>,
    {
        let mut keyed: Vec<(String, &K, &V)> = entries
            .map(|(k, v)| {
                let mut key = sort_key(k);
                key.push(',');
                (key, k, v)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| sort_key(a.2).cmp(&sort_key(b.2))));
        self.seq(keyed.iter().map(|(_, k, v)| (*k, *v)));
    }
}

/// The text an unordered container sorts an entry by: its compact JSON,
/// except that strings are written in Rust `{:?}` form and floats in `{}`
/// form (integral ones without `.0`).
fn sort_key<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::with_style(Style::SortKey);
    value.serialize(&mut w);
    w.out
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($method:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.$method(*self as $wide);
            }
        }
    )*};
}

impl_int!(i64 as i64: i8, i16, i32, i64, isize);
impl_int!(u64 as u64: u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(f64::from(*self));
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for () {
    fn serialize(&self, w: &mut Writer) {
        w.null();
    }
}

impl Serialize for Duration {
    fn serialize(&self, w: &mut Writer) {
        (self.as_secs(), self.subsec_nanos()).serialize(w);
    }
}

// ---------------------------------------------------------------------------
// Smart pointers, references, Option and containers
// ---------------------------------------------------------------------------

macro_rules! impl_deref {
    ($($p:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p<T> {
            fn serialize(&self, w: &mut Writer) {
                (**self).serialize(w);
            }
        }
    )*};
}

impl_deref!(Box, Arc, Rc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(x) => x.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        w.unordered_map(self.iter());
    }
}

/// Written in the canonical order of unordered containers, like `HashMap`,
/// not in key order.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.unordered_map(self.iter());
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self, w: &mut Writer) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_by_cached_key(|item| sort_key(*item));
        w.seq(items);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $(
                    w.element($idx == 0);
                    self.$idx.serialize(w);
                )+
                w.end_array(false);
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
