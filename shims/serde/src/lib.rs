//! Offline stand-in for `serde`.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal replacement exposing the subset of the serde
//! surface the ESD crates use: the [`Serialize`] / [`Deserialize`] traits and
//! the same-named derive macros (re-exported from `serde_derive`).
//!
//! Unlike real serde there is no `Serializer`/`Deserializer` visitor
//! machinery, and no intermediate tree either. Serializing writes JSON text
//! straight into a [`Writer`]'s `String`, compact or pretty. Deserializing
//! reads a flat [`Tape`] of 16-byte [`Token`]s, parsed once per document
//! without recursion ([`Tape::parse`]), where keys and escape-free strings
//! are spans of the input text; a [`Node`] is one value on that tape. So
//! this crate holds the JSON format on both sides, and `serde_json` is the
//! entry points and the error type over it. The derived impls follow serde's
//! externally-tagged conventions (newtype structs are transparent, unit
//! variants are strings, data variants are single-key objects) so the
//! produced JSON looks like what real serde_json would emit. The one
//! deliberate difference: maps serialize as arrays of `[key, value]` pairs,
//! which lets non-string keys round-trip — something real serde_json
//! rejects at runtime.
//!
//! Unordered containers (`HashMap`, `HashSet`) and `BTreeMap` write their
//! entries in one canonical order, so the output does not depend on hash
//! iteration order; see [`Writer::unordered_map`].

pub use serde_derive::{Deserialize, Serialize};

mod de;
mod parse;
mod ser;

pub use de::{deserialize_pairs, DeError, Deserialize, Elements, Fields, Node, Tape, Token};
pub use parse::{ParseError, MAX_DEPTH};
pub use ser::{Serialize, Writer};
