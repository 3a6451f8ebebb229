//! Concurrency analyses and schedule representations for execution synthesis.
//!
//! * [`rag`] — mutex deadlock detection over a resource-allocation graph
//!   (§4.1: "ESD automatically detects mutex deadlocks by using a deadlock
//!   detector based on a resource allocation graph").
//! * [`lockset`] — an Eraser-style lockset data-race detector (§4.2: "ESD
//!   uses a dynamic data race detection algorithm similar to Eraser"). The
//!   detector is O(1) to clone so every forked execution state can carry its
//!   own copy.
//! * [`pmap`] — the persistent (copy-on-write) hash map underlying the
//!   per-state analyses: cloning shares structure via `Arc`, writes
//!   path-copy.
//! * [`schedule`] — the serialized thread schedule stored in the synthesized
//!   execution file and enforced during playback.

// Pilot crate for documentation enforcement (see ARCHITECTURE.md): every
// public item must carry rustdoc.
#![deny(missing_docs)]

pub mod lockset;
pub mod pmap;
pub mod rag;
pub mod schedule;

pub use lockset::{LocksetDetector, RaceReport};
pub use pmap::PMap;
pub use rag::WaitGraph;
pub use schedule::{Schedule, ScheduleSegment, SegmentStop};
