//! Multi-threaded symbolic execution with goal-directed search — the dynamic
//! phase of execution synthesis.
//!
//! The crate provides:
//!
//! * symbolic [`expr`]essions and values,
//! * a lightweight, sound-but-incomplete constraint [`solver`],
//! * forked execution [`state`]s with copy-on-write memory, per-state thread
//!   lists, and per-state concurrency analysis (each interleaving carries its
//!   own O(1)-forkable lockset race detector),
//! * pluggable search [`frontier`]s — ESD's proximity-guided virtual queues
//!   plus the KC baseline's DFS and RandomPath searchers — selected by a
//!   [`FrontierKind`],
//! * the one search configuration, [`EsdOptions`] (its [`options`]
//!   module), of which the KC baseline is a preset ([`EsdOptions::kc`]),
//! * the search [`engine`] driving it all, with critical-edge path
//!   abandonment, intermediate goals, Chess-style preemption bounding (the
//!   KC baseline) and the deadlock / data-race schedule-synthesis
//!   heuristics. The engine is split into a search pool and a stepper
//!   (owning its own solver) that records the effects of one selected
//!   state's burst, merged back into the pool after the turn.

// Documentation enforcement (see ARCHITECTURE.md): every public item must
// carry rustdoc, extended from the esd-concurrency pilot now that the
// step_round/frontier redesign stabilized this crate's API.
#![deny(missing_docs)]

pub mod engine;
pub mod expr;
pub mod frontier;
pub mod options;
pub mod solver;
pub mod state;
mod stepper;
#[cfg(test)]
mod tests;

pub use engine::{Engine, EngineSnapshot, GoalSpec, SearchStats, StepOutcome, Synthesized};
pub use expr::{SymExpr, SymValue, SymVar, SymVarInfo};
pub use frontier::{
    DfsFrontier, FrontierKind, FrontierSnapshot, HotState, LivenessSnapshot, ProximityFrontier,
    RandomFrontier, SearchFrontier, StatePriority,
};
pub use options::{EsdOptions, EsdOptionsBuilder, KC_PREEMPTION_BOUND};
pub use solver::{Solver, SolverConfig, SolverResult};
pub use state::{ExecState, RaceDetector, SchedDistance, SymMemory, SymThread};
