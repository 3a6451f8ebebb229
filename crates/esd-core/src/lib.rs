//! Execution synthesis (ESD) — the top-level crate.
//!
//! This crate ties the pieces together the way the paper's tool does:
//!
//! * [`report`] — the bug report: a coredump plus a bug-kind hint, and the
//!   goal-extraction step (§3.1) that turns it into a search goal `<B, C>`.
//! * [`execfile`] — the synthesized execution file (§5.1): concrete values
//!   for every program input plus the serialized thread schedule, stored as
//!   JSON so it can be attached to a bug report and handed to the playback
//!   environment (`esd-playback`).
//! * [`synth`] — the `esdsynth` equivalent: static phase, proximity-guided
//!   dynamic phase, constraint solving, execution-file emission.
//! * [`session`] — the resumable form of `esdsynth`: stepwise
//!   [`SynthesisSession`]s with progress [`Observer`]s, deadlines and
//!   cancellation, configured via the builder-style [`EsdOptionsBuilder`].
//! * [`portfolio`] — N sessions with different search frontiers time-sliced
//!   round-robin over the same job; first winner takes it.
//! * [`executor`] — the multi-job layer: a [`JobExecutor`] holds N
//!   independent jobs (each a session or a per-job portfolio) and
//!   time-slices them under a [`FairnessPolicy`], with per-job
//!   observer fan-out and aggregate [`ExecutorStats`].
//! * [`snapshot`] — versioned, checksummed snapshot envelopes for durable
//!   sessions (see [`session::SessionSnapshot`] /
//!   [`executor::ExecutorSnapshot`]).
//! * [`journal`] — the append-only commit log of executor decisions and the
//!   `reduce(snapshot, journal)` crash recovery behind
//!   [`JobExecutor::recover`](executor::JobExecutor::recover).
//! * [`kc`] — the KC baseline (Klee searchers + Chess preemption bounding).
//! * [`stress`] — the brute-force stress/random-testing baseline (§7.2),
//!   which doubles as the way workload failures "happen in production" and
//!   produce coredumps.
//! * [`triage`] — automated bug triage / deduplication via synthesized
//!   executions (§8, usage models).

// Documentation enforcement (see ARCHITECTURE.md): every public item must
// carry rustdoc, extended from the esd-concurrency pilot now that the
// session/portfolio redesign stabilized this crate's API.
#![deny(missing_docs)]

pub mod execfile;
pub mod executor;
pub mod journal;
pub mod kc;
pub mod portfolio;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod stress;
pub mod synth;
pub mod triage;

pub use execfile::{InputEntry, SynthesizedExecution};
pub use executor::{
    ExecutorSnapshot, ExecutorStats, FairnessPolicy, JobExecutor, JobHandle, JobOutcome, JobPhase,
    JobSnapshot, JobSpec, JobStat, JobStatus, JobVerdict,
};
pub use journal::{
    JournalDamage, JournalRecord, JournalScan, JournalWriter, Recovery, RecoveryError,
};
pub use kc::{kc_synthesize, KcStrategy};
pub use portfolio::{MemberOutcome, MemberReport, Portfolio, PortfolioResult, PortfolioWinner};
pub use report::{extract_goal, BugKind, BugReport};
pub use session::{
    EsdOptionsBuilder, Observer, ProgressEvent, SessionSnapshot, SessionStatus, SynthesisSession,
};
pub use snapshot::{SnapshotError, SNAPSHOT_FORMAT_VERSION};
pub use stress::{stress_test, StressConfig, StressOutcome};
pub use synth::{Esd, EsdOptions, SynthesisError, SynthesisReport};
pub use triage::{same_bug, TriageResult};
