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
//!   cancellation, configured by one [`EsdOptions`] value (re-exported from
//!   `esd_symex`, built with [`EsdOptions::builder`]).
//! * [`executor`] — the multi-job layer: a [`JobExecutor`] holds N
//!   independent jobs (each one session) and time-slices them
//!   round-robin, with per-job observer fan-out and aggregate
//!   [`ExecutorStats`].
//! * [`snapshot`] — versioned, checksummed snapshot files (a format
//!   version word and one [`frame`]) for durable sessions (see
//!   [`session::SessionSnapshot`] / [`executor::ExecutorSnapshot`]).
//! * [`frame`] — the length-prefixed, checksummed frame every durable file
//!   and the service wire protocol share.
//! * [`journal`] — the append-only framed log behind both the commit log
//!   of executor decisions and the log of finished jobs, and the
//!   `reduce(finished log ⊕ snapshot, journal)` crash recovery behind
//!   [`JobExecutor::recover`](executor::JobExecutor::recover).
//! * the KC baseline (Klee searchers + Chess preemption bounding) is no
//!   separate driver: it is the [`EsdOptions::kc`] preset, run through a
//!   [`SynthesisSession`] like every other job.
//! * [`stress`] — the brute-force stress/random-testing baseline (§7.2),
//!   which doubles as the way workload failures "happen in production" and
//!   produce coredumps.
//! * [`triage`] — automated bug triage / deduplication via synthesized
//!   executions (§8, usage models).

// Documentation enforcement (see ARCHITECTURE.md): every public item must
// carry rustdoc, extended from the esd-concurrency pilot now that the
// session redesign stabilized this crate's API.
#![deny(missing_docs)]

pub mod execfile;
pub mod executor;
pub mod frame;
pub mod journal;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod stress;
pub mod synth;
pub mod triage;

pub use esd_symex::{EsdOptions, EsdOptionsBuilder};
pub use execfile::{InputEntry, SynthesizedExecution};
pub use executor::{
    ExecutorSnapshot, ExecutorStats, JobExecutor, JobHandle, JobOutcome, JobPhase, JobSnapshot,
    JobSpec, JobStageSnapshot, JobStat, JobStatus, JobVerdict,
};
pub use journal::{JournalDamage, JournalRecord, JournalScan, RecoveryError};
pub use report::{extract_goal, BugKind, BugReport};
pub use session::{Observer, ProgressEvent, SessionSnapshot, SessionStatus, SynthesisSession};
pub use snapshot::{SnapshotError, SNAPSHOT_FORMAT_VERSION};
pub use stress::{stress_test, StressConfig, StressOutcome};
pub use synth::{Esd, SynthesisError, SynthesisReport};
pub use triage::{same_bug, TriageResult};
