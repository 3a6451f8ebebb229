//! ESD — execution synthesis for automated software debugging, in Rust.
//!
//! This is the umbrella crate of the workspace: it re-exports the public API
//! of every component so that downstream users (and the examples under
//! `examples/`) can depend on a single crate. The crate graph, the synthesis
//! pipeline and the extension points are documented in `ARCHITECTURE.md` at
//! the repository root.
//!
//! * [`ir`] — the program representation and concrete interpreter.
//! * [`analysis`] — CFG, call graph, critical edges, intermediate goals,
//!   proximity distances (the static phase).
//! * [`symex`] — the multi-threaded symbolic-execution engine with pluggable
//!   search frontiers (the dynamic phase).
//! * [`concurrency`] — deadlock / data-race detection and schedules.
//! * [`core`] — the `esdsynth` facade, bug reports, execution files,
//!   sessions, the multi-job [`JobExecutor`], baselines and triage.
//! * [`service`] — the debugging-as-a-service front door: the [`Service`]
//!   trait, the in-process backend, and the framed wire protocol with its
//!   daemon and client.
//! * [`playback`] — the `esdplay` facade: deterministic replay, the debugger
//!   façade and patch verification.
//! * [`workloads`] — the evaluation workloads (real-bug analogs and BPF).
//!
//! # Example — from a bug report to a replayed failure
//!
//! The core flow of `examples/quickstart.rs`, on the paper's Listing-1
//! deadlock (two threads that deadlock only under specific inputs *and* an
//! adverse schedule):
//!
//! ```
//! use esd::{Esd, EsdOptions};
//! use esd::playback::play;
//! use esd::workloads::listing1;
//!
//! let workload = listing1();
//!
//! // Synthesize an execution that reaches the reported deadlock: concrete
//! // values for every program input plus a serialized thread schedule.
//! let esd = Esd::new(EsdOptions::builder().max_steps(400_000).build());
//! let report = esd
//!     .synthesize_goal(&workload.program, workload.goal())
//!     .expect("ESD synthesizes the Listing-1 deadlock");
//! assert!(!report.execution.inputs.is_empty());
//! assert!(report.execution.schedule.context_switches() >= 2);
//!
//! // Play it back deterministically: the same failure, every time.
//! let replay = play(&workload.program, &report.execution);
//! assert!(replay.reproduced);
//! ```
//!
//! # Example — a stepwise session with cancellation
//!
//! The same job as a resumable [`SynthesisSession`]: the caller advances the
//! search in slices, may observe progress between them, and can stop at any
//! point keeping the partial statistics. A [`JobExecutor`] time-slices many
//! such sessions, one per job.
//!
//! ```
//! use esd::{EsdOptions, SessionStatus, SynthesisSession};
//! use esd::workloads::listing1;
//!
//! let workload = listing1();
//! let options = EsdOptions::builder().max_steps(400_000).build();
//! let mut session = SynthesisSession::new(&workload.program, workload.goal(), options);
//!
//! // Advance the search 1000 rounds at a time.
//! while session.poll().is_running() {
//!     session.run_for(1000);
//! }
//! assert!(matches!(session.poll(), SessionStatus::Found(_)));
//! ```

pub use esd_analysis as analysis;
pub use esd_concurrency as concurrency;
pub use esd_core as core;
pub use esd_ir as ir;
pub use esd_playback as playback;
pub use esd_service as service;
pub use esd_symex as symex;
pub use esd_workloads as workloads;

/// The synthesis pipeline (re-exported from [`esd_core`]), home of
/// [`Esd`]; its one configuration, [`EsdOptions`], lives in [`symex`].
pub use esd_core::synth;

/// Stepwise synthesis sessions (re-exported from [`esd_core`]), home of
/// [`SynthesisSession`] and the progress [`Observer`].
pub use esd_core::session;

/// The multi-job executor service (re-exported from [`esd_core`]), home of
/// the round-robin [`JobExecutor`].
pub use esd_core::executor;

pub use esd_core::{
    BugKind, BugReport, Esd, EsdOptions, EsdOptionsBuilder, ExecutorSnapshot, ExecutorStats,
    JobExecutor, JobHandle, JobOutcome, JobPhase, JobSpec, JobStatus, JobVerdict, JournalDamage,
    Observer, ProgressEvent, RecoveryError, SessionSnapshot, SessionStatus, SnapshotError,
    SynthesisError, SynthesisSession, SynthesizedExecution,
};
pub use esd_playback::{play, Debugger};
pub use esd_service::{
    Daemon, InProcessService, JobTicket, ProgressUpdate, RemoteClient, Service, ServiceError,
    Subscription,
};
pub use esd_symex::{FrontierKind, GoalSpec, StepOutcome};

use std::fmt;

/// The one error surface of the front door: every layer's typed failure —
/// synthesis, durable snapshots, journal damage, the service itself —
/// wrapped in a single [`std::error::Error`] so clients match on one enum
/// instead of four.
///
/// Each component error converts in via `From`, so `?` lifts any of them
/// into `Result<_, EsdError>`:
///
/// ```
/// use esd::{EsdError, InProcessService, JobExecutor, JobSpec, Service};
/// use esd::workloads::listing1;
///
/// fn submit_one() -> Result<(), EsdError> {
///     let w = listing1();
///     let mut service = InProcessService::new(JobExecutor::round_robin());
///     let ticket = service.submit(JobSpec::new("job", &w.program, w.goal()))?;
///     let _status = service.poll(ticket)?;
///     Ok(())
/// }
/// submit_one().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EsdError {
    /// A synthesis attempt failed (see [`esd_core::SynthesisError`]).
    Synthesis(SynthesisError),
    /// A snapshot could not be written or read (see
    /// [`esd_core::SnapshotError`]).
    Snapshot(SnapshotError),
    /// A durable journal was torn or corrupted (see
    /// [`esd_core::JournalDamage`]).
    Journal(JournalDamage),
    /// Crash recovery could not replay the journal onto the snapshot (see
    /// [`esd_core::RecoveryError`]).
    Recovery(RecoveryError),
    /// A service call failed (see [`esd_service::ServiceError`]).
    Service(ServiceError),
}

impl fmt::Display for EsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EsdError::Synthesis(e) => write!(f, "synthesis: {e}"),
            EsdError::Snapshot(e) => write!(f, "snapshot: {e}"),
            EsdError::Journal(e) => write!(f, "journal: {e}"),
            EsdError::Recovery(e) => write!(f, "recovery: {e}"),
            EsdError::Service(e) => write!(f, "service: {e}"),
        }
    }
}

impl std::error::Error for EsdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EsdError::Synthesis(e) => Some(e),
            EsdError::Snapshot(e) => Some(e),
            EsdError::Journal(e) => Some(e),
            EsdError::Recovery(e) => Some(e),
            EsdError::Service(e) => Some(e),
        }
    }
}

impl From<SynthesisError> for EsdError {
    fn from(e: SynthesisError) -> Self {
        EsdError::Synthesis(e)
    }
}

impl From<SnapshotError> for EsdError {
    fn from(e: SnapshotError) -> Self {
        EsdError::Snapshot(e)
    }
}

impl From<JournalDamage> for EsdError {
    fn from(e: JournalDamage) -> Self {
        EsdError::Journal(e)
    }
}

impl From<RecoveryError> for EsdError {
    fn from(e: RecoveryError) -> Self {
        EsdError::Recovery(e)
    }
}

impl From<ServiceError> for EsdError {
    fn from(e: ServiceError) -> Self {
        EsdError::Service(e)
    }
}
