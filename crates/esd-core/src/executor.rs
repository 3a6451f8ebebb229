//! The multi-job executor: many synthesis jobs, one machine.
//!
//! The paper's end state is a debugging *service*: developers submit bug
//! reports and ESD synthesizes a failing execution for each one. A
//! [`SynthesisSession`] is one resumable job. The [`JobExecutor`] is the
//! layer above it: it holds N independent jobs at once — each exactly one
//! session — and time-slices them round-robin: every running job gets an
//! equal slice of [`JobExecutor::slice_rounds`] search rounds (each round
//! up to 32 micro-steps per selected state, one under the KC preset), in
//! submit order, cycling over the running jobs. That is the executor's one
//! scheduling rule. The only deadline a job has is
//! [`EsdOptions::deadline`], which stops its search.
//!
//! The caller drives the executor explicitly — [`JobExecutor::submit`],
//! [`JobExecutor::run_slice`] / [`JobExecutor::run_until_idle`],
//! [`JobExecutor::status`], [`JobExecutor::cancel`],
//! [`JobExecutor::take`] — and can watch any job, recovered ones included,
//! through an [`Observer`] attached with [`JobExecutor::observe`], plus
//! aggregate [`ExecutorStats`].
//!
//! **One stage per job.** A job is queued with its spec, running with its
//! session, or finished with its verdict, and its slot stores exactly that
//! stage's data. Everything else is derived from the stages: a running
//! job's wall clock is its session's, and the executor-wide slice, round
//! and cancellation counters of [`ExecutorStats`] are sums over the jobs.
//!
//! **Determinism contract.** Jobs are independent engines: slicing happens
//! only at [`Engine::step_round`](esd_symex::Engine::step_round) boundaries
//! and the executor shares nothing between jobs, so a job's synthesized
//! execution file is byte-identical whether the job ran solo or interleaved
//! with any number of other jobs, at any pool size (pinned by the
//! `tests/executor.rs` integration suite and the CI determinism matrix).
//!
//! **Admission control.** [`JobExecutor::max_running`] bounds how many jobs
//! hold live sessions at once; excess submissions wait in a FIFO queue and
//! are admitted (paying their static phase then) as running jobs finish.

use crate::journal::{FramedLog, JournalRecord, RecoveryError};
use crate::session::{Observer, ProgressEvent, SessionSnapshot, SessionStatus, SynthesisSession};
use crate::snapshot::{load_snapshot, save_snapshot, SnapshotError};
use esd_analysis::StaticAnalysis;
use esd_ir::Program;
use esd_symex::{EsdOptions, GoalSpec, SearchStats};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many search rounds one dispatched slice advances by default
/// (overridable via [`JobExecutor::slice_rounds`]). A round advances each
/// selected state a burst of up to 32 micro-steps, so a default slice runs
/// up to 32k micro-steps per selected state; a job with the KC preset
/// steps once per round.
pub const DEFAULT_SLICE_ROUNDS: u64 = 1024;

/// How many dispatched slices a durable executor runs between checkpoints
/// by default (overridable via [`JobExecutor::checkpoint_every`]).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 32;

/// An opaque ticket identifying a submitted job.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct JobHandle(u64);

impl JobHandle {
    /// The handle's numeric id (handles are assigned densely in submit
    /// order, so ids double as FIFO positions).
    pub fn id(&self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from its numeric id — for layers (like the
    /// service front door) that carry ids across a process boundary. The
    /// id is only meaningful against the executor that assigned it.
    pub fn from_id(id: u64) -> Self {
        JobHandle(id)
    }
}

/// One job: a label, a program, a goal, and the [`EsdOptions`] its one
/// synthesis session runs with.
///
/// The one job description at every layer: what [`JobExecutor::submit`]
/// takes, what a queued job holds, what snapshots and the journal's
/// `Submit` record store, and what the service front door submits over the
/// wire. The program is shared, so cloning a spec is cheap.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Human-readable label, echoed in stats, statuses and outcomes.
    pub label: String,
    /// The program under debug.
    pub program: Arc<Program>,
    /// The goal to synthesize an execution for.
    pub goal: GoalSpec,
    /// The options the job's session runs with, including the one deadline
    /// a job has, [`EsdOptions::deadline`].
    pub options: EsdOptions,
}

impl JobSpec {
    /// A job for one bug: `label` names it in stats and logs. Without
    /// further configuration the job runs with default [`EsdOptions`].
    pub fn new(label: impl Into<String>, program: &Program, goal: GoalSpec) -> Self {
        JobSpec {
            label: label.into(),
            program: Arc::new(program.clone()),
            goal,
            options: EsdOptions::default(),
        }
    }

    /// Sets the options the job's session runs with.
    pub fn options(mut self, options: EsdOptions) -> Self {
        self.options = options;
        self
    }
}

/// Where a job currently is in its lifecycle: the bare tag of its stage,
/// carried by [`JobStat`]. The public query surface is the richer
/// [`JobStatus`] returned by [`JobExecutor::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted, waiting for admission (no session exists yet).
    Queued,
    /// Admitted: the job holds a live session and receives slices.
    Running,
    /// Terminal: an outcome is available via [`JobExecutor::take`].
    Finished,
}

/// The one job-status surface: where a job is and, once terminal, how it
/// ended. Returned by [`JobExecutor::status`], by the `Service` front door,
/// and sent verbatim over the wire protocol — the same enum at every layer.
/// The full [`JobOutcome`] (with the synthesized execution) is *extracted*
/// with [`JobExecutor::take`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobStatus {
    /// Submitted, waiting for admission.
    Queued,
    /// Admitted and receiving slices; carries the job's progress.
    Running {
        /// Executor slices dispatched to the job so far.
        slices: u64,
        /// The session's [`ProgressEvent`].
        progress: ProgressEvent,
    },
    /// Terminal: the job reached a verdict or was cancelled; the outcome
    /// is (or was) available via [`JobExecutor::take`].
    Finished {
        /// How the job ended.
        verdict: JobVerdict,
    },
}

impl JobStatus {
    /// True once the job can no longer advance (finished or cancelled).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Finished { .. })
    }

    /// The terminal verdict, if any.
    pub fn verdict(&self) -> Option<JobVerdict> {
        match self {
            JobStatus::Queued | JobStatus::Running { .. } => None,
            JobStatus::Finished { verdict } => Some(*verdict),
        }
    }

    /// The running progress, if the job is currently running.
    pub fn progress(&self) -> Option<&ProgressEvent> {
        match self {
            JobStatus::Running { progress, .. } => Some(progress),
            _ => None,
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobVerdict {
    /// The session synthesized the execution.
    Found,
    /// The session went terminal without reaching the goal (exhausted,
    /// budget, or deadline-expired).
    Unsatisfied,
    /// [`JobExecutor::cancel`] stopped the job.
    Cancelled,
}

impl JobVerdict {
    /// The verdict of a job whose session ended in `status`: `Found` and
    /// `Cancelled` map to themselves, every other terminal status to
    /// `Unsatisfied`.
    pub fn of(status: &SessionStatus) -> JobVerdict {
        match status {
            SessionStatus::Found(_) => JobVerdict::Found,
            SessionStatus::Cancelled(_) => JobVerdict::Cancelled,
            _ => JobVerdict::Unsatisfied,
        }
    }
}

/// The terminal result of one job.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobOutcome {
    /// The handle the job was submitted under.
    pub handle: JobHandle,
    /// The job's label.
    pub label: String,
    /// The session's terminal status: the synthesized execution when
    /// found, otherwise the (possibly partial) search statistics. A job
    /// cancelled while still queued reports `Cancelled` with default
    /// statistics.
    pub status: SessionStatus,
    /// Executor slices dispatched to this job.
    pub slices: u64,
    /// Search rounds the job actually advanced.
    pub rounds: u64,
    /// Wall-clock time from admission (start of the job's static phase) to
    /// the terminal state. Zero for jobs cancelled while still queued.
    pub wall: Duration,
}

impl JobOutcome {
    /// How the job ended, read off its [`status`](JobOutcome::status).
    pub fn verdict(&self) -> JobVerdict {
        JobVerdict::of(&self.status)
    }

    /// The synthesis report, if the job was satisfied.
    pub fn report(&self) -> Option<&crate::synth::SynthesisReport> {
        self.status.found()
    }
}

/// A point-in-time summary of one job, part of [`ExecutorStats`].
#[derive(Debug, Clone)]
pub struct JobStat {
    /// The job's handle.
    pub handle: JobHandle,
    /// The job's label.
    pub label: String,
    /// Where the job is in its lifecycle.
    pub phase: JobPhase,
    /// Executor slices dispatched to the job so far.
    pub slices: u64,
    /// Search rounds advanced so far.
    pub rounds: u64,
    /// Wall-clock time the job has been live (admission → now, or
    /// admission → finish once terminal; zero while queued).
    pub wall: Duration,
}

/// Aggregate statistics of a [`JobExecutor`].
#[derive(Debug, Clone)]
pub struct ExecutorStats {
    /// Jobs submitted over the executor's lifetime.
    pub submitted: u64,
    /// Jobs currently waiting for admission.
    pub queued: usize,
    /// Jobs currently holding a live session.
    pub running: usize,
    /// Jobs that reached a terminal state (including cancellations).
    pub finished: u64,
    /// Terminal jobs that were cancelled.
    pub cancelled: u64,
    /// Slices dispatched over the executor's lifetime: the sum of every
    /// job's slices.
    pub slices_dispatched: u64,
    /// Search rounds actually advanced over the executor's lifetime: the sum
    /// of every job's rounds.
    pub rounds_dispatched: u64,
    /// Per-job detail (every job ever submitted, in submit order),
    /// including the wall time of each running or finished job.
    pub jobs: Vec<JobStat>,
}

/// Where a job is, holding exactly the data of that stage.
enum Stage {
    /// Submitted, waiting for admission; no session exists yet.
    Queued(JobSpec),
    /// Admitted: the job's live session, whose clock started at admission.
    /// Boxed because slots are never removed: an inline session would make
    /// each slot, queued and finished ones included, about a kilobyte
    /// larger.
    Running(Box<SynthesisSession>),
    /// Terminal: the totals frozen at finalize, so [`JobExecutor::stats`]
    /// and [`JobExecutor::status`] stay exact after the outcome's `status`
    /// has been [`take`](JobExecutor::take)n.
    Finished { verdict: JobVerdict, rounds: u64, wall: Duration, status: Option<SessionStatus> },
}

impl Stage {
    /// A placeholder [`JobExecutor::finalize`] leaves in a slot while it
    /// moves the job's old stage out to build the terminal one.
    const ENDING: Stage = Stage::Finished {
        verdict: JobVerdict::Cancelled,
        rounds: 0,
        wall: Duration::ZERO,
        status: None,
    };

    fn phase(&self) -> JobPhase {
        match self {
            Stage::Queued(_) => JobPhase::Queued,
            Stage::Running(_) => JobPhase::Running,
            Stage::Finished { .. } => JobPhase::Finished,
        }
    }
}

/// Internal per-job bookkeeping.
struct JobSlot {
    label: String,
    observer: Option<Box<dyn Observer>>,
    slices: u64,
    stage: Stage,
}

impl JobSlot {
    fn rounds(&self) -> u64 {
        match &self.stage {
            Stage::Queued(_) => 0,
            Stage::Running(session) => session.rounds(),
            Stage::Finished { rounds, .. } => *rounds,
        }
    }

    fn wall(&self) -> Duration {
        match &self.stage {
            Stage::Queued(_) => Duration::ZERO,
            Stage::Running(session) => session.elapsed(),
            Stage::Finished { wall, .. } => *wall,
        }
    }

    /// The job's durable form under handle id `handle`: what a snapshot
    /// holds of it, and what `finished.log` holds once its outcome is taken.
    fn snapshot(&self, handle: usize) -> JobSnapshot {
        let stage = match &self.stage {
            Stage::Queued(spec) => JobStageSnapshot::Queued(spec.clone()),
            Stage::Running(session) => JobStageSnapshot::Running(Box::new(session.snapshot())),
            Stage::Finished { verdict, rounds, wall, status } => JobStageSnapshot::Finished {
                verdict: *verdict,
                rounds: *rounds,
                wall: *wall,
                status: status.clone(),
            },
        };
        JobSnapshot { handle: handle as u64, label: self.label.clone(), slices: self.slices, stage }
    }
}

/// The durable state of one job: part of an [`ExecutorSnapshot`], or, once
/// its outcome is taken, one record of the durable directory's
/// `finished.log`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobSnapshot {
    /// The job's handle id.
    pub handle: u64,
    /// The job's label.
    pub label: String,
    /// Executor slices dispatched to the job.
    pub slices: u64,
    /// Where the job is, with exactly that stage's data.
    pub stage: JobStageSnapshot,
}

/// The durable form of a job's stage, part of a [`JobSnapshot`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum JobStageSnapshot {
    /// Queued: the job as submitted.
    Queued(JobSpec),
    /// Running: the complete session snapshot. It embeds the program and
    /// the engine state (options included), and its `elapsed` carries the
    /// job's wall clock across the crash.
    Running(Box<SessionSnapshot>),
    /// Finished: the totals frozen at finalize.
    Finished {
        /// How the job ended.
        verdict: JobVerdict,
        /// Search rounds the job advanced.
        rounds: u64,
        /// Wall-clock time from admission to the terminal state.
        wall: Duration,
        /// The session's terminal status, until the outcome is taken.
        status: Option<SessionStatus>,
    },
}

/// The durable state of a [`JobExecutor`] beside its finished log, written
/// at every checkpoint and consumed by [`JobExecutor::recover`].
///
/// It holds the scheduler fields and every job the finished log does not:
/// the queued and running jobs, the finished ones whose outcome is still to
/// be taken, and (outside a checkpoint) the ones taken since the last
/// checkpoint. A checkpoint first appends every taken job to the log, so
/// the snapshot it writes holds live jobs only, and its size does not grow
/// with the executor's history (see [`crate::journal`]).
///
/// Observers are deliberately absent: they are live callbacks, not state.
/// A recovered executor runs without them until
/// [`JobExecutor::observe`] attaches new ones. The lifetime slice, round
/// and cancellation counters are absent too: they are sums over the jobs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExecutorSnapshot {
    /// The rotation cursor: the handle most recently served.
    pub rotation: Option<u64>,
    /// The slice length in rounds ([`JobExecutor::slice_rounds`]).
    pub base_slice: u64,
    /// The admission cap.
    pub max_running: usize,
    /// The checkpoint cadence in dispatched slices.
    pub checkpoint_every: u64,
    /// The executor's pool size ([`JobExecutor::pool_size`]), resolved to a
    /// number: how many distinct jobs one batch grants slices to. Semantic
    /// scheduling state, so replay plans the identical batches on any
    /// machine.
    pub pool_size: usize,
    /// The journal epoch this snapshot pairs with: recovery replays
    /// `journal-<epoch>.log` and ignores journals of other epochs.
    pub epoch: u64,
    /// The byte length of `finished.log` this snapshot pairs with: recovery
    /// reads exactly that prefix and truncates whatever follows it.
    pub finished_len: u64,
    /// Every job not in that prefix of the finished log, in handle order.
    pub jobs: Vec<JobSnapshot>,
}

/// The live half of a durable executor: where the snapshot and journal go,
/// the open journal and finished log, and the checkpoint countdown.
struct Durability {
    dir: PathBuf,
    journal: FramedLog,
    finished: FramedLog,
    epoch: u64,
    slices_since_checkpoint: u64,
}

/// The snapshot file name inside a durable directory.
const SNAPSHOT_FILE: &str = "snapshot.frame";

/// The finished-job log's file name inside a durable directory.
const FINISHED_FILE: &str = "finished.log";

/// The journal file name for a given epoch.
fn journal_file(epoch: u64) -> String {
    format!("journal-{epoch}.log")
}

/// Holds N independent synthesis jobs and time-slices them round-robin —
/// the multi-job debugging service of the module docs.
pub struct JobExecutor {
    /// The rotation cursor: the handle most recently served.
    rotation: Option<JobHandle>,
    base_slice: u64,
    max_running: usize,
    checkpoint_every: u64,
    /// How many distinct jobs one batch grants slices to, each slice on its
    /// own thread. It shapes the scheduling stream (grants are planned
    /// against the running set frozen at batch start), so it is part of
    /// snapshots and replay — but never what any job synthesizes.
    pool_size: usize,
    /// Every job ever submitted, indexed by handle id.
    slots: Vec<JobSlot>,
    /// The queued and running jobs, in handle order: what admission,
    /// planning and dispatch look at, so a slice's bookkeeping does not
    /// grow with the jobs that finished before it.
    unfinished: BTreeSet<usize>,
    /// Every job not yet in the finished log, in handle order: what a
    /// snapshot holds. A checkpoint moves the taken ones to the log.
    unlogged: BTreeSet<usize>,
    durable: Option<Durability>,
}

impl JobExecutor {
    /// A round-robin executor with default slice length, no admission cap,
    /// a pool of one and no durability.
    pub fn round_robin() -> Self {
        JobExecutor {
            rotation: None,
            base_slice: DEFAULT_SLICE_ROUNDS,
            max_running: usize::MAX,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            pool_size: 1,
            slots: Vec::new(),
            unfinished: BTreeSet::new(),
            unlogged: BTreeSet::new(),
            durable: None,
        }
    }

    /// Sets the slice length in search rounds (clamped to ≥ 1).
    pub fn slice_rounds(mut self, rounds: u64) -> Self {
        self.base_slice = rounds.max(1);
        self
    }

    /// Admission control: at most `n` jobs hold live sessions at once;
    /// excess submissions wait in FIFO order (clamped to ≥ 1).
    pub fn max_running(mut self, n: usize) -> Self {
        self.max_running = n.max(1);
        self
    }

    /// The executor's one parallelism knob: each batch grants one slice to
    /// each of up to `n` *distinct* runnable jobs and runs them on `n`
    /// threads (default 1 — one grant per batch, run inline; `0` resolves
    /// to the machine's available parallelism). The batch is planned upfront
    /// against the running set frozen at batch start — the next `n` running
    /// jobs in rotation order — and merged in grant order, so the pool size
    /// shapes the scheduling stream — it is
    /// journaled and snapshotted so recovery replans the identical batches —
    /// but a job's synthesized execution file is byte-identical at any pool
    /// size (pinned by `tests/executor.rs` and the CI `ESD_POOL` matrix).
    /// This pool is the codebase's one parallelism layer: a job's search
    /// itself runs on one thread.
    pub fn pool_size(mut self, n: usize) -> Self {
        self.pool_size = if n == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            n
        };
        self
    }

    /// Checkpoint cadence for durable executors: a [`checkpoint`](Self::checkpoint)
    /// (the jobs taken since the last one appended to the finished log, a
    /// fresh [`ExecutorSnapshot`] of the live jobs, a new journal) runs
    /// every `n` dispatched slices (clamped to ≥ 1; default
    /// [`DEFAULT_CHECKPOINT_EVERY`]). A smaller `n` bounds replay work after
    /// a crash at the price of more snapshot I/O — the trade-off perfbench's
    /// `service-stream` workload reports as `durability.tax_frac` and
    /// `durability.recover_ms`.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Makes the executor durable: every state-changing decision is
    /// journaled to `dir` (write-ahead, length+checksum framed) and a
    /// checkpoint is written every [`checkpoint_every`](Self::checkpoint_every)
    /// slices, so [`JobExecutor::recover`] can rebuild the executor after a
    /// crash. The directory is created if absent; an initial checkpoint is
    /// written immediately so the executor is recoverable from the moment
    /// this returns.
    pub fn durable_dir(mut self, dir: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        std::fs::create_dir_all(&dir).map_err(io)?;
        let journal = FramedLog::create(&dir.join(journal_file(0))).map_err(io)?;
        let finished = FramedLog::create(&dir.join(FINISHED_FILE)).map_err(io)?;
        self.durable =
            Some(Durability { dir, journal, finished, epoch: 0, slices_since_checkpoint: 0 });
        self.checkpoint()?;
        Ok(self)
    }

    /// Recovers a crashed durable executor from `dir`: loads the latest
    /// checkpoint and the prefix of the finished log it pairs with, replays
    /// the journal's valid prefix (tolerating a torn or corrupt final
    /// record), and re-attaches the durable directory so the recovered
    /// executor keeps journaling where the crashed one stopped. Each log is
    /// truncated in place to the prefix recovery read. See
    /// [`crate::journal`] for the `reduce(finished log ⊕ snapshot,
    /// journal)` invariant this relies on.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self, RecoveryError> {
        let dir = dir.as_ref();
        let snapshot: ExecutorSnapshot = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let (finished, logged) =
            FramedLog::open(&dir.join(FINISHED_FILE), Some(snapshot.finished_len))?;
        let (journal, records) = FramedLog::open(&dir.join(journal_file(snapshot.epoch)), None)?;
        let mut exec = restore(&snapshot, &logged)?;
        replay_records(&mut exec, &records)?;
        exec.durable = Some(Durability {
            dir: dir.to_path_buf(),
            journal,
            finished,
            epoch: snapshot.epoch,
            slices_since_checkpoint: 0,
        });
        Ok(exec)
    }

    /// Submits a job; it becomes runnable at the next
    /// [`run_slice`](JobExecutor::run_slice) (admission permitting). The
    /// static phase is deferred to admission, so queued jobs cost nothing.
    pub fn submit(&mut self, spec: JobSpec) -> JobHandle {
        let handle = JobHandle(self.slots.len() as u64);
        if self.durable.is_some() {
            self.journal_append(&JournalRecord::Submit { handle: handle.0, spec: spec.clone() });
        }
        self.unfinished.insert(self.slots.len());
        self.unlogged.insert(self.slots.len());
        self.slots.push(JobSlot {
            label: spec.label.clone(),
            observer: None,
            slices: 0,
            stage: Stage::Queued(spec),
        });
        handle
    }

    /// Attaches an [`Observer`] to a job, replacing any earlier one. It
    /// receives an [`Observer::on_progress`] snapshot of the session after
    /// every dispatched slice that leaves the job running (matching the
    /// session observer's running-only progress cadence — a job that goes
    /// terminal on its very first slice emits no progress events), and
    /// exactly one [`Observer::on_finish`] with the job's terminal
    /// [`SessionStatus`]. It works on any job, recovered ones included;
    /// attached to a finished job, it receives nothing.
    ///
    /// # Panics
    /// On a handle from a different executor.
    pub fn observe(&mut self, handle: JobHandle, observer: Box<dyn Observer>) {
        self.slots[handle.0 as usize].observer = Some(observer);
    }

    /// Submits a whole corpus at once, returning one handle per spec in
    /// submission order. Equivalent to calling
    /// [`submit`](JobExecutor::submit) in a loop; the convenience exists so
    /// corpus producers (the generated-workload harnesses) hand an entire
    /// batch to the executor in one statement.
    pub fn submit_batch(&mut self, specs: Vec<JobSpec>) -> Vec<JobHandle> {
        specs.into_iter().map(|spec| self.submit(spec)).collect()
    }

    /// Submits a corpus, runs the executor to idle, and returns every
    /// outcome in submission order. The executor stays usable afterwards
    /// (statistics accumulate across batches).
    ///
    /// # Panics
    /// If any outcome was already taken — impossible for jobs submitted by
    /// this call, since it takes each exactly once.
    pub fn run_batch(&mut self, specs: Vec<JobSpec>) -> Vec<JobOutcome> {
        let handles = self.submit_batch(specs);
        self.run_until_idle();
        handles
            .into_iter()
            .map(|h| self.take(h).expect("run_until_idle finished every submitted job"))
            .collect()
    }

    /// The job's current [`JobStatus`] — the one status query, shared
    /// verbatim by the executor, the `Service` front door and the wire
    /// protocol. Running jobs carry their slice count and their session's
    /// [`ProgressEvent`]; terminal jobs report their verdict even after the
    /// outcome has been [`take`](JobExecutor::take)n.
    ///
    /// # Panics
    /// On a handle from a different executor.
    pub fn status(&self, handle: JobHandle) -> JobStatus {
        let slot = &self.slots[handle.0 as usize];
        match &slot.stage {
            Stage::Queued(_) => JobStatus::Queued,
            Stage::Running(session) => {
                JobStatus::Running { slices: slot.slices, progress: session.progress_event() }
            }
            Stage::Finished { verdict, .. } => JobStatus::Finished { verdict: *verdict },
        }
    }

    /// Removes and returns the job's terminal outcome (`None` before the
    /// job finishes and on every call after the first).
    pub fn take(&mut self, handle: JobHandle) -> Option<JobOutcome> {
        let slot = &mut self.slots[handle.0 as usize];
        let Stage::Finished { rounds, wall, status, .. } = &mut slot.stage else {
            return None;
        };
        Some(JobOutcome {
            handle,
            label: slot.label.clone(),
            status: status.take()?,
            slices: slot.slices,
            rounds: *rounds,
            wall: *wall,
        })
    }

    /// Stops a job: queued jobs are dropped, running jobs have their session
    /// cancelled (its partial statistics are kept in the outcome). Returns
    /// `true` if the job was still pending or running.
    pub fn cancel(&mut self, handle: JobHandle) -> bool {
        let idx = handle.0 as usize;
        if let Stage::Finished { .. } = self.slots[idx].stage {
            return false;
        }
        if self.durable.is_some() {
            self.journal_append(&JournalRecord::Cancel { handle: handle.0 });
        }
        self.finalize(idx);
        true
    }

    /// True while any job is queued or running.
    pub fn has_work(&self) -> bool {
        !self.unfinished.is_empty()
    }

    /// The number of jobs waiting for admission: what
    /// [`stats`](Self::stats) reports as `queued`, counted over the
    /// unfinished jobs only, so its cost does not grow with the jobs that
    /// finished before it.
    pub fn queued(&self) -> usize {
        self.unfinished.iter().filter(|&&i| matches!(self.slots[i].stage, Stage::Queued(_))).count()
    }

    /// Dispatches one slice *batch*: admits queued jobs up to the admission
    /// cap, plans up to [`pool_size`](Self::pool_size) grants to distinct
    /// runnable jobs, runs each on its own thread, and merges the results in
    /// grant order — finalizing any job that reached a terminal state.
    /// Returns `false` when no job is runnable (the executor is idle).
    ///
    /// At the default pool of 1 this is exactly the classic
    /// one-grant-per-slice loop.
    pub fn run_slice(&mut self) -> bool {
        self.admit();
        let running = self.running_handles();
        if running.is_empty() {
            return false;
        }
        let grants = self.plan_batch(&running);
        if self.durable.is_some() {
            // Write-ahead: the whole batch is durable before any slice
            // runs, so a crash mid-batch replays it instead of losing it.
            self.journal_append(&JournalRecord::Grant {
                grants: grants.iter().map(|h| h.0).collect(),
            });
        }
        let dispatched = grants.len() as u64;
        self.execute_batch(&grants);
        if let Some(durable) = &mut self.durable {
            durable.slices_since_checkpoint += dispatched;
        }
        let checkpoint_due = self
            .durable
            .as_ref()
            .is_some_and(|d| d.slices_since_checkpoint >= self.checkpoint_every);
        if checkpoint_due {
            self.checkpoint().expect("durable executor failed to write its checkpoint");
        }
        true
    }

    /// Plans one batch against the running handles frozen at batch start
    /// (non-empty, in submit order): the next
    /// [`pool_size`](Self::pool_size) of them strictly after the rotation
    /// cursor, wrapping to the front, each at most once. The cursor keys on
    /// handles (not indices), so the rotation survives jobs finishing or
    /// being admitted mid-cycle, and it moves to the last grant. The plan is
    /// a deterministic function of (running set, cursor, pool size).
    fn plan_batch(&mut self, running: &[JobHandle]) -> Vec<JobHandle> {
        let start = self.rotation.and_then(|l| running.iter().position(|&h| h > l)).unwrap_or(0);
        let grants: Vec<JobHandle> = running
            .iter()
            .cycle()
            .skip(start)
            .take(self.pool_size.min(running.len()))
            .copied()
            .collect();
        self.rotation = grants.last().copied();
        grants
    }

    /// Executes a planned batch: borrows each granted job's session, runs
    /// every slice on its own scoped thread (the calling thread runs one,
    /// so a batch of one spawns nothing), then merges results strictly in
    /// grant order. A slice touches nothing but its job's own session, so
    /// execution order cannot change any result; merge order makes the
    /// bookkeeping — slice counts, observer callbacks, finalization —
    /// deterministic as well.
    fn execute_batch(&mut self, grants: &[JobHandle]) {
        let rounds = self.base_slice;
        // Borrow the granted slots apart, in handle order: split the slot
        // vector at each granted index instead of scanning every slot.
        let mut granted: Vec<usize> = grants.iter().map(|h| h.0 as usize).collect();
        granted.sort_unstable();
        let mut sessions: Vec<&mut SynthesisSession> = Vec::with_capacity(granted.len());
        let (mut tail, mut base) = (&mut self.slots[..], 0);
        for idx in granted {
            let (slot, rest) = std::mem::take(&mut tail)[idx - base..]
                .split_first_mut()
                .expect("grants name distinct jobs");
            if let Stage::Running(session) = &mut slot.stage {
                sessions.push(&mut **session);
            }
            (tail, base) = (rest, idx + 1);
        }
        let (first, rest) = sessions.split_first_mut().expect("planned batches are non-empty");
        std::thread::scope(|scope| {
            for session in rest {
                scope.spawn(move || {
                    session.run_for(rounds);
                });
            }
            first.run_for(rounds);
        });
        for handle in grants {
            self.merge_slice(handle.0 as usize);
        }
    }

    /// Merges one executed slice into the executor (grant order): counts
    /// the slice, then either fires the job observer (the job is still
    /// running) or finalizes the job (its session went terminal).
    fn merge_slice(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        slot.slices += 1;
        match &slot.stage {
            Stage::Running(session) if session.poll().is_running() => {
                // Per-job observer fan-out: one progress snapshot per
                // dispatched slice.
                if let Some(observer) = &mut slot.observer {
                    observer.on_progress(&session.progress_event());
                }
            }
            _ => self.finalize(idx),
        }
    }

    /// The handle of every running job, in submit order.
    fn running_handles(&self) -> Vec<JobHandle> {
        self.unfinished
            .iter()
            .filter(|&&i| matches!(self.slots[i].stage, Stage::Running(_)))
            .map(|&i| JobHandle(i as u64))
            .collect()
    }

    /// Runs slices until every submitted job is finished.
    pub fn run_until_idle(&mut self) {
        while self.run_slice() {}
    }

    /// A point-in-time aggregate of the executor (see [`ExecutorStats`]).
    pub fn stats(&self) -> ExecutorStats {
        let mut stats = ExecutorStats {
            submitted: self.slots.len() as u64,
            queued: 0,
            running: 0,
            finished: 0,
            cancelled: 0,
            slices_dispatched: 0,
            rounds_dispatched: 0,
            jobs: Vec::with_capacity(self.slots.len()),
        };
        for (i, slot) in self.slots.iter().enumerate() {
            match &slot.stage {
                Stage::Queued(_) => stats.queued += 1,
                Stage::Running(_) => stats.running += 1,
                Stage::Finished { verdict, .. } => {
                    stats.finished += 1;
                    stats.cancelled += u64::from(*verdict == JobVerdict::Cancelled);
                }
            }
            let rounds = slot.rounds();
            stats.slices_dispatched += slot.slices;
            stats.rounds_dispatched += rounds;
            stats.jobs.push(JobStat {
                handle: JobHandle(i as u64),
                label: slot.label.clone(),
                phase: slot.stage.phase(),
                slices: slot.slices,
                rounds,
                wall: slot.wall(),
            });
        }
        stats
    }

    /// Admits queued jobs (FIFO) while the running count is below the cap.
    /// Admission runs the job's static phase and starts its wall clock.
    fn admit(&mut self) {
        let slots = &mut self.slots;
        let mut running = self
            .unfinished
            .iter()
            .filter(|&&i| matches!(slots[i].stage, Stage::Running(_)))
            .count();
        for &idx in &self.unfinished {
            if running >= self.max_running {
                break;
            }
            let slot = &mut slots[idx];
            let Stage::Queued(spec) = &slot.stage else {
                continue;
            };
            let started_at = Instant::now();
            // One static phase per job, over every goal location.
            let analysis =
                Arc::new(StaticAnalysis::compute_multi(&spec.program, &spec.goal.primary_locs()));
            let mut session = SynthesisSession::from_parts(
                Arc::clone(&spec.program),
                analysis,
                spec.goal.clone(),
                spec.options.clone(),
                None,
                0,
            );
            // The session's clock (the job's wall time, EsdOptions::deadline)
            // covers the static phase, like a solo run's.
            session.started_at = started_at;
            slot.stage = Stage::Running(Box::new(session));
            running += 1;
        }
    }

    /// Moves an unfinished job to its finished stage: cancels its session
    /// if it is still running, freezes the session's terminal status,
    /// rounds and wall clock, and fires the job observer's `on_finish`.
    fn finalize(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let (status, rounds, wall) = match std::mem::replace(&mut slot.stage, Stage::ENDING) {
            Stage::Running(mut session) => {
                session.cancel(); // no-op on a terminal session
                let (rounds, wall) = (session.rounds(), session.elapsed());
                (session.into_status(), rounds, wall)
            }
            // Cancelled while queued: the job never had a session.
            _ => (SessionStatus::Cancelled(SearchStats::default()), 0, Duration::ZERO),
        };
        let verdict = JobVerdict::of(&status);
        if let Some(observer) = &mut slot.observer {
            observer.on_finish(&status);
        }
        slot.stage = Stage::Finished { verdict, rounds, wall, status: Some(status) };
        self.unfinished.remove(&idx);
        if self.durable.is_some() {
            self.journal_append(&JournalRecord::Finalize { handle: idx as u64, verdict });
        }
    }

    /// Appends one record to the durable journal. Durability I/O failures
    /// are hard errors: a debugging service that silently loses its commit
    /// log cannot honor its recovery contract.
    fn journal_append(&mut self, record: &JournalRecord) {
        if let Some(durable) = &mut self.durable {
            durable
                .journal
                .append(std::slice::from_ref(record))
                .expect("durable executor failed to append its journal");
        }
    }

    /// Writes a fresh checkpoint. The next-epoch journal is created first;
    /// then every job taken since the last checkpoint is appended to the
    /// finished log; then the snapshot naming the new epoch and the log's
    /// new length is written atomically; then the old journal is deleted.
    /// A crash between any two of those steps leaves a consistent
    /// (finished-log prefix, snapshot, journal) triple for
    /// [`JobExecutor::recover`] — either the old one (snapshot not yet
    /// renamed: recovery truncates the frames it does not cover) or the new
    /// one. The snapshot holds live jobs only, so a checkpoint costs
    /// O(live jobs + jobs taken since the last one). I/O failures are a
    /// [`SnapshotError`], and leave the executor able to checkpoint again.
    /// No-op on non-durable executors.
    pub fn checkpoint(&mut self) -> Result<(), SnapshotError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        let (dir, old_epoch) = (durable.dir.clone(), durable.epoch);
        let new_epoch = old_epoch + 1;
        let journal = FramedLog::create(&dir.join(journal_file(new_epoch)))
            .map_err(|e| SnapshotError::Io(e.to_string()))?;
        self.log_taken_jobs()?;
        let snapshot = self.snapshot_with_epoch(new_epoch);
        save_snapshot(&dir.join(SNAPSHOT_FILE), &snapshot)?;
        if let Some(durable) = &mut self.durable {
            durable.journal = journal;
            durable.epoch = new_epoch;
            durable.slices_since_checkpoint = 0;
        }
        let _ = std::fs::remove_file(dir.join(journal_file(old_epoch)));
        Ok(())
    }

    /// Appends every job whose outcome has been taken and that the finished
    /// log does not hold yet, in handle order, and drops it from the set a
    /// snapshot writes. Such a job can never change again.
    fn log_taken_jobs(&mut self) -> Result<(), SnapshotError> {
        let Some(durable) = &mut self.durable else {
            return Ok(());
        };
        let taken: Vec<JobSnapshot> = self
            .unlogged
            .iter()
            .filter(|&&idx| matches!(self.slots[idx].stage, Stage::Finished { status: None, .. }))
            .map(|&idx| self.slots[idx].snapshot(idx))
            .collect();
        if taken.is_empty() {
            return Ok(());
        }
        durable.finished.append(&taken).map_err(|e| SnapshotError::Io(e.to_string()))?;
        for job in &taken {
            self.unlogged.remove(&(job.handle as usize));
        }
        Ok(())
    }

    /// Captures the executor's durable state beside its finished log (see
    /// [`ExecutorSnapshot`]): every job the log does not hold. On a
    /// non-durable executor that is every job. Job observers are not
    /// captured.
    pub fn snapshot(&self) -> ExecutorSnapshot {
        let epoch = self.durable.as_ref().map(|d| d.epoch).unwrap_or(0);
        self.snapshot_with_epoch(epoch)
    }

    fn snapshot_with_epoch(&self, epoch: u64) -> ExecutorSnapshot {
        let jobs = self.unlogged.iter().map(|&idx| self.slots[idx].snapshot(idx)).collect();
        ExecutorSnapshot {
            rotation: self.rotation.map(|h| h.0),
            base_slice: self.base_slice,
            max_running: self.max_running,
            checkpoint_every: self.checkpoint_every,
            pool_size: self.pool_size,
            epoch,
            finished_len: self.durable.as_ref().map_or(0, |d| d.finished.len()),
            jobs,
        }
    }
}

/// Restores an executor from the jobs of its finished log and the snapshot
/// paired with them (no journal replay, no durability). Every logged job
/// must be a taken finished one, and together the two must hold every
/// handle below their joint count exactly once; anything else is a
/// [`RecoveryError::Divergence`].
fn restore(
    snapshot: &ExecutorSnapshot,
    logged: &[JobSnapshot],
) -> Result<JobExecutor, RecoveryError> {
    if let Some(job) = logged
        .iter()
        .find(|job| !matches!(job.stage, JobStageSnapshot::Finished { status: None, .. }))
    {
        return Err(RecoveryError::Divergence(format!(
            "the finished log holds job {}, which is not a taken finished job",
            job.handle
        )));
    }
    let count = logged.len() + snapshot.jobs.len();
    let mut slots: Vec<Option<JobSlot>> = std::iter::repeat_with(|| None).take(count).collect();
    for job in logged.iter().chain(&snapshot.jobs) {
        let stage = match &job.stage {
            JobStageSnapshot::Queued(spec) => Stage::Queued(spec.clone()),
            JobStageSnapshot::Running(session) => {
                Stage::Running(Box::new(SynthesisSession::restore(session)))
            }
            JobStageSnapshot::Finished { verdict, rounds, wall, status } => Stage::Finished {
                verdict: *verdict,
                rounds: *rounds,
                wall: *wall,
                status: status.clone(),
            },
        };
        let Some(place @ None) = slots.get_mut(job.handle as usize) else {
            return Err(RecoveryError::Divergence(format!(
                "job {} is duplicated or out of range across the finished log and the \
                 snapshot, which hold {count} jobs together",
                job.handle
            )));
        };
        *place =
            Some(JobSlot { label: job.label.clone(), observer: None, slices: job.slices, stage });
    }
    // Every place is filled: `count` distinct handles, each below `count`.
    let slots: Vec<JobSlot> = slots.into_iter().flatten().collect();
    let unfinished =
        (0..slots.len()).filter(|&i| !matches!(slots[i].stage, Stage::Finished { .. })).collect();
    Ok(JobExecutor {
        rotation: snapshot.rotation.map(JobHandle),
        base_slice: snapshot.base_slice,
        max_running: snapshot.max_running,
        checkpoint_every: snapshot.checkpoint_every,
        pool_size: snapshot.pool_size.max(1),
        slots,
        unfinished,
        unlogged: snapshot.jobs.iter().map(|job| job.handle as usize).collect(),
        durable: None,
    })
}

/// Replays a journal's valid prefix of records on top of a restored
/// executor — the `reduce(finished log ⊕ snapshot, journal)` behind
/// [`JobExecutor::recover`]. Grants re-plan
/// the batch from the restored rotation cursor and every re-taken decision
/// is verified against the journaled one; any mismatch is a
/// [`RecoveryError::Divergence`], never a panic.
fn replay_records(exec: &mut JobExecutor, records: &[JournalRecord]) -> Result<(), RecoveryError> {
    for record in records {
        match record {
            JournalRecord::Submit { handle, spec } => {
                let expected = exec.slots.len() as u64;
                if *handle != expected {
                    return Err(RecoveryError::Divergence(format!(
                        "journaled submit assigns handle {handle}, executor would assign \
                         {expected}"
                    )));
                }
                exec.submit(spec.clone());
            }
            JournalRecord::Grant { grants } => {
                exec.admit();
                let running = exec.running_handles();
                if running.is_empty() {
                    return Err(RecoveryError::Divergence(format!(
                        "journal grants {grants:?} but no job is runnable"
                    )));
                }
                // Re-plan with the restored cursor and pool size and demand
                // the exact journaled handle vector: planning is deterministic,
                // so any mismatch means the snapshot/journal pair diverged.
                let replanned = exec.plan_batch(&running);
                if !replanned.iter().map(|h| h.0).eq(grants.iter().copied()) {
                    return Err(RecoveryError::Divergence(format!(
                        "journal grants {grants:?}, replay plans {replanned:?}"
                    )));
                }
                exec.execute_batch(&replanned);
            }
            JournalRecord::Cancel { handle } => {
                if exec.slots.get(*handle as usize).is_none() {
                    return Err(RecoveryError::Divergence(format!(
                        "journaled cancel of unknown job {handle}"
                    )));
                }
                exec.cancel(JobHandle(*handle));
            }
            JournalRecord::Finalize { handle, verdict } => {
                let Some(slot) = exec.slots.get(*handle as usize) else {
                    return Err(RecoveryError::Divergence(format!(
                        "journaled finalize of unknown job {handle}"
                    )));
                };
                let actual = match slot.stage {
                    Stage::Finished { verdict, .. } => Some(verdict),
                    _ => None,
                };
                if actual != Some(*verdict) {
                    return Err(RecoveryError::Divergence(format!(
                        "journal finalizes job {handle} as {verdict:?}, replay reached \
                         {actual:?}"
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal;
    use esd_ir::{CmpOp, Loc, ProgramBuilder};
    use std::sync::{Arc, Mutex};

    fn crashy(name: &str, trigger: i64) -> (esd_ir::Program, Loc) {
        let mut pb = ProgramBuilder::new(name);
        let mut loc = None;
        pb.function("main", 0, |f| {
            // A straight-line prelude: at 32 micro-steps a round, the job
            // runs 8 rounds before it reaches the branch, so a test can stop
            // it mid-run.
            let mut pad = f.konst(0);
            for _ in 0..256 {
                pad = f.add(pad, 1);
            }
            f.output(pad);
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, trigger);
            let bug = f.new_block("bug");
            let ok = f.new_block("ok");
            f.cond_br(c, bug, ok);
            f.switch_to(bug);
            let z = f.konst(0);
            loc = Some(Loc::new(esd_ir::FuncId(0), bug, f.next_inst_idx()));
            let v = f.load(z);
            f.output(v);
            f.ret_void();
            f.switch_to(ok);
            f.ret_void();
        });
        (pb.finish("main"), loc.unwrap())
    }

    fn handles(ids: &[u64]) -> Vec<JobHandle> {
        ids.iter().map(|&id| JobHandle(id)).collect()
    }

    #[test]
    fn round_robin_cycles_in_handle_order_across_membership_changes() {
        let mut rr = JobExecutor::round_robin();
        let running = handles(&[0, 1, 2]);
        assert_eq!(rr.plan_batch(&running), handles(&[0]));
        assert_eq!(rr.plan_batch(&running), handles(&[1]));
        // Job 2 finishes; the rotation keys on handles, so after serving
        // job 1 the next running handle wraps to 0.
        assert_eq!(rr.plan_batch(&handles(&[0, 1])), handles(&[0]));
        // A new job 3 arrives mid-cycle and gets its turn after 1.
        let running = handles(&[0, 1, 3]);
        assert_eq!(rr.plan_batch(&running), handles(&[1]));
        assert_eq!(rr.plan_batch(&running), handles(&[3]));
        assert_eq!(rr.plan_batch(&running), handles(&[0]));
    }

    #[test]
    fn batches_grant_the_next_distinct_jobs_in_rotation_order() {
        let mut rr = JobExecutor::round_robin().pool_size(3);
        let running = handles(&[0, 1, 2, 3]);
        assert_eq!(rr.plan_batch(&running), handles(&[0, 1, 2]));
        assert_eq!(rr.plan_batch(&running), handles(&[3, 0, 1]));
        // A pool wider than the running set grants each job once.
        assert_eq!(rr.plan_batch(&handles(&[1, 2])), handles(&[2, 1]));
    }

    /// Admission builds a job's race candidates exactly when its search
    /// will read them (race detection with static pruning), so their cost
    /// is charged to admission and not to a slice.
    #[test]
    fn admission_builds_race_candidates_only_for_race_jobs() {
        let (p, loc) = crashy("exec_race_candidates", 9);
        let goal = GoalSpec::Crash { loc };
        let race = EsdOptions::builder().with_race_detection(true).build();
        let unpruned = EsdOptions { static_pruning: false, ..race.clone() };
        let mut exec = JobExecutor::round_robin().max_running(3);
        for (label, options) in
            [("race", race), ("plain", EsdOptions::default()), ("unpruned", unpruned)]
        {
            exec.submit(JobSpec { options, ..JobSpec::new(label, &p, goal.clone()) });
        }
        exec.admit();
        let built: Vec<bool> = exec
            .slots
            .iter()
            .map(|slot| match &slot.stage {
                Stage::Running(session) => {
                    session.analysis().facts.race_candidates_if_built().is_some()
                }
                _ => panic!("{} was not admitted", slot.label),
            })
            .collect();
        assert_eq!(built, [true, false, false]);
    }

    #[test]
    fn submit_poll_take_lifecycle() {
        let (p, loc) = crashy("exec_lifecycle", 9);
        let mut exec = JobExecutor::round_robin();
        let h = exec.submit(JobSpec::new("job", &p, GoalSpec::Crash { loc }));
        assert_eq!(exec.status(h), JobStatus::Queued);
        assert!(exec.has_work());
        exec.run_until_idle();
        assert_eq!(exec.status(h), JobStatus::Finished { verdict: JobVerdict::Found });
        assert!(!exec.has_work());
        let outcome = exec.take(h).expect("finished jobs expose an outcome");
        assert_eq!(outcome.verdict(), JobVerdict::Found);
        assert_eq!(outcome.label, "job");
        assert_eq!(outcome.report().unwrap().execution.inputs[0].value, 9);
        assert_eq!(outcome.status.stats(), Some(&outcome.report().unwrap().stats));
        assert!(outcome.slices > 0 && outcome.rounds > 0);
        assert!(exec.take(h).is_none(), "take() consumes the outcome");
    }

    #[test]
    fn admission_control_queues_beyond_the_cap_and_backfills() {
        let (p, loc) = crashy("exec_admission", 3);
        let mut exec = JobExecutor::round_robin().max_running(1).slice_rounds(1);
        let a = exec.submit(JobSpec::new("a", &p, GoalSpec::Crash { loc }));
        let b = exec.submit(JobSpec::new("b", &p, GoalSpec::Crash { loc }));
        assert!(exec.run_slice());
        let running = exec.status(a);
        assert!(
            matches!(running, JobStatus::Running { slices: 1, .. }),
            "one slice went to a: {running:?}"
        );
        assert_eq!(exec.status(b), JobStatus::Queued, "the cap keeps b queued");
        let stats = exec.stats();
        assert_eq!((stats.queued, stats.running), (1, 1));
        assert_eq!(exec.queued(), 1, "queued() counts what stats() does");
        exec.run_until_idle();
        assert_eq!(exec.queued(), 0);
        assert_eq!(exec.status(a).verdict(), Some(JobVerdict::Found));
        assert_eq!(
            exec.status(b).verdict(),
            Some(JobVerdict::Found),
            "b is admitted once a finishes"
        );
    }

    #[test]
    fn cancel_drops_queued_jobs_and_stops_running_ones() {
        let (p, loc) = crashy("exec_cancel", 5);
        let mut exec = JobExecutor::round_robin().max_running(1).slice_rounds(1);
        let a = exec.submit(JobSpec::new("a", &p, GoalSpec::Crash { loc }));
        let b = exec.submit(JobSpec::new("b", &p, GoalSpec::Crash { loc }));
        // Cancel b while it is still queued: no session ever exists for it.
        assert!(exec.cancel(b));
        assert_eq!(exec.status(b), JobStatus::Finished { verdict: JobVerdict::Cancelled });
        let outcome = exec.take(b).unwrap();
        assert_eq!(outcome.verdict(), JobVerdict::Cancelled);
        assert!(
            matches!(&outcome.status, SessionStatus::Cancelled(s) if *s == SearchStats::default())
        );
        assert_eq!((outcome.rounds, outcome.wall), (0, Duration::ZERO));
        assert_eq!(
            exec.status(b),
            JobStatus::Finished { verdict: JobVerdict::Cancelled },
            "status survives take()"
        );
        // Cancel a mid-run: the session's partial stats survive.
        assert!(exec.run_slice());
        assert!(exec.cancel(a));
        let outcome = exec.take(a).unwrap();
        assert_eq!(outcome.verdict(), JobVerdict::Cancelled);
        assert!(matches!(&outcome.status, SessionStatus::Cancelled(s) if s.steps > 0));
        assert!(!exec.cancel(a), "cancel on a finished job is a no-op");
        assert_eq!(exec.stats().cancelled, 2);
        assert!(!exec.run_slice(), "nothing left to run");
    }

    /// An observer shared with the test through `Arc<Mutex<_>>` (observers
    /// are `Send`, so plain `Rc` no longer satisfies the trait bound).
    #[derive(Default)]
    struct Recording {
        progress: Vec<ProgressEvent>,
        finished: Vec<&'static str>,
    }

    struct RecordingObserver(Arc<Mutex<Recording>>);

    impl Observer for RecordingObserver {
        fn on_progress(&mut self, event: &ProgressEvent) {
            self.0.lock().unwrap().progress.push(event.clone());
        }

        fn on_finish(&mut self, status: &SessionStatus) {
            self.0.lock().unwrap().finished.push(match status {
                SessionStatus::Found(_) => "found",
                _ => "other",
            });
        }
    }

    #[test]
    fn job_observer_receives_slice_progress_and_one_finish() {
        let (p, loc) = crashy("exec_observer", 2);
        let recording = Arc::new(Mutex::new(Recording::default()));
        let mut exec = JobExecutor::round_robin().slice_rounds(2);
        let h = exec.submit(JobSpec::new("watched", &p, GoalSpec::Crash { loc }));
        exec.observe(h, Box::new(RecordingObserver(recording.clone())));
        exec.run_until_idle();
        assert_eq!(exec.status(h).verdict(), Some(JobVerdict::Found));
        let recording = recording.lock().unwrap();
        assert_eq!(recording.finished, vec!["found"], "exactly one terminal callback");
        assert!(
            !recording.progress.is_empty(),
            "2-round slices must produce intermediate progress events"
        );
        assert!(recording.progress.iter().all(|e| e.rounds > 0));
    }

    #[test]
    fn executor_stats_account_for_every_job() {
        let (p, loc) = crashy("exec_stats", 4);
        let mut exec = JobExecutor::round_robin();
        let a = exec.submit(JobSpec::new("a", &p, GoalSpec::Crash { loc }));
        let b = exec.submit(JobSpec::new("b", &p, GoalSpec::Crash { loc }));
        exec.run_until_idle();
        let stats = exec.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.finished, 2);
        assert_eq!(stats.queued + stats.running, 0);
        assert_eq!(stats.jobs.len(), 2);
        assert_eq!(stats.jobs[a.id() as usize].label, "a");
        assert_eq!(stats.jobs[b.id() as usize].label, "b");
        assert!(stats.slices_dispatched >= 2);
        assert_eq!(
            stats.rounds_dispatched,
            stats.jobs.iter().map(|j| j.rounds).sum::<u64>(),
            "dispatched rounds equal the sum of per-job rounds"
        );

        // Terminal totals are frozen at finalize: taking the outcomes must
        // not zero a job's rounds or let its wall clock keep growing.
        let wall_before: Vec<Duration> = stats.jobs.iter().map(|j| j.wall).collect();
        exec.take(a);
        exec.take(b);
        let stats = exec.stats();
        assert_eq!(
            stats.rounds_dispatched,
            stats.jobs.iter().map(|j| j.rounds).sum::<u64>(),
            "per-job rounds must survive take()"
        );
        let wall_after: Vec<Duration> = stats.jobs.iter().map(|j| j.wall).collect();
        assert_eq!(wall_before, wall_after, "finished wall times must not drift");
    }

    /// Runs a three-job batch at the given pool size and returns each job's
    /// synthesized-execution JSON plus total slices.
    fn run_three_jobs(pool: usize) -> (Vec<String>, u64) {
        let jobs: Vec<_> = (0..3).map(|i| crashy(&format!("exec_pool_{i}"), 3 + i)).collect();
        let mut exec = JobExecutor::round_robin().slice_rounds(2).pool_size(pool);
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, (p, loc))| {
                exec.submit(JobSpec::new(format!("job{i}"), p, GoalSpec::Crash { loc: *loc }))
            })
            .collect();
        exec.run_until_idle();
        let executions = handles
            .into_iter()
            .map(|h| {
                let outcome = exec.take(h).expect("job finished");
                assert_eq!(outcome.verdict(), JobVerdict::Found);
                outcome.report().expect("Found carries a report").execution.to_json()
            })
            .collect();
        (executions, exec.stats().slices_dispatched)
    }

    /// The cross-job determinism contract in unit form: spreading each
    /// batch over a pool — narrower than, equal to and wider than the job
    /// count — changes neither any job's synthesized execution nor the
    /// total number of dispatched slices.
    #[test]
    fn pool_size_never_changes_results() {
        let (serial, serial_slices) = run_three_jobs(1);
        for pool in [2, 3, 8] {
            let (batched, slices) = run_three_jobs(pool);
            assert_eq!(batched, serial, "pool={pool}");
            assert_eq!(slices, serial_slices, "pool={pool}");
        }
    }

    /// What a restored executor must reproduce exactly: every job's status
    /// and the aggregate statistics, derived counters included. Running
    /// jobs' clocks keep ticking, so elapsed and wall times are left out.
    type Observable = (Vec<JobStatus>, [u64; 7], Vec<(JobPhase, u64, u64)>);

    fn observable(exec: &JobExecutor) -> Observable {
        let stats = exec.stats();
        assert_eq!(exec.queued(), stats.queued, "queued() counts what stats() does");
        let statuses = stats
            .jobs
            .iter()
            .map(|job| match exec.status(job.handle) {
                JobStatus::Running { slices, mut progress } => {
                    progress.elapsed = Duration::ZERO;
                    JobStatus::Running { slices, progress }
                }
                status => status,
            })
            .collect();
        let counters = [
            stats.submitted,
            stats.queued as u64,
            stats.running as u64,
            stats.finished,
            stats.cancelled,
            stats.slices_dispatched,
            stats.rounds_dispatched,
        ];
        let jobs = stats.jobs.iter().map(|j| (j.phase, j.slices, j.rounds)).collect();
        (statuses, counters, jobs)
    }

    /// Every job stage survives both recovery paths: a journal replay on
    /// top of the initial (empty) checkpoint, and a snapshot restore from a
    /// later checkpoint. The executor holds one job in each stage, and the
    /// pool size round-trips too.
    #[test]
    fn snapshot_round_trips_pool_size_and_every_stage() {
        let dir = std::env::temp_dir().join(format!("esd_stage_snapshot_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (p, loc) = crashy("exec_snapshot_stages", 2);
        let job = |label: &str| JobSpec::new(label, &p, GoalSpec::Crash { loc });
        let mut exec = JobExecutor::round_robin()
            .pool_size(4)
            .max_running(1)
            .slice_rounds(1)
            .checkpoint_every(1000) // never checkpoint on its own: force journal replay
            .durable_dir(&dir)
            .expect("durable dir");
        let taken = exec.submit(job("found, taken"));
        let found = exec.submit(job("found"));
        exec.run_until_idle();
        exec.take(taken).expect("job finished");
        let cancelled_running = exec.submit(job("cancelled while running"));
        assert!(exec.run_slice());
        assert!(exec.cancel(cancelled_running));
        let running = exec.submit(job("running"));
        let cancelled_queued = exec.submit(job("cancelled while queued"));
        let queued = exec.submit(job("queued"));
        assert!(exec.run_slice());
        assert!(exec.cancel(cancelled_queued));

        let expected = observable(&exec);
        let verdict = |h: JobHandle| expected.0[h.0 as usize].verdict();
        assert_eq!(verdict(taken), Some(JobVerdict::Found));
        assert_eq!(verdict(found), Some(JobVerdict::Found));
        assert_eq!(verdict(cancelled_running), Some(JobVerdict::Cancelled));
        assert_eq!(verdict(cancelled_queued), Some(JobVerdict::Cancelled));
        assert!(matches!(expected.0[running.0 as usize], JobStatus::Running { slices: 1, .. }));
        assert_eq!(expected.0[queued.0 as usize], JobStatus::Queued);
        assert_eq!(exec.stats().cancelled, 2);

        let replayed = JobExecutor::recover(&dir).expect("the journal replays");
        assert_eq!(observable(&replayed), expected, "journal replay");
        exec.checkpoint().expect("checkpoint");
        let snapshot = exec.snapshot();
        assert_eq!(snapshot.pool_size, 4);
        let stage = |h: JobHandle| snapshot.jobs.iter().find(|j| j.handle == h.0).map(|j| &j.stage);
        assert!(matches!(
            stage(found),
            Some(JobStageSnapshot::Finished { verdict: JobVerdict::Found, status: Some(_), .. })
        ));
        // The taken job is final: the checkpoint moved it to the finished
        // log, and the snapshot holds the other five.
        assert!(stage(taken).is_none());
        assert_eq!(snapshot.jobs.len(), 5);
        assert!(snapshot.finished_len > 0);
        let restored = JobExecutor::recover(&dir).expect("the snapshot restores");
        assert_eq!(restored.pool_size, 4);
        assert_eq!(observable(&restored), expected, "snapshot restore");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `finished.log` holds taken finished jobs only: a record in any other
    /// stage, or one whose outcome is still to take, is a divergence.
    #[test]
    fn restore_rejects_logged_jobs_that_are_not_taken() {
        let (p, loc) = crashy("exec_restore_logged", 2);
        let mut exec = JobExecutor::round_robin();
        let h = exec.submit(JobSpec::new("a", &p, GoalSpec::Crash { loc }));
        let queued = exec.snapshot();
        exec.run_until_idle();
        let untaken = exec.snapshot();
        exec.take(h).expect("job finished");
        let taken = exec.snapshot();
        let empty = ExecutorSnapshot { jobs: Vec::new(), ..taken.clone() };
        assert!(restore(&empty, &taken.jobs).is_ok());
        for logged in [&queued.jobs, &untaken.jobs] {
            assert!(matches!(restore(&empty, logged), Err(RecoveryError::Divergence(_))));
        }
    }

    /// A checkpoint that cannot write reports a typed error and leaves the
    /// executor usable: here the durable directory has been replaced by a
    /// regular file after a job finished and was taken.
    #[test]
    fn checkpoint_io_failures_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("esd_checkpoint_io_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (p, loc) = crashy("exec_checkpoint_io", 3);
        let mut exec = JobExecutor::round_robin()
            .checkpoint_every(1000)
            .durable_dir(&dir)
            .expect("durable dir");
        let h = exec.submit(JobSpec::new("a", &p, GoalSpec::Crash { loc }));
        exec.run_until_idle();
        exec.take(h).expect("job finished");
        std::fs::remove_dir_all(&dir).expect("durable dir removed");
        std::fs::write(&dir, b"not a directory").expect("file written");
        assert!(matches!(exec.checkpoint(), Err(SnapshotError::Io(_))));
        assert!(matches!(exec.checkpoint(), Err(SnapshotError::Io(_))), "and again");
        assert_eq!(exec.status(h), JobStatus::Finished { verdict: JobVerdict::Found });
        let _ = std::fs::remove_file(&dir);
    }

    /// Durable multi-grant batches recover: a pool-2 executor journals
    /// two-grant `Grant` records, and a cold-crash recovery replays them to
    /// the identical outcome.
    #[test]
    fn durable_batch_grants_replay_after_a_crash() {
        let dir = std::env::temp_dir().join(format!("esd_batch_recovery_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (p, loc) = crashy("exec_batch_recovery", 7);
        let (q, qloc) = crashy("exec_batch_recovery_b", 4);
        let mut exec = JobExecutor::round_robin()
            .slice_rounds(2)
            .pool_size(2)
            .checkpoint_every(1000) // never checkpoint: force journal replay
            .durable_dir(&dir)
            .expect("durable dir");
        let a = exec.submit(JobSpec::new("a", &p, GoalSpec::Crash { loc }));
        let b = exec.submit(JobSpec::new("b", &q, GoalSpec::Crash { loc: qloc }));
        // Run two batches, then crash cold (drop without checkpoint).
        assert!(exec.run_slice());
        assert!(exec.run_slice());
        drop(exec);
        let bytes = std::fs::read(dir.join(journal_file(1))).expect("journal reads");
        let scanned = journal::scan(&bytes);
        let batch_sizes: Vec<usize> = scanned
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Grant { grants } => Some(grants.len()),
                _ => None,
            })
            .collect();
        assert_eq!(batch_sizes, vec![2, 2], "each batch grants both jobs");
        let mut recovered = JobExecutor::recover(&dir).expect("recovery succeeds");
        recovered.run_until_idle();
        for h in [a, b] {
            assert_eq!(recovered.status(h).verdict(), Some(JobVerdict::Found), "{h:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
