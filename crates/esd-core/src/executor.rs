//! The multi-job executor: many synthesis jobs, one machine.
//!
//! The paper's end state is a debugging *service*: developers submit bug
//! reports and ESD synthesizes a failing execution for each one. A
//! [`SynthesisSession`] is one resumable job; a
//! [`Portfolio`](crate::Portfolio) races N configurations over *one* job.
//! The [`JobExecutor`] is the layer above both: it holds N independent jobs
//! at once — each a session, or a per-job portfolio of member sessions — and
//! time-slices them under one of three [`FairnessPolicy`] variants:
//!
//! * [`FairnessPolicy::RoundRobin`] — every runnable job gets an equal
//!   slice in submit order;
//! * [`FairnessPolicy::WeightedByPriority`] — round-robin turns, but a
//!   job's slice scales with its [`JobSpec::priority`];
//! * [`FairnessPolicy::DeadlineFirst`] — the runnable job with the earliest
//!   scheduling deadline is served first and receives enlarged slices; jobs
//!   without a deadline only run when no deadline-bearing job is runnable.
//!
//! The caller drives the executor explicitly — [`JobExecutor::submit`],
//! [`JobExecutor::run_slice`] / [`JobExecutor::run_until_idle`],
//! [`JobExecutor::status`], [`JobExecutor::cancel`],
//! [`JobExecutor::take`] — and can observe every job through a per-job
//! [`Observer`] fan-out plus aggregate [`ExecutorStats`].
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
//!
//! There is exactly one time-slicing loop in the codebase:
//! [`Portfolio::run`](crate::Portfolio::run) is a thin wrapper that submits
//! a single job whose members are the portfolio members.

use crate::journal::{self, JournalRecord, JournalWriter, RecoveryError};
use crate::portfolio::{MemberOutcome, MemberReport, PortfolioResult, PortfolioWinner};
use crate::session::{Observer, ProgressEvent, SessionSnapshot, SessionStatus, SynthesisSession};
use crate::snapshot::{load_snapshot, save_snapshot, SnapshotError};
use crate::synth::EsdOptions;
use esd_analysis::StaticAnalysis;
use esd_ir::Program;
use esd_symex::{GoalSpec, SearchStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many search rounds one dispatched slice advances by default
/// (overridable via [`JobExecutor::slice_rounds`]; policies may scale it).
pub const DEFAULT_SLICE_ROUNDS: u64 = 1024;

/// The slice enlargement [`FairnessPolicy::DeadlineFirst`] grants
/// deadline-bearing jobs.
pub const DEADLINE_SLICE_BOOST: u64 = 4;

/// The longest scheduling deadline a job keeps ([`JobSpec::deadline`]):
/// `i64::MAX` nanoseconds, about 292 years. The bound keeps both the
/// submit-time `Instant` addition and a snapshot's signed nanosecond offset
/// from overflowing.
const MAX_DEADLINE: Duration = Duration::from_nanos(i64::MAX as u64);

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

/// One job submitted to a [`JobExecutor`]: a program, a goal, and one or
/// more member configurations (several members make the job a per-job
/// portfolio — the first member to synthesize wins the job).
pub struct JobSpec {
    label: String,
    program: Arc<Program>,
    goal: GoalSpec,
    members: Vec<(String, EsdOptions)>,
    priority: u32,
    deadline: Option<Duration>,
    observer: Option<Box<dyn Observer>>,
}

impl JobSpec {
    /// A job for one bug: `label` names it in stats and logs. Without
    /// further configuration the job runs a single member with default
    /// [`EsdOptions`].
    pub fn new(label: impl Into<String>, program: &Program, goal: GoalSpec) -> Self {
        JobSpec {
            label: label.into(),
            program: Arc::new(program.clone()),
            goal,
            members: Vec::new(),
            priority: 1,
            deadline: None,
            observer: None,
        }
    }

    /// Replaces the member set with a single member running `options`.
    pub fn options(mut self, options: EsdOptions) -> Self {
        let label = options.frontier.to_string();
        self.members = vec![(label, options)];
        self
    }

    /// Adds a member configuration (several members race portfolio-style
    /// within the job; the first `Found` wins and the rest are cancelled
    /// immediately).
    pub fn member(mut self, label: impl Into<String>, options: EsdOptions) -> Self {
        self.members.push((label.into(), options));
        self
    }

    /// Scheduling weight for [`FairnessPolicy::WeightedByPriority`]
    /// (default 1; larger means proportionally larger slices).
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = priority.max(1);
        self
    }

    /// Scheduling deadline for [`FairnessPolicy::DeadlineFirst`], measured
    /// from submission; clamped to about 292 years (`i64::MAX` ns), so any
    /// peer-supplied duration is safe to schedule and to snapshot.
    ///
    /// This is a *fairness hint* — it orders jobs and enlarges their slices;
    /// it does not expire the job. To kill a job at a wall-clock limit, set
    /// [`EsdOptions::deadline`] on its member options.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline.min(MAX_DEADLINE));
        self
    }

    /// Attaches a per-job [`Observer`]: it receives an
    /// [`Observer::on_progress`] snapshot of the advanced member after every
    /// dispatched slice that leaves the job running (matching the session
    /// observer's running-only progress cadence — a job that goes terminal
    /// on its very first slice emits no progress events), and exactly one
    /// [`Observer::on_finish`] with the job's terminal [`SessionStatus`]
    /// (the winner's `Found`, or the first member's terminal status when no
    /// member won).
    pub fn observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }
}

/// Where a job currently is in its lifecycle.
///
/// This is the executor's *internal* lifecycle value (still carried by
/// [`JobStat`] and snapshots); the public query surface is the richer
/// [`JobStatus`] returned by [`JobExecutor::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobPhase {
    /// Submitted, waiting for admission (no sessions exist yet).
    Queued,
    /// Admitted: the job holds live sessions and receives slices.
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
        /// The job's members' [`ProgressEvent`]s folded into one: rounds,
        /// live states and every [`SearchStats`] counter add,
        /// `best_proximity` takes the minimum ([`SearchStats::merge`]) and
        /// `elapsed` is the longest-lived member's.
        progress: ProgressEvent,
    },
    /// Terminal: the job ran to a verdict ([`JobVerdict::Found`] or
    /// [`JobVerdict::Unsatisfied`]); the outcome is (or was) available via
    /// [`JobExecutor::take`].
    Finished {
        /// How the job ended.
        verdict: JobVerdict,
    },
    /// Terminal: the job was cancelled before reaching a verdict.
    Cancelled,
}

impl JobStatus {
    /// True once the job can no longer advance (finished or cancelled).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Finished { .. } | JobStatus::Cancelled)
    }

    /// The terminal verdict, if any ([`JobStatus::Cancelled`] reports
    /// [`JobVerdict::Cancelled`]).
    pub fn verdict(&self) -> Option<JobVerdict> {
        match self {
            JobStatus::Queued | JobStatus::Running { .. } => None,
            JobStatus::Finished { verdict } => Some(*verdict),
            JobStatus::Cancelled => Some(JobVerdict::Cancelled),
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
    /// A member synthesized the execution.
    Found,
    /// Every member went terminal without reaching the goal (exhausted,
    /// budget, or deadline-expired).
    Unsatisfied,
    /// [`JobExecutor::cancel`] stopped the job.
    Cancelled,
}

/// The terminal result of one job.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobOutcome {
    /// The handle the job was submitted under.
    pub handle: JobHandle,
    /// The job's label.
    pub label: String,
    /// How the job ended.
    pub verdict: JobVerdict,
    /// The portfolio-shaped detail: the winning member (if any) with its
    /// synthesized execution, plus every member's outcome and statistics.
    /// Single-member jobs have exactly one member entry.
    pub result: PortfolioResult,
    /// Executor slices dispatched to this job.
    pub slices: u64,
    /// Search rounds the job actually advanced, summed over members.
    pub rounds: u64,
    /// Wall-clock time from admission (start of the job's static phase) to
    /// the terminal state. Zero for jobs cancelled while still queued.
    pub wall: Duration,
}

impl JobOutcome {
    /// The winning member's synthesis report, if the job was satisfied.
    pub fn report(&self) -> Option<&crate::synth::SynthesisReport> {
        self.result.report()
    }
}

/// A scheduling view of one runnable job, handed to the fairness policy.
/// Views are listed in submit order.
#[derive(Debug, Clone)]
struct JobView {
    /// The job's handle (dense ids; submit order).
    handle: JobHandle,
    /// Scheduling weight ([`JobSpec::priority`], ≥ 1).
    priority: u32,
    /// Absolute scheduling deadline, if the job has one
    /// (submission instant + [`JobSpec::deadline`]).
    deadline_at: Option<Instant>,
}

/// Picks which runnable job receives the next slice, and how large the
/// slice is.
///
/// Every policy is a deterministic function of the runnable views and the
/// executor's rotation cursor — the executor never consults wall-clock time
/// to schedule, so a test can rely on the dispatch order, and recovery
/// re-drives the identical decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FairnessPolicy {
    /// Equal slices, submit order, cycling over the runnable jobs.
    RoundRobin,
    /// Round-robin turn order, but a job's slice length is
    /// `base_rounds × priority` — a priority-8 job advances eight times as
    /// many rounds per turn as a priority-1 job.
    WeightedByPriority,
    /// Earliest-deadline-first: the runnable job with the earliest
    /// scheduling deadline is always served next, with its slice enlarged
    /// [`DEADLINE_SLICE_BOOST`]-fold; jobs without a deadline share
    /// leftover capacity round-robin (they run only when no deadline job is
    /// runnable).
    DeadlineFirst,
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
    /// Search rounds advanced so far, summed over the job's members.
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
    /// Jobs currently holding live sessions.
    pub running: usize,
    /// Jobs that reached a terminal state (including cancellations).
    pub finished: u64,
    /// Terminal jobs that were cancelled.
    pub cancelled: u64,
    /// Slices dispatched over the executor's lifetime.
    pub slices_dispatched: u64,
    /// Search rounds actually advanced over the executor's lifetime.
    pub rounds_dispatched: u64,
    /// Per-job detail (every job ever submitted, in submit order),
    /// including the wall time of each running or finished job.
    pub jobs: Vec<JobStat>,
}

/// One admitted member: its configuration plus its live session.
struct MemberSlot {
    label: String,
    options: EsdOptions,
    session: SynthesisSession,
}

/// A queued job's not-yet-admitted ingredients: program, goal, member
/// configurations.
type PendingJob = (Arc<Program>, GoalSpec, Vec<(String, EsdOptions)>);

/// Internal per-job bookkeeping.
struct JobSlot {
    label: String,
    /// `Some` while the job is queued; taken at admission.
    pending: Option<PendingJob>,
    members: Vec<MemberSlot>,
    observer: Option<Box<dyn Observer>>,
    priority: u32,
    deadline_at: Option<Instant>,
    admitted_at: Option<Instant>,
    next_member: usize,
    slices: u64,
    phase: JobPhase,
    outcome: Option<JobOutcome>,
    /// Terminal totals, frozen at finalize so [`JobExecutor::stats`] and
    /// [`JobExecutor::status`] stay exact after the outcome has been
    /// [`take`](JobExecutor::take)n.
    finished_rounds: u64,
    finished_wall: Duration,
    finished_verdict: Option<JobVerdict>,
}

impl JobSlot {
    fn rounds(&self) -> u64 {
        match self.phase {
            JobPhase::Finished => self.finished_rounds,
            _ => self.members.iter().map(|m| m.session.rounds()).sum(),
        }
    }

    fn wall(&self) -> Duration {
        match self.phase {
            JobPhase::Finished => self.finished_wall,
            _ => self.admitted_at.map(|t| t.elapsed()).unwrap_or_default(),
        }
    }

    /// The job's progress (running jobs only): its members' events folded
    /// as documented on [`JobStatus::Running`].
    fn progress(&self) -> ProgressEvent {
        let mut job = ProgressEvent {
            rounds: 0,
            live_states: 0,
            stats: SearchStats::default(),
            elapsed: Duration::ZERO,
        };
        for member in &self.members {
            let event = member.session.progress_event();
            job.rounds += event.rounds;
            job.live_states += event.live_states;
            job.stats.merge(&event.stats);
            job.elapsed = job.elapsed.max(event.elapsed);
        }
        job
    }
}

/// The not-yet-admitted ingredients of a queued job as serialized in a
/// snapshot: its program, goal and member configurations (see
/// [`JobSnapshot::pending`]).
pub type PendingJobSnapshot = (Program, GoalSpec, Vec<(String, EsdOptions)>);

/// The durable state of one job slot, part of an [`ExecutorSnapshot`].
///
/// Wall-clock anchors are stored relative to the checkpoint instant
/// (`deadline_rel_nanos`, `admitted_elapsed`) and rebased to a common *now*
/// at restore, so the relative ordering [`FairnessPolicy::DeadlineFirst`]
/// depends on — and every session's deadline accounting — survives the
/// crash.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobSnapshot {
    /// The job's label.
    pub label: String,
    /// Queued jobs: the not-yet-admitted ingredients (program, goal,
    /// member configurations).
    pub pending: Option<PendingJobSnapshot>,
    /// Running jobs: each member's label and complete session snapshot
    /// (which embeds the program, options and engine state).
    pub members: Vec<(String, SessionSnapshot)>,
    /// The job's scheduling priority.
    pub priority: u32,
    /// The scheduling deadline relative to the checkpoint instant, in
    /// nanoseconds (negative once the deadline has passed).
    pub deadline_rel_nanos: Option<i64>,
    /// How long the job had been admitted when the checkpoint was taken.
    pub admitted_elapsed: Option<Duration>,
    /// The member the next slice goes to.
    pub next_member: usize,
    /// Executor slices dispatched to the job.
    pub slices: u64,
    /// The job's lifecycle phase.
    pub phase: JobPhase,
    /// The terminal outcome, if finished and not yet taken.
    pub outcome: Option<JobOutcome>,
    /// Terminal round totals frozen when the job was finalized.
    pub finished_rounds: u64,
    /// Terminal wall-clock total frozen at finalize.
    pub finished_wall: Duration,
    /// The terminal verdict frozen at finalize (survives `take`).
    pub finished_verdict: Option<JobVerdict>,
}

/// The complete durable state of a [`JobExecutor`], written at every
/// checkpoint and consumed by [`JobExecutor::recover`] /
/// [`Recovery::replay`](crate::journal::Recovery::replay).
///
/// Observers are deliberately absent: they are live callbacks, not state.
/// A recovered executor runs without them.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExecutorSnapshot {
    /// The fairness policy.
    pub policy: FairnessPolicy,
    /// The rotation cursor: the handle most recently served round-robin.
    pub rotation: Option<u64>,
    /// The configured base slice length in rounds.
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
    /// Slices dispatched over the executor's lifetime.
    pub slices_dispatched: u64,
    /// Search rounds advanced over the executor's lifetime.
    pub rounds_dispatched: u64,
    /// Jobs cancelled over the executor's lifetime.
    pub cancelled: u64,
    /// Every job slot, in handle order.
    pub jobs: Vec<JobSnapshot>,
}

/// The live half of a durable executor: where the snapshot and journal go,
/// the open journal writer, and the checkpoint countdown.
struct Durability {
    dir: PathBuf,
    journal: JournalWriter,
    epoch: u64,
    slices_since_checkpoint: u64,
}

/// The snapshot file name inside a durable directory.
const SNAPSHOT_FILE: &str = "snapshot.json";

/// The journal file name for a given epoch.
fn journal_file(epoch: u64) -> String {
    format!("journal-{epoch}.log")
}

/// Holds N independent synthesis jobs and time-slices them under a
/// [`FairnessPolicy`] — the multi-job debugging service of the module docs.
pub struct JobExecutor {
    policy: FairnessPolicy,
    /// The policy's rotation cursor: the handle most recently served
    /// round-robin.
    rotation: Option<JobHandle>,
    base_slice: u64,
    max_running: usize,
    checkpoint_every: u64,
    /// How many distinct jobs one batch grants slices to, each slice on its
    /// own thread. It shapes the scheduling stream (grants are planned
    /// against views frozen at batch start), so it is part of snapshots and
    /// replay — but never what any job synthesizes.
    pool_size: usize,
    slots: Vec<JobSlot>,
    slices_dispatched: u64,
    rounds_dispatched: u64,
    cancelled: u64,
    durable: Option<Durability>,
}

/// One planned batch entry being executed: the granted job's detached
/// member set plus the slice to run. Detaching (`std::mem::take`) gives the
/// task's thread exclusive ownership of the granted job's sessions without
/// aliasing the executor.
struct SliceTask {
    idx: usize,
    rounds: u64,
    members: Vec<MemberSlot>,
    next_member: usize,
    run: Option<SliceRun>,
}

impl SliceTask {
    /// Runs the granted slice on this task's detached members (on the
    /// task's own thread).
    fn execute(&mut self) {
        self.run = run_member_slice(&mut self.members, self.next_member, self.rounds);
    }
}

/// What one executed slice did: which member advanced, by how many rounds,
/// and whether it won the job.
struct SliceRun {
    offset: usize,
    advanced: u64,
    won: bool,
}

/// Advances the job's next runnable member by `rounds`; `None` when every
/// member is already terminal. Runs on pool threads — it touches nothing
/// but the job's own members, which is why cross-job parallelism cannot
/// perturb results.
fn run_member_slice(
    members: &mut [MemberSlot],
    next_member: usize,
    rounds: u64,
) -> Option<SliceRun> {
    let n = members.len();
    let offset =
        (0..n).map(|o| (next_member + o) % n).find(|&m| members[m].session.poll().is_running())?;
    let member = &mut members[offset];
    let before = member.session.rounds();
    let won = member.session.run_for(rounds).found().is_some();
    Some(SliceRun { offset, advanced: member.session.rounds() - before, won })
}

// The pool moves whole sessions across threads; keep the contract
// explicit so a non-Send regression fails here, not in a distant scope.
const _: () = {
    fn assert_send<T: Send>() {}
    #[allow(dead_code)]
    fn check() {
        assert_send::<MemberSlot>();
    }
};

impl JobExecutor {
    /// An executor scheduling with the given policy.
    pub fn new(policy: FairnessPolicy) -> Self {
        JobExecutor {
            policy,
            rotation: None,
            base_slice: DEFAULT_SLICE_ROUNDS,
            max_running: usize::MAX,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            pool_size: 1,
            slots: Vec::new(),
            slices_dispatched: 0,
            rounds_dispatched: 0,
            cancelled: 0,
            durable: None,
        }
    }

    /// A [`FairnessPolicy::RoundRobin`] executor.
    pub fn round_robin() -> Self {
        JobExecutor::new(FairnessPolicy::RoundRobin)
    }

    /// A [`FairnessPolicy::WeightedByPriority`] executor.
    pub fn weighted_by_priority() -> Self {
        JobExecutor::new(FairnessPolicy::WeightedByPriority)
    }

    /// A [`FairnessPolicy::DeadlineFirst`] executor.
    pub fn deadline_first() -> Self {
        JobExecutor::new(FairnessPolicy::DeadlineFirst)
    }

    /// Sets the base slice length in search rounds (policies may scale it;
    /// clamped to ≥ 1).
    pub fn slice_rounds(mut self, rounds: u64) -> Self {
        self.base_slice = rounds.max(1);
        self
    }

    /// Admission control: at most `n` jobs hold live sessions at once;
    /// excess submissions wait in FIFO order (clamped to ≥ 1).
    ///
    /// Admission order is FIFO regardless of the fairness policy — policies
    /// only arbitrate between *admitted* jobs, so under a tight cap even a
    /// [`FairnessPolicy::DeadlineFirst`] executor makes a deadline-bearing
    /// job wait behind earlier running jobs. Size the cap for the urgency
    /// mix you expect.
    pub fn max_running(mut self, n: usize) -> Self {
        self.max_running = n.max(1);
        self
    }

    /// The executor's one parallelism knob: each batch grants one slice to
    /// each of up to `n` *distinct* runnable jobs and runs them on `n`
    /// threads (default 1 — one grant per batch, run inline; `0` resolves
    /// to the machine's available parallelism). The batch is planned upfront
    /// against the runnable set frozen at batch start (the policy is
    /// consulted once per grant, already-granted jobs removed) and merged in
    /// grant order, so the pool size shapes the scheduling stream — it is
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

    /// Checkpoint cadence for durable executors: a fresh
    /// [`ExecutorSnapshot`] is written (and the journal truncated) every `n`
    /// dispatched slices (clamped to ≥ 1; default
    /// [`DEFAULT_CHECKPOINT_EVERY`]). A smaller `n` bounds replay work after
    /// a crash at the price of more snapshot I/O — the trade-off the
    /// executor bench quantifies.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Makes the executor durable: every state-changing decision is
    /// journaled to `dir` (write-ahead, length+checksum framed) and a full
    /// checkpoint is written every [`checkpoint_every`](Self::checkpoint_every)
    /// slices, so [`JobExecutor::recover`] can rebuild the executor after a
    /// crash. The directory is created if absent; an initial checkpoint is
    /// written immediately so the executor is recoverable from the moment
    /// this returns.
    pub fn durable_dir(mut self, dir: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let journal = JournalWriter::create(&dir.join(journal_file(0)))
            .map_err(|e| SnapshotError::Io(e.to_string()))?;
        self.durable = Some(Durability { dir, journal, epoch: 0, slices_since_checkpoint: 0 });
        self.checkpoint()?;
        Ok(self)
    }

    /// Recovers a crashed durable executor from `dir`: loads the latest
    /// checkpoint, replays the journal's valid prefix (tolerating a torn
    /// final record), truncates any damaged tail, and re-attaches the
    /// durable directory so the recovered executor keeps journaling where
    /// the crashed one stopped. See [`crate::journal`] for the
    /// `reduce(snapshot, journal)` invariant this relies on.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self, RecoveryError> {
        let dir = dir.as_ref();
        let snapshot: ExecutorSnapshot = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let journal_path = dir.join(journal_file(snapshot.epoch));
        let scanned = journal::load(&journal_path)?;
        let mut exec = replay_records(&snapshot, &scanned.records)?;
        if scanned.damage.is_some() {
            // Drop the torn/corrupt tail so appends resume from the last
            // valid frame.
            let bytes =
                std::fs::read(&journal_path).map_err(|e| RecoveryError::Io(e.to_string()))?;
            std::fs::write(&journal_path, &bytes[..scanned.valid_len.min(bytes.len())])
                .map_err(|e| RecoveryError::Io(e.to_string()))?;
        }
        let journal = JournalWriter::open_append(&journal_path)
            .map_err(|e| RecoveryError::Io(e.to_string()))?;
        exec.durable = Some(Durability {
            dir: dir.to_path_buf(),
            journal,
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
        let members = if spec.members.is_empty() {
            let options = EsdOptions::default();
            vec![(options.frontier.to_string(), options)]
        } else {
            spec.members
        };
        if self.durable.is_some() {
            self.journal_append(&JournalRecord::Submit {
                handle: handle.0,
                label: spec.label.clone(),
                program: Program::clone(&spec.program),
                goal: spec.goal.clone(),
                members: members.clone(),
                priority: spec.priority,
                deadline: spec.deadline,
            });
        }
        self.slots.push(JobSlot {
            label: spec.label,
            pending: Some((spec.program, spec.goal, members)),
            members: Vec::new(),
            observer: spec.observer,
            priority: spec.priority,
            deadline_at: spec.deadline.map(|d| Instant::now() + d),
            admitted_at: None,
            next_member: 0,
            slices: 0,
            phase: JobPhase::Queued,
            outcome: None,
            finished_rounds: 0,
            finished_wall: Duration::ZERO,
            finished_verdict: None,
        });
        handle
    }

    /// Submits a whole corpus at once, returning one handle per spec in
    /// submission order. Equivalent to calling
    /// [`submit`](JobExecutor::submit) in a loop; the convenience exists so
    /// corpus producers (the generated-workload harnesses) hand an entire
    /// batch to the policy in one statement.
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
    /// protocol. Running jobs carry their slice count and their members'
    /// folded [`ProgressEvent`];
    /// terminal jobs report their verdict even after the outcome has been
    /// [`take`](JobExecutor::take)n.
    ///
    /// # Panics
    /// On a handle from a different executor.
    pub fn status(&self, handle: JobHandle) -> JobStatus {
        let slot = &self.slots[handle.0 as usize];
        match slot.phase {
            JobPhase::Queued => JobStatus::Queued,
            JobPhase::Running => {
                JobStatus::Running { slices: slot.slices, progress: slot.progress() }
            }
            JobPhase::Finished => {
                match slot.finished_verdict.expect("finished jobs freeze their verdict") {
                    JobVerdict::Cancelled => JobStatus::Cancelled,
                    verdict => JobStatus::Finished { verdict },
                }
            }
        }
    }

    /// Removes and returns the job's terminal outcome (subsequent calls
    /// return `None`).
    pub fn take(&mut self, handle: JobHandle) -> Option<JobOutcome> {
        self.slots[handle.0 as usize].outcome.take()
    }

    /// Stops a job: queued jobs are dropped, running jobs have every member
    /// session cancelled (their partial statistics are kept in the
    /// outcome). Returns `true` if the job was still pending or running.
    pub fn cancel(&mut self, handle: JobHandle) -> bool {
        let idx = handle.0 as usize;
        match self.slots[idx].phase {
            JobPhase::Finished => false,
            JobPhase::Queued | JobPhase::Running => {
                if self.durable.is_some() {
                    self.journal_append(&JournalRecord::Cancel { handle: handle.0 });
                }
                self.slots[idx].pending = None;
                self.cancelled += 1;
                self.finalize(idx, JobVerdict::Cancelled);
                true
            }
        }
    }

    /// True while any job is queued or running.
    pub fn has_work(&self) -> bool {
        self.slots.iter().any(|s| s.phase != JobPhase::Finished)
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
        let views = self.runnable_views();
        if views.is_empty() {
            return false;
        }
        let grants = self.plan_batch(&views);
        if self.durable.is_some() {
            // Write-ahead: the whole batch is durable before any slice
            // runs, so a crash mid-batch replays it instead of losing it.
            self.journal_append(&JournalRecord::Grant { grants: grants.clone() });
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

    /// Plans one batch of grants against the runnable views frozen at batch
    /// start: the policy is consulted once per grant with already-granted
    /// jobs removed, so every grant goes to a distinct job and the plan is a
    /// deterministic function of (views, policy, rotation cursor, pool
    /// size).
    fn plan_batch(&mut self, views: &[JobView]) -> Vec<(u64, u64)> {
        let mut remaining = views.to_vec();
        let mut grants = Vec::with_capacity(self.pool_size.min(remaining.len()));
        while grants.len() < self.pool_size && !remaining.is_empty() {
            let (choice, rounds) = self.next_slice(&remaining);
            let view = remaining.remove(choice);
            grants.push((view.handle.0, rounds.max(1)));
        }
        grants
    }

    /// The fairness policy's next grant: `(index into jobs, slice length in
    /// rounds)`; `jobs` is non-empty and in submit order. Round-robin turns
    /// advance the rotation cursor, which keys on handles (not indices), so
    /// the rotation survives jobs finishing or being admitted mid-cycle.
    fn next_slice(&mut self, jobs: &[JobView]) -> (usize, u64) {
        if self.policy == FairnessPolicy::DeadlineFirst {
            let urgent = jobs
                .iter()
                .enumerate()
                .filter_map(|(i, j)| j.deadline_at.map(|d| (d, j.handle, i)))
                .min();
            if let Some((_, _, idx)) = urgent {
                return (idx, self.base_slice.saturating_mul(DEADLINE_SLICE_BOOST));
            }
        }
        // The next runnable job strictly after the cursor in handle order,
        // wrapping to the front.
        let idx = self.rotation.and_then(|l| jobs.iter().position(|j| j.handle > l)).unwrap_or(0);
        self.rotation = Some(jobs[idx].handle);
        match self.policy {
            FairnessPolicy::WeightedByPriority => {
                (idx, self.base_slice.saturating_mul(u64::from(jobs[idx].priority)))
            }
            _ => (idx, self.base_slice),
        }
    }

    /// Executes a planned batch: detaches each granted job's member set,
    /// runs every slice on its own scoped thread (the calling thread runs
    /// the first, so a batch of one spawns nothing), then merges results
    /// strictly in grant order. Jobs share nothing, so execution order
    /// cannot change any result; merge order makes the bookkeeping —
    /// statistics, observer callbacks, finalization — deterministic as well.
    fn execute_batch(&mut self, grants: &[(u64, u64)]) {
        let mut work: Vec<SliceTask> = grants
            .iter()
            .map(|&(handle, rounds)| {
                let slot = &mut self.slots[handle as usize];
                SliceTask {
                    idx: handle as usize,
                    rounds,
                    members: std::mem::take(&mut slot.members),
                    next_member: slot.next_member,
                    run: None,
                }
            })
            .collect();
        let (first, rest) = work.split_first_mut().expect("planned batches are non-empty");
        std::thread::scope(|scope| {
            for task in rest {
                scope.spawn(move || task.execute());
            }
            first.execute();
        });
        for task in work {
            let slot = &mut self.slots[task.idx];
            slot.members = task.members;
            self.merge_slice(task.idx, task.run);
        }
    }

    /// Merges one executed slice back into the executor (grant order):
    /// updates the dispatch counters, finalizes the job if the slice won or
    /// exhausted every member, and fires the job observer otherwise.
    fn merge_slice(&mut self, idx: usize, run: Option<SliceRun>) {
        let Some(SliceRun { offset, advanced, won }) = run else {
            // Every member already terminal (can only happen via external
            // session manipulation); close the job out.
            self.finalize(idx, JobVerdict::Unsatisfied);
            return;
        };
        let slot = &mut self.slots[idx];
        slot.slices += 1;
        slot.next_member = (offset + 1) % slot.members.len();
        self.slices_dispatched += 1;
        self.rounds_dispatched += advanced;

        if won {
            // The satellite fix the regression tests pin: the moment a
            // member reports Found, the job is finalized and every other
            // member is cancelled — members later in the same scheduling
            // round never receive another slice, so per-member `rounds`
            // statistics stay exactly what each member actually ran.
            self.finalize(idx, JobVerdict::Found);
            return;
        }
        let slot = &mut self.slots[idx];
        if slot.members.iter().all(|m| !m.session.poll().is_running()) {
            self.finalize(idx, JobVerdict::Unsatisfied);
            return;
        }
        // Per-job observer fan-out: a progress snapshot of the member that
        // just advanced, once per dispatched slice.
        let slot = &mut self.slots[idx];
        if let Some(observer) = &mut slot.observer {
            observer.on_progress(&slot.members[offset].session.progress_event());
        }
    }

    /// The scheduling views of every running job, in submit order.
    fn runnable_views(&self) -> Vec<JobView> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == JobPhase::Running)
            .map(|(i, s)| JobView {
                handle: JobHandle(i as u64),
                priority: s.priority,
                deadline_at: s.deadline_at,
            })
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
            cancelled: self.cancelled,
            slices_dispatched: self.slices_dispatched,
            rounds_dispatched: self.rounds_dispatched,
            jobs: Vec::with_capacity(self.slots.len()),
        };
        for (i, slot) in self.slots.iter().enumerate() {
            match slot.phase {
                JobPhase::Queued => stats.queued += 1,
                JobPhase::Running => stats.running += 1,
                JobPhase::Finished => stats.finished += 1,
            }
            stats.jobs.push(JobStat {
                handle: JobHandle(i as u64),
                label: slot.label.clone(),
                phase: slot.phase,
                slices: slot.slices,
                rounds: slot.rounds(),
                wall: slot.wall(),
            });
        }
        stats
    }

    /// Admits queued jobs (FIFO) while the running count is below the cap.
    /// Admission runs the job's static phase — shared across its members —
    /// and starts its wall clock.
    fn admit(&mut self) {
        let mut running = self.slots.iter().filter(|s| s.phase == JobPhase::Running).count();
        for idx in 0..self.slots.len() {
            if running >= self.max_running {
                break;
            }
            if self.slots[idx].phase != JobPhase::Queued {
                continue;
            }
            let (program, goal, members) =
                self.slots[idx].pending.take().expect("queued jobs keep their spec");
            let admitted_at = Instant::now();
            // One static phase per job, over every goal location, shared by
            // all members — exactly what Portfolio::run always did.
            let analysis = Arc::new(StaticAnalysis::compute_multi(&program, &goal.primary_locs()));
            let slot = &mut self.slots[idx];
            slot.members = members
                .into_iter()
                .map(|(label, options)| {
                    let mut session = SynthesisSession::from_parts(
                        program.clone(),
                        analysis.clone(),
                        goal.clone(),
                        options.clone(),
                        None,
                        0,
                    );
                    // Each member's clock (elapsed, EsdOptions::deadline)
                    // covers the shared static phase, like a solo run's.
                    session.started_at = admitted_at;
                    MemberSlot { label, options, session }
                })
                .collect();
            slot.admitted_at = Some(admitted_at);
            slot.phase = JobPhase::Running;
            running += 1;
        }
    }

    /// Moves a job to [`JobPhase::Finished`]: cancels still-running member
    /// sessions, assembles the portfolio-shaped [`JobOutcome`], and fires
    /// the job observer's `on_finish`.
    fn finalize(&mut self, idx: usize, verdict: JobVerdict) {
        let slot = &mut self.slots[idx];
        for member in &mut slot.members {
            member.session.cancel(); // no-op on members already terminal
        }
        let mut result = PortfolioResult { winner: None, members: Vec::new() };
        // The terminal status handed to the job observer (the winner's
        // `Found`, or the first member's terminal status) — only tracked
        // when an observer exists, because the clone copies the full
        // synthesized execution.
        let has_observer = slot.observer.is_some();
        let mut finish_status: Option<SessionStatus> = None;
        let mut rounds_total = 0;
        for member in slot.members.drain(..) {
            let MemberSlot { label, options, session } = member;
            let rounds = session.rounds();
            rounds_total += rounds;
            let status = session.into_status();
            if has_observer && (finish_status.is_none() || status.found().is_some()) {
                finish_status = Some(status.clone());
            }
            let (outcome, stats) = match status {
                SessionStatus::Found(report) => {
                    let stats = report.stats.clone();
                    result.winner = Some(PortfolioWinner {
                        member: result.members.len(),
                        label: label.clone(),
                        report: *report,
                    });
                    (MemberOutcome::Won, stats)
                }
                SessionStatus::Cancelled(stats) => (MemberOutcome::Preempted, stats),
                SessionStatus::Exhausted(stats) => (MemberOutcome::Exhausted, stats),
                SessionStatus::BudgetExceeded(stats) => (MemberOutcome::BudgetExceeded, stats),
                SessionStatus::DeadlineExpired(stats) => (MemberOutcome::DeadlineExpired, stats),
                SessionStatus::Running => unreachable!("members were cancelled above"),
            };
            result.members.push(MemberReport {
                label,
                frontier: options.frontier,
                seed: options.seed,
                rounds,
                outcome,
                stats,
            });
        }
        let verdict = if result.winner.is_some() { JobVerdict::Found } else { verdict };
        let wall = slot.admitted_at.map(|t| t.elapsed()).unwrap_or_default();
        let outcome = JobOutcome {
            handle: JobHandle(idx as u64),
            label: slot.label.clone(),
            verdict,
            result,
            slices: slot.slices,
            rounds: rounds_total,
            wall,
        };
        slot.finished_rounds = rounds_total;
        slot.finished_wall = wall;
        slot.finished_verdict = Some(verdict);
        slot.phase = JobPhase::Finished;
        if let Some(observer) = &mut slot.observer {
            let status = finish_status
                .unwrap_or_else(|| SessionStatus::Cancelled(esd_symex::SearchStats::default()));
            observer.on_finish(&status);
        }
        slot.outcome = Some(outcome);
        if self.durable.is_some() {
            self.journal_append(&JournalRecord::Finalize { handle: idx as u64, verdict });
        }
    }

    /// Appends one record to the durable journal. Durability I/O failures
    /// are hard errors: a debugging service that silently loses its commit
    /// log cannot honor its recovery contract.
    fn journal_append(&mut self, record: &JournalRecord) {
        if let Some(durable) = &mut self.durable {
            durable.journal.append(record).expect("durable executor failed to append its journal");
        }
    }

    /// Writes a fresh checkpoint: the next-epoch journal is created first,
    /// then the snapshot naming that epoch is written atomically, then the
    /// old journal is deleted. A crash between any two of those steps leaves
    /// a consistent (snapshot, journal) pair for [`JobExecutor::recover`] —
    /// either the old pair (snapshot not yet renamed) or the new one.
    /// No-op on non-durable executors.
    pub fn checkpoint(&mut self) -> Result<(), SnapshotError> {
        if self.durable.is_none() {
            return Ok(());
        }
        let (dir, old_epoch) = {
            let durable = self.durable.as_ref().expect("checked above");
            (durable.dir.clone(), durable.epoch)
        };
        let new_epoch = old_epoch + 1;
        let journal = JournalWriter::create(&dir.join(journal_file(new_epoch)))
            .map_err(|e| SnapshotError::Io(e.to_string()))?;
        let snapshot = self.snapshot_with_epoch(new_epoch);
        save_snapshot(&dir.join(SNAPSHOT_FILE), &snapshot)?;
        let durable = self.durable.as_mut().expect("checked above");
        durable.journal = journal;
        durable.epoch = new_epoch;
        durable.slices_since_checkpoint = 0;
        let _ = std::fs::remove_file(dir.join(journal_file(old_epoch)));
        Ok(())
    }

    /// Captures the executor's complete durable state (see
    /// [`ExecutorSnapshot`]). Job observers are not captured.
    pub fn snapshot(&self) -> ExecutorSnapshot {
        let epoch = self.durable.as_ref().map(|d| d.epoch).unwrap_or(0);
        self.snapshot_with_epoch(epoch)
    }

    fn snapshot_with_epoch(&self, epoch: u64) -> ExecutorSnapshot {
        let now = Instant::now();
        let jobs = self
            .slots
            .iter()
            .map(|slot| JobSnapshot {
                label: slot.label.clone(),
                pending: slot
                    .pending
                    .as_ref()
                    .map(|(p, g, m)| (Program::clone(p), g.clone(), m.clone())),
                members: slot
                    .members
                    .iter()
                    .map(|m| (m.label.clone(), m.session.snapshot()))
                    .collect(),
                priority: slot.priority,
                deadline_rel_nanos: slot.deadline_at.map(|d| match d.checked_duration_since(now) {
                    Some(ahead) => ahead.as_nanos() as i64,
                    None => -(now.duration_since(d).as_nanos() as i64),
                }),
                admitted_elapsed: slot.admitted_at.map(|t| t.elapsed()),
                next_member: slot.next_member,
                slices: slot.slices,
                phase: slot.phase,
                outcome: slot.outcome.clone(),
                finished_rounds: slot.finished_rounds,
                finished_wall: slot.finished_wall,
                finished_verdict: slot.finished_verdict,
            })
            .collect();
        ExecutorSnapshot {
            policy: self.policy,
            rotation: self.rotation.map(|h| h.0),
            base_slice: self.base_slice,
            max_running: self.max_running,
            checkpoint_every: self.checkpoint_every,
            pool_size: self.pool_size,
            epoch,
            slices_dispatched: self.slices_dispatched,
            rounds_dispatched: self.rounds_dispatched,
            cancelled: self.cancelled,
            jobs,
        }
    }
}

/// Restores an executor from a snapshot (no journal replay, no durability).
fn restore_snapshot(snapshot: &ExecutorSnapshot) -> JobExecutor {
    let now = Instant::now();
    let slots = snapshot
        .jobs
        .iter()
        .map(|job| JobSlot {
            label: job.label.clone(),
            pending: job
                .pending
                .as_ref()
                .map(|(p, g, m)| (Arc::new(p.clone()), g.clone(), m.clone())),
            members: job
                .members
                .iter()
                .map(|(label, session)| MemberSlot {
                    label: label.clone(),
                    options: session.options.clone(),
                    session: SynthesisSession::restore(session),
                })
                .collect(),
            observer: None,
            priority: job.priority,
            deadline_at: job.deadline_rel_nanos.map(|nanos| {
                if nanos >= 0 {
                    now + Duration::from_nanos(nanos as u64)
                } else {
                    now.checked_sub(Duration::from_nanos(nanos.unsigned_abs())).unwrap_or(now)
                }
            }),
            admitted_at: job
                .admitted_elapsed
                .map(|elapsed| now.checked_sub(elapsed).unwrap_or(now)),
            next_member: job.next_member,
            slices: job.slices,
            phase: job.phase,
            outcome: job.outcome.clone(),
            finished_rounds: job.finished_rounds,
            finished_wall: job.finished_wall,
            finished_verdict: job.finished_verdict,
        })
        .collect();
    JobExecutor {
        policy: snapshot.policy,
        rotation: snapshot.rotation.map(JobHandle),
        base_slice: snapshot.base_slice,
        max_running: snapshot.max_running,
        checkpoint_every: snapshot.checkpoint_every,
        pool_size: snapshot.pool_size.max(1),
        slots,
        slices_dispatched: snapshot.slices_dispatched,
        rounds_dispatched: snapshot.rounds_dispatched,
        cancelled: snapshot.cancelled,
        durable: None,
    }
}

/// Replays a journal's valid prefix of records on top of a restored
/// snapshot — the implementation behind
/// [`Recovery::replay`](crate::journal::Recovery::replay). Grants re-plan
/// the batch with the restored fairness policy and every re-taken decision
/// is verified against the journaled one; any mismatch is a
/// [`RecoveryError::Divergence`], never a panic.
pub(crate) fn replay_records(
    snapshot: &ExecutorSnapshot,
    records: &[JournalRecord],
) -> Result<JobExecutor, RecoveryError> {
    let mut exec = restore_snapshot(snapshot);
    for record in records {
        match record {
            JournalRecord::Submit { handle, label, program, goal, members, priority, deadline } => {
                let expected = exec.slots.len() as u64;
                if *handle != expected {
                    return Err(RecoveryError::Divergence(format!(
                        "journaled submit assigns handle {handle}, executor would assign \
                         {expected}"
                    )));
                }
                let mut spec =
                    JobSpec::new(label.clone(), program, goal.clone()).priority(*priority);
                if let Some(deadline) = deadline {
                    spec = spec.deadline(*deadline);
                }
                for (member_label, options) in members {
                    spec = spec.member(member_label.clone(), options.clone());
                }
                exec.submit(spec);
            }
            JournalRecord::Grant { grants } => {
                exec.admit();
                let views = exec.runnable_views();
                if views.is_empty() {
                    return Err(RecoveryError::Divergence(format!(
                        "journal grants {grants:?} but no job is runnable"
                    )));
                }
                // Re-plan with the restored policy and pool size and demand
                // the exact journaled grant vector: planning is deterministic,
                // so any mismatch means the snapshot/journal pair diverged.
                let replanned = exec.plan_batch(&views);
                if &replanned != grants {
                    return Err(RecoveryError::Divergence(format!(
                        "journal grants {grants:?}, replayed policy plans {replanned:?}"
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
                let actual = match slot.phase {
                    JobPhase::Finished => slot.outcome.as_ref().map(|o| o.verdict),
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
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, Loc, ProgramBuilder};
    use std::sync::{Arc, Mutex};

    fn crashy(name: &str, trigger: i64) -> (esd_ir::Program, Loc) {
        let mut pb = ProgramBuilder::new(name);
        let mut loc = None;
        pb.function("main", 0, |f| {
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

    fn view(id: u64, priority: u32, deadline_at: Option<Instant>) -> JobView {
        JobView { handle: JobHandle(id), priority, deadline_at }
    }

    #[test]
    fn round_robin_cycles_in_handle_order_across_membership_changes() {
        let mut rr = JobExecutor::round_robin().slice_rounds(8);
        let jobs = [view(0, 1, None), view(1, 1, None), view(2, 1, None)];
        assert_eq!(rr.next_slice(&jobs), (0, 8));
        assert_eq!(rr.next_slice(&jobs), (1, 8));
        // Job 2 finishes; the rotation keys on handles, so after serving
        // job 1 the next runnable handle wraps to 0.
        let jobs = [view(0, 1, None), view(1, 1, None)];
        assert_eq!(rr.next_slice(&jobs), (0, 8));
        // A new job 3 arrives mid-cycle and gets its turn after 1.
        let jobs = [view(0, 1, None), view(1, 1, None), view(3, 1, None)];
        assert_eq!(rr.next_slice(&jobs), (1, 8));
        assert_eq!(rr.next_slice(&jobs), (2, 8));
        assert_eq!(rr.next_slice(&jobs), (0, 8));
    }

    #[test]
    fn weighted_policy_scales_slices_by_priority() {
        let mut wp = JobExecutor::weighted_by_priority().slice_rounds(100);
        let jobs = [view(0, 1, None), view(1, 4, None)];
        assert_eq!(wp.next_slice(&jobs), (0, 100));
        assert_eq!(wp.next_slice(&jobs), (1, 400));
        assert_eq!(wp.next_slice(&jobs), (0, 100));
    }

    #[test]
    fn deadline_first_serves_the_earliest_deadline_with_a_boost() {
        let mut df = JobExecutor::deadline_first().slice_rounds(100);
        let now = Instant::now();
        let soon = now + Duration::from_secs(10);
        let late = now + Duration::from_secs(1000);
        let jobs = [view(0, 1, None), view(1, 1, Some(late)), view(2, 1, Some(soon))];
        assert_eq!(df.next_slice(&jobs), (2, 100 * DEADLINE_SLICE_BOOST));
        // Deadline jobs are served exclusively while any remain.
        assert_eq!(df.next_slice(&jobs), (2, 100 * DEADLINE_SLICE_BOOST));
        // Without deadline jobs, the policy degrades to round-robin.
        let jobs = [view(0, 1, None), view(3, 1, None)];
        assert_eq!(df.next_slice(&jobs), (0, 100));
        assert_eq!(df.next_slice(&jobs), (1, 100));
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
        assert_eq!(outcome.verdict, JobVerdict::Found);
        assert_eq!(outcome.label, "job");
        assert_eq!(outcome.report().unwrap().execution.inputs[0].value, 9);
        assert_eq!(outcome.result.members.len(), 1, "default spec runs one member");
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
        exec.run_until_idle();
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
        // Cancel b while it is still queued: no sessions ever exist for it.
        assert!(exec.cancel(b));
        assert_eq!(exec.status(b), JobStatus::Cancelled);
        let outcome = exec.take(b).unwrap();
        assert_eq!(outcome.verdict, JobVerdict::Cancelled);
        assert!(outcome.result.members.is_empty());
        assert_eq!(outcome.wall, Duration::ZERO);
        assert_eq!(exec.status(b), JobStatus::Cancelled, "status survives take()");
        // Cancel a mid-run: partial member stats survive.
        assert!(exec.run_slice());
        assert!(exec.cancel(a));
        let outcome = exec.take(a).unwrap();
        assert_eq!(outcome.verdict, JobVerdict::Cancelled);
        assert_eq!(outcome.result.members.len(), 1);
        assert_eq!(outcome.result.members[0].outcome, MemberOutcome::Preempted);
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
        let h = exec.submit(
            JobSpec::new("watched", &p, GoalSpec::Crash { loc })
                .observer(Box::new(RecordingObserver(recording.clone()))),
        );
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
        let mut exec = JobExecutor::weighted_by_priority();
        let a = exec.submit(JobSpec::new("a", &p, GoalSpec::Crash { loc }).priority(3));
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
                assert_eq!(outcome.verdict, JobVerdict::Found);
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

    /// Snapshots carry the scheduling state: the policy, the pool size and
    /// the per-job frozen verdict all survive a snapshot → restore
    /// round-trip (replay with an empty journal).
    #[test]
    fn snapshot_round_trips_pool_size_and_finished_verdict() {
        let (p, loc) = crashy("exec_snapshot_pool", 2);
        let mut exec = JobExecutor::weighted_by_priority().pool_size(4);
        let h = exec.submit(JobSpec::new("job", &p, GoalSpec::Crash { loc }));
        exec.run_until_idle();
        exec.take(h).expect("job finished");
        let snapshot = exec.snapshot();
        assert_eq!((snapshot.policy, snapshot.pool_size), (FairnessPolicy::WeightedByPriority, 4));
        assert_eq!(snapshot.jobs[0].finished_verdict, Some(JobVerdict::Found));
        let restored = replay_records(&snapshot, &[]).expect("snapshot restores");
        assert_eq!((restored.policy, restored.pool_size), (FairnessPolicy::WeightedByPriority, 4));
        assert_eq!(restored.status(h), JobStatus::Finished { verdict: JobVerdict::Found });
    }

    /// A policy name this build does not know is a typed snapshot decode
    /// error at recovery, never a panic.
    #[test]
    fn unknown_policy_in_a_snapshot_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("esd_unknown_policy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let payload = serde_json::to_string(&JobExecutor::round_robin().snapshot())
            .expect("snapshot serializes");
        assert!(payload.contains(r#""policy":"RoundRobin""#), "{payload}");
        let payload = payload.replace(r#""policy":"RoundRobin""#, r#""policy":"Lottery""#);
        std::fs::write(dir.join(SNAPSHOT_FILE), crate::snapshot::seal(&payload))
            .expect("snapshot written");
        let err = JobExecutor::recover(&dir).err().expect("an unknown policy cannot recover");
        assert!(
            matches!(err, RecoveryError::Snapshot(SnapshotError::Decode(_))),
            "unexpected error {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scheduling deadline far beyond any real horizon is clamped, so a
    /// snapshot stores a sane offset: after restore, `DeadlineFirst` still
    /// serves the 60 s job before the 2^40 s one.
    #[test]
    fn huge_deadlines_survive_a_snapshot_in_order() {
        let (p, loc) = crashy("exec_huge_deadline", 6);
        let mut exec = JobExecutor::deadline_first().slice_rounds(1);
        let far = exec.submit(
            JobSpec::new("far", &p, GoalSpec::Crash { loc }).deadline(Duration::from_secs(1 << 40)),
        );
        let near = exec.submit(
            JobSpec::new("near", &p, GoalSpec::Crash { loc }).deadline(Duration::from_secs(60)),
        );
        let snapshot = exec.snapshot();
        let rel = |h: JobHandle| snapshot.jobs[h.id() as usize].deadline_rel_nanos.unwrap();
        assert!(rel(far) > rel(near) && rel(near) > 0, "{} vs {}", rel(far), rel(near));
        let mut restored = replay_records(&snapshot, &[]).expect("snapshot restores");
        assert!(restored.run_slice());
        let stats = restored.stats();
        assert_eq!(stats.jobs[near.id() as usize].slices, 1, "the 60 s job is served first");
        assert_eq!(stats.jobs[far.id() as usize].slices, 0);
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
        let scanned = journal::load(&dir.join(journal_file(1))).expect("journal reads");
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
