//! Stepwise synthesis sessions: the resumable form of `esdsynth`.
//!
//! [`Esd::synthesize`](crate::Esd::synthesize) is a blocking one-shot — fine
//! for a single bug report, wrong for anything that needs to observe
//! progress, enforce a deadline, cancel a runaway job, or interleave several
//! synthesis jobs on one machine. A [`SynthesisSession`] is the same pipeline
//! cut at the engine's round boundary ([`esd_symex::Engine::step_round`]):
//! it owns the program, the static analysis and the engine for one job, and
//! the caller decides when (and how much) it runs:
//!
//! * [`SynthesisSession::run_for`] advances up to `n` search rounds and
//!   returns the current [`SessionStatus`];
//! * [`SynthesisSession::poll`] inspects the status without advancing;
//! * [`SynthesisSession::cancel`] stops the job, keeping the partial
//!   [`SearchStats`];
//! * an [`Observer`] receives [`ProgressEvent`]s (step count, states forked
//!   and pruned, races flagged, current best proximity) while the search
//!   runs.
//!
//! Slicing never changes the result: for a fixed seed, a session advanced
//! one round at a time synthesizes the exact execution the one-shot facade
//! produces, because the facade *is* a loop over the same rounds.
//!
//! A session is configured by one [`EsdOptions`] value, which its engine
//! holds (built with `EsdOptions::builder()`, or the KC baseline's
//! [`EsdOptions::kc`] preset). The multi-job
//! [`JobExecutor`](crate::executor::JobExecutor) above them holds one
//! session per job and time-slices the jobs round-robin. A job's one
//! deadline is its session's [`EsdOptions::deadline`].

use crate::execfile::SynthesizedExecution;
use crate::synth::SynthesisReport;
use esd_analysis::StaticAnalysis;
use esd_ir::Program;
use esd_symex::{
    Engine, EngineSnapshot, EsdOptions, GoalSpec, SearchStats, StepOutcome, Synthesized,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many rounds a session runs between [`ProgressEvent`]s by default
/// (overridable via [`SynthesisSession::from_parts`]).
pub const DEFAULT_PROGRESS_EVERY: u64 = 4096;

/// How a session slice is advanced internally by the blocking facade.
const RUN_TO_COMPLETION_SLICE: u64 = 16 * 1024;

/// A progress snapshot handed to an [`Observer`] while a session runs.
///
/// The same type is a running job's progress in
/// [`JobStatus::Running`](crate::JobStatus::Running). Serializable so the
/// service layer can stream progress as wire messages.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProgressEvent {
    /// Search rounds (frontier selections) completed so far.
    pub rounds: u64,
    /// Live states currently in the pool.
    pub live_states: usize,
    /// The search statistics so far (steps, forks, pruning counters, races,
    /// best proximity).
    pub stats: SearchStats,
    /// Wall-clock time since the session was created.
    pub elapsed: Duration,
}

/// Receives progress callbacks from a [`SynthesisSession`].
///
/// Pass one to [`SynthesisSession::from_parts`], or attach one to an
/// executor job with
/// [`JobExecutor::observe`](crate::executor::JobExecutor::observe). Both
/// methods have empty default bodies so implementors opt into exactly the
/// callbacks they need.
/// Observers are `Send` because the executor advances sessions on a worker
/// thread pool; callbacks still fire from one thread at a time (and job
/// observers always fire on the executor's own thread, in deterministic
/// merge order).
pub trait Observer: Send {
    /// Called every `progress_every` rounds (see
    /// [`SynthesisSession::from_parts`]) while the session is running.
    fn on_progress(&mut self, _event: &ProgressEvent) {}

    /// Called exactly once, when the session reaches a terminal
    /// [`SessionStatus`] (found / exhausted / budget / deadline /
    /// cancelled).
    fn on_finish(&mut self, _status: &SessionStatus) {}
}

/// The state of a [`SynthesisSession`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum SessionStatus {
    /// The search has not reached a verdict; keep calling
    /// [`SynthesisSession::run_for`].
    Running,
    /// The goal was reached: the synthesized execution and its report.
    Found(Box<SynthesisReport>),
    /// Every state was explored or abandoned without reaching the goal, and
    /// the state cap (`max_states`) dropped no fork.
    Exhausted(SearchStats),
    /// The instruction budget (`max_steps`) ran out, or the search ran out
    /// of states after the state cap (`max_states`) may have dropped a fork.
    BudgetExceeded(SearchStats),
    /// The wall-clock deadline passed before the search reached a verdict.
    DeadlineExpired(SearchStats),
    /// [`SynthesisSession::cancel`] was called; the stats cover the work
    /// done up to that point.
    Cancelled(SearchStats),
}

impl SessionStatus {
    /// True while the session can still be advanced.
    pub fn is_running(&self) -> bool {
        matches!(self, SessionStatus::Running)
    }

    /// The synthesis report, if the session succeeded.
    pub fn found(&self) -> Option<&SynthesisReport> {
        match self {
            SessionStatus::Found(r) => Some(r),
            _ => None,
        }
    }

    /// The search statistics carried by a terminal status (`None` while
    /// running).
    pub fn stats(&self) -> Option<&SearchStats> {
        match self {
            SessionStatus::Running => None,
            SessionStatus::Found(r) => Some(&r.stats),
            SessionStatus::Exhausted(s)
            | SessionStatus::BudgetExceeded(s)
            | SessionStatus::DeadlineExpired(s)
            | SessionStatus::Cancelled(s) => Some(s),
        }
    }
}

/// The complete durable state of a [`SynthesisSession`], produced by
/// [`SynthesisSession::snapshot`] and consumed by
/// [`SynthesisSession::restore`].
///
/// The snapshot is self-contained: it embeds the program and the exact
/// engine state (the options, frontier contents, dedup fingerprints, RNG
/// stream, statistics), so `restore` needs nothing but the snapshot. Each
/// thing is stored once: the options live only in the engine snapshot, and
/// the program is shared with the live session rather than copied. The
/// static analysis is deliberately *not* stored — it is recomputed on
/// restore, which is deterministic. Serialization is canonical: taking a
/// snapshot of a restored session yields byte-identical JSON (pinned by the
/// `properties` suite).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionSnapshot {
    /// The program under synthesis.
    pub program: Arc<Program>,
    /// The engine's durable state (options, states, frontier, stats, RNG).
    pub engine: EngineSnapshot,
    /// Search rounds advanced so far.
    pub rounds: u64,
    /// The session status at snapshot time.
    pub status: SessionStatus,
    /// Wall-clock time the session had been running when the snapshot was
    /// taken; `restore` rebases the session clock by this much so deadlines
    /// keep covering the pre-snapshot work.
    pub elapsed: Duration,
    /// The progress cadence (see [`SynthesisSession::from_parts`]).
    pub progress_every: u64,
}

/// One resumable synthesis job: the program, its static analysis and the
/// search engine, advanced in caller-controlled slices.
///
/// Create one with [`SynthesisSession::new`] (or
/// [`SynthesisSession::from_parts`]). Determinism invariant: for a fixed seed,
/// the slicing pattern (`run_for(1)` a million times, `run_for(u64::MAX)`
/// once, or anything between) never changes the synthesized execution —
/// see the `session_slicing_is_deterministic` integration test.
pub struct SynthesisSession {
    engine: Engine,
    observer: Option<Box<dyn Observer>>,
    progress_every: u64,
    /// When this job's clock started. Constructors that run the static
    /// phase themselves rebase this so `elapsed` (and the deadline) cover
    /// the whole synthesis — static + dynamic — like the blocking facade
    /// always reported.
    pub(crate) started_at: Instant,
    rounds: u64,
    status: SessionStatus,
}

impl SynthesisSession {
    /// Creates a session for one job with the given options (no observer;
    /// [`SynthesisSession::from_parts`] attaches one).
    pub fn new(program: &Program, goal: GoalSpec, options: EsdOptions) -> Self {
        let started_at = Instant::now();
        let program = Arc::new(program.clone());
        // The static phase covers *every* goal location (a deadlock report
        // lists one blocked-lock location per deadlocked thread), so the
        // proximity guidance reaches all of them.
        let analysis = Arc::new(StaticAnalysis::compute_multi(&program, &goal.primary_locs()));
        let mut session =
            Self::from_parts(program, analysis, goal, options, None, DEFAULT_PROGRESS_EVERY);
        session.started_at = started_at;
        session
    }

    /// Creates a session over an already-computed static analysis, so the
    /// caller decides where the static phase runs and what it is charged to
    /// (the executor times it as part of admission). The `observer`, if
    /// any, receives a progress event every `progress_every` rounds
    /// (`0` disables periodic events) and the terminal status.
    pub fn from_parts(
        program: Arc<Program>,
        analysis: Arc<StaticAnalysis>,
        goal: GoalSpec,
        options: EsdOptions,
        observer: Option<Box<dyn Observer>>,
        progress_every: u64,
    ) -> Self {
        SynthesisSession {
            engine: Engine::new(program, analysis, goal, options),
            observer,
            progress_every,
            started_at: Instant::now(),
            rounds: 0,
            status: SessionStatus::Running,
        }
    }

    /// Captures the session's complete durable state (see
    /// [`SessionSnapshot`]). The attached [`Observer`], if any, is not part
    /// of the snapshot — observers are live callbacks, not state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            program: Arc::clone(self.engine.program()),
            engine: self.engine.snapshot(),
            rounds: self.rounds,
            status: self.status.clone(),
            elapsed: self.started_at.elapsed(),
            progress_every: self.progress_every,
        }
    }

    /// Rebuilds a session from a [`SessionSnapshot`]. The static analysis is
    /// recomputed (it is a deterministic function of the program and the
    /// goal), the engine is restored exactly, and the session clock is
    /// rebased so `elapsed()` continues from the snapshot's value. The
    /// restored session carries no observer; attach state reporting anew if
    /// needed.
    ///
    /// Determinism invariant: continuing a restored session produces the
    /// byte-identical synthesized execution an uninterrupted run produces
    /// (pinned by the crash-recovery test matrix).
    pub fn restore(snapshot: &SessionSnapshot) -> Self {
        let program = Arc::clone(&snapshot.program);
        let analysis =
            Arc::new(StaticAnalysis::compute_multi(&program, &snapshot.engine.goal.primary_locs()));
        let engine = Engine::restore(program, analysis, &snapshot.engine);
        let started_at = Instant::now().checked_sub(snapshot.elapsed).unwrap_or_else(Instant::now);
        SynthesisSession {
            engine,
            observer: None,
            progress_every: snapshot.progress_every,
            started_at,
            rounds: snapshot.rounds,
            status: snapshot.status.clone(),
        }
    }

    /// Advances the search by up to `rounds` rounds (frontier selections),
    /// stopping early at any terminal status, and returns the status.
    ///
    /// Calling this after the session finished is a no-op returning the
    /// terminal status.
    pub fn run_for(&mut self, rounds: u64) -> &SessionStatus {
        for _ in 0..rounds {
            if !self.status.is_running() {
                break;
            }
            if let Some(deadline) = self.engine.options().deadline {
                if self.started_at.elapsed() >= deadline {
                    let stats = self.engine.stats().clone();
                    self.finish(SessionStatus::DeadlineExpired(stats));
                    break;
                }
            }
            let outcome = self.engine.step_round();
            self.rounds += 1;
            match outcome {
                StepOutcome::Running => {}
                StepOutcome::Found(synth) => {
                    let report = self.report(*synth);
                    self.finish(SessionStatus::Found(Box::new(report)));
                }
                StepOutcome::Exhausted => {
                    let stats = self.engine.stats().clone();
                    self.finish(SessionStatus::Exhausted(stats));
                }
                StepOutcome::BudgetExceeded => {
                    let stats = self.engine.stats().clone();
                    self.finish(SessionStatus::BudgetExceeded(stats));
                }
            }
            if self.status.is_running()
                && self.progress_every > 0
                && self.rounds.is_multiple_of(self.progress_every)
            {
                let event = self.progress_event();
                if let Some(observer) = &mut self.observer {
                    observer.on_progress(&event);
                }
            }
        }
        &self.status
    }

    /// Runs the session to a terminal status (the blocking facade's loop).
    pub fn run_to_completion(&mut self) -> &SessionStatus {
        while self.status.is_running() {
            self.run_for(RUN_TO_COMPLETION_SLICE);
        }
        &self.status
    }

    /// The current status, without advancing the search.
    pub fn poll(&self) -> &SessionStatus {
        &self.status
    }

    /// Stops the job. The session transitions to
    /// [`SessionStatus::Cancelled`] (if it was still running) and the
    /// partial search statistics are returned; a session that already
    /// finished keeps its status and returns its final stats.
    pub fn cancel(&mut self) -> SearchStats {
        if self.status.is_running() {
            let stats = self.engine.stats().clone();
            self.finish(SessionStatus::Cancelled(stats));
        }
        self.stats()
    }

    /// Consumes the session, returning its final (or current) status.
    pub fn into_status(self) -> SessionStatus {
        self.status
    }

    /// The search statistics accumulated so far (terminal or not).
    pub fn stats(&self) -> SearchStats {
        self.engine.stats().clone()
    }

    /// Search rounds advanced so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Wall-clock time since the session was created.
    pub fn elapsed(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// The goal this session searches for.
    pub fn goal(&self) -> &GoalSpec {
        self.engine.goal()
    }

    /// The static analysis the session's search runs over.
    #[cfg(test)]
    pub(crate) fn analysis(&self) -> &Arc<StaticAnalysis> {
        self.engine.analysis()
    }

    /// A progress snapshot of the current search state (the same data an
    /// [`Observer`] receives).
    pub fn progress_event(&self) -> ProgressEvent {
        ProgressEvent {
            rounds: self.rounds,
            live_states: self.engine.live_states(),
            stats: self.engine.stats().clone(),
            elapsed: self.started_at.elapsed(),
        }
    }

    fn finish(&mut self, status: SessionStatus) {
        self.status = status;
        if let Some(observer) = &mut self.observer {
            observer.on_finish(&self.status);
        }
    }

    fn report(&self, synth: Synthesized) -> SynthesisReport {
        SynthesisReport {
            execution: SynthesizedExecution::from_synthesized(&self.engine.program().name, &synth),
            goal: self.engine.goal().clone(),
            stats: synth.stats,
            elapsed: self.started_at.elapsed(),
            other_bugs: self.engine.other_bugs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, Loc, ProgramBuilder};
    use esd_symex::FrontierKind;
    use std::sync::{Arc, Mutex};

    fn crashy() -> (esd_ir::Program, Loc) {
        let mut pb = ProgramBuilder::new("session_crashy");
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
            let c = f.cmp(CmpOp::Eq, x, 42);
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

    /// A plain AB/BA two-lock deadlock: `t1` locks A then B, `t2` locks B
    /// then A. Returns the program and the two blocked-lock locations (one
    /// per deadlocked thread), which live in *different* functions — the
    /// shape that requires the static phase to cover every goal location.
    fn deadlocky() -> (esd_ir::Program, Vec<Loc>) {
        let mut pb = esd_ir::ProgramBuilder::new("session_deadlock");
        let a = pb.global("A", 1);
        let b = pb.global("B", 1);
        let mut inner1 = None;
        let t1 = pb.declare("t1", 1);
        pb.define(t1, |f| {
            let ap = f.addr_global(a);
            let bp = f.addr_global(b);
            f.lock(ap);
            inner1 = Some(Loc::new(t1, f.current_block(), f.next_inst_idx()));
            f.lock(bp);
            f.unlock(bp);
            f.unlock(ap);
            f.ret_void();
        });
        let mut inner2 = None;
        let t2 = pb.declare("t2", 1);
        pb.define(t2, |f| {
            let ap = f.addr_global(a);
            let bp = f.addr_global(b);
            f.lock(bp);
            inner2 = Some(Loc::new(t2, f.current_block(), f.next_inst_idx()));
            f.lock(ap);
            f.unlock(ap);
            f.unlock(bp);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let h1 = f.spawn(t1, 0);
            let h2 = f.spawn(t2, 0);
            f.join(h1);
            f.join(h2);
            f.ret_void();
        });
        (pb.finish("main"), vec![inner1.unwrap(), inner2.unwrap()])
    }

    /// The race candidates exist exactly when the search reads them: a
    /// race-mode ESD session builds them at set-up, also when restored from
    /// a snapshot; any other session, the KC baseline's race mode included,
    /// never builds them, not even by searching to the end.
    #[test]
    fn race_candidates_are_built_exactly_when_the_search_reads_them() {
        let (p, loc) = crashy();
        let goal = GoalSpec::Crash { loc };
        let race = EsdOptions::builder().with_race_detection(true).build();
        let session = SynthesisSession::new(&p, goal.clone(), race.clone());
        assert!(session.analysis().facts.race_candidates_if_built().is_some());
        let mut restored = SynthesisSession::restore(&session.snapshot());
        assert!(restored.analysis().facts.race_candidates_if_built().is_some());
        assert!(restored.run_to_completion().found().is_some());

        let kc_race = EsdOptions { with_race_detection: true, ..EsdOptions::kc(FrontierKind::Dfs) };
        for options in [EsdOptions::default(), kc_race] {
            let mut session = SynthesisSession::new(&p, goal.clone(), options);
            assert!(session.analysis().facts.race_candidates_if_built().is_none());
            let restored = SynthesisSession::restore(&session.snapshot());
            assert!(restored.analysis().facts.race_candidates_if_built().is_none());
            session.run_to_completion();
            assert!(session.analysis().facts.race_candidates_if_built().is_none());
        }
    }

    /// Regression test for the deadlock static phase: the session used to
    /// seed `StaticAnalysis` with only `primary_locs()[0]`, so guidance
    /// ignored the second deadlocked thread's lock site. With the phase
    /// computed over all goal locations, the AB/BA deadlock — whose two
    /// blocked-lock sites live in two different functions — is synthesized.
    #[test]
    fn two_lock_deadlock_is_synthesized_with_multi_goal_static_phase() {
        let (p, locs) = deadlocky();
        let options = EsdOptions::builder().max_steps(400_000).build();
        let mut session =
            SynthesisSession::new(&p, GoalSpec::Deadlock { thread_locs: locs }, options);
        let status = session.run_to_completion();
        let report = status.found().expect("the AB/BA deadlock must be synthesized");
        assert_eq!(report.execution.fault_tag, "deadlock");
        assert!(
            report.execution.schedule.segments.len() >= 2,
            "a deadlock schedule needs at least two thread segments"
        );
    }

    /// Regression test for `SearchStats::best_proximity`: it used to record
    /// the frontier priority key *after* the deadlock schedule-bias offset,
    /// so observer progress on deadlock goals jumped by multiples of the
    /// schedule weight (1e9). It must report the raw path distance.
    #[test]
    fn best_proximity_reports_raw_distance_on_deadlock_goals() {
        let (p, locs) = deadlocky();
        let goal = GoalSpec::Deadlock { thread_locs: locs };
        let mut session = SynthesisSession::new(&p, goal, EsdOptions::default());
        session.run_for(1);
        let proximity = session
            .progress_event()
            .stats
            .best_proximity
            .expect("the proximity frontier computes a key on the first push");
        assert!(
            proximity < 1_000_000_000,
            "best_proximity {proximity} must be the raw path distance, not the \
             schedule-biased priority key (offset by multiples of 1e9)"
        );
        session.cancel();
    }

    /// The KC baseline is a preset of the options and runs through a
    /// session like every other job.
    #[test]
    fn kc_preset_finds_simple_sequential_bugs() {
        let (p, loc) = crashy();
        for (frontier, seed) in [(FrontierKind::Dfs, 0), (FrontierKind::Random, 1)] {
            let options = EsdOptions { max_steps: 100_000, seed, ..EsdOptions::kc(frontier) };
            let mut session = SynthesisSession::new(&p, GoalSpec::Crash { loc }, options);
            let report = session.run_to_completion().found().expect("KC finds the crash");
            assert_eq!(report.execution.inputs[0].value, 42);
        }
    }

    /// A program with an unbounded input-dependent loop and no bug: KC must
    /// stop at its budget and report it.
    #[test]
    fn kc_preset_respects_its_budget() {
        let mut pb = ProgramBuilder::new("loopy");
        pb.function("main", 0, |f| {
            let head = f.new_block("head");
            let body = f.new_block("body");
            let done = f.new_block("done");
            f.br(head);
            f.switch_to(head);
            let x = f.getchar();
            let c = f.cmp(CmpOp::Ne, x, 0);
            f.cond_br(c, body, done);
            f.switch_to(body);
            f.nop();
            f.br(head);
            f.switch_to(done);
            let z = f.konst(0);
            let v = f.load(z); // never part of the goal below
            f.output(v);
            f.ret_void();
        });
        let p = pb.finish("main");
        let goal = GoalSpec::Crash { loc: Loc::new(p.entry, esd_ir::BlockId(1), 99) };
        let options =
            EsdOptions { max_steps: 5_000, seed: 7, ..EsdOptions::kc(FrontierKind::Random) };
        let mut session = SynthesisSession::new(&p, goal, options);
        let status = session.run_to_completion();
        assert!(matches!(status, SessionStatus::BudgetExceeded(s) if s.steps >= 5_000));
    }

    #[test]
    fn session_finds_the_goal_in_single_round_slices() {
        let (p, loc) = crashy();
        let options = EsdOptions::builder().max_steps(100_000).build();
        let mut session = SynthesisSession::new(&p, GoalSpec::Crash { loc }, options);
        let mut slices = 0u64;
        while session.poll().is_running() {
            session.run_for(1);
            slices += 1;
            assert!(slices < 1_000_000, "runaway session");
        }
        let report = session.poll().found().expect("crash synthesized").clone();
        assert_eq!(report.execution.inputs[0].value, 42);
        assert_eq!(session.rounds(), slices);
        // Further slices are no-ops on a finished session.
        assert!(session.run_for(10).found().is_some());
        assert_eq!(session.rounds(), slices);
    }

    #[test]
    fn cancel_returns_partial_stats_and_sticks() {
        let (p, loc) = crashy();
        let mut session = SynthesisSession::new(&p, GoalSpec::Crash { loc }, EsdOptions::default());
        session.run_for(3);
        assert!(session.poll().is_running());
        let stats = session.cancel();
        assert!(stats.steps > 0, "three rounds must have executed instructions");
        assert!(matches!(session.poll(), SessionStatus::Cancelled(_)));
        // A cancelled session cannot be resumed.
        assert!(matches!(session.run_for(100), SessionStatus::Cancelled(_)));
        assert!(session.cancel().steps >= stats.steps);
    }

    #[test]
    fn deadline_expires_a_session() {
        let (p, loc) = crashy();
        let options = EsdOptions::builder().deadline(Duration::from_secs(0)).build();
        let mut session = SynthesisSession::new(&p, GoalSpec::Crash { loc }, options);
        assert!(matches!(session.run_for(10), SessionStatus::DeadlineExpired(_)));
    }

    /// An observer shared with the test through `Arc<Mutex<_>>` (observers
    /// are `Send`, so plain `Rc` no longer satisfies the trait bound).
    #[derive(Default)]
    struct Recording {
        progress: Vec<ProgressEvent>,
        finished: Option<&'static str>,
    }

    struct RecordingObserver(Arc<Mutex<Recording>>);

    impl Observer for RecordingObserver {
        fn on_progress(&mut self, event: &ProgressEvent) {
            self.0.lock().unwrap().progress.push(event.clone());
        }

        fn on_finish(&mut self, status: &SessionStatus) {
            self.0.lock().unwrap().finished = Some(match status {
                SessionStatus::Running => "running",
                SessionStatus::Found(_) => "found",
                SessionStatus::Exhausted(_) => "exhausted",
                SessionStatus::BudgetExceeded(_) => "budget",
                SessionStatus::DeadlineExpired(_) => "deadline",
                SessionStatus::Cancelled(_) => "cancelled",
            });
        }
    }

    #[test]
    fn observer_sees_progress_and_the_finish() {
        let (p, loc) = crashy();
        let recording = Arc::new(Mutex::new(Recording::default()));
        let goal = GoalSpec::Crash { loc };
        let program = Arc::new(p);
        let analysis = Arc::new(StaticAnalysis::compute_multi(&program, &goal.primary_locs()));
        let observer = Box::new(RecordingObserver(recording.clone()));
        let mut session = SynthesisSession::from_parts(
            program,
            analysis,
            goal,
            EsdOptions::default(),
            Some(observer),
            2,
        );
        session.run_to_completion();
        let recording = recording.lock().unwrap();
        assert_eq!(recording.finished, Some("found"));
        assert!(!recording.progress.is_empty(), "progress cadence of 2 must fire");
        let last = recording.progress.last().unwrap();
        assert!(last.stats.steps > 0);
        assert!(last.rounds >= 2);
    }
}
