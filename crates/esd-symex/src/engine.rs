//! The multi-threaded symbolic-execution search engine.
//!
//! This is the dynamic phase of execution synthesis (§3.3–§4): the program is
//! executed with symbolic inputs; execution states fork at branches on
//! symbolic values and at scheduling decisions around synchronization
//! operations; a search strategy decides which state to advance next; the
//! search completes when a state reaches the goal extracted from the bug
//! report, at which point the accumulated path constraints are solved into
//! concrete inputs and the recorded serialized schedule becomes the
//! synthesized execution.
//!
//! The engine is configured by one [`EsdOptions`] value. Which state is
//! advanced next is decided by a pluggable [`SearchFrontier`] (see
//! [`crate::frontier`]) built from its `frontier` and `seed`: ESD's
//! proximity-guided virtual queues — ordered by the Algorithm-1 proximity
//! estimate, biased by the deadlock schedule distance (§4.1), with
//! critical-edge path abandonment and intermediate goals from the static
//! phase — or the DFS / random-state baselines. ESD's guidance is on
//! unless [`EsdOptions::kc_baseline`] is set, which turns all of it off
//! and adds Chess-style preemption bounding (the KC baseline,
//! [`EsdOptions::kc`]).
//!
//! # Rounds and bursts
//!
//! The engine is split into a **search pool** (this module: the state map,
//! the frontier, the dedup fingerprints, the statistics) and a `Stepper`
//! (the crate-private `stepper` module) that advances one state with its
//! own private [`Solver`](crate::solver::Solver). One [`Engine::step_round`]
//! selects one state from the frontier and advances it; the stepper counts
//! straight into the engine's [`SearchStats`] and other bugs, and records
//! forked states and snapshot promotions, which the round then merges into
//! the pool. The stepper never touches the pool while the state runs.
//!
//! The selected state runs a *burst* of up to 32 micro-steps before the
//! next selection, on every frontier; it stops early when it dies or
//! reaches the goal, and the states it forks meanwhile wait in the merge.
//! Re-selecting after every instruction made the proximity search enumerate
//! about 2,000 states and 120,000–200,000 steps on a medium generated crash;
//! letting the selected state run, as Klee's batching searcher does, reaches
//! it in about 250 steps. Race detection, where every shared access is a
//! preemption point (§4.2), takes the burst too: the medium generated
//! races take 306–316 steps at seeds 0..8, where re-selecting after every
//! instruction took 716, against KC-DFS's 316 (`fig2`'s race row), and
//! peak at 12–20 live states over seeds 0..16, where they peaked at 30.
//! The one configuration that keeps one micro-step per selection is the
//! KC baseline ([`EsdOptions::kc`]), which models Klee's per-instruction
//! searcher.
//!
//! # The hot state
//!
//! The state that survives its turn does not go back into the pool. The
//! engine holds it as the *hot* state, outside the state map and the
//! frontier, and folds its final-goal distance into
//! [`SearchStats::best_proximity`] as a push would. The next round offers it
//! to [`SearchFrontier::pop_with`], which selects exactly what pushing it
//! and calling [`SearchFrontier::pop`] would have selected; only a
//! selection that passes it over pushes it and puts it back into the map.
//! Forks and promotions never flush it: the merge pushes them before the
//! surviving state would have been re-pushed anyway. [`Engine::snapshot`]
//! writes the hot state as if it had been pushed last, and
//! [`Engine::live_states`] counts it.

use crate::frontier::{FrontierSnapshot, HotState, SearchFrontier, StatePriority};
use crate::options::EsdOptions;
use crate::state::{ExecState, SchedDistance};
use crate::stepper::{PendingFork, Promotion, Solution, Stepper, TurnResult, TurnVerdict};
use esd_analysis::goaldist::GoalDistances;
use esd_analysis::{DistanceOracle, StaticAnalysis, INF};
use esd_concurrency::Schedule;
use esd_ir::interp::ThreadStatus;
use esd_ir::{FaultKind, Loc, Program};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

pub use crate::expr::SymVarInfo;

/// What the synthesizer is looking for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GoalSpec {
    /// Reach a failure whose faulting instruction is at `loc` (crashes,
    /// failed assertions, invalid frees, …).
    Crash {
        /// The faulting location from the coredump.
        loc: Loc,
    },
    /// Reach a deadlock in which, for every location listed, some thread is
    /// blocked acquiring a mutex at that location (the threads' "inner
    /// locks" from the reported call stacks).
    Deadlock {
        /// Blocked-lock locations, one per deadlocked thread.
        thread_locs: Vec<Loc>,
    },
}

impl GoalSpec {
    /// The goal locations used for proximity guidance and for seeding the
    /// static phase (one per deadlocked thread; a single one for crashes).
    pub fn primary_locs(&self) -> Vec<Loc> {
        match self {
            GoalSpec::Crash { loc } => vec![*loc],
            GoalSpec::Deadlock { thread_locs } => thread_locs.clone(),
        }
    }
}

/// Search statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Instructions executed across all states.
    pub steps: u64,
    /// States created (including the initial one).
    pub states_created: u64,
    /// Forked states dropped before entering the pool (duplicate
    /// fingerprint, or the pool was at its `max_states` cap).
    pub states_pruned: u64,
    /// Peak number of live states.
    pub max_live_states: usize,
    /// Solver queries issued.
    pub solver_queries: u64,
    /// Always zero: the solver decides every branch. Kept because the
    /// benchmark's probe reads it; it goes with the next benchmark change.
    pub branches_pruned_static: u64,
    /// Always zero, for the same reason as
    /// [`branches_pruned_static`](Self::branches_pruned_static).
    pub solver_queries_saved: u64,
    /// Preemption forks skipped because the yield has no static race-pair
    /// candidate material around it (race detection outside the KC
    /// baseline).
    pub preemptions_pruned_static: u64,
    /// Data races flagged by the lockset detector.
    pub races_flagged: usize,
    /// Flagged accesses outside the static race-pair candidates at which
    /// another thread was runnable, so the dynamic detector's backstop
    /// forked a preemption the candidates did not foresee. The candidates
    /// over-approximate the real races, so this stays zero unless they miss
    /// one or the lockset detector flags a pair that cannot race (it ignores
    /// join order) while another thread is runnable. Counted only outside
    /// the KC baseline.
    pub race_backstop_forks: u64,
    /// The lowest raw path distance to the final goal observed so far (the
    /// Algorithm-1 proximity estimate, *without* the deadlock schedule-bias
    /// offset) — how close the search has come to the goal. `None` until a
    /// priority-driven frontier computes its first key.
    pub best_proximity: Option<u64>,
}

/// A successfully synthesized execution.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// Concrete value for every symbolic input word, with its provenance.
    pub inputs: Vec<(SymVarInfo, i64)>,
    /// The serialized thread schedule.
    pub schedule: Schedule,
    /// The failure the synthesized execution triggers.
    pub fault: FaultKind,
    /// Location of the failure (None for deadlocks).
    pub fault_loc: Option<Loc>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Outcome of advancing the search by one round ([`Engine::step_round`]):
/// either the search can continue, or it ended (the stats live on the
/// engine — [`Engine::stats`]).
#[derive(Debug)]
pub enum StepOutcome {
    /// The round completed without reaching a verdict; call
    /// [`Engine::step_round`] again to keep searching.
    Running,
    /// The goal was reached and an execution synthesized.
    Found(Box<Synthesized>),
    /// Every state was explored or abandoned without reaching the goal, and
    /// the pool never reached its `max_states` cap, so no fork was dropped.
    Exhausted,
    /// The step budget ran out, or the frontier emptied after the pool had
    /// reached its `max_states` cap: the cap may have dropped the fork that
    /// leads to the goal, so the search was cut short, not exhausted.
    BudgetExceeded,
}

const SCHED_WEIGHT: u64 = 1_000_000_000;

/// How many micro-steps a selected state advances before the next selection
/// (fewer when it dies or reaches the goal first), on every frontier and
/// under race detection. The KC baseline advances one micro-step per
/// selection instead; see the [module docs](self).
const BURST: u32 = 32;

/// A complete, serializable image of an [`Engine`] mid-search, captured by
/// [`Engine::snapshot`] and rebuilt by [`Engine::restore`].
///
/// The snapshot holds everything the search trajectory depends on — the goal,
/// the configuration, every live state, the frontier's exact ordering state,
/// the dedup fingerprints and the statistics — but *not* the program or the
/// static analysis, which are cheap to recompute (or already loaded) on the
/// restoring side and are passed back into [`Engine::restore`]. The derived
/// oracle and queue targets are recomputed exactly as [`Engine::new`]
/// computes them, so a restored engine's continued search is step-for-step
/// identical to the captured engine's.
///
/// Serialization is canonical: states are sorted by id and fingerprints
/// ascending, so snapshotting an engine, restoring it and snapshotting again
/// yields byte-identical serialized forms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// The goal the engine searches for.
    pub goal: GoalSpec,
    /// The search configuration.
    pub config: EsdOptions,
    /// Every live execution state, sorted by state id.
    pub states: Vec<ExecState>,
    /// The next state id the pool will assign.
    pub next_state_id: u64,
    /// Whether the initial state has been seeded.
    pub started: bool,
    /// The frontier's complete ordering state.
    pub frontier: FrontierSnapshot,
    /// Search statistics so far.
    pub stats: SearchStats,
    /// Structural fingerprints of every state ever admitted, ascending.
    pub seen_fingerprints: Vec<u64>,
    /// Faults found that did not match the goal.
    pub other_bugs: Vec<(FaultKind, Option<Loc>)>,
}

/// The search engine: the shared search pool and the round loop.
///
/// The engine owns its program and static analysis (shared via [`Arc`]), so
/// callers that outlive the current stack frame — resumable synthesis
/// sessions, the executor's jobs — can own an engine outright. The search is
/// re-entrant: [`Engine::step_round`] advances exactly one selected state
/// and returns a [`StepOutcome`].
/// State advancement itself lives in the `Stepper`; see the
/// [module docs](self) for how a round's burst is advanced and merged.
pub struct Engine {
    program: Arc<Program>,
    analysis: Arc<StaticAnalysis>,
    guidance: Guidance,
    goal: GoalSpec,
    options: EsdOptions,
    states: HashMap<u64, ExecState>,
    /// The state the last round advanced, outside `states` and the frontier
    /// until a selection passes it over (see the [module docs](self)).
    hot: Option<Hot>,
    next_state_id: u64,
    /// Whether the initial state has been seeded (done lazily on the first
    /// round so a freshly created engine is cheap).
    started: bool,
    /// The pluggable worklist ordering the exploration.
    frontier: Box<dyn SearchFrontier>,
    stats: SearchStats,
    seen_fingerprints: std::collections::HashSet<u64>,
    /// Locations of faults found that did not match the goal.
    pub other_bugs: Vec<(FaultKind, Option<Loc>)>,
}

impl Engine {
    /// Creates an engine for `program` searching for `goal`.
    pub fn new(
        program: Arc<Program>,
        analysis: Arc<StaticAnalysis>,
        goal: GoalSpec,
        options: EsdOptions,
    ) -> Self {
        // The stepper reads the race candidates exactly when race detection
        // runs outside the KC baseline: build them now, so the cost is the
        // set-up's and not a search round's.
        if options.with_race_detection && !options.kc_baseline {
            analysis.facts.race_candidates(&program);
        }
        let oracle = DistanceOracle::new(program.clone(), analysis.clone());
        // One virtual queue per goal target set: intermediate goals, then the
        // final goal.
        let mut queue_targets: Vec<Vec<Loc>> = Vec::new();
        if !options.kc_baseline {
            for alts in analysis.goal_info.intermediate_goal_locs() {
                if !alts.is_empty() {
                    queue_targets.push(alts);
                }
            }
        }
        queue_targets.push(goal.primary_locs());
        let frontier = options.frontier.build(options.seed, queue_targets.len());
        // Resolve the distance maps of the queues the frontier reads once,
        // instead of per state and step.
        let queues = if frontier.wants_priorities() {
            queue_targets
                .iter()
                .map(|targets| targets.iter().map(|t| oracle.goal_distances(*t)).collect())
                .collect()
        } else {
            Vec::new()
        };
        let guidance = Guidance {
            oracle,
            queues,
            schedule_bias: !options.kc_baseline && matches!(goal, GoalSpec::Deadlock { .. }),
        };
        Engine {
            program,
            analysis,
            guidance,
            goal,
            options,
            states: HashMap::new(),
            hot: None,
            next_state_id: 0,
            started: false,
            frontier,
            stats: SearchStats::default(),
            seen_fingerprints: std::collections::HashSet::new(),
            other_bugs: Vec::new(),
        }
    }

    /// Captures the engine's complete search state as a serializable
    /// [`EngineSnapshot`]; see there for what is (and is not) included.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut states: Vec<ExecState> =
            self.states.values().chain(self.hot.as_ref().map(|h| &h.state)).cloned().collect();
        states.sort_by_key(|s| s.id);
        let frontier = match &self.hot {
            None => self.frontier.snapshot(),
            Some(hot) => {
                // The hot state as if pushed last, where a selection that
                // passes it over would put it.
                let mut frontier = self.frontier.snapshot().restore();
                frontier.push(hot.state.id, &self.guidance.priority(&hot.state, hot.final_dist));
                frontier.snapshot()
            }
        };
        let mut seen_fingerprints: Vec<u64> = self.seen_fingerprints.iter().copied().collect();
        seen_fingerprints.sort_unstable();
        EngineSnapshot {
            goal: self.goal.clone(),
            config: self.options.clone(),
            states,
            next_state_id: self.next_state_id,
            started: self.started,
            frontier,
            stats: self.stats.clone(),
            seen_fingerprints,
            other_bugs: self.other_bugs.clone(),
        }
    }

    /// Rebuilds an engine from a snapshot. `program` and `analysis` must be
    /// the ones the captured engine was created with (they are not part of
    /// the snapshot — see [`EngineSnapshot`]). The restored engine's
    /// continued search is step-for-step identical to the captured one's.
    pub fn restore(
        program: Arc<Program>,
        analysis: Arc<StaticAnalysis>,
        snap: &EngineSnapshot,
    ) -> Self {
        let mut engine = Engine::new(program, analysis, snap.goal.clone(), snap.config.clone());
        engine.states = snap.states.iter().map(|s| (s.id, s.clone())).collect();
        engine.next_state_id = snap.next_state_id;
        engine.started = snap.started;
        engine.frontier = snap.frontier.restore();
        engine.stats = snap.stats.clone();
        engine.seen_fingerprints = snap.seen_fingerprints.iter().copied().collect();
        engine.other_bugs = snap.other_bugs.clone();
        engine
    }

    /// Advances the search by one round: one frontier selection plus a turn
    /// of the selected state — a burst of up to 32 micro-steps, or one under
    /// the KC baseline (seeding the initial state first, on the very first
    /// round).
    ///
    /// This is the re-entrant core of the engine: callers may interleave
    /// rounds of several engines, stop between rounds (the partial
    /// [`Engine::stats`] stay accessible), and resume later — the search
    /// trajectory depends only on the sequence of rounds, never on where
    /// the caller stopped between them.
    pub fn step_round(&mut self) -> StepOutcome {
        if !self.started {
            self.started = true;
            let init = ExecState::initial(&self.program);
            self.register_state(init);
        }
        if self.stats.steps >= self.options.max_steps {
            return StepOutcome::BudgetExceeded;
        }
        let selected = match &self.hot {
            Some(hot) => self.frontier.pop_with(&HotKeys { hot, guidance: &self.guidance }),
            None => self.frontier.pop(),
        };
        let Some(id) = selected else {
            // `register_state` drops forks only while the pool is full.
            return if self.stats.max_live_states >= self.options.max_states {
                StepOutcome::BudgetExceeded
            } else {
                StepOutcome::Exhausted
            };
        };
        let state = match self.hot.take() {
            Some(hot) if hot.state.id == id => hot.state,
            hot => {
                // A hot state that was passed over is queued now.
                if let Some(Hot { state, .. }) = hot {
                    self.states.insert(state.id, state);
                }
                match self.states.remove(&id) {
                    Some(state) => state,
                    None => return StepOutcome::Running,
                }
            }
        };
        // KC models Klee's per-instruction searcher.
        let burst = if self.options.kc_baseline { 1 } else { BURST };
        let mut stepper = Stepper::new(
            &self.program,
            &self.analysis,
            &self.goal,
            &self.options,
            &mut self.stats,
            &mut self.other_bugs,
        );
        let result = stepper.turn(state, burst);
        self.merge(result)
    }

    /// Access to the search statistics so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Number of live (queued, pooled or hot) execution states.
    pub fn live_states(&self) -> usize {
        self.states.len() + usize::from(self.hot.is_some())
    }

    /// The goal this engine searches for.
    pub fn goal(&self) -> &GoalSpec {
        &self.goal
    }

    /// The options this engine searches with.
    pub fn options(&self) -> &EsdOptions {
        &self.options
    }

    /// The program under search.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The static analysis backing the proximity heuristic.
    pub fn analysis(&self) -> &Arc<StaticAnalysis> {
        &self.analysis
    }

    // ---- deterministic merge ------------------------------------------------

    /// Merges a turn's result into the shared pool: snapshot promotions
    /// first, then fork admission (dedup fingerprint + pool cap, assigning
    /// state ids in creation order); a surviving state then becomes the hot
    /// state.
    fn merge(&mut self, mut result: TurnResult) -> StepOutcome {
        for promotion in std::mem::take(&mut result.promotions) {
            match promotion {
                Promotion::Registered(sid) => self.promote_snapshot(sid),
                // A snapshot forked earlier in the same turn: promote it
                // before admission so it enters the frontier with the
                // promoted priority (sequentially the fork would have
                // registered Neutral and been re-pushed Near one round
                // later — the effective frontier position is the same).
                Promotion::Pending(fork) => {
                    result.forks[fork].state.sched_distance = SchedDistance::Near;
                }
            }
        }
        for PendingFork { state, lock_snapshot } in std::mem::take(&mut result.forks) {
            if let Some(id) = self.register_state(state) {
                if let Some(mutex) = lock_snapshot {
                    result.state.lock_snapshots.push((mutex, id));
                }
            }
        }
        match result.verdict {
            TurnVerdict::Continue => {
                let final_dist = self.guidance.final_distance(&result.state);
                self.note_proximity(final_dist);
                self.hot = Some(Hot { state: result.state, final_dist });
            }
            TurnVerdict::Dead => {}
            TurnVerdict::Goal { solution: Some(solution) } => {
                return StepOutcome::Found(Box::new(self.synthesized(solution)));
            }
            // The goal state's constraints could not be solved: abandon it
            // and keep searching.
            TurnVerdict::Goal { solution: None } => {}
        }
        StepOutcome::Running
    }

    /// Applies the deadlock roll-back heuristic to a snapshot state in the
    /// pool: re-push it as [`SchedDistance::Near`].
    fn promote_snapshot(&mut self, sid: u64) {
        if let Some(mut state) = self.states.remove(&sid) {
            // Taken out of the map only to satisfy the borrow checker across
            // the push (which recomputes the priority keys); reinserted
            // unconditionally below.
            state.sched_distance = SchedDistance::Near;
            self.push_to_frontier(&state);
            self.states.insert(sid, state);
        }
    }

    fn synthesized(&self, solution: Solution) -> Synthesized {
        Synthesized {
            inputs: solution.inputs,
            schedule: solution.schedule,
            fault: solution.fault,
            fault_loc: solution.fault_loc,
            stats: self.stats.clone(),
        }
    }

    // ---- state pool management ---------------------------------------------

    /// Admits a forked state into the pool, returning its assigned id —
    /// `None` when the state was dropped (pool full, or its fingerprint was
    /// already explored).
    fn register_state(&mut self, mut state: ExecState) -> Option<u64> {
        if self.states.len() >= self.options.max_states {
            self.stats.states_pruned += 1;
            return None;
        }
        if !self.options.kc_baseline {
            let fp = Self::fingerprint(&state);
            if !self.seen_fingerprints.insert(fp) {
                self.stats.states_pruned += 1;
                return None;
            }
        }
        state.id = self.next_state_id;
        self.next_state_id += 1;
        self.stats.states_created += 1;
        self.push_to_frontier(&state);
        let id = state.id;
        self.states.insert(id, state);
        self.stats.max_live_states = self.stats.max_live_states.max(self.states.len());
        Some(id)
    }

    /// A cheap structural fingerprint of a state, used to drop duplicate
    /// scheduling forks: thread positions and statuses, lock ownership, the
    /// scheduled thread, the running path-constraint hash and the globals'
    /// contents. Hashing [`ExecState::path_hash`] (rather than the constraint
    /// *count*) keeps the dedup sound: two states with equal-length but
    /// different path conditions are different search states, and pruning one
    /// as a "duplicate" of the other could prune the only path to the goal.
    fn fingerprint(state: &ExecState) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        state.current.0.hash(&mut h);
        state.path_hash.hash(&mut h);
        for t in &state.threads {
            t.id.0.hash(&mut h);
            std::mem::discriminant(&t.status).hash(&mut h);
            if let ThreadStatus::BlockedOnMutex(m) = t.status {
                m.hash(&mut h);
            }
            for f in &t.frames {
                (f.func, f.block, f.idx).hash(&mut h);
            }
            t.held_locks.hash(&mut h);
        }
        for g in &state.globals {
            if let Some(obj) = state.mem.object(*g) {
                obj.data.hash(&mut h);
            }
        }
        h.finish()
    }

    /// (Re-)enters a state into the frontier, computing the per-goal-queue
    /// priority keys only when the frontier consumes them.
    fn push_to_frontier(&mut self, state: &ExecState) {
        let final_dist = self.guidance.final_distance(state);
        self.note_proximity(final_dist);
        self.frontier.push(state.id, &self.guidance.priority(state, final_dist));
    }

    /// Folds a state's raw final-goal path distance into
    /// [`SearchStats::best_proximity`] (the observer progress signal is the
    /// unbiased Algorithm-1 estimate, not the schedule-biased queue key —
    /// otherwise deadlock-goal progress would jump by multiples of the
    /// schedule weight).
    fn note_proximity(&mut self, final_dist: Option<u64>) {
        if let Some(d) = final_dist {
            self.stats.best_proximity = Some(self.stats.best_proximity.map_or(d, |b| b.min(d)));
        }
    }
}

/// The state the last round advanced, with its raw final-goal distance
/// (`None` when the frontier reads no keys).
struct Hot {
    state: ExecState,
    final_dist: Option<u64>,
}

/// A [`Hot`] state as the frontier sees it during a selection.
struct HotKeys<'a> {
    hot: &'a Hot,
    guidance: &'a Guidance,
}

impl HotState for HotKeys<'_> {
    fn id(&self) -> u64 {
        self.hot.state.id
    }

    fn priority(&self) -> StatePriority {
        self.guidance.priority(&self.hot.state, self.hot.final_dist)
    }

    fn queue_key(&self, queue: usize) -> u64 {
        let state = &self.hot.state;
        let dist = match self.hot.final_dist {
            Some(d) if queue + 1 == self.guidance.queues.len() => d,
            _ => self.guidance.path_distance(state, &self.guidance.queues[queue]),
        };
        bias(self.guidance.sched_bias(state), dist)
    }

    fn depth(&self) -> u64 {
        self.hot.state.steps
    }
}

/// How the engine turns a state into frontier priority keys. It is kept
/// apart from the rest of the engine so a selection can read it while the
/// frontier is borrowed.
struct Guidance {
    oracle: DistanceOracle,
    /// The distance maps of every target of each virtual queue whose key the
    /// frontier reads, final goal last: every queue for the proximity
    /// frontier, none for the frontiers without priorities. Resolved once,
    /// when the engine is built.
    queues: Vec<Vec<Arc<GoalDistances>>>,
    /// Whether the deadlock schedule-distance bias (§4.1) applies.
    schedule_bias: bool,
}

impl Guidance {
    /// The state's raw path distance to the final goal, or `None` when the
    /// frontier reads no keys.
    fn final_distance(&self, state: &ExecState) -> Option<u64> {
        self.queues.last().map(|targets| self.path_distance(state, targets))
    }

    /// The state's frontier priority, given its [final
    /// distance](Guidance::final_distance).
    fn priority(&self, state: &ExecState, final_dist: Option<u64>) -> StatePriority {
        let queue_keys = match (final_dist, self.queues.split_last()) {
            (Some(final_dist), Some((_, intermediate))) => {
                let sched = self.sched_bias(state);
                intermediate
                    .iter()
                    .map(|targets| self.path_distance(state, targets))
                    .chain([final_dist])
                    .map(|d| bias(sched, d))
                    .collect()
            }
            _ => Vec::new(),
        };
        StatePriority { queue_keys, depth: state.steps }
    }

    /// The state's raw path distance to `targets`: the best proximity any
    /// thread that has not finished has to any of the queue's target
    /// locations. A thread blocked in `join` or on a mutex resumes where it
    /// stands, so it counts like a runnable one; skipping it would leave a
    /// `main` joined on its workers with no path to its own tail.
    fn path_distance(&self, state: &ExecState, targets: &[Arc<GoalDistances>]) -> u64 {
        let mut path_dist = INF;
        for thread in &state.threads {
            if thread.is_finished() {
                continue;
            }
            let stack = thread.stack_locs();
            for t in targets {
                path_dist = path_dist.min(self.oracle.proximity_with(&stack, t));
            }
        }
        path_dist
    }

    /// The deadlock schedule-distance bias (§4.1) applied to priority keys.
    fn sched_bias(&self, state: &ExecState) -> u64 {
        if self.schedule_bias {
            match state.sched_distance {
                SchedDistance::Near => 0,
                SchedDistance::Neutral => SCHED_WEIGHT,
                SchedDistance::Far => 2 * SCHED_WEIGHT,
            }
        } else {
            0
        }
    }
}

/// A queue key: the schedule bias plus the capped path distance.
fn bias(sched: u64, path_dist: u64) -> u64 {
    sched.saturating_add(path_dist.min(SCHED_WEIGHT - 1))
}
