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
//! Which state is advanced next is decided by a pluggable [`SearchFrontier`]
//! (see [`crate::frontier`]) selected through [`SearchConfig`]: ESD's
//! proximity-guided virtual queues — ordered by the Algorithm-1 proximity
//! estimate, biased by the deadlock schedule distance (§4.1), with
//! critical-edge path abandonment and intermediate goals from the static
//! phase — or the DFS / BFS / RandomPath baselines, optionally with
//! Chess-style preemption bounding (the KC baseline).
//!
//! # Beam batches
//!
//! The engine is split into a **search pool** (this module: the state map,
//! the frontier, the dedup fingerprints, the statistics) and a `Stepper`
//! (the crate-private `stepper` module) that advances individual states with
//! its own private [`Solver`](crate::solver::Solver). One
//! [`Engine::step_round`] selects a whole *batch* from the frontier — a
//! single state for the single-state frontiers, the entire beam for
//! [`FrontierKind::Beam`](crate::frontier::FrontierKind::Beam) — advances
//! every state of the batch, and then merges the recorded effects (forked
//! states, statistics, flagged races, other bugs, snapshot promotions) back
//! into the pool **in batch order**. The stepper never touches the pool
//! while a batch runs, so the beam is committed before it is drained:
//! nothing is re-ranked between the states of a batch.
//!
//! # The hot state
//!
//! The last state of a batch that survives its turn does not go back into
//! the pool. The engine holds it as the *hot* state, outside the state map
//! and the frontier, and folds its final-goal distance into
//! [`SearchStats::best_proximity`] as a push would. The next round offers it
//! to [`SearchFrontier::pop_batch_with`], which selects exactly what pushing
//! it and calling [`SearchFrontier::pop_batch`] would have selected; only a
//! selection that passes it over pushes it and puts it back into the map.
//! Forks and promotions never flush it: the merge pushes them before the
//! surviving state would have been re-pushed anyway. [`Engine::snapshot`]
//! writes the hot state as if it had been pushed last, and
//! [`Engine::live_states`] counts it.

use crate::frontier::{FrontierSnapshot, HotState, SearchConfig, SearchFrontier, StatePriority};
use crate::state::{ExecState, SchedDistance};
use crate::stepper::{PendingFork, Promotion, Solution, Stepper, TurnResult, TurnVerdict};
use esd_analysis::goaldist::GoalDistances;
use esd_analysis::{DistanceOracle, StaticAnalysis, INF};
use esd_concurrency::Schedule;
use esd_ir::interp::ThreadStatus;
use esd_ir::{FaultKind, Loc, Program};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
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

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Which search frontier orders the exploration, and its seed.
    pub search: SearchConfig,
    /// Chess-style preemption bound (the KC baseline uses `Some(2)`); `None`
    /// leaves preemptions unbounded as in ESD.
    pub preemption_bound: Option<u32>,
    /// Total instruction budget across all states (checked between rounds, so
    /// a round may overshoot by at most one batch's burst).
    pub max_steps: u64,
    /// Maximum number of live states kept at once.
    pub max_states: usize,
    /// Use the intermediate goals from the static phase as extra queues.
    pub use_intermediate_goals: bool,
    /// Abandon states that take the wrong side of a critical edge.
    pub use_critical_edges: bool,
    /// Apply the deadlock schedule-distance heuristic (near/far bias).
    pub schedule_bias: bool,
    /// Insert preemption points before accesses flagged by the lockset race
    /// detector (needed to synthesize data-race schedules).
    pub race_preemptions: bool,
    /// Drop forked states whose structural fingerprint has been seen before.
    /// Part of ESD's scalability story (on by default); the KC baseline runs
    /// without it, as Klee/Chess enumerate paths and interleavings without
    /// state deduplication.
    pub dedup_states: bool,
    /// Consult the static phase's result-invariant verdicts before forking
    /// (on by default; off in the KC baseline, which has no static phase):
    ///
    /// * branches the interval analysis proves one-sided for *all* inputs
    ///   take that side without a solver query — the taken side's
    ///   constraint is still recorded, so the search trajectory is
    ///   unchanged and only the query is skipped;
    /// * in race-preemption mode, yields with no race-pair candidate
    ///   material around them skip the speculative preemption fork (counted
    ///   in [`SearchStats::preemptions_pruned_static`]). Sound because the
    ///   candidate set over-approximates the real races (MHP + lockset,
    ///   both conservative) — and accesses the dynamic detector concretely
    ///   flags always fork regardless, so static imprecision can delay but
    ///   never hide a race.
    pub static_pruning: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            search: SearchConfig::default(),
            preemption_bound: None,
            max_steps: 2_000_000,
            max_states: 20_000,
            use_intermediate_goals: true,
            use_critical_edges: true,
            schedule_bias: true,
            race_preemptions: false,
            dedup_states: true,
            static_pruning: true,
        }
    }
}

impl EngineConfig {
    /// The configuration used for the KC baseline (Klee + Chess): the given
    /// search frontier, preemption bounding at 2, and none of ESD's
    /// goal-directed heuristics.
    pub fn kc(search: SearchConfig) -> Self {
        EngineConfig {
            search,
            preemption_bound: Some(2),
            use_intermediate_goals: false,
            use_critical_edges: false,
            schedule_bias: false,
            dedup_states: false,
            static_pruning: false,
            ..Default::default()
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
    /// Branch forks decided by the static phase's interval analysis instead
    /// of the solver (the branch was provably one-sided for all inputs).
    pub branches_pruned_static: u64,
    /// Feasibility queries the static verdicts made unnecessary (two per
    /// pruned two-sided fork, one per pruned critical-edge check).
    pub solver_queries_saved: u64,
    /// Preemption forks skipped because the yield has no static race-pair
    /// candidate material around it
    /// ([`EngineConfig::static_pruning`]).
    pub preemptions_pruned_static: u64,
    /// Bugs found that did not match the goal (the paper: "ESD has
    /// discovered a different bug").
    pub other_bugs_found: usize,
    /// Data races flagged by the lockset detector.
    pub races_flagged: usize,
    /// The lowest raw path distance to the final goal observed so far (the
    /// Algorithm-1 proximity estimate, *without* the deadlock schedule-bias
    /// offset) — how close the search has come to the goal. `None` until a
    /// priority-driven frontier computes its first key.
    pub best_proximity: Option<u64>,
}

impl SearchStats {
    /// Folds another search's statistics into these, as for the members of
    /// one job: every counter adds (so `max_live_states` becomes the sum of
    /// the peaks) and `best_proximity` takes the lower of the two.
    pub fn merge(&mut self, other: &SearchStats) {
        self.steps += other.steps;
        self.states_created += other.states_created;
        self.states_pruned += other.states_pruned;
        self.max_live_states += other.max_live_states;
        self.solver_queries += other.solver_queries;
        self.branches_pruned_static += other.branches_pruned_static;
        self.solver_queries_saved += other.solver_queries_saved;
        self.preemptions_pruned_static += other.preemptions_pruned_static;
        self.other_bugs_found += other.other_bugs_found;
        self.races_flagged += other.races_flagged;
        self.best_proximity = match (self.best_proximity, other.best_proximity) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
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

/// Outcome of a search.
#[derive(Debug, Clone)]
pub enum SearchOutcome {
    /// The goal was reached and an execution synthesized.
    Found(Box<Synthesized>),
    /// Every state was explored or abandoned without reaching the goal.
    Exhausted(SearchStats),
    /// The step budget ran out.
    BudgetExceeded(SearchStats),
}

/// Outcome of advancing the search by one round ([`Engine::step_round`]):
/// either the search can continue, or it ended the way a [`SearchOutcome`]
/// ends (the stats live on the engine — [`Engine::stats`]).
#[derive(Debug)]
pub enum StepOutcome {
    /// The round completed without reaching a verdict; call
    /// [`Engine::step_round`] again to keep searching.
    Running,
    /// The goal was reached and an execution synthesized.
    Found(Box<Synthesized>),
    /// Every state was explored or abandoned without reaching the goal.
    Exhausted,
    /// The step budget ran out.
    BudgetExceeded,
}

impl SearchOutcome {
    /// Returns the synthesized execution if the search succeeded.
    pub fn found(self) -> Option<Synthesized> {
        match self {
            SearchOutcome::Found(s) => Some(*s),
            _ => None,
        }
    }

    /// The statistics regardless of outcome.
    pub fn stats(&self) -> &SearchStats {
        match self {
            SearchOutcome::Found(s) => &s.stats,
            SearchOutcome::Exhausted(s) | SearchOutcome::BudgetExceeded(s) => s,
        }
    }
}

const SCHED_WEIGHT: u64 = 1_000_000_000;

/// How many micro-steps each state of a *multi-state* batch advances per
/// round. Single-state batches (every non-beam frontier, and a beam that
/// drained to one live state) advance exactly one micro-step, keeping the
/// single-state frontiers' one-instruction-per-selection granularity.
const BATCH_BURST: u32 = 32;

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
    /// The full engine configuration.
    pub config: EngineConfig,
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
/// sessions, portfolio runners — can own an engine outright. The search is
/// re-entrant: [`Engine::step_round`] advances exactly one frontier batch
/// and returns a [`StepOutcome`]; [`Engine::run`] is a thin loop over it.
/// State advancement itself lives in the `Stepper`; see the
/// [module docs](self) for how beam batches are advanced and merged.
pub struct Engine {
    program: Arc<Program>,
    analysis: Arc<StaticAnalysis>,
    guidance: Guidance,
    goal: GoalSpec,
    config: EngineConfig,
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
        config: EngineConfig,
    ) -> Self {
        let oracle = StaticAnalysis::distance_oracle(&analysis, &program);
        // One virtual queue per goal target set: intermediate goals, then the
        // final goal.
        let mut queue_targets: Vec<Vec<Loc>> = Vec::new();
        if config.use_intermediate_goals {
            for alts in analysis.goal_info.intermediate_goal_locs() {
                if !alts.is_empty() {
                    queue_targets.push(alts);
                }
            }
        }
        queue_targets.push(goal.primary_locs());
        let frontier = config.search.build(queue_targets.len());
        let read = if !frontier.wants_priorities() {
            0
        } else if frontier.wants_intermediate_priorities() {
            queue_targets.len()
        } else {
            1
        };
        // Resolve the distance maps of the queues the frontier reads (the
        // last `read` ones) once, instead of per state and step.
        let queues = queue_targets[queue_targets.len() - read..]
            .iter()
            .map(|targets| targets.iter().map(|t| oracle.goal_distances(*t)).collect())
            .collect();
        let guidance = Guidance {
            oracle,
            queues,
            schedule_bias: config.schedule_bias && matches!(goal, GoalSpec::Deadlock { .. }),
        };
        Engine {
            program,
            analysis,
            guidance,
            goal,
            config,
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
            config: self.config.clone(),
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

    /// Advances the search by one round: one frontier batch selection plus a
    /// turn of every selected state (seeding the initial state first, on the
    /// very first round).
    ///
    /// This is the re-entrant core of the engine: callers may interleave
    /// rounds of several engines, stop between rounds (the partial
    /// [`Engine::stats`] stay accessible), and resume later — the search
    /// trajectory is exactly the one [`Engine::run`] would take, because
    /// `run` *is* a loop over `step_round`.
    pub fn step_round(&mut self) -> StepOutcome {
        if !self.started {
            self.started = true;
            let init = ExecState::initial(&self.program);
            self.register_state(init);
        }
        if self.stats.steps >= self.config.max_steps {
            return StepOutcome::BudgetExceeded;
        }
        let batch = match &self.hot {
            Some(hot) => self.frontier.pop_batch_with(&HotKeys { hot, guidance: &self.guidance }),
            None => self.frontier.pop_batch(),
        };
        if batch.is_empty() {
            return StepOutcome::Exhausted;
        }
        let jobs: Vec<ExecState> = match self.hot.take() {
            Some(hot) if batch == [hot.state.id] => vec![hot.state],
            hot => {
                // A hot state that was passed over is queued now, and one
                // selected with others is taken back out of the map below.
                if let Some(Hot { state, .. }) = hot {
                    self.states.insert(state.id, state);
                }
                batch.iter().filter_map(|id| self.states.remove(id)).collect()
            }
        };
        if jobs.is_empty() {
            return StepOutcome::Running;
        }
        let burst = if jobs.len() > 1 { BATCH_BURST } else { 1 };
        let mut stepper = Stepper::new(&self.program, &self.analysis, &self.goal, &self.config);
        let results = jobs.into_iter().map(|state| stepper.turn(state.id, state, burst)).collect();
        self.merge(results)
    }

    /// Runs the search to completion: a thin loop over
    /// [`Engine::step_round`].
    pub fn run(&mut self) -> SearchOutcome {
        loop {
            match self.step_round() {
                StepOutcome::Running => continue,
                StepOutcome::Found(synth) => return SearchOutcome::Found(synth),
                StepOutcome::Exhausted => return SearchOutcome::Exhausted(self.stats.clone()),
                StepOutcome::BudgetExceeded => {
                    return SearchOutcome::BudgetExceeded(self.stats.clone())
                }
            }
        }
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

    /// The program under search.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The static analysis backing the proximity heuristic.
    pub fn analysis(&self) -> &Arc<StaticAnalysis> {
        &self.analysis
    }

    // ---- deterministic merge ------------------------------------------------

    /// Merges a batch's turn results into the shared pool, strictly in batch
    /// order: statistics first, then snapshot promotions, then fork
    /// admission (dedup fingerprint + pool cap, assigning state ids in
    /// creation order), then the surviving parent re-enters the frontier —
    /// or, for the batch's last result, becomes the hot state. The first
    /// goal-reaching result in batch order wins; later results of the same
    /// batch are discarded.
    fn merge(&mut self, results: Vec<TurnResult>) -> StepOutcome {
        let mut pending: VecDeque<TurnResult> = results.into();
        while let Some(mut result) = pending.pop_front() {
            self.stats.steps += result.steps;
            self.stats.solver_queries += result.solver_queries;
            self.stats.branches_pruned_static += result.branches_pruned_static;
            self.stats.solver_queries_saved += result.solver_queries_saved;
            self.stats.preemptions_pruned_static += result.preemptions_pruned_static;
            self.stats.races_flagged += result.races_flagged;
            self.stats.other_bugs_found += result.other_bugs.len();
            self.other_bugs.append(&mut result.other_bugs);
            for promotion in std::mem::take(&mut result.promotions) {
                match promotion {
                    Promotion::Registered(sid) => self.promote_snapshot(sid, &mut pending),
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
                TurnVerdict::Continue if pending.is_empty() => {
                    let final_dist = self.guidance.final_distance(&result.state);
                    self.note_proximity(final_dist);
                    self.hot = Some(Hot { state: result.state, final_dist });
                }
                TurnVerdict::Continue => self.reinsert_state(result.state),
                TurnVerdict::Dead => {}
                TurnVerdict::Goal { solution: Some(solution) } => {
                    return StepOutcome::Found(Box::new(self.synthesized(solution)));
                }
                // The goal state's constraints could not be solved: abandon
                // it and keep searching.
                TurnVerdict::Goal { solution: None } => {}
            }
        }
        StepOutcome::Running
    }

    /// Applies the deadlock roll-back heuristic to a snapshot state: promote
    /// it to [`SchedDistance::Near`] wherever it currently lives — the pool,
    /// or the not-yet-merged remainder of the current batch.
    fn promote_snapshot(&mut self, sid: u64, pending: &mut VecDeque<TurnResult>) {
        if let Some(mut state) = self.states.remove(&sid) {
            // Taken out of the map only to satisfy the borrow checker across
            // the push (which recomputes the priority keys); reinserted
            // unconditionally below.
            state.sched_distance = SchedDistance::Near;
            self.push_to_frontier(&state);
            self.states.insert(sid, state);
        } else if let Some(result) = pending.iter_mut().find(|r| r.id == sid) {
            // The snapshot is part of this very batch: its re-entry into the
            // frontier (with the promoted priority) happens when its own
            // result is merged.
            result.state.sched_distance = SchedDistance::Near;
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
        if self.states.len() >= self.config.max_states {
            self.stats.states_pruned += 1;
            return None;
        }
        if self.config.dedup_states {
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

    fn reinsert_state(&mut self, state: ExecState) {
        self.push_to_frontier(&state);
        self.states.insert(state.id, state);
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
    /// frontier, only the final one for the beam, none for the frontiers
    /// without priorities. Resolved once, when the engine is built.
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
    /// runnable thread (preferring the scheduled one) has to any of the
    /// queue's target locations.
    fn path_distance(&self, state: &ExecState, targets: &[Arc<GoalDistances>]) -> u64 {
        let mut path_dist = INF;
        for thread in &state.threads {
            if thread.is_finished() || (!thread.is_runnable() && thread.id != state.current) {
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
