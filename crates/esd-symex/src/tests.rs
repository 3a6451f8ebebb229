//! Engine-level tests: sequential path synthesis, deadlock schedule
//! synthesis, and the KC baseline behaviour — all on small programs.

use crate::engine::{Engine, GoalSpec, SearchStats, StepOutcome, Synthesized};
use crate::frontier::FrontierKind;
use crate::options::EsdOptions;
use crate::state::ExecState;
use crate::stepper::Stepper;
use esd_analysis::StaticAnalysis;
use esd_ir::{BinOp, BlockId, CmpOp, FaultKind, Loc, Program, ProgramBuilder, ThreadId};
use std::sync::Arc;

/// A sequential program that crashes (null dereference) only when
/// `getchar() == 'k'` and `arg0 > 100`.
fn crashy_program() -> (Program, Loc) {
    let mut pb = ProgramBuilder::new("crashy");
    let mut crash_loc = None;
    pb.function("main", 0, |f| {
        let c = f.getchar();
        let a = f.arg(0);
        let is_k = f.cmp(CmpOp::Eq, c, 'k' as i64);
        let big = f.cmp(CmpOp::Gt, a, 100);
        let both = f.bin(BinOp::And, is_k, big);
        let bug = f.new_block("bug");
        let ok = f.new_block("ok");
        f.cond_br(both, bug, ok);
        f.switch_to(bug);
        let null = f.konst(0);
        crash_loc = Some(Loc::new(esd_ir::FuncId(0), bug, f.next_inst_idx()));
        let v = f.load(null);
        f.output(v);
        f.ret_void();
        f.switch_to(ok);
        f.output(0);
        f.ret_void();
    });
    let p = pb.finish("main");
    (p, crash_loc.unwrap())
}

/// The Listing-1 deadlock program from the paper, with the blocked-lock
/// locations of the two deadlocked threads returned as the goal.
fn listing1_program() -> (Program, Vec<Loc>) {
    let mut pb = ProgramBuilder::new("listing1");
    let m1 = pb.global("M1", 1);
    let m2 = pb.global("M2", 1);
    let idx = pb.global("idx", 1);
    let mode = pb.global("mode", 1);

    let critical = pb.declare("critical_section", 1);
    let mut relock_loc = None;
    let mut inner_m2_loc = None;
    pb.define(critical, |f| {
        let m1p = f.addr_global(m1);
        let m2p = f.addr_global(m2);
        f.lock(m1p);
        inner_m2_loc = Some(Loc::new(critical, f.current_block(), f.next_inst_idx()));
        f.lock(m2p);
        let modep = f.addr_global(mode);
        let idxp = f.addr_global(idx);
        let mv = f.load(modep);
        let iv = f.load(idxp);
        let mode_y = f.cmp(CmpOp::Eq, mv, 1);
        let idx_1 = f.cmp(CmpOp::Eq, iv, 1);
        let both = f.bin(BinOp::And, mode_y, idx_1);
        let relock = f.new_block("relock");
        let rest = f.new_block("rest");
        f.cond_br(both, relock, rest);
        f.switch_to(relock);
        f.unlock(m1p);
        relock_loc = Some(Loc::new(critical, relock, f.next_inst_idx()));
        f.lock(m1p);
        f.br(rest);
        f.switch_to(rest);
        f.unlock(m2p);
        f.unlock(m1p);
        f.ret_void();
    });

    pb.function("main", 0, |f| {
        let idxp = f.addr_global(idx);
        let modep = f.addr_global(mode);
        let c = f.getchar();
        let is_m = f.cmp(CmpOp::Eq, c, 'm' as i64);
        let inc = f.new_block("inc");
        let after_inc = f.new_block("after_inc");
        f.cond_br(is_m, inc, after_inc);
        f.switch_to(inc);
        let v = f.load(idxp);
        let v1 = f.add(v, 1);
        f.store(idxp, v1);
        f.br(after_inc);
        f.switch_to(after_inc);
        let e = f.getenv("mode");
        let is_y = f.cmp(CmpOp::Eq, e, 'Y' as i64);
        let yes = f.new_block("mode_y");
        let no = f.new_block("mode_z");
        let cont = f.new_block("cont");
        f.cond_br(is_y, yes, no);
        f.switch_to(yes);
        f.store(modep, 1);
        f.br(cont);
        f.switch_to(no);
        f.store(modep, 2);
        f.br(cont);
        f.switch_to(cont);
        let t1 = f.spawn(critical, 0);
        let t2 = f.spawn(critical, 0);
        f.join(t1);
        f.join(t2);
        f.ret_void();
    });
    let p = pb.finish("main");
    (p, vec![relock_loc.unwrap(), inner_m2_loc.unwrap()])
}

/// How a search run ended.
#[derive(Debug)]
enum Outcome {
    Found(Box<Synthesized>),
    Exhausted(SearchStats),
    BudgetExceeded(SearchStats),
}

impl Outcome {
    fn found(self) -> Option<Synthesized> {
        match self {
            Outcome::Found(s) => Some(*s),
            _ => None,
        }
    }

    fn stats(&self) -> &SearchStats {
        match self {
            Outcome::Found(s) => &s.stats,
            Outcome::Exhausted(s) | Outcome::BudgetExceeded(s) => s,
        }
    }
}

/// Drives [`Engine::step_round`] to a verdict.
fn run(engine: &mut Engine) -> Outcome {
    loop {
        match engine.step_round() {
            StepOutcome::Running => {}
            StepOutcome::Found(synth) => return Outcome::Found(synth),
            StepOutcome::Exhausted => return Outcome::Exhausted(engine.stats().clone()),
            StepOutcome::BudgetExceeded => return Outcome::BudgetExceeded(engine.stats().clone()),
        }
    }
}

fn run_engine(p: &Program, goal: GoalSpec, options: EsdOptions) -> Outcome {
    let primary = goal.primary_locs()[0];
    let analysis = Arc::new(StaticAnalysis::compute(p, primary));
    let mut engine = Engine::new(Arc::new(p.clone()), analysis, goal, options);
    run(&mut engine)
}

#[test]
fn sequential_crash_path_is_synthesized_with_correct_inputs() {
    let (p, crash_loc) = crashy_program();
    let outcome = run_engine(&p, GoalSpec::Crash { loc: crash_loc }, EsdOptions::default());
    let synth = outcome.found().expect("crash must be synthesized");
    assert!(matches!(synth.fault, FaultKind::SegFault { .. }));
    assert_eq!(synth.fault_loc, Some(crash_loc));
    // The solved inputs must actually enable the buggy branch.
    let stdin = synth
        .inputs
        .iter()
        .find(|(i, _)| i.source == esd_ir::InputSource::Stdin)
        .map(|(_, v)| *v)
        .unwrap();
    let arg = synth
        .inputs
        .iter()
        .find(|(i, _)| matches!(i.source, esd_ir::InputSource::Arg(0)))
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(stdin, 'k' as i64);
    assert!(arg > 100);
}

#[test]
fn dfs_also_finds_the_sequential_crash() {
    let (p, crash_loc) = crashy_program();
    let outcome =
        run_engine(&p, GoalSpec::Crash { loc: crash_loc }, EsdOptions::kc(FrontierKind::Dfs));
    assert!(outcome.found().is_some());
}

#[test]
fn unreachable_crash_goal_is_reported_as_exhausted() {
    let mut pb = ProgramBuilder::new("clean");
    pb.function("main", 0, |f| {
        let dead = f.new_block("dead");
        f.ret_void();
        f.switch_to(dead);
        let null = f.konst(0);
        let v = f.load(null);
        f.output(v);
        f.ret_void();
    });
    let p = pb.finish("main");
    let goal = GoalSpec::Crash { loc: Loc::new(p.entry, BlockId(1), 1) };
    let outcome = run_engine(&p, goal, EsdOptions::default());
    assert!(matches!(outcome, Outcome::Exhausted(_)));
}

#[test]
fn listing1_deadlock_schedule_is_synthesized_by_proximity_search() {
    let (p, thread_locs) = listing1_program();
    let outcome = run_engine(
        &p,
        GoalSpec::Deadlock { thread_locs: thread_locs.clone() },
        EsdOptions { max_steps: 400_000, ..EsdOptions::default() },
    );
    let synth = outcome.found().expect("deadlock must be synthesized");
    assert!(matches!(synth.fault, FaultKind::Deadlock));
    // The synthesized inputs must include getchar()='m' and getenv[0]='Y' for
    // the main thread (the bug-enabling inputs identified in the paper).
    let stdin = synth
        .inputs
        .iter()
        .find(|(i, _)| i.thread == ThreadId(0) && i.seq == 0)
        .map(|(_, v)| *v)
        .unwrap();
    let env = synth
        .inputs
        .iter()
        .find(|(i, _)| i.thread == ThreadId(0) && i.seq == 1)
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(stdin, 'm' as i64);
    assert_eq!(env, 'Y' as i64);
    // The schedule must interleave the two worker threads.
    let threads = synth.schedule.threads();
    assert!(threads.contains(&1) && threads.contains(&2), "threads in schedule: {threads:?}");
    assert!(synth.schedule.context_switches() >= 2);
}

#[test]
fn esd_explores_less_than_kc_on_listing1() {
    // On the (tiny) Listing-1 program both ESD and the KC baseline can find
    // the deadlock, but ESD's goal-directed heuristics must need
    // substantially less exploration — this is the Figure-2/3 relationship
    // in miniature (on the real-bug analogs KC does not finish at all; see
    // the esd-bench harness).
    let (p, thread_locs) = listing1_program();
    let esd = run_engine(
        &p,
        GoalSpec::Deadlock { thread_locs: thread_locs.clone() },
        EsdOptions { max_steps: 400_000, ..EsdOptions::default() },
    );
    let esd_steps = esd.stats().steps;
    assert!(esd.found().is_some());
    let kc = run_engine(
        &p,
        GoalSpec::Deadlock { thread_locs },
        EsdOptions { max_steps: 400_000, seed: 3, ..EsdOptions::kc(FrontierKind::Random) },
    );
    let kc_steps = kc.stats().steps;
    // Listing 1 is tiny, so both approaches succeed quickly here; the paper's
    // orders-of-magnitude gap (Figures 2 and 3) appears on the larger
    // real-bug analogs and BPF programs exercised by the esd-bench harness.
    assert!(esd_steps < 100_000);
    assert!(kc_steps < 400_000 || kc.found().is_none());
}

#[test]
fn assertion_violation_goal_with_symbolic_condition() {
    let mut pb = ProgramBuilder::new("asserty");
    let mut goal_loc = None;
    pb.function("main", 0, |f| {
        let x = f.getchar();
        let doubled = f.mul(x, 2);
        let ok = f.cmp(CmpOp::Ne, doubled, 84);
        goal_loc = Some(Loc::new(esd_ir::FuncId(0), f.current_block(), f.next_inst_idx()));
        f.assert(ok, "doubled input hit the magic value");
        f.output(doubled);
        f.ret_void();
    });
    let p = pb.finish("main");
    let outcome = run_engine(&p, GoalSpec::Crash { loc: goal_loc.unwrap() }, EsdOptions::default());
    let synth = outcome.found().expect("assertion failure must be synthesized");
    assert!(matches!(synth.fault, FaultKind::AssertFailure { .. }));
    let stdin = synth.inputs.iter().find(|(i, _)| i.seq == 0).map(|(_, v)| *v).unwrap();
    assert_eq!(stdin, 42);
}

#[test]
fn other_bugs_found_along_the_way_are_recorded() {
    // The program has an early assertion failure unrelated to the goal crash.
    let mut pb = ProgramBuilder::new("twobugs");
    let mut crash_loc = None;
    pb.function("main", 0, |f| {
        let x = f.getchar();
        let not_seven = f.cmp(CmpOp::Ne, x, 7);
        f.assert(not_seven, "x must not be 7");
        let is_two = f.cmp(CmpOp::Eq, x, 2);
        let bug = f.new_block("bug");
        let ok = f.new_block("ok");
        f.cond_br(is_two, bug, ok);
        f.switch_to(bug);
        let null = f.konst(0);
        crash_loc = Some(Loc::new(esd_ir::FuncId(0), bug, f.next_inst_idx()));
        let v = f.load(null);
        f.output(v);
        f.ret_void();
        f.switch_to(ok);
        f.ret_void();
    });
    let p = pb.finish("main");
    let primary = crash_loc.unwrap();
    let analysis = Arc::new(StaticAnalysis::compute(&p, primary));
    let mut engine =
        Engine::new(Arc::new(p), analysis, GoalSpec::Crash { loc: primary }, EsdOptions::default());
    let outcome = run(&mut engine);
    let synth = outcome.found().expect("goal crash found");
    assert_eq!(synth.inputs[0].1, 2);
    assert!(engine.other_bugs.iter().any(|(f, _)| matches!(f, FaultKind::AssertFailure { .. })));
}

/// Regression test for the ROADMAP-tracked bug fixed by moving the race
/// detector from `Engine` into `ExecState`: with one engine-global detector,
/// the duplicate-pair suppression set was shared by every forked state, so
/// after the first interleaving flagged a racing pair, the *sibling*
/// interleaving reaching the very same pair stayed silent — and never got its
/// race preemption point. The program below forks two sibling states at a
/// symbolic branch; both then run the identical unlocked
/// main-store/worker-store race. Both siblings must flag it.
#[test]
fn sibling_forks_flag_the_same_race_independently() {
    let mut pb = ProgramBuilder::new("sibling_race");
    let g = pb.global("g", 1);
    let worker = pb.declare("worker", 1);
    pb.define(worker, |f| {
        let gp = f.addr_global(g);
        f.store(gp, 7);
        f.ret_void();
    });
    let main_id = pb.declare("main", 0);
    pb.define(main_id, |f| {
        let x = f.getchar();
        let c = f.cmp(CmpOp::Eq, x, 1);
        let a = f.new_block("a");
        let b = f.new_block("b");
        let go = f.new_block("go");
        // The fork: both sides are feasible, so the engine creates two
        // sibling states that differ only in this branch's constraint.
        f.cond_br(c, a, b);
        f.switch_to(a);
        f.nop();
        f.br(go);
        f.switch_to(b);
        f.nop();
        f.br(go);
        f.switch_to(go);
        let gp = f.addr_global(g);
        f.store(gp, 1); // t0's unlocked write…
        let t = f.spawn(worker, 0);
        f.join(t); // …races with t1's unlocked write, in both siblings.
        f.ret_void();
    });
    let p = pb.finish("main");

    // Unreachable crash goal: the search explores everything and exhausts.
    // No ESD guidance: the goal's critical edge would abandon sibling `b`.
    let goal = GoalSpec::Crash { loc: Loc::new(main_id, BlockId(1), 0) };
    let config = EsdOptions {
        frontier: FrontierKind::Dfs,
        with_race_detection: true,
        kc_baseline: true,
        ..EsdOptions::default()
    };
    let primary = goal.primary_locs()[0];
    let analysis = Arc::new(StaticAnalysis::compute(&p, primary));
    let mut engine = Engine::new(Arc::new(p), analysis, goal, config);
    let outcome = run(&mut engine);
    assert!(matches!(outcome, Outcome::Exhausted(_)), "tiny program must be exhausted");
    assert_eq!(
        outcome.stats().races_flagged,
        2,
        "both sibling interleavings must flag the race (the old engine-global \
         detector reported it once and suppressed the sibling's)"
    );
}

/// Review regression: the dynamic race detector is the *backstop* for
/// static imprecision. Even with `static_pruning` on and an
/// (artificially) empty candidate set — simulating a static MHP hole — a
/// write the detector concretely flags must still fork its delayed
/// alternative. The writer below stores `g = 1` then `g = 2` back to back;
/// the reader observes `g == 1` (the asserted-against value) only if it is
/// scheduled *between* those straight-line stores. The only preemption
/// point there is the backstop fork at the flagged second store: lock forks
/// can only park the reader before its own acquisition, from where the
/// writer runs both stores uninterrupted (the reader's early load of `g`
/// makes the word shared so the stores actually flag).
#[test]
fn flagged_races_fork_even_outside_the_static_candidate_set() {
    let mut pb = ProgramBuilder::new("backstop");
    let g = pb.global("g", 1);
    let m = pb.global("m", 1);
    let reader = pb.declare("reader", 1);
    let mut assert_loc = None;
    pb.define(reader, |f| {
        let gp = f.addr_global(g);
        let mp = f.addr_global(m);
        let _x = f.load(gp);
        f.lock(mp);
        f.unlock(mp);
        let y = f.load(gp);
        let ok = f.cmp(CmpOp::Ne, y, 1);
        assert_loc = Some(Loc::new(reader, f.current_block(), f.next_inst_idx()));
        f.assert(ok, "the reader ran between the writer's two stores");
        f.ret_void();
    });
    let writer = pb.declare("writer", 1);
    pb.define(writer, |f| {
        let gp = f.addr_global(g);
        f.store(gp, 1);
        f.store(gp, 2);
        f.ret_void();
    });
    pb.function("main", 0, |f| {
        let tr = f.spawn(reader, 1);
        let tw = f.spawn(writer, 2);
        f.join(tr);
        f.join(tw);
        f.ret_void();
    });
    let p = pb.finish("main");
    let primary = assert_loc.unwrap();

    let mut analysis = StaticAnalysis::compute(&p, primary);
    // Simulate a static phase that missed every candidate (the worst
    // possible MHP/points-to imprecision).
    analysis.facts.set_race_candidates(Default::default());
    let config = EsdOptions {
        frontier: FrontierKind::Dfs,
        with_race_detection: true,
        static_pruning: true,
        ..EsdOptions::default()
    };
    let mut engine =
        Engine::new(Arc::new(p), Arc::new(analysis), GoalSpec::Crash { loc: primary }, config);
    let outcome = run(&mut engine);
    assert!(
        matches!(outcome, Outcome::Found(_)),
        "the concretely flagged race must fork its preemption even though the \
         static candidate set is empty: {outcome:?}"
    );
}

/// Snapshot/restore mid-search must be unobservable: an engine restored from
/// a (serialized and re-parsed) snapshot continues to the identical outcome —
/// same schedule, same inputs, same statistics — as the uninterrupted engine,
/// for every frontier kind. Re-snapshotting the restored engine must also be
/// byte-identical, pinning the canonical serialized form.
#[test]
fn snapshot_restore_resumes_identically_for_every_frontier() {
    let (p, thread_locs) = listing1_program();
    let program = Arc::new(p);
    let goal = GoalSpec::Deadlock { thread_locs };
    let primary = goal.primary_locs()[0];
    let analysis = Arc::new(StaticAnalysis::compute(&program, primary));
    for (search, seed) in
        [(FrontierKind::Dfs, 0), (FrontierKind::Random, 7), (FrontierKind::Proximity, 1)]
    {
        let config =
            EsdOptions { frontier: search, seed, max_steps: 400_000, ..EsdOptions::default() };
        let mut uninterrupted =
            Engine::new(program.clone(), analysis.clone(), goal.clone(), config.clone());
        // Advance partway (two rounds of 32-step bursts: every frontier has
        // forked but none has reached the deadlock yet), snapshot, then run
        // both to completion.
        for _ in 0..2 {
            match uninterrupted.step_round() {
                StepOutcome::Running => {}
                other => panic!("{search:?}: ended during warmup: {other:?}"),
            }
        }
        let snap = uninterrupted.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let parsed: crate::engine::EngineSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = Engine::restore(program.clone(), analysis.clone(), &parsed);
        assert_eq!(
            serde_json::to_string(&restored.snapshot()).unwrap(),
            json,
            "{search:?}: re-snapshot of the restored engine must be byte-identical"
        );
        let a = run(&mut uninterrupted);
        let b = run(&mut restored);
        match (&a, &b) {
            (Outcome::Found(x), Outcome::Found(y)) => {
                assert_eq!(x.schedule, y.schedule, "{search:?}: schedules diverged");
                assert_eq!(x.inputs, y.inputs, "{search:?}: inputs diverged");
                assert_eq!(x.stats, y.stats, "{search:?}: stats diverged");
            }
            (Outcome::Exhausted(x), Outcome::Exhausted(y))
            | (Outcome::BudgetExceeded(x), Outcome::BudgetExceeded(y)) => {
                assert_eq!(x, y, "{search:?}: stats diverged");
            }
            _ => panic!("{search:?}: outcomes diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn budget_exhaustion_is_reported() {
    let mut pb = ProgramBuilder::new("spin");
    pb.function("main", 0, |f| {
        let l = f.new_block("l");
        f.br(l);
        f.switch_to(l);
        let x = f.getchar();
        f.output(x);
        f.br(l);
    });
    let p = pb.finish("main");
    // Unreachable goal in an infinite loop: the search must stop at the step
    // budget rather than hang.
    let goal = GoalSpec::Crash { loc: Loc::new(p.entry, BlockId(1), 999) };
    let outcome = run_engine(&p, goal, EsdOptions { max_steps: 5_000, ..Default::default() });
    match outcome {
        Outcome::BudgetExceeded(stats) => assert!(stats.steps >= 5_000),
        Outcome::Exhausted(_) => {}
        Outcome::Found(_) => panic!("cannot find an unreachable goal"),
    }
}

/// Regression test for the dedup fingerprint. It used to hash the path
/// constraint *count*, so two forks parked at the same location with
/// equal-length but incompatible path conditions collided, and the later one
/// was pruned as a "duplicate". Here the search forks twice into the shared
/// join blocks: the else-fork of the second branch on the `x == 1` path
/// (`[x == 1, y != 2]`) is registered first, and the else-fork on the
/// `x != 1` path (`[x != 1, y != 2]`) — the only state that can reach the
/// goal — used to collide with it and be wrongly pruned, exhausting the
/// search.
#[test]
fn dedup_fingerprint_distinguishes_equal_length_constraint_sets() {
    let mut pb = ProgramBuilder::new("fp_collision");
    let mut bug_loc = None;
    pb.function("main", 0, |f| {
        let x = f.getchar();
        let y = f.getchar();
        let a = f.new_block("a");
        let b = f.new_block("b");
        let m = f.new_block("m");
        let n = f.new_block("n");
        let p = f.new_block("p");
        let q = f.new_block("q");
        let r = f.new_block("r");
        let bug = f.new_block("bug");
        let ok = f.new_block("ok");
        let c1 = f.cmp(CmpOp::Eq, x, 1);
        f.cond_br(c1, a, b);
        f.switch_to(a);
        f.br(m);
        f.switch_to(b);
        f.br(m);
        f.switch_to(m);
        let c2 = f.cmp(CmpOp::Eq, y, 2);
        f.cond_br(c2, n, p);
        f.switch_to(n);
        f.br(q);
        f.switch_to(p);
        f.br(q);
        f.switch_to(q);
        let c3 = f.cmp(CmpOp::Ne, x, 1);
        f.cond_br(c3, r, ok);
        f.switch_to(r);
        let c4 = f.cmp(CmpOp::Ne, y, 2);
        f.cond_br(c4, bug, ok);
        f.switch_to(bug);
        let null = f.konst(0);
        bug_loc = Some(Loc::new(esd_ir::FuncId(0), bug, f.next_inst_idx()));
        let v = f.load(null);
        f.output(v);
        f.ret_void();
        f.switch_to(ok);
        f.ret_void();
    });
    let p = pb.finish("main");
    // DFS makes the registration order deterministic: the x == 1 path's
    // else-fork reaches the colliding position first.
    let config = EsdOptions { frontier: FrontierKind::Dfs, ..EsdOptions::default() };
    let outcome = run_engine(&p, GoalSpec::Crash { loc: bug_loc.unwrap() }, config);
    let synth = outcome.found().expect(
        "the only goal-reaching state has the same constraint count as an \
         already-registered sibling; the content-aware fingerprint must keep it",
    );
    assert_ne!(synth.inputs[0].1, 1, "x must take the second fork's side");
    assert_ne!(synth.inputs[1].1, 2, "y must take the second fork's side");
}

/// The proximity search must synthesize the Listing-1 deadlock through its
/// 32-step bursts — this exercises the burst path end to end, including the
/// in-burst deadlock roll-back promotions (a lock-snapshot fork and the
/// conflicting lock attempt can share one turn).
#[test]
fn listing1_deadlock_is_synthesized_through_in_burst_promotions() {
    let (p, thread_locs) = listing1_program();
    let config = EsdOptions {
        frontier: FrontierKind::Proximity,
        max_steps: 400_000,
        ..EsdOptions::default()
    };
    let synth = run_engine(&p, GoalSpec::Deadlock { thread_locs }, config)
        .found()
        .expect("proximity search must synthesize the deadlock");
    assert!(matches!(synth.fault, FaultKind::Deadlock));
}

/// Regression: after `x == 1` and `y == 2`, a branch on `¬(x == 1 ∧ y == 2)`
/// has one feasible side. The solver's former randomized repair loop could
/// not settle the other side (both variables are pinned), and it answered
/// `Unknown`, which the stepper read as feasible and forked on.
#[test]
fn branch_refuted_by_pinned_inputs_does_not_fork() {
    let mut pb = ProgramBuilder::new("pinned");
    let mut goal_loc = None;
    pb.function("main", 0, |f| {
        let x = f.getchar();
        let y = f.getchar();
        let x_is_1 = f.cmp(CmpOp::Eq, x, 1);
        f.assert(x_is_1, "x is 1");
        let y_is_2 = f.cmp(CmpOp::Eq, y, 2);
        f.assert(y_is_2, "y is 2");
        let both = f.bin(BinOp::And, x_is_1, y_is_2);
        let not_both = f.cmp(CmpOp::Eq, both, 0);
        let bad = f.new_block("bad");
        let good = f.new_block("good");
        f.cond_br(not_both, bad, good);
        f.switch_to(bad);
        let null = f.konst(0);
        let v = f.load(null);
        f.output(v);
        f.ret_void();
        f.switch_to(good);
        goal_loc = Some(Loc::new(esd_ir::FuncId(0), good, f.next_inst_idx()));
        f.output(1);
        f.ret_void();
    });
    let p = Arc::new(pb.finish("main"));
    let goal_loc = goal_loc.unwrap();
    let analysis = Arc::new(StaticAnalysis::compute(&p, goal_loc));
    let goal = GoalSpec::Crash { loc: goal_loc };
    // Neither static verdicts nor the KC preset's lack of critical edges:
    // the solver decides.
    let config = EsdOptions { static_pruning: false, kc_baseline: true, ..Default::default() };
    let (mut stats, mut other_bugs) = (SearchStats::default(), Vec::new());
    let mut stepper = Stepper::new(&p, &analysis, &goal, &config, &mut stats, &mut other_bugs);
    let turn = stepper.turn(ExecState::initial(&p), 64);
    assert!(turn.forks.is_empty(), "the refuted side must not fork");
    // Two queries per assert and two for the branch.
    assert_eq!(stats.solver_queries, 6);
    // Only the asserts' violations were found: the null dereference on the
    // refuted side never ran.
    assert_eq!(other_bugs.len(), 2);
    assert!(other_bugs.iter().all(|(f, _)| matches!(f, FaultKind::AssertFailure { .. })));
}

/// One round advances the selected state a 32-step burst on every frontier,
/// race detection included, and exactly one step under the KC baseline.
#[test]
fn a_round_runs_a_burst_except_under_kc() {
    let mut pb = ProgramBuilder::new("straight");
    let mut crash_loc = None;
    pb.function("main", 0, |f| {
        let mut v = f.konst(0);
        for _ in 0..100 {
            v = f.add(v, 1);
        }
        let null = f.konst(0);
        crash_loc = Some(Loc::new(esd_ir::FuncId(0), f.current_block(), f.next_inst_idx()));
        let w = f.load(null);
        f.output(w);
        f.output(v);
        f.ret_void();
    });
    let p = Arc::new(pb.finish("main"));
    let goal = GoalSpec::Crash { loc: crash_loc.unwrap() };
    let analysis = Arc::new(StaticAnalysis::compute(&p, goal.primary_locs()[0]));
    let with_frontier = |frontier| EsdOptions { frontier, ..EsdOptions::default() };
    let cases = [
        (with_frontier(FrontierKind::Proximity), 32),
        (with_frontier(FrontierKind::Random), 32),
        (with_frontier(FrontierKind::Dfs), 32),
        (EsdOptions { with_race_detection: true, ..EsdOptions::default() }, 32),
        (EsdOptions::kc(FrontierKind::Dfs), 1),
        (EsdOptions::kc(FrontierKind::Random), 1),
    ];
    for (options, burst) in cases {
        let label = format!(
            "{:?} race={} kc={}",
            options.frontier, options.with_race_detection, options.kc_baseline
        );
        let mut engine = Engine::new(p.clone(), analysis.clone(), goal.clone(), options);
        for round in 1..=2 {
            assert!(matches!(engine.step_round(), StepOutcome::Running), "{label}");
            assert_eq!(engine.stats().steps, round * burst, "{label}: steps after round {round}");
        }
    }
}

/// A state's proximity key counts every thread that has not finished, a
/// `main` blocked in `join` included. The program forks on five symbolic
/// distractor branches, spawns a worker longer than a burst, joins it and
/// crashes after the join: a key that skipped the joined `main` saw only
/// the worker, which cannot reach the crash, so every state at the join
/// read as infinitely far and the search walked all 32 distractor paths
/// first.
#[test]
fn proximity_sees_a_main_blocked_in_join() {
    let mut pb = ProgramBuilder::new("joined");
    let worker = pb.declare("worker", 1);
    pb.define(worker, |f| {
        let mut v = f.param(0);
        for _ in 0..64 {
            v = f.add(v, 1);
        }
        f.output(v);
        f.ret_void();
    });
    let mut crash_loc = None;
    pb.function("main", 0, |f| {
        for i in 0..5 {
            let x = f.getchar();
            let hit = f.cmp(CmpOp::Eq, x, 'a' as i64 + i);
            let then_bb = f.new_block("then");
            let join_bb = f.new_block("join");
            f.cond_br(hit, then_bb, join_bb);
            f.switch_to(then_bb);
            f.output(x);
            f.br(join_bb);
            f.switch_to(join_bb);
        }
        let c = f.getchar();
        let t = f.spawn(worker, 0);
        f.join(t);
        let is_q = f.cmp(CmpOp::Eq, c, 'q' as i64);
        let bug = f.new_block("bug");
        let ok = f.new_block("ok");
        f.cond_br(is_q, bug, ok);
        f.switch_to(bug);
        let null = f.konst(0);
        crash_loc = Some(Loc::new(esd_ir::FuncId(1), bug, f.next_inst_idx()));
        let v = f.load(null);
        f.output(v);
        f.ret_void();
        f.switch_to(ok);
        f.ret_void();
    });
    let p = pb.finish("main");
    let goal = GoalSpec::Crash { loc: crash_loc.unwrap() };
    let steps = |frontier| {
        let options = EsdOptions { frontier, max_steps: 20_000, ..EsdOptions::default() };
        let outcome = run_engine(&p, goal.clone(), options);
        let steps = outcome.stats().steps;
        assert!(outcome.found().is_some(), "{frontier:?} must find the crash after the join");
        steps
    };
    let (dfs, proximity) = (steps(FrontierKind::Dfs), steps(FrontierKind::Proximity));
    // Both take 99 steps; the key that skipped the joined `main` took 1,066.
    assert!(proximity <= 2 * dfs, "proximity took {proximity} steps, DFS {dfs}");
}
