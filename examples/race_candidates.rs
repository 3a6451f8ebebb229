//! Inspecting the static race-pair candidate set: the same racy-counter
//! program as `examples/race_debugging.rs`, but before synthesizing we print
//! what the static phase already knows — which loads/stores may touch
//! shared memory, which pairs of them can race (may-happen-in-parallel with
//! no common lock), and which yields are therefore worth a preemption fork.
//! The race-directed synthesis then gates its yield preemption forks on the
//! candidate set, so every yield the search forks at is one of the printed
//! relevant yields.
//!
//! Run with: `cargo run --example race_candidates`

use esd::analysis::StaticAnalysis;
use esd::ir::{CmpOp, Loc, ProgramBuilder};
use esd::{Esd, EsdOptions, GoalSpec};

fn main() {
    // Two workers do counter = counter + 1 without holding the lock.
    let mut pb = ProgramBuilder::new("racy_counter");
    let counter = pb.global("counter", 1);
    let worker = pb.declare("worker", 1);
    pb.define(worker, |f| {
        let cp = f.addr_global(counter);
        let v = f.load(cp);
        f.yield_now();
        let v1 = f.add(v, 1);
        f.store(cp, v1);
        f.ret_void();
    });
    let mut assert_loc = None;
    let main_id = pb.declare("main", 0);
    pb.define(main_id, |f| {
        let t1 = f.spawn(worker, 1);
        let t2 = f.spawn(worker, 2);
        f.join(t1);
        f.join(t2);
        let cp = f.addr_global(counter);
        let v = f.load(cp);
        let ok = f.cmp(CmpOp::Eq, v, 2);
        assert_loc = Some(Loc::new(main_id, f.current_block(), f.next_inst_idx()));
        f.assert(ok, "both increments must be visible");
        f.ret_void();
    });
    let program = pb.finish("main");
    let goal_loc = assert_loc.unwrap();

    // The first read of the candidates computes points-to,
    // may-happen-in-parallel and locksets; the set falls out of their join.
    let analysis = StaticAnalysis::compute_multi(&program, &[goal_loc]);
    let rc = analysis.facts.race_candidates(&program);
    let at = |loc: Loc| format!("{}:bb{}:{}", program.func(loc.func).name, loc.block.0, loc.idx);

    println!("may-shared accesses:");
    for access in analysis.facts.points_to(&program).accesses.iter().filter(|a| a.may_shared) {
        println!("  {} {}", if access.is_write { "store at" } else { "load  at" }, at(access.loc));
    }
    println!(
        "\nrace-pair candidates ({} of {} yields relevant):",
        rc.relevant_yields.len(),
        rc.all_yields.len()
    );
    for c in &rc.candidates {
        println!("  {} <-> {}  (no common lock)", at(c.access_a), at(c.access_b));
    }

    // Synthesize in race mode: yield preemption forks happen only at the
    // relevant yields counted above.
    let esd = Esd::new(EsdOptions::builder().with_race_detection(true).build());
    match esd.synthesize_goal(&program, GoalSpec::Crash { loc: goal_loc }) {
        Ok(report) => println!(
            "\nsynthesized in {:.2?}: {} states forked, {} preemption forks \
             pruned by the candidate set",
            report.elapsed, report.stats.states_created, report.stats.preemptions_pruned_static
        ),
        Err(e) => println!("\nsynthesis did not reach the assertion within budget: {e:?}"),
    }
}
