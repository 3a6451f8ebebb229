//! Debugging a failure caused by a data race: an unsynchronized counter
//! update makes a final assertion fail only under an adverse interleaving.
//! ESD is pointed at the failed assertion (the place where the inconsistency
//! is detected, as in §3.1) and race-directed preemptions are enabled.
//! Exits non-zero if synthesis does not reach the assertion or playback
//! does not reproduce the failure.
//!
//! Run with: `cargo run --example race_debugging`

use esd::ir::{CmpOp, Loc, ProgramBuilder};
use esd::playback::play;
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

    let goal = GoalSpec::Crash { loc: assert_loc.unwrap() };
    let esd = Esd::new(EsdOptions::builder().with_race_detection(true).build());
    match esd.synthesize_goal(&program, goal) {
        Ok(report) => {
            println!(
                "race-induced assertion failure synthesized in {:.2?} ({} races flagged)",
                report.elapsed, report.stats.races_flagged
            );
            let replay = play(&program, &report.execution);
            println!("playback reproduced the failure: {}", replay.reproduced);
            if !replay.reproduced {
                std::process::exit(1);
            }
        }
        Err(e) => {
            println!("synthesis did not reach the assertion within budget: {e:?}");
            std::process::exit(1);
        }
    }
}
