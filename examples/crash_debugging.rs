//! Debugging a crash from a production coredump: the ghttpd-style buffer
//! overflow. The failure is first captured at the (simulated) end-user site,
//! then ESD re-creates it from the coredump alone, and the developer replays
//! it under the debugger façade with a breakpoint on the overflowing store.
//! Exits non-zero if the failure does not reproduce under the debugger.
//!
//! Run with: `cargo run --example crash_debugging`

use esd::core::BugReport;
use esd::playback::Debugger;
use esd::workloads::{capture_coredump, real_bugs::ghttpd_log_overflow};
use esd::Esd;

fn main() {
    let workload = ghttpd_log_overflow();
    let dump = capture_coredump(&workload, 5).expect("the overflow crashes at the user site");
    println!("coredump: {}", dump.summary());

    let esd = Esd::with_defaults();
    let report = esd
        .synthesize(&workload.program, &BugReport::from_coredump(dump))
        .expect("ESD synthesizes the overflow");
    println!("synthesized {} in {:.2?}", report.execution.fault_tag, report.elapsed);

    let mut dbg = Debugger::new(&workload.program, report.execution.clone());
    dbg.break_at(workload.goal_locs[0]);
    let (hits, result) = dbg.run();
    println!("breakpoint on the overflowing store hit {} time(s)", hits.len());
    println!("failure reproduced under the debugger: {}", result.reproduced);
    if !result.reproduced {
        std::process::exit(1);
    }
}
