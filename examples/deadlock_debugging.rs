//! Debugging the SQLite-style recursive-lock deadlock: synthesis from the
//! bug-report goal, playback, and patch verification (re-running synthesis
//! against a fixed program, §5.2).
//!
//! Run with: `cargo run --example deadlock_debugging`

use esd::playback::{play, verify_patch};
use esd::workloads::real_bugs::sqlite_recursive_lock;
use esd::{Esd, EsdOptions};

fn main() {
    let workload = sqlite_recursive_lock();
    let esd = Esd::with_defaults();
    let report = esd
        .synthesize_goal(&workload.program, workload.goal())
        .expect("ESD synthesizes the SQLite deadlock");
    println!(
        "deadlock synthesized in {:.2?}; schedule has {} context switches",
        report.elapsed,
        report.execution.schedule.context_switches()
    );
    let replay = play(&workload.program, &report.execution);
    println!("playback reproduced the deadlock: {}", replay.reproduced);

    // "Patch" the program by disabling shared-cache mode (the arming input
    // can no longer reach the inverted lock order), then check the patch.
    let mut patched = workload.program.clone();
    let sc = patched.global_by_name("shared_cache").unwrap();
    patched.globals[sc.0 as usize].init = vec![0];
    // The original still deadlocks; the point of verify_patch is that after a
    // real fix ESD can no longer synthesize a path to the bug. Here we only
    // demonstrate the call; the naive "patch" above does not remove the bug
    // (main still stores to shared_cache), so ESD still finds it.
    match verify_patch(&patched, workload.goal(), EsdOptions::default()) {
        Ok(true) => println!("patch verified: the deadlock is no longer synthesizable"),
        Ok(false) => println!("patch rejected: ESD still synthesizes the deadlock"),
        Err(e) => println!("patch verification inconclusive: {e:?}"),
    }
}
