//! The debugging service: many bug reports, one machine.
//!
//! The paper's end state is a service developers submit bug reports to; ESD
//! synthesizes a failing execution for each one. This example is that
//! service in miniature: four different workload bugs — two deadlocks and
//! two crashes — are submitted to a [`JobExecutor`], drained concurrently
//! in round-robin slices (the executor's one scheduling rule) while the
//! service reports progress, and every synthesized execution is then
//! replayed deterministically.
//!
//! Run with: `cargo run --release --example debug_service`

use esd::playback::play;
use esd::workloads::real_bugs::{ghttpd_log_overflow, paste_invalid_free, sqlite_recursive_lock};
use esd::workloads::{listing1, Workload};
use esd::{EsdOptions, JobExecutor, JobPhase, JobSpec, JobVerdict};

fn main() {
    // Four bug reports arrive at the service.
    let reports: Vec<Workload> =
        vec![sqlite_recursive_lock(), paste_invalid_free(), ghttpd_log_overflow(), listing1()];

    // Small slices so the batch visibly interleaves: every job advances a
    // little before any job gets its next turn.
    let mut executor = JobExecutor::round_robin().slice_rounds(64);
    let handles: Vec<_> = reports
        .iter()
        .map(|w| {
            let handle = executor.submit(
                JobSpec::new(&w.name, &w.program, w.goal())
                    .options(EsdOptions::builder().max_steps(8_000_000).build()),
            );
            println!("submitted job #{} — {} ({:?})", handle.id(), w.name, w.kind);
            handle
        })
        .collect();

    // Drain the whole batch, reporting service-level progress every so many
    // dispatched slices. All four searches advance interleaved: no job waits
    // for another to finish.
    let mut dispatched = 0u64;
    while executor.run_slice() {
        dispatched += 1;
        if dispatched.is_multiple_of(8) {
            let stats = executor.stats();
            println!(
                "  ... {} slices dispatched, {} running, {} finished",
                stats.slices_dispatched, stats.running, stats.finished
            );
        }
    }

    // Every job is terminal: print the service's per-job report and replay
    // each synthesized execution.
    let stats = executor.stats();
    println!(
        "\n{:<10} {:>10} {:>10} {:>12} {:>10}",
        "job", "slices", "rounds", "wall [ms]", "replays"
    );
    let mut all_reproduced = true;
    for (w, handle) in reports.iter().zip(handles) {
        let outcome = executor.take(handle).expect("an idle executor finished every job");
        assert_eq!(
            outcome.verdict(),
            JobVerdict::Found,
            "{}: the service must synthesize every reported bug",
            w.name
        );
        let report = outcome.report().expect("Found jobs carry a report");
        let replay = play(&w.program, &report.execution);
        all_reproduced &= replay.reproduced;
        println!(
            "{:<10} {:>10} {:>10} {:>12.1} {:>10}",
            outcome.label,
            outcome.slices,
            outcome.rounds,
            outcome.wall.as_secs_f64() * 1000.0,
            if replay.reproduced { "yes" } else { "NO" },
        );
    }
    assert_eq!(stats.finished, 4);
    assert!(stats.jobs.iter().all(|j| j.phase == JobPhase::Finished));
    assert!(all_reproduced, "every synthesized execution must replay its failure");
    println!("\nall {} bugs synthesized and replayed deterministically", stats.finished);
}
