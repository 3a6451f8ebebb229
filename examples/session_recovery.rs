//! Durable sessions: survive a debugging-service crash mid-synthesis.
//!
//! 1. Start a durable [`JobExecutor`]: every scheduling decision is
//!    journaled write-ahead, and a full checkpoint is written every few
//!    slices (`checkpoint_every`).
//! 2. Submit two synthesis jobs and run part of the batch, so the crash
//!    below hits a job mid-search.
//! 3. "Crash" — drop the live executor cold, exactly what `kill -9` leaves
//!    behind: the last checkpoint plus the journal tail.
//! 4. Recover with [`JobExecutor::recover`]: the checkpoint is loaded, the
//!    journaled batches are re-planned from the restored round-robin
//!    cursor, and the batch finishes as if the crash never happened — same
//!    execution files, same statistics.
//!
//! Run with: `cargo run --example session_recovery`

use esd::workloads::genbug::{generate, GenConfig, InjectedBugKind};
use esd::workloads::{generate_bpf, BpfConfig};
use esd::{EsdOptions, FrontierKind, JobExecutor, JobSpec};

fn main() {
    let dir = std::env::temp_dir().join("esd-session-recovery");
    let _ = std::fs::remove_dir_all(&dir);

    // A durable executor: journal + checkpoint live under `dir`.
    let mut executor = JobExecutor::round_robin()
        .slice_rounds(64)
        .checkpoint_every(4)
        .durable_dir(&dir)
        .expect("durable directory is writable");

    // Two jobs: a 64-branch BPF deadlock on the random frontier, which
    // takes several slices, and a generated corpus bug on the default
    // proximity frontier.
    let bpf = generate_bpf(&BpfConfig::default());
    executor.submit(JobSpec::new(&bpf.name, &bpf.program, bpf.goal()).options(
        EsdOptions::builder().max_steps(2_000_000).frontier(FrontierKind::Random).build(),
    ));
    let genbug = generate(&GenConfig::new(2, InjectedBugKind::CrashOnPath)).to_workload();
    executor.submit(
        JobSpec::new(&genbug.name, &genbug.program, genbug.goal())
            .options(EsdOptions::builder().max_steps(2_000_000).build()),
    );

    // Run part of the batch, then crash.
    for _ in 0..7 {
        executor.run_slice();
    }
    let before = executor.stats();
    println!(
        "crashing after {} slices ({} search rounds dispatched)...",
        before.slices_dispatched, before.rounds_dispatched
    );
    for job in &before.jobs {
        println!("  {}: {:?} after {} rounds", job.label, job.phase, job.rounds);
    }
    drop(executor); // the crash: only the durable directory survives

    // Recovery: reduce(snapshot, journal) rebuilds the executor exactly.
    let mut recovered = JobExecutor::recover(&dir).expect("recovery succeeds");
    let after = recovered.stats();
    println!(
        "recovered at {} slices ({} search rounds) — resuming",
        after.slices_dispatched, after.rounds_dispatched
    );
    recovered.run_until_idle();

    for job in recovered.stats().jobs {
        let outcome = recovered.take(job.handle).expect("finished job has an outcome");
        match outcome.report() {
            Some(report) => println!(
                "{}: {:?} after {} rounds — {} inputs, {} context switches",
                outcome.label,
                outcome.verdict(),
                outcome.rounds,
                report.execution.inputs.len(),
                report.execution.schedule.context_switches()
            ),
            None => {
                println!(
                    "{}: {:?} after {} rounds",
                    outcome.label,
                    outcome.verdict(),
                    outcome.rounds
                )
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
