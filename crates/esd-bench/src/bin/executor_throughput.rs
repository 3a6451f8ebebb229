//! Multi-job executor throughput benchmark (`BENCH_executor.json`).
//!
//! Submits a mixed batch of ≥ 4 workload bugs (deadlocks and crashes) to a
//! round-robin [`esd_core::JobExecutor`], drains it, and reports per-job
//! wall time plus total batch throughput — human-readable on stdout and
//! machine-readable as JSON.
//!
//! * Default mode is the *reduced-budget* smoke configuration CI runs
//!   (`bench-smoke` job); `ESD_BENCH_FULL=1` raises the budget and extends
//!   the batch with BPF jobs.
//! * The JSON lands in `BENCH_executor.json`, or in the first CLI argument
//!   ending in `.json`, or in `$ESD_BENCH_OUT`.
//! * `ESD_STATIC_PRUNING=0` switches static pruning off: both the
//!   feasibility verdicts and the race-candidate preemption gating.
//! * `pool:<n>` / `ESD_POOL` select the executor pool size of the
//!   cross-job parallel leg (`0` or `auto`: all available parallelism);
//!   the report records the pool size and the cross-job speedup over the
//!   serial baseline, both timed after one untimed warm-up drain of the
//!   batch.
//! * Exits non-zero when any job of the batch fails to synthesize — the CI
//!   gate on the throughput trajectory — (exit 4) when static pruning is
//!   on but the batch reports zero pruned branches or zero saved solver
//!   queries, (exit 5) when static pruning is on but the batch's race-mode
//!   job reports zero pruned preemption forks, and (exit 6) when
//!   the cross-job parallel leg's execution files diverge from the serial
//!   baseline.

use esd_bench::{executor_throughput, full_mode, print_executor_throughput};

/// Reduced-budget (smoke) instruction budget per job.
const SMOKE_BUDGET: u64 = 4_000_000;
/// Full-mode instruction budget per job.
const FULL_BUDGET: u64 = 16_000_000;
/// Base slice length in rounds — small enough that the batch genuinely
/// interleaves (every job advances before any job finishes its search).
const SLICE_ROUNDS: u64 = 128;

fn out_path() -> String {
    std::env::args()
        .skip(1)
        .find(|a| a.ends_with(".json"))
        .or_else(|| std::env::var("ESD_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_executor.json".into())
}

fn main() {
    let budget = if full_mode() { FULL_BUDGET } else { SMOKE_BUDGET };
    let report = executor_throughput(budget, SLICE_ROUNDS);
    print_executor_throughput(&report);

    let path = out_path();
    let json = serde_json::to_string_pretty(&report).expect("the report serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");

    // Collect every failure before exiting, so a multi-job breakage is
    // debuggable from one CI log instead of one failure per re-run.
    let unsynthesized: Vec<&esd_bench::ExecutorJobRow> =
        report.jobs.iter().filter(|j| !j.synthesized).collect();
    let unreplayed: Vec<&esd_bench::ExecutorJobRow> =
        report.jobs.iter().filter(|j| j.synthesized && !j.replays).collect();
    if !unsynthesized.is_empty() {
        eprintln!("FAIL: {}/{} jobs synthesized", report.jobs_synthesized, report.jobs_total);
        for j in &unsynthesized {
            eprintln!(
                "  {}: no execution within budget={} ({} slices, {} rounds, {} steps, {:.3}s)",
                j.label, budget, j.slices, j.rounds, j.steps, j.wall_secs
            );
        }
        for j in &unreplayed {
            eprintln!("  {}: synthesized but did not replay", j.label);
        }
        std::process::exit(2);
    }
    if !unreplayed.is_empty() {
        eprintln!("FAIL: {} synthesized execution(s) did not replay", unreplayed.len());
        for j in &unreplayed {
            eprintln!(
                "  {}: playback diverged ({} slices, {} rounds, {} steps, {:.3}s)",
                j.label, j.slices, j.rounds, j.steps, j.wall_secs
            );
        }
        std::process::exit(3);
    }
    // When the static phase is on, the standard batch carries branches the
    // interval analysis can decide — both counters sitting at zero means the
    // pruning plumbing silently fell out, which CI must notice.
    if report.static_pruning
        && (report.branches_pruned_static == 0 || report.solver_queries_saved == 0)
    {
        eprintln!(
            "FAIL: static pruning is on but the batch reports {} branches pruned \
             and {} solver queries saved",
            report.branches_pruned_static, report.solver_queries_saved
        );
        std::process::exit(4);
    }
    // The batch always carries a race-mode genbug DataRace job whose program
    // is full of thread-local yields the candidate set should prune — zero
    // pruned preemptions means the race-candidate plumbing silently fell out.
    if report.static_pruning && report.preemptions_pruned_static == 0 {
        eprintln!(
            "FAIL: static pruning is on but the batch reports zero \
             pruned preemption forks ({} states forked in race mode)",
            report.race_states_created
        );
        std::process::exit(5);
    }
    // The cross-job parallel leg (pool:<n>) must synthesize
    // byte-identical execution files to the serial baseline — the executor's
    // determinism contract, gated per batch job.
    if !report.parallel_divergence.is_empty() {
        eprintln!(
            "FAIL: parallel execution (pool={}) diverged from the serial baseline on: {}",
            report.executor_pool_size,
            report.parallel_divergence.join(", ")
        );
        std::process::exit(6);
    }
}
