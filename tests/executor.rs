//! Integration tests for the multi-job executor: interleaving jobs must
//! never change what any job synthesizes (byte-identical execution files,
//! solo vs. interleaved, at every executor pool size), and round-robin must
//! schedule as documented (no starvation).

use esd::playback::play;
use esd::workloads::genbug::{generate, GenConfig, InjectedBugKind};
use esd::workloads::real_bugs::{ghttpd_log_overflow, paste_invalid_free, sqlite_recursive_lock};
use esd::workloads::{all_real_bugs, generate_bpf, listing1, BpfConfig, Workload};
use esd::{Esd, EsdOptions, FrontierKind, JobExecutor, JobSpec, JobStatus, JobVerdict};
use esd_bench::coverage::smoke_seeds;

/// The executor pool size under test: the CI determinism matrix sets
/// `ESD_POOL` to 1, 2 and 8; locally the default exercises 2 workers.
fn env_pool() -> usize {
    std::env::var("ESD_POOL").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

fn real_bug(name: &str) -> Workload {
    all_real_bugs().into_iter().find(|w| w.name == name).expect("real-bug workload exists")
}

/// The interleaving batch: deadlocks and crashes from the real-bug analogs
/// and the running example, plus one generated data race searched with
/// race-directed preemptions (the `bool`), so the batch always exercises
/// the static race-candidate gating.
fn interleaving_batch() -> Vec<(Workload, bool)> {
    let race_seed = smoke_seeds()[0];
    vec![
        (paste_invalid_free(), false),
        (sqlite_recursive_lock(), false),
        (ghttpd_log_overflow(), false),
        (real_bug("mkfifo"), false),
        (listing1(), false),
        (real_bug("tac"), false),
        (generate(&GenConfig::new(race_seed, InjectedBugKind::DataRace)).to_workload(), true),
    ]
}

/// Per-job options for the interleaving test: the paste job runs the random
/// frontier so the executor drives a second frontier kind; the rest use
/// the paper's proximity default.
fn batch_options(name: &str, race: bool) -> EsdOptions {
    let base = EsdOptions::builder().max_steps(8_000_000).with_race_detection(race);
    if name == "paste" {
        base.frontier(FrontierKind::Random).build()
    } else {
        base.build()
    }
}

/// The tentpole determinism contract: a job's execution file is
/// byte-identical whether the job ran solo or interleaved with the other
/// jobs of the batch, because slicing happens only at `step_round`
/// boundaries and jobs share nothing. Exercised serially and with slice
/// batches spread over a pool as wide as the job count and of the CI matrix
/// size (`ESD_POOL`). Every job must be found and replay, and its count of
/// preemption forks pruned by the race candidates must match its solo run;
/// the batch's race-mode job must prune some.
#[test]
fn interleaved_jobs_emit_byte_identical_execution_files() {
    let batch = interleaving_batch();

    // Solo baselines.
    let solo: Vec<(String, u64)> = batch
        .iter()
        .map(|(w, race)| {
            let report = Esd::new(batch_options(&w.name, *race))
                .synthesize_goal(&w.program, w.goal())
                .unwrap_or_else(|e| panic!("{} solo synthesis: {e:?}", w.name));
            (report.execution.to_json(), report.stats.preemptions_pruned_static)
        })
        .collect();

    // Executor pool sizes: the classic serial leg, a pool as wide as the
    // job count, and the matrix size — all three must reproduce the solo
    // baselines.
    for pool in [1, batch.len(), env_pool()] {
        let mut executor = JobExecutor::round_robin().slice_rounds(256).pool_size(pool);
        let handles: Vec<_> = batch
            .iter()
            .map(|(w, race)| {
                executor.submit(
                    JobSpec::new(&w.name, &w.program, w.goal())
                        .options(batch_options(&w.name, *race)),
                )
            })
            .collect();
        executor.run_until_idle();

        let mut preemptions_pruned = 0;
        for (((w, _), handle), (solo_json, solo_pruned)) in batch.iter().zip(&handles).zip(&solo) {
            let outcome = executor.take(*handle).expect("idle executor finished every job");
            assert_eq!(outcome.verdict(), JobVerdict::Found, "{} (pool={pool})", w.name);
            let report = outcome.report().expect("Found jobs carry a report");
            assert_eq!(
                report.execution.to_json(),
                *solo_json,
                "{}: interleaved with the rest of the batch at pool={pool} must emit the \
                 byte-identical execution file of a solo run",
                w.name
            );
            assert!(
                play(&w.program, &report.execution).reproduced,
                "{}: the interleaved job's execution must replay",
                w.name
            );
            let pruned = report.stats.preemptions_pruned_static;
            assert_eq!(pruned, *solo_pruned, "{}: pruned preemptions at pool={pool}", w.name);
            preemptions_pruned += pruned;
        }
        assert!(preemptions_pruned > 0, "the batch pruned no preemption forks (pool={pool})");
    }
}

/// A long-running job: a 512-branch BPF program searched by the random
/// frontier (undirected, so the path space is effectively inexhaustible
/// within any budget the test dispatches).
fn expensive_job(label: &str) -> JobSpec {
    let w = generate_bpf(&BpfConfig { branches: 512, ..Default::default() });
    JobSpec::new(label, &w.program, w.goal()).options(
        EsdOptions::builder().max_steps(u64::MAX / 2).frontier(FrontierKind::Random).build(),
    )
}

/// Round-robin starvation freedom: a cheap job submitted *after* an
/// expensive one still finishes in a bounded number of slices, while the
/// expensive job keeps running.
#[test]
fn round_robin_never_starves_the_cheap_job() {
    let cheap = real_bug("mkfifo");
    let mut executor = JobExecutor::round_robin().slice_rounds(512);
    let big = executor.submit(expensive_job("expensive"));
    let small = executor.submit(
        JobSpec::new("cheap", &cheap.program, cheap.goal())
            .options(EsdOptions::builder().max_steps(8_000_000).build()),
    );

    let mut slices = 0u64;
    while !executor.status(small).is_terminal() {
        assert!(executor.run_slice(), "work remains while the cheap job is unfinished");
        slices += 1;
        assert!(slices < 100_000, "round-robin must not starve the cheap job");
    }
    assert_eq!(executor.status(small).verdict(), Some(JobVerdict::Found));
    assert!(
        matches!(executor.status(big), JobStatus::Running { .. }),
        "the expensive job must still be searching when the cheap one finishes"
    );
    // Fair turns: the cheap job never got more slices than the expensive one
    // plus the one turn it finished on.
    let stats = executor.stats();
    let small_slices = stats.jobs[small.id() as usize].slices;
    let big_slices = stats.jobs[big.id() as usize].slices;
    assert!(
        small_slices <= big_slices + 1,
        "round-robin slice counts must stay balanced (cheap {small_slices}, \
         expensive {big_slices})"
    );
    assert!(executor.cancel(big));
    assert_eq!(executor.status(big), JobStatus::Finished { verdict: JobVerdict::Cancelled });
}
