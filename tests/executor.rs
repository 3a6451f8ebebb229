//! Integration tests for the multi-job executor: interleaving jobs must
//! never change what any job synthesizes (byte-identical execution files,
//! solo vs. interleaved, at every executor pool size, with static pruning
//! on or off per `ESD_STATIC_PRUNING`), the fairness
//! policies must schedule as documented (no starvation under round-robin,
//! urgent jobs first under deadline-first), and a winning member must cancel
//! its pending siblings immediately.

use esd::core::MemberOutcome;
use esd::playback::play;
use esd::symex::SearchStats;
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

/// The static-pruning switch under test: the CI determinism matrix pins one
/// leg to `ESD_STATIC_PRUNING=0`; pruning must never change what any job
/// synthesizes.
fn env_static_pruning() -> bool {
    std::env::var("ESD_STATIC_PRUNING").ok().as_deref() != Some("0")
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

/// Per-job options for the interleaving test: the paste job runs the beam
/// frontier so the executor drives the batched engine path; the rest use
/// the paper's proximity default. Static pruning follows the environment.
fn batch_options(name: &str, race: bool) -> EsdOptions {
    let base = EsdOptions::builder()
        .max_steps(8_000_000)
        .static_pruning(env_static_pruning())
        .with_race_detection(race);
    if name == "paste" {
        base.frontier(FrontierKind::Beam { width: 16 }).build()
    } else {
        base.build()
    }
}

/// The static pruning counters of a search that the batch gates on:
/// `(branches_pruned_static, solver_queries_saved, preemptions_pruned_static)`.
fn pruning_counters(stats: &SearchStats) -> (u64, u64, u64) {
    (stats.branches_pruned_static, stats.solver_queries_saved, stats.preemptions_pruned_static)
}

/// The tentpole determinism contract: a job's execution file is
/// byte-identical whether the job ran solo or interleaved with the other
/// jobs of the batch, because slicing happens only at `step_round`
/// boundaries and jobs share nothing. Exercised serially and with slice
/// batches spread over a pool as wide as the job count and of the CI matrix
/// size (`ESD_POOL`). Every job must be found and replay, and its static
/// pruning counters must match its solo run. With pruning on, the batch
/// must prune branches, save solver queries and (in its race-mode job)
/// prune preemption forks; with pruning off, all three stay zero.
#[test]
fn interleaved_jobs_emit_byte_identical_execution_files() {
    let batch = interleaving_batch();
    let static_pruning = env_static_pruning();

    // Solo baselines.
    let solo: Vec<(String, (u64, u64, u64))> = batch
        .iter()
        .map(|(w, race)| {
            let report = Esd::new(batch_options(&w.name, *race))
                .synthesize_goal(&w.program, w.goal())
                .unwrap_or_else(|e| panic!("{} solo synthesis: {e:?}", w.name));
            (report.execution.to_json(), pruning_counters(&report.stats))
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

        let mut sums = (0, 0, 0);
        for (((w, _), handle), (solo_json, solo_counters)) in batch.iter().zip(&handles).zip(&solo)
        {
            let outcome = executor.take(*handle).expect("idle executor finished every job");
            assert_eq!(outcome.verdict, JobVerdict::Found, "{} (pool={pool})", w.name);
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
            let counters = pruning_counters(&report.stats);
            assert_eq!(counters, *solo_counters, "{}: pruning counters at pool={pool}", w.name);
            sums = (sums.0 + counters.0, sums.1 + counters.1, sums.2 + counters.2);
        }

        let (branches_pruned, queries_saved, preemptions_pruned) = sums;
        if static_pruning {
            assert!(
                branches_pruned > 0 && queries_saved > 0,
                "static pruning is on but the batch pruned {branches_pruned} branches and \
                 saved {queries_saved} solver queries (pool={pool})"
            );
            assert!(
                preemptions_pruned > 0,
                "static pruning is on but the batch pruned no preemption forks (pool={pool})"
            );
        } else {
            assert_eq!(
                sums,
                (0, 0, 0),
                "static pruning is off, yet the batch pruned (pool={pool})"
            );
        }
    }
}

/// A long-running job: a 512-branch BPF program searched breadth-first
/// (undirected, so the path space is effectively inexhaustible within any
/// budget the test dispatches).
fn expensive_job(label: &str) -> JobSpec {
    let w = generate_bpf(&BpfConfig { branches: 512, ..Default::default() });
    JobSpec::new(label, &w.program, w.goal())
        .options(EsdOptions::builder().max_steps(u64::MAX / 2).frontier(FrontierKind::Bfs).build())
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
    assert_eq!(executor.status(big), JobStatus::Cancelled);
}

/// Deadline-first fairness: an urgent job submitted *after* a FIFO-earlier
/// long-running job finishes first — the policy serves the earliest
/// scheduling deadline exclusively, with enlarged slices.
#[test]
fn deadline_first_finishes_the_urgent_job_before_the_fifo_earlier_one() {
    let urgent = real_bug("mkfifo");
    let mut executor = JobExecutor::deadline_first().slice_rounds(512);
    let big = executor.submit(expensive_job("batch"));
    let rush = executor.submit(
        JobSpec::new("urgent", &urgent.program, urgent.goal())
            .options(EsdOptions::builder().max_steps(8_000_000).build())
            .deadline(std::time::Duration::from_secs(3600)),
    );

    let mut slices = 0u64;
    while !executor.status(rush).is_terminal() {
        assert!(executor.run_slice(), "work remains while the urgent job is unfinished");
        slices += 1;
        assert!(slices < 100_000, "the urgent job must finish");
    }
    assert_eq!(executor.status(rush).verdict(), Some(JobVerdict::Found));
    assert!(
        !executor.status(big).is_terminal(),
        "the FIFO-earlier batch job must not have finished before the urgent one"
    );
    let stats = executor.stats();
    assert_eq!(
        stats.jobs[big.id() as usize].slices,
        0,
        "deadline-first serves deadline-bearing jobs exclusively"
    );
    executor.cancel(big);
}

/// Regression guard for the portfolio-loser fix: the moment a member
/// reports `Found`, the job's pending members are cancelled — members after
/// the winner in the same scheduling round receive no slice at all, so
/// per-member `rounds` statistics are exact. With a slice large enough for
/// the proximity member to win on its first turn, the trailing members must
/// report exactly zero rounds.
#[test]
fn winning_member_cancels_pending_members_before_their_slice() {
    let w = real_bug("mkfifo");
    let base = EsdOptions::builder().max_steps(8_000_000);
    let mut executor = JobExecutor::round_robin().slice_rounds(4_000_000);
    let handle = executor.submit(
        JobSpec::new("race", &w.program, w.goal())
            .member("proximity", base.build())
            .member("dfs", EsdOptions::builder().frontier(FrontierKind::Dfs).build())
            .member("bfs", EsdOptions::builder().frontier(FrontierKind::Bfs).build()),
    );
    executor.run_until_idle();
    let outcome = executor.take(handle).expect("the job finished");
    assert_eq!(outcome.verdict, JobVerdict::Found);
    let members = &outcome.result.members;
    assert_eq!(members[0].outcome, MemberOutcome::Won, "proximity wins on its first slice");
    assert_eq!(outcome.slices, 1, "the job finished within one dispatched slice");
    for member in &members[1..] {
        assert_eq!(member.outcome, MemberOutcome::Preempted, "{}", member.label);
        assert_eq!(
            member.rounds, 0,
            "{}: members pending when the winner is observed must never \
             receive their slice of the winning round",
            member.label
        );
        assert_eq!(member.stats.steps, 0, "{}", member.label);
    }
}
