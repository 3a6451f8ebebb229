//! Integration tests for the multi-job executor: interleaving jobs must
//! never change what any job synthesizes (byte-identical execution files,
//! solo vs. interleaved, at every executor pool size), the fairness
//! policies must schedule as documented (no starvation under round-robin,
//! urgent jobs first under deadline-first), and a winning member must cancel
//! its pending siblings immediately.

use esd::core::MemberOutcome;
use esd::playback::play;
use esd::workloads::real_bugs::{ghttpd_log_overflow, paste_invalid_free, sqlite_recursive_lock};
use esd::workloads::{all_real_bugs, generate_bpf, BpfConfig, Workload};
use esd::{Esd, EsdOptions, FrontierKind, JobExecutor, JobSpec, JobStatus, JobVerdict};

/// The executor pool size under test: the CI determinism matrix sets
/// `ESD_POOL` to 1, 2 and 8; locally the default exercises 2 workers.
fn env_pool() -> usize {
    std::env::var("ESD_POOL").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

fn mkfifo() -> Workload {
    all_real_bugs().into_iter().find(|w| w.name == "mkfifo").expect("mkfifo workload exists")
}

/// Per-workload options for the interleaving test: the paste job runs the
/// beam frontier so the executor drives the batched engine path; the rest
/// use the paper's proximity default.
fn batch_options(name: &str) -> EsdOptions {
    let base = EsdOptions::builder().max_steps(8_000_000);
    if name == "paste" {
        base.frontier(FrontierKind::Beam { width: 16 }).build()
    } else {
        base.build()
    }
}

/// The tentpole determinism contract: a job's execution file is
/// byte-identical whether the job ran solo or interleaved with three other
/// jobs, because slicing happens only at `step_round` boundaries and jobs
/// share nothing. Exercised serially and with slice batches spread over a
/// pool as wide as the job count and of the CI matrix size (`ESD_POOL`).
#[test]
fn interleaved_jobs_emit_byte_identical_execution_files() {
    let workloads =
        [paste_invalid_free(), sqlite_recursive_lock(), ghttpd_log_overflow(), mkfifo()];

    // Solo baselines.
    let solo: Vec<String> = workloads
        .iter()
        .map(|w| {
            Esd::new(batch_options(&w.name))
                .synthesize_goal(&w.program, w.goal())
                .unwrap_or_else(|e| panic!("{} solo synthesis: {e:?}", w.name))
                .execution
                .to_json()
        })
        .collect();

    // Executor pool sizes: the classic serial leg, a pool as wide as the
    // job count, and the matrix size — all three must reproduce the solo
    // baselines.
    for pool in [1, workloads.len(), env_pool()] {
        let mut executor = JobExecutor::round_robin().slice_rounds(256).pool_size(pool);
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                executor.submit(
                    JobSpec::new(&w.name, &w.program, w.goal()).options(batch_options(&w.name)),
                )
            })
            .collect();
        executor.run_until_idle();

        for ((w, handle), solo_json) in workloads.iter().zip(&handles).zip(&solo) {
            let outcome = executor.take(*handle).expect("idle executor finished every job");
            assert_eq!(outcome.verdict, JobVerdict::Found, "{} (pool={pool})", w.name);
            let report = outcome.report().expect("Found jobs carry a report");
            assert_eq!(
                report.execution.to_json(),
                *solo_json,
                "{}: interleaved with 3 other jobs at pool={pool} must emit the \
                 byte-identical execution file of a solo run",
                w.name
            );
            assert!(
                play(&w.program, &report.execution).reproduced,
                "{}: the interleaved job's execution must replay",
                w.name
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
    let cheap = mkfifo();
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
    let urgent = mkfifo();
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
    let w = mkfifo();
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
