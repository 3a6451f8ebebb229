//! The crash-recovery test matrix: durable executors must survive a hard
//! crash at *every* batch boundary and still synthesize byte-identical
//! execution files.
//!
//! The harness first runs an uninterrupted round-robin four-job batch (a
//! 32-branch BPF deadlock on the random frontier, a generated crash and a
//! generated race on the proximity frontier, and a second race under the
//! KC-DFS baseline), requires it to cross at least 24 batch boundaries, and
//! records every job's winner execution bytes and search statistics. It
//! then replays the same batch under a durable executor, crashing after
//! `k` dispatched batches for every crash point `k` — the executor is
//! dropped cold, exactly what a process kill leaves behind: the last
//! checkpoint plus the journal tail — recovers with
//! [`JobExecutor::recover`], asserts the recovered executor's state equals
//! the uninterrupted run's at that boundary, finishes the batch, and
//! asserts the outcomes are identical to the uninterrupted run.
//!
//! Every executor runs at the `ESD_POOL` pool size (default 2), so a
//! journaled `Grant` record holds one grant per job of the batch and
//! recovery must re-plan the whole batch.
//!
//! The matrix runs at two checkpoint cadences so it covers both
//! pure-snapshot recovery (`checkpoint_every(1)`: the journal is empty at
//! every boundary) and genuine journal replay (cadence 3: most crash points
//! land mid-interval and recovery must re-drive journaled grants).
//!
//! `ESD_RECOVERY_REDUCED=1` subsamples the crash points (CI smoke mode);
//! the default exercises every boundary.

use esd::symex::SearchStats;
use esd::workloads::genbug::{generate, GenConfig, GenSize, InjectedBugKind};
use esd::workloads::{generate_bpf, BpfConfig, Workload};
use esd::{EsdOptions, FrontierKind, JobExecutor, JobPhase, JobSpec, JobVerdict};
use std::path::PathBuf;

fn reduced() -> bool {
    std::env::var("ESD_RECOVERY_REDUCED").ok().as_deref() == Some("1")
}

/// The executor pool size under test: the CI determinism matrix sets
/// `ESD_POOL` to 1, 2 and 8; locally the default exercises 2.
fn env_pool() -> usize {
    std::env::var("ESD_POOL").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

/// Durable state lives under the repo-root `recovery_tmp/` (gitignored;
/// uploaded as a CI artifact when the matrix fails).
/// Success-path cleanup: removes a test's durable directory and then the
/// shared `recovery_tmp/` parent if this was its last entry (the
/// non-recursive `remove_dir` fails harmlessly while other matrix tests'
/// directories are still present). Failure paths never reach this, so the
/// CI upload-on-failure artifact keeps the evidence.
fn remove_durable_dir(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn durable_dir(tag: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("recovery_tmp").join(tag)
}

/// The fewest batch boundaries the uninterrupted run must cross at any pool
/// size, so the matrix's coverage cannot shrink unnoticed.
const MIN_BOUNDARIES: u64 = 24;

/// The matrix's races: the seed-19 medium generated race with `branches`
/// distractor branches.
fn race_workload(branches: u32) -> Workload {
    let size = GenSize { branches, ..GenSize::medium() };
    generate(&GenConfig { seed: 19, kind: InjectedBugKind::DataRace, size }).to_workload()
}

/// The matrix jobs: a BPF deadlock on the random frontier, a generated
/// crash and a generated race on the paper's proximity default, and a
/// generated race under the KC-DFS baseline. The deadlock takes several
/// slices, so the random frontier's image is checkpointed mid-search. The
/// crash runs 32-step bursts and finishes within a few rounds. The
/// proximity race, with 256 distractor branches, runs 32-step bursts and
/// takes 53 rounds, so ESD's race search is checkpointed mid-search too.
/// KC-DFS steps one instruction per round and takes 940 rounds on the race
/// with 128 distractor branches, 30 slices of 32: it keeps the batch going
/// for at least [`MIN_BOUNDARIES`] batches at every pool size, so the run
/// crosses many batch boundaries and the DFS frontier's image is
/// checkpointed at each.
fn matrix_jobs() -> Vec<(Workload, EsdOptions)> {
    let random = EsdOptions::builder().max_steps(2_000_000).frontier(FrontierKind::Random).build();
    let proximity = EsdOptions::builder().max_steps(2_000_000).build();
    let race = EsdOptions::builder().max_steps(2_000_000).with_race_detection(true).build();
    let kc_race = EsdOptions {
        max_steps: 2_000_000,
        with_race_detection: true,
        ..EsdOptions::kc(FrontierKind::Dfs)
    };
    vec![
        (generate_bpf(&BpfConfig { branches: 32, ..BpfConfig::default() }), random),
        (generate(&GenConfig::new(2, InjectedBugKind::CrashOnPath)).to_workload(), proximity),
        (race_workload(256), race),
        (race_workload(128), kc_race),
    ]
}

fn submit_jobs(executor: &mut JobExecutor) -> Vec<esd::JobHandle> {
    matrix_jobs()
        .into_iter()
        .map(|(w, options)| {
            executor.submit(JobSpec::new(&w.name, &w.program, w.goal()).options(options))
        })
        .collect()
}

/// What the uninterrupted run produced for one job, minus wall-clock times.
struct Expected {
    label: String,
    verdict: JobVerdict,
    execution_json: Option<String>,
    stats: Option<SearchStats>,
    rounds: u64,
}

fn collect(executor: &mut JobExecutor, handles: &[esd::JobHandle]) -> Vec<Expected> {
    handles
        .iter()
        .map(|h| {
            let outcome = executor.take(*h).expect("finished executors expose every outcome");
            Expected {
                label: outcome.label.clone(),
                verdict: outcome.verdict(),
                execution_json: outcome.report().map(|r| r.execution.to_json()),
                stats: outcome.status.stats().cloned(),
                rounds: outcome.rounds,
            }
        })
        .collect()
}

fn assert_matches(actual: &[Expected], expected: &[Expected], context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: job count");
    for (a, e) in actual.iter().zip(expected) {
        assert_eq!(a.label, e.label, "{context}");
        assert_eq!(a.verdict, e.verdict, "{context}: {} verdict", e.label);
        assert_eq!(
            a.execution_json, e.execution_json,
            "{context}: {} must synthesize the byte-identical execution file",
            e.label
        );
        assert_eq!(a.stats, e.stats, "{context}: {} search statistics must be equal", e.label);
        assert_eq!(a.rounds, e.rounds, "{context}: {} total rounds", e.label);
    }
}

/// The executor state at a batch boundary that recovery must rebuild
/// exactly: the lifetime slice and round counters, and each job's phase,
/// slices and rounds.
type BoundaryState = (u64, u64, Vec<(JobPhase, u64, u64)>);

fn boundary_state(executor: &JobExecutor) -> BoundaryState {
    let stats = executor.stats();
    let jobs = stats.jobs.iter().map(|j| (j.phase, j.slices, j.rounds)).collect();
    (stats.slices_dispatched, stats.rounds_dispatched, jobs)
}

/// Which crash points to exercise: every batch boundary by default, a
/// deterministic subsample (always including the first boundaries, one per
/// checkpoint phase, and the last) in reduced mode.
fn crash_points(total: u64, cadence: u64) -> Vec<u64> {
    if !reduced() {
        return (0..=total).collect();
    }
    let mut points = vec![0, 1, 2, cadence, cadence + 1, total / 2, total.saturating_sub(1)];
    points.retain(|k| *k <= total);
    points.sort_unstable();
    points.dedup();
    points
}

/// Runs the full crash matrix with checkpoints every `cadence` slices;
/// `name` tags the durable directories.
fn run_matrix(name: &str, cadence: u64) {
    // Small slices so the run crosses many batch boundaries (one or two
    // slices per batch) — each boundary is a crash point in the matrix.
    let make = || JobExecutor::round_robin().slice_rounds(32).pool_size(env_pool());

    // The uninterrupted baseline, and its state at every batch boundary.
    let mut baseline = make();
    let handles = submit_jobs(&mut baseline);
    let mut boundaries = vec![boundary_state(&baseline)];
    while baseline.run_slice() {
        boundaries.push(boundary_state(&baseline));
    }
    let total = boundaries.len() as u64 - 1;
    assert!(
        total >= MIN_BOUNDARIES,
        "{name}: the uninterrupted run crossed {total} batch boundaries, under {MIN_BOUNDARIES}"
    );
    for (job, what) in [(0, "random-frontier job"), (2, "proximity race")] {
        assert!(
            baseline.stats().jobs[job].slices >= 2,
            "{name}: the {what} must still be searching after its first slice"
        );
    }
    let expected = collect(&mut baseline, &handles);
    assert!(
        expected.iter().all(|e| e.verdict == JobVerdict::Found),
        "{name}: every matrix job must be synthesizable uninterrupted"
    );

    for k in crash_points(total, cadence) {
        let tag = format!("{name}-crash{k}");
        let dir = durable_dir(&tag);
        let _ = std::fs::remove_dir_all(&dir);

        let mut executor = make()
            .checkpoint_every(cadence)
            .durable_dir(&dir)
            .expect("durable directory is writable");
        let _ = submit_jobs(&mut executor);
        for _ in 0..k {
            assert!(executor.run_slice(), "{tag}: work must remain before the crash point");
        }
        // The crash: the live executor vanishes; only the durable directory
        // survives.
        drop(executor);

        let mut recovered = JobExecutor::recover(&dir)
            .unwrap_or_else(|e| panic!("{tag}: recovery must succeed: {e}"));
        assert_eq!(
            boundary_state(&recovered),
            boundaries[k as usize],
            "{tag}: recovery must rebuild the executor state at the crash point"
        );
        recovered.run_until_idle();
        // Handles survive recovery: they are dense submit-order ids, listed
        // by the recovered executor's own stats.
        let handles: Vec<esd::JobHandle> =
            recovered.stats().jobs.iter().map(|j| j.handle).collect();
        let actual = collect(&mut recovered, &handles);
        assert_matches(&actual, &expected, &tag);

        remove_durable_dir(&dir);
    }
}

/// Snapshot-only recovery: a checkpoint after every slice leaves the
/// journal empty at every crash point.
#[test]
fn crash_recovery_matrix_round_robin() {
    run_matrix("round-robin", 1);
}

/// Journal replay: with a checkpoint every third slice, most crash points
/// land mid-interval and recovery re-plans the journaled batches.
#[test]
fn crash_recovery_matrix_round_robin_journal_replay() {
    run_matrix("journal-replay", 3);
}

/// A journal torn mid-frame (the tail a `kill -9` can leave) must not stop
/// recovery: the valid prefix replays and the batch still finishes with the
/// byte-identical outcome.
#[test]
fn recovery_tolerates_a_torn_journal_tail() {
    let dir = durable_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);

    // Uninterrupted baseline.
    let mut baseline = JobExecutor::round_robin().slice_rounds(32).pool_size(env_pool());
    let handles = submit_jobs(&mut baseline);
    baseline.run_until_idle();
    let expected = collect(&mut baseline, &handles);

    // Durable run crashed mid-batch, with a wide cadence so the journal
    // holds several grants to tear.
    let mut executor = JobExecutor::round_robin()
        .slice_rounds(32)
        .pool_size(env_pool())
        .checkpoint_every(1000)
        .durable_dir(&dir)
        .expect("durable directory is writable");
    let _ = submit_jobs(&mut executor);
    for _ in 0..5 {
        assert!(executor.run_slice());
    }
    drop(executor);

    // Tear the final frame: chop bytes off the journal tail.
    let journal_path = dir.join("journal-1.log");
    let bytes = std::fs::read(&journal_path).expect("journal exists");
    assert!(bytes.len() > 8, "five batches must have been journaled");
    std::fs::write(&journal_path, &bytes[..bytes.len() - 7]).expect("journal truncated");

    let mut recovered = JobExecutor::recover(&dir).expect("torn journals must recover");
    recovered.run_until_idle();
    let handles: Vec<esd::JobHandle> = recovered.stats().jobs.iter().map(|j| j.handle).collect();
    let actual = collect(&mut recovered, &handles);
    assert_matches(&actual, &expected, "torn-journal");

    remove_durable_dir(&dir);
}
