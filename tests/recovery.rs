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

use esd::core::frame::{decode_frame, FRAME_HEADER};
use esd::core::journal::scan;
use esd::core::snapshot::load_snapshot;
use esd::core::JobStageSnapshot;
use esd::symex::SearchStats;
use esd::workloads::genbug::{generate, GenConfig, GenSize, InjectedBugKind};
use esd::workloads::{generate_bpf, BpfConfig, Workload};
use esd::{
    EsdOptions, ExecutorSnapshot, FrontierKind, JobExecutor, JobHandle, JobPhase, JobSpec,
    JobStatus, JobVerdict, SessionStatus,
};
use std::path::PathBuf;
use std::time::Duration;

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

    let valid_len = scan(&std::fs::read(&journal_path).expect("journal reads")).valid_len;
    let mut recovered = JobExecutor::recover(&dir).expect("torn journals must recover");
    let len = std::fs::metadata(&journal_path).expect("journal exists").len();
    assert_eq!(len, valid_len as u64, "recovery truncates the torn frame in place");
    recovered.run_until_idle();
    let handles: Vec<esd::JobHandle> = recovered.stats().jobs.iter().map(|j| j.handle).collect();
    let actual = collect(&mut recovered, &handles);
    assert_matches(&actual, &expected, "torn-journal");

    remove_durable_dir(&dir);
}

/// A cheap job for the finished-log tests: the seed-2 generated crash,
/// found in its fourth round on the proximity frontier.
fn quick_job(label: &str) -> JobSpec {
    let w = generate(&GenConfig::new(2, InjectedBugKind::CrashOnPath)).to_workload();
    JobSpec::new(label, &w.program, w.goal())
}

/// What recovery must rebuild of an executor: every job's status (a running
/// job's clock left out), the aggregate counters, and each job's phase,
/// slices and rounds. Wall clocks are left out: a job that finishes during
/// journal replay is timed anew.
type Observable = (Vec<JobStatus>, [u64; 7], Vec<(JobPhase, u64, u64)>);

fn observable(executor: &JobExecutor) -> Observable {
    let stats = executor.stats();
    let statuses = stats
        .jobs
        .iter()
        .map(|job| match executor.status(job.handle) {
            JobStatus::Running { slices, mut progress } => {
                progress.elapsed = Duration::ZERO;
                JobStatus::Running { slices, progress }
            }
            status => status,
        })
        .collect();
    let counters = [
        stats.submitted,
        stats.queued as u64,
        stats.running as u64,
        stats.finished,
        stats.cancelled,
        stats.slices_dispatched,
        stats.rounds_dispatched,
    ];
    let jobs = stats.jobs.iter().map(|j| (j.phase, j.slices, j.rounds)).collect();
    (statuses, counters, jobs)
}

/// Every job's wall clock, in handle order.
fn walls(executor: &JobExecutor) -> Vec<Duration> {
    executor.stats().jobs.iter().map(|j| j.wall).collect()
}

/// Takes every outcome left to take, in handle order: the handle and the
/// synthesized execution (if any) of each.
fn take_all(executor: &mut JobExecutor) -> Vec<(u64, Option<String>)> {
    let handles: Vec<JobHandle> = executor.stats().jobs.iter().map(|j| j.handle).collect();
    handles
        .into_iter()
        .filter_map(|h| executor.take(h))
        .map(|o| (o.handle.id(), o.report().map(|r| r.execution.to_json())))
        .collect()
}

/// The frames of a finished log, counted: each must be whole and valid,
/// and together they must cover the file.
fn count_frames(bytes: &[u8]) -> usize {
    let mut offset = 0;
    let mut frames = 0;
    while offset < bytes.len() {
        let payload = decode_frame(&bytes[offset..], usize::MAX)
            .expect("finished-log frames pass their checksum")
            .expect("finished-log frames are whole");
        offset += FRAME_HEADER + payload.len();
        frames += 1;
    }
    frames
}

/// What one run of [`run_history`] leaves behind.
struct History {
    snapshot: ExecutorSnapshot,
    snapshot_bytes: u64,
    finished_frames: usize,
}

/// Runs a durable executor with a fixed live set — job 0 found and job 1
/// cancelled while queued, neither outcome taken — through `finished` more
/// jobs that each finish and are taken, checkpointing after the live set
/// and again at the end. Checks that recovery rebuilds the same state,
/// every finished job's wall clock included, with only the live outcomes
/// left to take.
fn run_history(finished: usize) -> History {
    let dir = durable_dir(&format!("history-{finished}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut executor = JobExecutor::round_robin()
        .checkpoint_every(1000)
        .durable_dir(&dir)
        .expect("durable directory is writable");
    let found = executor.submit(quick_job("live: found"));
    executor.run_until_idle();
    let cancelled = executor.submit(quick_job("live: cancelled while queued"));
    assert!(executor.cancel(cancelled));
    executor.checkpoint().expect("checkpoint");
    let log = dir.join("finished.log");
    assert_eq!(std::fs::metadata(&log).expect("finished.log exists").len(), 0);
    for _ in 0..finished {
        let h = executor.submit(quick_job("done"));
        executor.run_until_idle();
        assert_eq!(executor.take(h).expect("finished").verdict(), JobVerdict::Found);
    }
    executor.checkpoint().expect("checkpoint");
    let expected = (observable(&executor), walls(&executor));
    drop(executor);

    let log_bytes = std::fs::read(&log).expect("finished.log reads");
    let snapshot: ExecutorSnapshot =
        load_snapshot(&dir.join("snapshot.frame")).expect("snapshot loads");
    assert_eq!(snapshot.finished_len, log_bytes.len() as u64);
    let mut recovered = JobExecutor::recover(&dir).expect("recovery succeeds");
    assert_eq!(
        (observable(&recovered), walls(&recovered)),
        expected,
        "{finished} jobs: recovered state"
    );
    let outcomes = take_all(&mut recovered);
    let live: Vec<u64> = outcomes.iter().map(|(h, _)| *h).collect();
    assert_eq!(live, [found.id(), cancelled.id()], "only the live outcomes are left to take");
    let history = History {
        snapshot,
        snapshot_bytes: std::fs::metadata(dir.join("snapshot.frame")).expect("snapshot").len(),
        finished_frames: count_frames(&log_bytes),
    };
    remove_durable_dir(&dir);
    history
}

/// A checkpoint writes the live jobs only: after 20 or 200 finished and
/// taken jobs, the snapshot holds the same two live jobs and is the same
/// size, while the finished log holds one frame per taken job.
#[test]
fn checkpoint_size_does_not_grow_with_finished_jobs() {
    let small = run_history(20);
    let large = run_history(200);
    assert_eq!(small.finished_frames, 20);
    assert_eq!(large.finished_frames, 200);
    // The two snapshots differ only in clocks, in the rotation cursor (the
    // last job served, 21 against 201) and in the finished log's length, so
    // they are equal once those are cleared, and their sizes differ by the
    // digits of those numbers and of the clocks (the frame's checksum is
    // eight bytes whatever its value).
    let normalized = |snapshot: &ExecutorSnapshot| {
        let mut snapshot = snapshot.clone();
        snapshot.rotation = None;
        snapshot.finished_len = 0;
        for job in &mut snapshot.jobs {
            if let JobStageSnapshot::Finished { wall, status, .. } = &mut job.stage {
                *wall = Duration::ZERO;
                if let Some(SessionStatus::Found(report)) = status {
                    report.elapsed = Duration::ZERO;
                }
            }
        }
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    };
    let handles: Vec<u64> = large.snapshot.jobs.iter().map(|j| j.handle).collect();
    assert_eq!(handles, [0, 1]);
    assert_eq!(normalized(&small.snapshot), normalized(&large.snapshot));
    assert!(
        small.snapshot_bytes.abs_diff(large.snapshot_bytes) <= 24,
        "snapshot.frame is {} bytes after 20 taken jobs and {} after 200",
        small.snapshot_bytes,
        large.snapshot_bytes
    );
}

/// Copies every file of a durable directory into a new one.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("directory is writable");
    for entry in std::fs::read_dir(from).expect("directory reads").flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("file copies");
    }
}

/// A crash between a checkpoint's steps: the finished log already holds
/// the frames the checkpoint appended, but the snapshot that would cover
/// them was never renamed into place. Recovery must read only the prefix
/// the old snapshot pairs with, whether the extra frames are whole or the
/// last one is torn, and rebuild exactly what a crash just before the
/// checkpoint rebuilds.
#[test]
fn recovery_ignores_finished_frames_past_the_snapshot() {
    let dir = durable_dir("finished-crash");
    let _ = std::fs::remove_dir_all(&dir);
    let mut executor = JobExecutor::round_robin()
        .slice_rounds(1)
        .pool_size(env_pool())
        .checkpoint_every(1000)
        .durable_dir(&dir)
        .expect("durable directory is writable");
    let run_and_take = |executor: &mut JobExecutor, n: usize| {
        for _ in 0..n {
            let h = executor.submit(quick_job("done"));
            executor.run_until_idle();
            executor.take(h).expect("finished");
        }
    };
    run_and_take(&mut executor, 4);
    executor.checkpoint().expect("checkpoint");
    let log = dir.join("finished.log");
    let paired = std::fs::metadata(&log).expect("finished.log exists").len();
    // Three more jobs are taken, a fourth is left running mid-search, and
    // the journal holds every decision since the checkpoint.
    run_and_take(&mut executor, 3);
    executor.submit(quick_job("running"));
    assert!(executor.run_slice());
    let at_crash = observable(&executor);
    let before = durable_dir("finished-crash-before");
    copy_dir(&dir, &before);
    executor.checkpoint().expect("checkpoint");
    let appended = std::fs::read(&log).expect("finished.log reads")[paired as usize..].to_vec();
    assert_eq!(count_frames(&appended), 3, "the checkpoint appended the three taken jobs");
    drop(executor);

    // Recovery re-attaches the directory it reads, so each recovery below
    // runs on its own copy of the pre-checkpoint state.
    let crashed = durable_dir("finished-crash-after");
    copy_dir(&before, &crashed);
    let mut crash_free = JobExecutor::recover(&crashed).expect("recovery succeeds");
    let expected = observable(&crash_free);
    assert_eq!(expected, at_crash, "crash-free recovery");
    crash_free.run_until_idle();
    let expected_outcomes = take_all(&mut crash_free);
    // Takes are recorded by the next checkpoint, which never happened: the
    // three taken jobs come back with their outcomes, beside the one that
    // was running.
    assert_eq!(expected_outcomes.len(), 4);
    drop(crash_free);

    let torn = &appended[..appended.len() - 5];
    for (what, extra) in [("whole frames", &appended[..]), ("torn frame", torn)] {
        copy_dir(&before, &crashed);
        let mut bytes = std::fs::read(crashed.join("finished.log")).expect("finished.log reads");
        bytes.extend_from_slice(extra);
        std::fs::write(crashed.join("finished.log"), bytes).expect("finished.log writes");
        let mut recovered = JobExecutor::recover(&crashed).expect("recovery succeeds");
        assert_eq!(observable(&recovered), expected, "{what}: recovered state");
        let len = std::fs::metadata(crashed.join("finished.log")).expect("finished.log").len();
        assert_eq!(len, paired, "{what}: recovery truncates the frames past the snapshot's");
        recovered.run_until_idle();
        assert_eq!(take_all(&mut recovered), expected_outcomes, "{what}: outcomes");
        remove_durable_dir(&crashed);
    }
    remove_durable_dir(&before);
    remove_durable_dir(&dir);
}
