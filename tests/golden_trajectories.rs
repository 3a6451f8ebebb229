//! Golden test for search trajectories.
//!
//! The execution-file goldens pin what a search *finds*; this one pins how
//! it got there. For every job of a fixed corpus, one line of
//! `tests/fixtures/trajectories.txt` records the digest of the synthesized
//! execution file (`fnv1a64` of its JSON, `none` when the budget ran out
//! first) and the search counters `steps`, `solver_queries`,
//! `states_created`, `states_pruned` and `max_live_states`. A change that
//! claims to leave the search alone must leave every line as it is.
//!
//! The corpus:
//!
//! * the 13 real-bug analogs and the genbug smoke corpus (4 seeds × 4 bug
//!   kinds, small programs) under every frontier of the coverage matrix;
//! * two medium genbug seeds per kind and a 128-branch BPF program, under
//!   the proximity frontier;
//! * the KC baseline at the benchmarks' `KC_CAP`: KC-DFS and KC-RandPath
//!   (seed 11, as `fig2`) on every real-bug analog, and KC-RandPath (seed
//!   5, as `fig3`) on the 16-branch BPF program.
//!
//! The KC jobs run the [`EsdOptions::kc`] preset. Every job runs through a [`JobExecutor`] at `ESD_POOL` workers (default
//! 2), which must not change any line either.
//!
//! Every execution a line pins must also be right, not only unchanged: a
//! generated job's execution must match its injected ground truth
//! (`GroundTruth::matches`), and every job's execution must replay to its
//! failure under [`esd::play`]. Both checks run before a regeneration
//! writes the fixture, so it cannot pin a wrong execution.
//!
//! If the search changes *intentionally*, regenerate the fixture with
//!
//! ```text
//! ESD_REGEN_GOLDEN=1 cargo test --test golden_trajectories
//! ```
//!
//! and give the reason for every changed line.

use esd::core::snapshot::fnv1a64;
use esd::workloads::genbug::{
    generate, GenConfig, GenSize, GeneratedWorkload, GroundTruth, InjectedBugKind,
};
use esd::workloads::{all_real_bugs, generate_bpf, BpfConfig};
use esd::{play, EsdOptions, FrontierKind, GoalSpec, JobExecutor, JobSpec};
use esd_bench::coverage::{coverage_frontiers, smoke_seeds};
use esd_bench::KC_CAP;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/trajectories.txt");

/// Instruction budget per job.
const BUDGET: u64 = 1_000_000;

/// The medium genbug seeds: the two cheapest of each kind in the cost order
/// of the benchmark's `genbug-search` seed pools (`perfbench/src/workloads.rs`),
/// so the medium jobs stay within a debug `cargo test` budget.
const MEDIUM_SEEDS: [(InjectedBugKind, [u64; 2]); 4] = [
    (InjectedBugKind::CrashOnPath, [10, 19]),
    (InjectedBugKind::DataRace, [19, 27]),
    (InjectedBugKind::OutOfBounds, [21, 18]),
    (InjectedBugKind::AbbaDeadlock, [0, 1]),
];

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trajectories.txt")
}

fn regen_requested() -> bool {
    std::env::var("ESD_REGEN_GOLDEN").ok().as_deref() == Some("1")
}

fn env_pool() -> usize {
    std::env::var("ESD_POOL").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

fn options(frontier: FrontierKind, race: bool) -> EsdOptions {
    EsdOptions::builder().max_steps(BUDGET).frontier(frontier).with_race_detection(race).build()
}

/// One job of the corpus, with the injected ground truth its execution
/// must match when it is a generated bug.
type Job = (JobSpec, Option<GroundTruth>);

fn job(label: String, program: &esd::ir::Program, goal: GoalSpec, opts: EsdOptions) -> Job {
    (JobSpec::new(label, program, goal).options(opts), None)
}

fn genbug_job(frontier: FrontierKind, w: &GeneratedWorkload) -> Job {
    let opts = options(frontier, w.truth.needs_race_preemptions);
    let label = format!("{frontier}/{}", w.name);
    (JobSpec::new(label, &w.program, w.truth.goal.clone()).options(opts), Some(w.truth.clone()))
}

/// Every job of the corpus, in fixture order.
fn corpus() -> Vec<Job> {
    let real = all_real_bugs();
    let smoke: Vec<GeneratedWorkload> = smoke_seeds()
        .into_iter()
        .flat_map(|seed| InjectedBugKind::ALL.map(|kind| generate(&GenConfig::new(seed, kind))))
        .collect();
    let mut jobs = Vec::new();
    for frontier in coverage_frontiers() {
        for w in &real {
            let opts = options(frontier, false);
            jobs.push(job(format!("{frontier}/{}", w.name), &w.program, w.goal(), opts));
        }
        jobs.extend(smoke.iter().map(|w| genbug_job(frontier, w)));
    }
    for (kind, seeds) in MEDIUM_SEEDS {
        for seed in seeds {
            let w = generate(&GenConfig { seed, kind, size: GenSize::medium() });
            jobs.push(genbug_job(FrontierKind::Proximity, &w));
        }
    }
    let bpf = generate_bpf(&BpfConfig { branches: 128, ..BpfConfig::default() });
    let opts = options(FrontierKind::Proximity, false);
    jobs.push(job(format!("proximity/{}", bpf.name), &bpf.program, bpf.goal(), opts));
    let kc = |frontier, seed| EsdOptions { max_steps: KC_CAP, seed, ..EsdOptions::kc(frontier) };
    for w in &real {
        let (dfs, rand) = (kc(FrontierKind::Dfs, 0), kc(FrontierKind::Random, 11));
        jobs.push(job(format!("kc-dfs/{}", w.name), &w.program, w.goal(), dfs));
        jobs.push(job(format!("kc-randpath/{}", w.name), &w.program, w.goal(), rand));
    }
    let bpf = generate_bpf(&BpfConfig { branches: 16, ..BpfConfig::default() });
    let rand = kc(FrontierKind::Random, 5);
    jobs.push(job(format!("kc-randpath/{}", bpf.name), &bpf.program, bpf.goal(), rand));
    jobs
}

/// Runs the corpus and renders one fixture line per job, after checking
/// each synthesized execution against the ground truth and playback.
fn trajectories() -> String {
    let (specs, truths): (Vec<JobSpec>, Vec<Option<GroundTruth>>) = corpus().into_iter().unzip();
    let programs: Vec<_> = specs.iter().map(|spec| spec.program.clone()).collect();
    let mut executor = JobExecutor::round_robin().pool_size(env_pool());
    let handles = executor.submit_batch(specs);
    executor.run_until_idle();
    let mut out = String::from(
        "# label digest steps solver_queries states_created states_pruned max_live_states\n",
    );
    for ((handle, truth), program) in handles.into_iter().zip(truths).zip(programs) {
        let outcome = executor.take(handle).expect("an idle executor finished every job");
        if let Some(report) = outcome.report() {
            if let Some(truth) = truth {
                truth
                    .matches(&report.execution)
                    .unwrap_or_else(|e| panic!("{}: ground truth mismatch: {e}", outcome.label));
            }
            let replay = play(&program, &report.execution);
            assert!(replay.reproduced, "{}: the execution must replay", outcome.label);
        }
        let digest = outcome.report().map_or("none".to_string(), |r| {
            format!("{:016x}", fnv1a64(r.execution.to_json().as_bytes()))
        });
        let s = outcome.status.stats().expect("terminal statuses carry their stats");
        writeln!(
            out,
            "{} {digest} {} {} {} {} {}",
            outcome.label,
            s.steps,
            s.solver_queries,
            s.states_created,
            s.states_pruned,
            s.max_live_states
        )
        .expect("writing to a String");
    }
    out
}

#[test]
fn trajectories_match_the_checked_in_fixture() {
    let fresh = trajectories();
    if regen_requested() {
        std::fs::write(fixture_path(), &fresh).expect("fixture written");
        return;
    }
    for (line, (want, got)) in FIXTURE.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of the trajectory fixture changed (regenerate intentionally with \
             ESD_REGEN_GOLDEN=1 cargo test --test golden_trajectories)",
            line + 1
        );
    }
    assert_eq!(fresh.lines().count(), FIXTURE.lines().count(), "the job list changed");
}
