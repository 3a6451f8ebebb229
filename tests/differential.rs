//! Differential coverage tests over the generated bug corpus.
//!
//! The genbug generator (`esd-workloads`) injects exactly one bug of a known
//! kind into each seeded random program and returns its ground truth; the
//! coverage harness (`esd-bench`) runs every search frontier against that
//! truth. These tests pin the acceptance criteria for the checked-in smoke
//! corpus (4 seeds × 4 bug kinds):
//!
//! * every injected bug is found by at least one frontier within budget;
//! * every reported goal matches the injected ground truth — zero false
//!   positives;
//! * each scenario's winning execution replays;
//! * a generated 12-job corpus pushed through the [`JobExecutor`] yields
//!   each job's solo outcome.

use esd::playback::play;
use esd::workloads::genbug::{generate, GenConfig, GenSize, GeneratedWorkload, InjectedBugKind};
use esd::{Esd, EsdOptions, FrontierKind, JobExecutor, JobSpec, JobVerdict};
use esd_bench::coverage::{corpus, coverage_matrix, smoke_seeds, CoverageConfig};

/// Per-run instruction budget: the smoke-corpus winners need well under
/// 10 k steps, so this is two orders of magnitude of headroom.
const BUDGET: u64 = 1_000_000;

fn smoke_config() -> CoverageConfig {
    CoverageConfig { seeds: smoke_seeds(), budget: BUDGET, size: GenSize::small() }
}

/// The tentpole assertion set, via the same harness CI's `coverage-smoke`
/// job gates on: full coverage and soundness against ground truth.
#[test]
fn smoke_corpus_is_covered_soundly_and_deterministically() {
    let config = smoke_config();
    assert!(config.seeds.len() >= 4, "the smoke corpus is at least 4 seeds");
    let report = coverage_matrix(&config);
    assert_eq!(
        report.scenarios_total,
        config.seeds.len() * InjectedBugKind::ALL.len(),
        "every seed × kind pair is a scenario"
    );

    let missed: Vec<&str> =
        report.scenarios.iter().filter(|s| s.found_by == 0).map(|s| s.name.as_str()).collect();
    assert!(missed.is_empty(), "bugs missed by every frontier within {BUDGET} steps: {missed:?}");

    let false_positives: Vec<String> = report
        .false_positives()
        .iter()
        .map(|(name, cell)| {
            format!("{name} [{}]: {}", cell.frontier, cell.mismatch.as_deref().unwrap_or("?"))
        })
        .collect();
    assert!(false_positives.is_empty(), "false-positive goal reports: {false_positives:?}");
}

/// Every scenario's winner not only reaches the goal — its synthesized
/// execution replays to the same failure, and the replayed fault carries a
/// tag the ground truth allows.
#[test]
fn smoke_corpus_winners_replay_to_the_injected_failure() {
    for w in corpus(&smoke_config()) {
        let esd = Esd::new(
            EsdOptions::builder()
                .max_steps(BUDGET)
                .with_race_detection(w.truth.needs_race_preemptions)
                .build(),
        );
        let report = esd
            .synthesize_goal(&w.program, w.truth.goal.clone())
            .unwrap_or_else(|e| panic!("{}: proximity synthesis failed: {e:?}", w.name));
        w.truth
            .matches(&report.execution)
            .unwrap_or_else(|e| panic!("{}: ground truth mismatch: {e}", w.name));
        let replay = play(&w.program, &report.execution);
        assert!(replay.reproduced, "{}: the synthesized execution must replay", w.name);
    }
}

/// A race-preemption fork delays the flagged access: the delayed
/// alternative's schedule segment must end *before* that access, so that
/// playback runs the other thread first. Random search on this medium data
/// race finds the lost update only through such a fork; if the fork's
/// segment counted the access it delays, playback would perform the access
/// before the context switch and the program would exit cleanly.
#[test]
fn race_preemption_forks_replay_the_interleaving_they_found() {
    let w =
        generate(&GenConfig { seed: 60, kind: InjectedBugKind::DataRace, size: GenSize::medium() });
    let report = Esd::new(
        EsdOptions::builder()
            .max_steps(BUDGET)
            .frontier(FrontierKind::Random)
            .seed(1)
            .with_race_detection(true)
            .build(),
    )
    .synthesize_goal(&w.program, w.truth.goal.clone())
    .unwrap_or_else(|e| panic!("{}: random synthesis failed: {e:?}", w.name));
    w.truth
        .matches(&report.execution)
        .unwrap_or_else(|e| panic!("{}: ground truth mismatch: {e}", w.name));
    let replay = play(&w.program, &report.execution);
    assert!(
        replay.reproduced,
        "{}: the execution file must replay to its promised failure, got {:?}",
        w.name, replay.outcome
    );
}

/// A generated 12-job corpus (3 seeds × 4 kinds) submitted as one batch
/// through `run_batch` yields, for every job, the verdict and the
/// byte-identical execution file of a solo run of that job — the executor's
/// solo-vs-interleaved guarantee on the batch submission API, end to end.
#[test]
fn twelve_job_batch_outcomes_match_solo_runs() {
    let corpus: Vec<_> = [3u64, 5, 8]
        .iter()
        .flat_map(|&seed| {
            InjectedBugKind::ALL.iter().map(move |&kind| generate(&GenConfig::new(seed, kind)))
        })
        .collect();
    assert_eq!(corpus.len(), 12);

    let options = |w: &GeneratedWorkload| {
        EsdOptions::builder()
            .max_steps(BUDGET)
            .with_race_detection(w.truth.needs_race_preemptions)
            .build()
    };
    let specs: Vec<JobSpec> = corpus
        .iter()
        .map(|w| JobSpec::new(&w.name, &w.program, w.truth.goal.clone()).options(options(w)))
        .collect();
    let outcomes = JobExecutor::round_robin().slice_rounds(128).run_batch(specs);
    assert_eq!(outcomes.len(), corpus.len());

    for (w, outcome) in corpus.iter().zip(outcomes) {
        assert_eq!(outcome.label, w.name);
        assert_eq!(outcome.verdict(), JobVerdict::Found, "{}", w.name);
        let solo = Esd::new(options(w))
            .synthesize_goal(&w.program, w.truth.goal.clone())
            .unwrap_or_else(|e| panic!("{}: solo synthesis failed: {e:?}", w.name));
        assert_eq!(
            outcome.report().map(|r| r.execution.to_json()),
            Some(solo.execution.to_json()),
            "{}: the batched job must synthesize its solo execution file",
            w.name
        );
    }
}
