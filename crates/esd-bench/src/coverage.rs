//! Differential search-coverage harness over the generated bug corpus.
//!
//! [`coverage_matrix`] takes a corpus of `(seed, bug kind)` scenarios from
//! the `esd-workloads` genbug generator and runs every search frontier
//! (proximity, DFS, random) against each scenario's ground
//! truth. The report answers two questions CI gates on:
//!
//! 1. **Coverage** — is every injected bug found by at least one frontier
//!    within the per-run budget? ([`CoverageReport::all_found`])
//! 2. **Soundness** — does every *reported* goal match the injected ground
//!    truth (fault tag, fault location, arming inputs)? A mismatch is a
//!    false positive. ([`CoverageReport::false_positives`])
//!
//! The `coverage_matrix` binary wraps this into `BENCH_coverage.json` for
//! the CI `coverage-smoke` job; `tests/differential.rs` asserts the same
//! properties as a regular test over the checked-in smoke corpus.

use crate::secs;
use esd_core::EsdOptions;
use esd_symex::FrontierKind;
use esd_workloads::genbug::{generate, GenConfig, GenSize, GeneratedWorkload, InjectedBugKind};
use serde::Serialize;
use std::time::Instant;

/// The frontier lineup of the matrix: every [`FrontierKind`] the engine
/// offers, the paper's proximity frontier first.
pub fn coverage_frontiers() -> Vec<FrontierKind> {
    vec![FrontierKind::Proximity, FrontierKind::Dfs, FrontierKind::Random]
}

/// The checked-in smoke corpus seeds (reduced mode / CI); ≥ 4 seeds so the
/// smoke matrix is at least 4 seeds × 4 kinds as the acceptance criteria
/// require.
pub fn smoke_seeds() -> Vec<u64> {
    vec![2, 11, 23, 47]
}

/// The full-mode corpus seeds (`ESD_BENCH_FULL=1`).
pub fn full_seeds() -> Vec<u64> {
    (0..12).map(|i| 2 + 9 * i).collect()
}

/// Configuration of one coverage-matrix run.
#[derive(Debug, Clone)]
pub struct CoverageConfig {
    /// The corpus seeds (each crossed with every bug kind).
    pub seeds: Vec<u64>,
    /// Instruction budget per synthesis run.
    pub budget: u64,
    /// Structural size of the generated programs.
    pub size: GenSize,
}

impl CoverageConfig {
    /// The reduced (smoke) configuration CI runs.
    pub fn smoke(budget: u64) -> Self {
        CoverageConfig { seeds: smoke_seeds(), budget, size: GenSize::small() }
    }

    /// The full configuration behind `ESD_BENCH_FULL=1`.
    pub fn full(budget: u64) -> Self {
        CoverageConfig { seeds: full_seeds(), budget, size: GenSize::medium() }
    }
}

/// One `(scenario, frontier)` cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageCell {
    /// The frontier's display name.
    pub frontier: String,
    /// Whether this frontier synthesized an execution within the budget.
    pub found: bool,
    /// Whether the synthesized execution matched the injected ground truth
    /// (`false` while `found` is a **false positive**; `true` when nothing
    /// was found, vacuously).
    pub truth_ok: bool,
    /// The mismatch description when `found && !truth_ok`.
    pub mismatch: Option<String>,
    /// Search steps the run executed.
    pub steps: u64,
    /// Branches the static feasibility pass pruned from this run's search.
    pub branches_pruned_static: u64,
    /// Solver queries the static feasibility pass answered without calling
    /// the solver.
    pub solver_queries_saved: u64,
    /// Preemption forks the static race-pair candidate set pruned from this
    /// run's search (always 0 outside race-preemption scenarios).
    pub preemptions_pruned_static: u64,
    /// States this run's search forked (including the initial state) — the
    /// number the candidate gating shrinks on race scenarios.
    pub states_created: u64,
    /// Wall-clock seconds of the run.
    pub secs: f64,
}

/// One corpus scenario: a `(seed, kind)` pair, its generated program, and
/// the per-frontier cells.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRow {
    /// The generated workload's name.
    pub name: String,
    /// The generator seed.
    pub seed: u64,
    /// The injected bug kind's slug.
    pub kind: String,
    /// One cell per frontier, in [`coverage_frontiers`] order.
    pub cells: Vec<CoverageCell>,
    /// How many frontiers found the bug.
    pub found_by: usize,
    /// The fastest (by steps) frontier that found the bug with correct
    /// ground truth.
    pub winner: Option<String>,
}

/// The machine-readable result of [`coverage_matrix`], serialized to
/// `BENCH_coverage.json` by the `coverage_matrix` binary and gated in CI.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageReport {
    /// `"reduced"` (smoke / CI) or `"full"` (`ESD_BENCH_FULL=1`).
    pub mode: &'static str,
    /// Whether static pruning — branch-feasibility verdicts and race-pair
    /// candidate gating — was on for the matrix (`ESD_STATIC_PRUNING`,
    /// default on).
    pub static_pruning: bool,
    /// Branches the static feasibility pass pruned, summed over every cell.
    pub branches_pruned_static: u64,
    /// Solver queries the static feasibility pass saved, summed over every
    /// cell.
    pub solver_queries_saved: u64,
    /// Preemption forks the candidate set pruned, summed over every cell.
    pub preemptions_pruned_static: u64,
    /// States forked by the race-preemption scenarios' cells — the number
    /// the candidate gating shrinks (compare across `ESD_STATIC_PRUNING=0/1`
    /// runs).
    pub race_states_created: u64,
    /// Instruction budget per synthesis run.
    pub budget: u64,
    /// The corpus seeds.
    pub seeds: Vec<u64>,
    /// The frontier lineup, by display name.
    pub frontiers: Vec<String>,
    /// One row per `(seed, kind)` scenario.
    pub scenarios: Vec<ScenarioRow>,
    /// Scenario count (`seeds × kinds`).
    pub scenarios_total: usize,
    /// Scenarios found by at least one frontier.
    pub scenarios_found: usize,
    /// Wall-clock seconds for the whole matrix.
    pub total_wall_secs: f64,
}

impl CoverageReport {
    /// Coverage gate: every injected bug was found by ≥ 1 frontier.
    pub fn all_found(&self) -> bool {
        self.scenarios_found == self.scenarios_total
    }

    /// Soundness gate: the `(scenario, frontier)` cells that reported a goal
    /// not matching the injected ground truth.
    pub fn false_positives(&self) -> Vec<(&str, &CoverageCell)> {
        self.scenarios
            .iter()
            .flat_map(|s| s.cells.iter().map(move |c| (s.name.as_str(), c)))
            .filter(|(_, c)| c.found && !c.truth_ok)
            .collect()
    }
}

/// The corpus of a config: every seed crossed with every bug kind, in
/// stable (seed-major, [`InjectedBugKind::ALL`]-minor) order.
pub fn corpus(config: &CoverageConfig) -> Vec<GeneratedWorkload> {
    config
        .seeds
        .iter()
        .flat_map(|&seed| {
            InjectedBugKind::ALL
                .iter()
                .map(move |&kind| generate(&GenConfig { seed, kind, size: config.size }))
        })
        .collect()
}

/// The synthesis options one matrix cell runs with. Race-directed
/// preemptions follow the scenario's ground truth (they are part of what a
/// race bug *needs*, not a per-frontier variable).
fn cell_options(w: &GeneratedWorkload, frontier: FrontierKind, budget: u64) -> EsdOptions {
    EsdOptions::builder()
        .max_steps(budget)
        .frontier(frontier)
        .with_race_detection(w.truth.needs_race_preemptions)
        .static_pruning(crate::static_pruning_from_env())
        .build()
}

/// Runs the full differential matrix for a config: every scenario × every
/// frontier.
pub fn coverage_matrix(config: &CoverageConfig) -> CoverageReport {
    let started = Instant::now();
    let frontiers = coverage_frontiers();
    let corpus = corpus(config);

    let mut scenarios = Vec::with_capacity(corpus.len());
    for (idx, w) in corpus.iter().enumerate() {
        let mut cells = Vec::with_capacity(frontiers.len());
        for &frontier in &frontiers {
            let esd = esd_core::Esd::new(cell_options(w, frontier, config.budget));
            let run_started = Instant::now();
            let result = esd.synthesize_goal(&w.program, w.truth.goal.clone());
            let elapsed = secs(run_started.elapsed());
            let cell = match result {
                Ok(report) => {
                    let mismatch = w.truth.matches(&report.execution).err();
                    CoverageCell {
                        frontier: frontier.to_string(),
                        found: true,
                        truth_ok: mismatch.is_none(),
                        mismatch,
                        steps: report.stats.steps,
                        branches_pruned_static: report.stats.branches_pruned_static,
                        solver_queries_saved: report.stats.solver_queries_saved,
                        preemptions_pruned_static: report.stats.preemptions_pruned_static,
                        states_created: report.stats.states_created,
                        secs: elapsed,
                    }
                }
                Err(_) => CoverageCell {
                    frontier: frontier.to_string(),
                    found: false,
                    truth_ok: true,
                    mismatch: None,
                    steps: 0,
                    branches_pruned_static: 0,
                    solver_queries_saved: 0,
                    preemptions_pruned_static: 0,
                    states_created: 0,
                    secs: elapsed,
                },
            };
            cells.push(cell);
        }
        let winner = cells
            .iter()
            .filter(|c| c.found && c.truth_ok)
            .min_by_key(|c| c.steps)
            .map(|c| c.frontier.clone());
        let row = ScenarioRow {
            name: w.name.clone(),
            // Corpus order is seed-major over the kinds.
            seed: config.seeds[idx / InjectedBugKind::ALL.len()],
            kind: w.truth.kind.slug().to_string(),
            found_by: cells.iter().filter(|c| c.found && c.truth_ok).count(),
            winner,
            cells,
        };
        // Full-mode sweeps run for many minutes per scenario; stderr progress
        // keeps long runs observable without touching the report on stdout.
        eprintln!(
            "[{}/{}] {}: found by {}/{} frontiers, winner {} ({:.1}s)",
            idx + 1,
            corpus.len(),
            row.name,
            row.found_by,
            frontiers.len(),
            row.winner.as_deref().unwrap_or("NONE"),
            secs(started.elapsed()),
        );
        scenarios.push(row);
    }

    let scenarios_found = scenarios.iter().filter(|s| s.found_by > 0).count();
    CoverageReport {
        mode: if crate::full_mode() { "full" } else { "reduced" },
        static_pruning: crate::static_pruning_from_env(),
        branches_pruned_static: scenarios
            .iter()
            .flat_map(|s| &s.cells)
            .map(|c| c.branches_pruned_static)
            .sum(),
        solver_queries_saved: scenarios
            .iter()
            .flat_map(|s| &s.cells)
            .map(|c| c.solver_queries_saved)
            .sum(),
        preemptions_pruned_static: scenarios
            .iter()
            .flat_map(|s| &s.cells)
            .map(|c| c.preemptions_pruned_static)
            .sum(),
        race_states_created: corpus
            .iter()
            .zip(&scenarios)
            .filter(|(w, _)| w.truth.needs_race_preemptions)
            .flat_map(|(_, s)| &s.cells)
            .map(|c| c.states_created)
            .sum(),
        budget: config.budget,
        seeds: config.seeds.clone(),
        frontiers: frontiers.iter().map(|f| f.to_string()).collect(),
        scenarios_total: scenarios.len(),
        scenarios_found,
        scenarios,
        total_wall_secs: secs(started.elapsed()),
    }
}

/// Renders the coverage report as tables.
pub fn print_coverage(report: &CoverageReport) {
    println!(
        "Coverage matrix: {} scenarios ({} seeds × {} kinds) × {} frontiers, \
         budget={} ({})",
        report.scenarios_total,
        report.seeds.len(),
        InjectedBugKind::ALL.len(),
        report.frontiers.len(),
        report.budget,
        report.mode,
    );
    let mut header = format!("{:<24}", "scenario");
    for f in &report.frontiers {
        header.push_str(&format!(" {f:>10}"));
    }
    println!("{header} {:>12}", "winner");
    for s in &report.scenarios {
        let mut row = format!("{:<24}", s.name);
        for c in &s.cells {
            let mark = if c.found && c.truth_ok {
                format!("{}k", c.steps / 1000)
            } else if c.found {
                "FALSE+".into()
            } else {
                "-".into()
            };
            row.push_str(&format!(" {mark:>10}"));
        }
        println!("{row} {:>12}", s.winner.as_deref().unwrap_or("NONE"));
    }
    println!(
        "coverage: {}/{} found · {} false positives · {:.1}s",
        report.scenarios_found,
        report.scenarios_total,
        report.false_positives().len(),
        report.total_wall_secs,
    );
    println!(
        "static pruning {}: {} branches pruned, {} solver queries saved, {} preemption forks \
         pruned, {} states forked on race scenarios",
        if report.static_pruning { "on" } else { "off" },
        report.branches_pruned_static,
        report.solver_queries_saved,
        report.preemptions_pruned_static,
        report.race_states_created,
    );
}
