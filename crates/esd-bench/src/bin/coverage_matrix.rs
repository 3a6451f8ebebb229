//! Differential search-coverage matrix over the generated bug corpus
//! (`BENCH_coverage.json`).
//!
//! Generates the seeded bug corpus (N seeds × 4 injected bug kinds), runs
//! every search frontier against each scenario's ground truth —
//! human-readable on stdout, machine-readable as JSON.
//!
//! * Default mode is the *reduced* smoke corpus CI runs (`coverage-smoke`
//!   job); `ESD_BENCH_FULL=1` widens the seed set and enlarges the
//!   generated programs.
//! * The JSON lands in the one optional CLI argument, which must end in
//!   `.json` (default `BENCH_coverage.json`); any other argument prints a
//!   usage line and exits 2.
//! * Exit codes gate CI: 2 = an injected bug was missed by every frontier,
//!   or a flagged race access outside the static race-pair candidates made
//!   the detector's backstop fork; 3 = a false-positive goal report.

use esd_bench::coverage::{coverage_matrix, print_coverage, CoverageConfig};
use esd_bench::full_mode;

/// Reduced-budget (smoke) instruction budget per synthesis run.
const SMOKE_BUDGET: u64 = 4_000_000;
/// Full-mode instruction budget per synthesis run.
const FULL_BUDGET: u64 = 16_000_000;

fn main() {
    let path = esd_bench::json_path_from_args("coverage_matrix", "BENCH_coverage.json");
    let config = if full_mode() {
        CoverageConfig::full(FULL_BUDGET)
    } else {
        CoverageConfig::smoke(SMOKE_BUDGET)
    };
    let report = coverage_matrix(&config);
    print_coverage(&report);

    let json = serde_json::to_string_pretty(&report).expect("the report serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");

    if !report.all_found() {
        eprintln!(
            "FAIL: {}/{} injected bugs found",
            report.scenarios_found, report.scenarios_total
        );
        for s in report.scenarios.iter().filter(|s| s.found_by == 0) {
            eprintln!("  {}: missed by every frontier (budget={})", s.name, report.budget);
        }
        std::process::exit(2);
    }
    if report.race_backstop_forks != 0 {
        eprintln!(
            "FAIL: {} race backstop forks: the detector flagged an access outside the static \
             race-pair candidates while another thread was runnable",
            report.race_backstop_forks
        );
        std::process::exit(2);
    }
    let false_positives = report.false_positives();
    if !false_positives.is_empty() {
        for (name, cell) in &false_positives {
            eprintln!(
                "FAIL: {name} [{}]: false positive — {}",
                cell.frontier,
                cell.mismatch.as_deref().unwrap_or("?")
            );
        }
        std::process::exit(3);
    }
}
