//! Benchmark harness regenerating the paper's evaluation (§7).
//!
//! Each public function reproduces one table or figure and returns printable
//! rows; the `src/bin/` binaries (five of which double as harness-less
//! `cargo bench` targets) are thin wrappers that run them and print the same
//! rows the paper reports. Absolute times
//! will differ from the paper's 2008-era testbed (and our substrate is an IR
//! interpreter rather than LLVM/Klee); the *shape* — ESD succeeds within
//! seconds-to-minutes, KC hits its cap on the real-bug analogs, synthesis
//! time grows with BPF branch count, stress testing finds nothing — is the
//! reproduction target (see EXPERIMENTS.md).
//!
//! Beyond the paper's figures, the [`coverage`] module runs the generated
//! bug corpus (seeded programs with injected bugs of known kind) through
//! every search frontier and executor fairness policy against ground truth
//! — the differential harness behind the `coverage_matrix` binary and the
//! CI `coverage-smoke` job.

#![deny(missing_docs)]

pub mod coverage;

use esd_core::{kc_synthesize, stress_test, Esd, EsdOptions, KcStrategy, StressConfig};
use esd_playback::play;
use esd_symex::FrontierKind;
use esd_workloads::{all_real_bugs, generate_bpf, listing1, BpfConfig, Workload, WorkloadKind};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Default instruction budget for ESD runs.
pub const ESD_BUDGET: u64 = 8_000_000;
/// Default instruction budget for KC runs — the scaled-down analog of the
/// paper's one-hour cap.
pub const KC_CAP: u64 = 1_000_000;

/// Returns true when the full (slow) parameter sweeps are requested via the
/// `ESD_BENCH_FULL` environment variable.
pub fn full_mode() -> bool {
    std::env::var("ESD_BENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The search frontier the ESD side of a benchmark should use, so the fig2 /
/// fig3 / fig4 binaries can compare frontiers: the first positional CLI
/// argument wins (`fig2 dfs`, `fig2 beam:16`), then the `ESD_FRONTIER`
/// environment variable, then the paper's proximity-guided default. Accepted
/// spellings are those of `FrontierKind::from_str`:
/// `dfs|bfs|random|proximity|beam[:width]`.
///
/// These files double as harness=false `cargo bench` targets, and cargo
/// hands every bench binary its `--bench` flag plus any `BENCHNAME` filter
/// as arguments — so when `--bench` is present, unparseable positionals are
/// treated as filters and ignored. In direct invocation an unknown spelling
/// aborts with the parser's message rather than silently measuring the
/// wrong thing.
pub fn frontier_from_args() -> FrontierKind {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let under_cargo_bench = args.iter().any(|a| a == "--bench");
    let positional = args.iter().find(|a| !a.starts_with('-'));
    let from_env = || {
        std::env::var("ESD_FRONTIER")
            .ok()
            .map(|s| s.parse().unwrap_or_else(|e: String| panic!("{e}")))
            .unwrap_or_default()
    };
    match positional {
        Some(s) => match s.parse() {
            Ok(kind) => kind,
            Err(_) if under_cargo_bench => from_env(),
            Err(e) => panic!("{e}"),
        },
        None => from_env(),
    }
}

/// Whether the searches the benchmarks launch consult the static phase's
/// result-invariant verdicts — interval branch verdicts and race-pair
/// candidate gating: the `ESD_STATIC_PRUNING` environment variable, where
/// `0`, `off`, `false` or `no` disables them and anything else — including
/// the variable being unset — leaves them on, matching the engine default.
/// The CI determinism matrix pins one leg to `ESD_STATIC_PRUNING=0` to prove
/// pruning never changes *what* is synthesized, only how much solver work
/// and how many preemption forks it costs.
pub fn static_pruning_from_env() -> bool {
    match std::env::var("ESD_STATIC_PRUNING") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false" | "no"),
        Err(_) => true,
    }
}

pub(crate) fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Workload name.
    pub system: String,
    /// "hang" or "crash".
    pub manifestation: &'static str,
    /// Measured synthesis time (None = not synthesized within the budget).
    pub esd_secs: Option<f64>,
    /// Instructions explored by the search.
    pub esd_steps: u64,
    /// The paper's reported time, for side-by-side comparison.
    pub paper_secs: Option<f64>,
    /// Whether the synthesized execution replays to the same failure.
    pub playback_ok: bool,
}

/// Regenerates Table 1: ESD synthesis time for every real-bug analog, plus a
/// playback check of each synthesized execution.
pub fn table1(esd_budget: u64) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for w in all_real_bugs() {
        if w.name.starts_with("ls") || w.name == "listing1" {
            continue; // ls1–ls4 belong to Figure 2; listing1 is the running example.
        }
        rows.push(run_table1_row(&w, esd_budget));
    }
    rows
}

/// Runs one Table-1 row.
pub fn run_table1_row(w: &Workload, esd_budget: u64) -> Table1Row {
    let esd = EsdOptions::builder()
        .max_steps(esd_budget)
        .static_pruning(static_pruning_from_env())
        .synthesizer();
    let start = Instant::now();
    let result = esd.synthesize_goal(&w.program, w.goal());
    let elapsed = start.elapsed();
    let (esd_secs, esd_steps, playback_ok) = match &result {
        Ok(r) => {
            let pb = play(&w.program, &r.execution);
            (Some(secs(elapsed)), r.stats.steps, pb.reproduced)
        }
        Err(_) => (None, 0, false),
    };
    Table1Row {
        system: w.name.clone(),
        manifestation: match w.kind {
            WorkloadKind::Hang => "hang",
            WorkloadKind::Crash => "crash",
        },
        esd_secs,
        esd_steps,
        paper_secs: w.paper_synth_time_secs,
        playback_ok,
    }
}

/// Renders Table 1 in the paper's layout.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table 1: ESD applied to real bugs (analog workloads)");
    println!(
        "{:<10} {:>14} {:>16} {:>14} {:>12} {:>10}",
        "System", "Manifestation", "ESD synth [s]", "paper [s]", "steps", "replays"
    );
    for r in rows {
        println!(
            "{:<10} {:>14} {:>16} {:>14} {:>12} {:>10}",
            r.system,
            r.manifestation,
            r.esd_secs.map(|s| format!("{s:.2}")).unwrap_or_else(|| "timeout".into()),
            r.paper_secs.map(|s| format!("{s:.0}")).unwrap_or_else(|| "-".into()),
            r.esd_steps,
            if r.playback_ok { "yes" } else { "no" },
        );
    }
}

/// One bar group of Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Workload name.
    pub system: String,
    /// ESD synthesis time (None = budget exceeded).
    pub esd_secs: Option<f64>,
    /// KC with DFS (None = cap reached without finding the path).
    pub kc_dfs_secs: Option<f64>,
    /// KC with RandomPath (None = cap reached).
    pub kc_rand_secs: Option<f64>,
}

/// Regenerates Figure 2: time to find a path to the bug, ESD (with the given
/// search frontier) vs the two KC search strategies,
/// on ls1–ls4 and the real-bug analogs.
pub fn fig2(esd_budget: u64, kc_cap: u64, frontier: FrontierKind) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for w in all_real_bugs() {
        if w.name == "listing1" {
            continue;
        }
        rows.push(run_fig2_row(&w, esd_budget, kc_cap, frontier));
    }
    rows
}

/// Runs one Figure-2 bar group with the given ESD frontier.
pub fn run_fig2_row(w: &Workload, esd_budget: u64, kc_cap: u64, frontier: FrontierKind) -> Fig2Row {
    let goal = w.goal();
    let esd = EsdOptions::builder()
        .max_steps(esd_budget)
        .frontier(frontier)
        .static_pruning(static_pruning_from_env())
        .synthesizer();
    let start = Instant::now();
    let esd_secs =
        esd.synthesize_goal(&w.program, goal.clone()).ok().map(|_| secs(start.elapsed()));
    let dfs = kc_synthesize(&w.program, goal.clone(), KcStrategy::Dfs, kc_cap);
    let rand = kc_synthesize(&w.program, goal, KcStrategy::RandomPath { seed: 11 }, kc_cap);
    Fig2Row {
        system: w.name.clone(),
        esd_secs,
        kc_dfs_secs: dfs.execution.as_ref().map(|_| secs(dfs.elapsed)),
        kc_rand_secs: rand.execution.as_ref().map(|_| secs(rand.elapsed)),
    }
}

/// Renders Figure 2 as a table (one row per bar group; "cap" marks the bars
/// that fade out at the top of the paper's plot).
pub fn print_fig2(rows: &[Fig2Row], frontier: FrontierKind) {
    println!(
        "Figure 2: time to find a path to the bug — \
         ESD[{frontier}] vs KC(DFS) vs KC(RandPath)"
    );
    println!("{:<10} {:>12} {:>12} {:>14}", "System", "ESD [s]", "KC-DFS [s]", "KC-Rand [s]");
    let fmt = |v: &Option<f64>| v.map(|s| format!("{s:.2}")).unwrap_or_else(|| "cap".into());
    for r in rows {
        println!(
            "{:<10} {:>12} {:>12} {:>14}",
            r.system,
            fmt(&r.esd_secs),
            fmt(&r.kc_dfs_secs),
            fmt(&r.kc_rand_secs)
        );
    }
}

/// One point of Figures 3 and 4.
#[derive(Debug, Clone)]
pub struct BpfRow {
    /// Number of branch instructions in the generated program.
    pub branches: u32,
    /// Estimated program size in KLOC (Figure 4's x-axis).
    pub kloc: f64,
    /// ESD synthesis time (None = budget exceeded).
    pub esd_secs: Option<f64>,
    /// ESD search steps.
    pub esd_steps: u64,
    /// KC (RandomPath) time (None = cap reached).
    pub kc_secs: Option<f64>,
}

/// Regenerates Figure 3 / Figure 4: synthesis time vs BPF program complexity,
/// with the ESD side using the given search frontier.
pub fn fig3(
    branch_counts: &[u32],
    esd_budget: u64,
    kc_cap: u64,
    frontier: FrontierKind,
) -> Vec<BpfRow> {
    let mut rows = Vec::new();
    for &branches in branch_counts {
        let w = generate_bpf(&BpfConfig { branches, ..Default::default() });
        let goal = w.goal();
        let esd = EsdOptions::builder()
            .max_steps(esd_budget)
            .frontier(frontier)
            .static_pruning(static_pruning_from_env())
            .synthesizer();
        let start = Instant::now();
        let esd_result = esd.synthesize_goal(&w.program, goal.clone());
        let esd_elapsed = start.elapsed();
        let kc = kc_synthesize(&w.program, goal, KcStrategy::RandomPath { seed: 5 }, kc_cap);
        rows.push(BpfRow {
            branches,
            kloc: w.program.estimated_c_loc() as f64 / 1000.0,
            esd_secs: esd_result.as_ref().ok().map(|_| secs(esd_elapsed)),
            esd_steps: esd_result.as_ref().map(|r| r.stats.steps).unwrap_or(0),
            kc_secs: kc.execution.as_ref().map(|_| secs(kc.elapsed)),
        });
    }
    rows
}

/// The default Figure-3 sweep (2^4 … 2^8 by default; 2^4 … 2^11 as in the
/// paper under `ESD_BENCH_FULL=1`).
pub fn fig3_branch_counts() -> Vec<u32> {
    if full_mode() {
        vec![16, 32, 64, 128, 256, 512, 1024, 2048]
    } else {
        vec![16, 32, 64, 128, 256]
    }
}

/// Renders Figure 3 (x = branches).
pub fn print_fig3(rows: &[BpfRow], frontier: FrontierKind) {
    println!(
        "Figure 3: BPF — synthesis time vs number of branches \
         (ESD[{frontier}] vs KC-RandPath)"
    );
    println!("{:<10} {:>12} {:>12} {:>12}", "branches", "ESD [s]", "steps", "KC [s]");
    let fmt = |v: &Option<f64>| v.map(|s| format!("{s:.2}")).unwrap_or_else(|| "cap".into());
    for r in rows {
        println!(
            "{:<10} {:>12} {:>12} {:>12}",
            r.branches,
            fmt(&r.esd_secs),
            r.esd_steps,
            fmt(&r.kc_secs)
        );
    }
}

/// Renders Figure 4 (x = program size in KLOC).
pub fn print_fig4(rows: &[BpfRow], frontier: FrontierKind) {
    println!("Figure 4: BPF — synthesis time vs program size (KLOC), ESD[{frontier}]");
    println!("{:<10} {:>12}", "KLOC", "ESD [s]");
    let fmt = |v: &Option<f64>| v.map(|s| format!("{s:.2}")).unwrap_or_else(|| "cap".into());
    for r in rows {
        println!("{:<10.3} {:>12}", r.kloc, fmt(&r.esd_secs));
    }
}

/// One row of the ablation study over ESD's search heuristics.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which configuration was measured.
    pub config: &'static str,
    /// Synthesis time (None = budget exceeded).
    pub secs: Option<f64>,
    /// Search steps executed.
    pub steps: u64,
}

/// Ablation of the design choices called out in DESIGN.md, on the SQLite
/// analog: proximity guidance always on (it is the strategy itself), each of
/// the other heuristics switched off one at a time.
pub fn ablation(esd_budget: u64) -> Vec<AblationRow> {
    let w = esd_workloads::real_bugs::sqlite_recursive_lock();
    let base =
        || EsdOptions::builder().max_steps(esd_budget).static_pruning(static_pruning_from_env());
    let configs: Vec<(&'static str, EsdOptions)> = vec![
        ("full ESD", base().build()),
        ("no intermediate goals", base().use_intermediate_goals(false).build()),
        ("no critical edges", base().use_critical_edges(false).build()),
        ("no schedule bias", base().schedule_bias(false).build()),
    ];
    configs
        .into_iter()
        .map(|(name, opts)| {
            let esd = Esd::new(opts);
            let start = Instant::now();
            let result = esd.synthesize_goal(&w.program, w.goal());
            AblationRow {
                config: name,
                secs: result.as_ref().ok().map(|_| secs(start.elapsed())),
                steps: result.map(|r| r.stats.steps).unwrap_or(0),
            }
        })
        .collect()
}

/// Renders the ablation table.
pub fn print_ablation(rows: &[AblationRow]) {
    println!("Ablation: ESD heuristics on the SQLite deadlock analog");
    println!("{:<24} {:>12} {:>12}", "configuration", "time [s]", "steps");
    let fmt = |v: &Option<f64>| v.map(|s| format!("{s:.2}")).unwrap_or_else(|| "timeout".into());
    for r in rows {
        println!("{:<24} {:>12} {:>12}", r.config, fmt(&r.secs), r.steps);
    }
}

/// The §7.2 / §7.3 stress-testing baseline: bounded random testing of each
/// workload; the expectation is that nothing fails (deadlocks need both the
/// right inputs and an adverse schedule; crashes need rare inputs).
pub fn stress_baseline(runs: u32) -> Vec<(String, bool, u64)> {
    let mut out = Vec::new();
    for w in all_real_bugs() {
        let result = stress_test(
            &w.program,
            &StressConfig {
                runs,
                max_steps_per_run: 50_000,
                seed: 1,
                fixed_inputs: None,
                input_range: (0, 127),
            },
        );
        out.push((w.name.clone(), result.failed(), result.total_steps));
    }
    let bpf = generate_bpf(&BpfConfig { branches: 64, ..Default::default() });
    let result = stress_test(
        &bpf.program,
        &StressConfig {
            runs,
            max_steps_per_run: 50_000,
            seed: 1,
            fixed_inputs: None,
            input_range: (0, 127),
        },
    );
    out.push((bpf.name.clone(), result.failed(), result.total_steps));
    out
}

/// §7.1 playback check: every synthesized execution must replay
/// deterministically to the same failure, several times in a row.
pub fn playback_check(esd_budget: u64, repetitions: u32) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for w in all_real_bugs() {
        let esd = EsdOptions::builder()
            .max_steps(esd_budget)
            .static_pruning(static_pruning_from_env())
            .synthesizer();
        let ok = match esd.synthesize_goal(&w.program, w.goal()) {
            Ok(r) => (0..repetitions).all(|_| play(&w.program, &r.execution).reproduced),
            Err(_) => false,
        };
        out.push((w.name.clone(), ok));
    }
    out
}

/// One diagnostic of an `irlint` sweep, flattened into plain serializable
/// fields for the binary's `--json` mode (the lint crate itself carries no
/// serde dependency, so the mirror lives here).
#[derive(Debug, Clone, Serialize)]
pub struct IrlintDiagnostic {
    /// The corpus program the diagnostic was reported on.
    pub program: String,
    /// The reporting pass's name (e.g. `shared-unsynchronized-write`).
    pub lint: &'static str,
    /// `"error"`, `"warning"` or `"note"`.
    pub severity: &'static str,
    /// The function the diagnostic is anchored in.
    pub function: String,
    /// The basic block within the function.
    pub block: u32,
    /// The instruction index within the block (`== insts.len()` = the
    /// block's terminator).
    pub idx: u32,
    /// Human-readable description.
    pub message: String,
}

/// The result of one `irlint` sweep over the shipped program corpus.
#[derive(Debug, Clone)]
pub struct IrlintReport {
    /// The rendered diagnostics: a `=== name ===` header per program
    /// followed by `esd_analysis::lint::render` output, in corpus order.
    pub text: String,
    /// Every diagnostic across the corpus, in stable corpus order — the
    /// machine-readable half behind `irlint --json`.
    pub diagnostics: Vec<IrlintDiagnostic>,
    /// Programs linted.
    pub programs: usize,
    /// `Error`-severity diagnostics across the corpus — the CI `lint-gate`
    /// job fails when this is non-zero.
    pub errors: usize,
    /// `Warning`-severity diagnostics across the corpus.
    pub warnings: usize,
    /// `Note`-severity diagnostics across the corpus.
    pub notes: usize,
}

/// The serializable shape behind `irlint --json`: everything of
/// [`IrlintReport`] except the rendered text (which the golden fixture
/// already pins byte-for-byte in the default mode).
#[derive(Debug, Clone, Serialize)]
pub struct IrlintJsonReport {
    /// Every diagnostic across the corpus, in stable corpus order.
    pub diagnostics: Vec<IrlintDiagnostic>,
    /// Programs linted.
    pub programs: usize,
    /// `Error`-severity diagnostics across the corpus.
    pub errors: usize,
    /// `Warning`-severity diagnostics across the corpus.
    pub warnings: usize,
    /// `Note`-severity diagnostics across the corpus.
    pub notes: usize,
}

impl IrlintReport {
    /// The machine-readable projection printed by `irlint --json`.
    pub fn json_report(&self) -> IrlintJsonReport {
        IrlintJsonReport {
            diagnostics: self.diagnostics.clone(),
            programs: self.programs,
            errors: self.errors,
            warnings: self.warnings,
            notes: self.notes,
        }
    }
}

/// Runs the default lint lineup ([`esd_analysis::LintRegistry`]) over every
/// program this repository ships — the real-bug analog workloads, the
/// Listing-1 running example, and the smoke-corpus genbug programs (the
/// same 4 seeds × 4 kinds the differential matrix exercises) — and renders
/// the diagnostics in stable corpus order. The `irlint` binary prints the
/// text and exits non-zero on any `Error`-severity diagnostic;
/// `tests/irlint_golden.rs` pins the exact bytes.
pub fn irlint_report() -> IrlintReport {
    use esd_analysis::{lint, LintRegistry, Severity};
    use esd_workloads::genbug::{generate, GenConfig, InjectedBugKind};

    let mut corpus: Vec<Workload> = all_real_bugs();
    corpus.push(listing1());
    for seed in coverage::smoke_seeds() {
        for kind in InjectedBugKind::ALL {
            corpus.push(generate(&GenConfig::new(seed, kind)).to_workload());
        }
    }

    let registry = LintRegistry::with_default_lints();
    let mut report = IrlintReport {
        text: String::new(),
        diagnostics: Vec::new(),
        programs: 0,
        errors: 0,
        warnings: 0,
        notes: 0,
    };
    for w in &corpus {
        let diags = registry.run(&w.program);
        report.programs += 1;
        for d in &diags {
            match d.severity {
                Severity::Error => report.errors += 1,
                Severity::Warning => report.warnings += 1,
                Severity::Note => report.notes += 1,
            }
            report.diagnostics.push(IrlintDiagnostic {
                program: w.name.clone(),
                lint: d.lint,
                severity: match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                    Severity::Note => "note",
                },
                function: w.program.functions[d.loc.func.0 as usize].name.clone(),
                block: d.loc.block.0,
                idx: d.loc.idx,
                message: d.message.clone(),
            });
        }
        report.text.push_str(&format!("=== {} ===\n", w.name));
        report.text.push_str(&lint::render(&w.program, &diags));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_cover_the_paper_systems() {
        // Tiny budget: this checks the row structure, not synthesis success.
        let rows = table1(20_000);
        let names: Vec<&str> = rows.iter().map(|r| r.system.as_str()).collect();
        for expected in ["sqlite", "hawknl", "ghttpd", "paste", "mknod", "mkdir", "mkfifo", "tac"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn quick_crash_rows_synthesize_and_replay() {
        let w = all_real_bugs().into_iter().find(|w| w.name == "mkfifo").unwrap();
        let row = run_table1_row(&w, 2_000_000);
        assert!(row.esd_secs.is_some());
        assert!(row.playback_ok);
    }

    #[test]
    fn fig3_rows_report_kloc_monotonically() {
        let rows = fig3(&[16, 64], 1_500_000, 10_000, FrontierKind::Proximity);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].kloc < rows[1].kloc);
    }

    /// Every frontier is selectable through the bench plumbing (tiny budgets:
    /// this checks the wiring, not synthesis success).
    #[test]
    fn all_frontiers_are_selectable() {
        let w = all_real_bugs().into_iter().find(|w| w.name == "mkfifo").unwrap();
        for frontier in [
            FrontierKind::Dfs,
            FrontierKind::Bfs,
            FrontierKind::Random,
            FrontierKind::Proximity,
            FrontierKind::beam(),
        ] {
            let row = run_fig2_row(&w, 20_000, 1_000, frontier);
            assert_eq!(row.system, "mkfifo");
        }
    }
}
