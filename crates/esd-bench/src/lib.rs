//! Benchmark harness regenerating the paper's evaluation (§7).
//!
//! Each public function reproduces one table or figure and returns printable
//! rows; the `src/bin/` binaries (`cargo run -p esd-bench --bin <name>`)
//! are thin wrappers that run them and print the same rows the paper
//! reports. Absolute times will differ from the paper's 2008-era testbed
//! (and our substrate is an IR interpreter rather than LLVM/Klee). What the
//! bins measure:
//!
//! * `table1` — ESD's search steps per real-bug analog beside the paper's
//!   seconds, plus a playback check of each synthesized execution.
//! * `fig2` — search steps to a path to the bug for ESD, KC-DFS and
//!   KC-RandPath on ls1–ls4 and the real-bug analogs. The analogs are small:
//!   all three find every one of them within a few thousand steps, and ESD
//!   takes about as many as KC-DFS. A second table runs ESD against KC-DFS
//!   on medium generated bugs, per bug kind ([`fig2_genbugs`]). Exits 2
//!   when ESD misses an analog or a generated bug.
//! * `fig3` — ESD's and KC-RandPath's time and steps over BPF programs of
//!   growing branch count, with each program's size in KLOC (Figure 4's
//!   x-axis). ESD's steps grow with the branch count, and KC-RandPath hits
//!   its cap from 64 branches on. Exits 2 when ESD misses a row.
//! * `stress_baseline` — bounded random testing, which reproduces no
//!   failure; `playback_check` — every synthesized execution replays.
//!
//! The KC baseline is the [`EsdOptions::kc`] preset run through the same
//! synthesizer as ESD.
//!
//! Beyond the paper's figures, the [`coverage`] module runs the generated
//! bug corpus (seeded programs with injected bugs of known kind) through
//! every search frontier against ground truth — the differential harness
//! behind the `coverage_matrix` binary and the CI `coverage-smoke` job.
//! The [`codec`] module builds the documents the `codec_speed` binary
//! times the JSON codec on.

#![deny(missing_docs)]

pub mod codec;
pub mod coverage;

use esd_core::{stress_test, Esd, EsdOptions, StressConfig, SynthesisReport};
use esd_playback::play;
use esd_symex::FrontierKind;
use esd_workloads::genbug::{
    generate as generate_bug, GenConfig, GenSize, GeneratedWorkload, InjectedBugKind,
};
use esd_workloads::{all_real_bugs, generate_bpf, listing1, BpfConfig, Workload, WorkloadKind};
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

/// Prints `usage: <bin> <usage>` to stderr, then `why` if it is not
/// empty, and exits 2: how every bench binary refuses its arguments.
fn usage_exit(bin: &str, usage: &str, why: &str) -> ! {
    eprintln!("usage: {bin} {usage}");
    if !why.is_empty() {
        eprintln!("{why}");
    }
    std::process::exit(2);
}

/// For the binaries that take no options: any argument prints a usage line
/// to stderr and exits 2, so a mistyped or removed flag fails loudly
/// instead of running as if it were absent.
pub fn reject_args(bin: &str) {
    if std::env::args().len() > 1 {
        usage_exit(bin, "(takes no arguments)", "");
    }
}

/// The one optional argument of a bench binary, parsed by `parse`: `None`
/// without arguments. A second argument, or one `parse` refuses, prints the
/// usage line (and `parse`'s reason) and exits 2, like [`reject_args`].
fn optional_arg<T>(bin: &str, usage: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [arg] => Some(parse(arg).unwrap_or_else(|why| usage_exit(bin, usage, &why))),
        _ => usage_exit(bin, usage, "at most one argument"),
    }
}

/// The search frontier the ESD side of a benchmark should use, so the fig2 /
/// fig3 binaries can compare frontiers: the one optional CLI argument
/// (`fig2 dfs`, `fig2 random`), or else the paper's proximity-guided
/// default. Accepted spellings are those of `FrontierKind::from_str`:
/// `dfs|random|proximity`. Any other argument, or a second one, prints a
/// usage line and exits 2 rather than silently measuring the wrong thing.
pub fn frontier_from_args(bin: &str) -> FrontierKind {
    optional_arg(bin, "[dfs|random|proximity]", |arg| arg.parse()).unwrap_or_default()
}

/// The JSON output path of a report binary: the one optional CLI argument,
/// which must end in `.json`, or else `default`. Any other argument, or a
/// second one, prints a usage line and exits 2.
pub fn json_path_from_args(bin: &str, default: &str) -> String {
    optional_arg(bin, "[<path>.json]", |arg| {
        if arg.ends_with(".json") {
            Ok(arg.to_string())
        } else {
            Err(format!("{arg:?} does not end in .json"))
        }
    })
    .unwrap_or_else(|| default.to_string())
}

pub(crate) fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs the KC baseline on `w` — the [`EsdOptions::kc`] preset with the
/// given Klee searcher and seed, capped at `kc_cap` steps — and returns its
/// report (None = cap reached).
fn kc_run(w: &Workload, frontier: FrontierKind, seed: u64, kc_cap: u64) -> Option<SynthesisReport> {
    let options = EsdOptions { max_steps: kc_cap, seed, ..EsdOptions::kc(frontier) };
    Esd::new(options).synthesize_goal(&w.program, w.goal()).ok()
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Workload name.
    pub system: String,
    /// "hang" or "crash".
    pub manifestation: &'static str,
    /// Instructions the search explored to synthesize the execution (None =
    /// not synthesized within the budget).
    pub esd_steps: Option<u64>,
    /// The paper's reported time, for side-by-side comparison.
    pub paper_secs: Option<f64>,
    /// Whether the synthesized execution replays to the same failure.
    pub playback_ok: bool,
}

/// Regenerates Table 1: ESD synthesis steps for every real-bug analog, plus
/// a playback check of each synthesized execution.
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
    let esd = Esd::new(EsdOptions::builder().max_steps(esd_budget).build());
    let result = esd.synthesize_goal(&w.program, w.goal()).ok();
    let esd_steps = result.as_ref().map(|r| r.stats.steps);
    let playback_ok = result.is_some_and(|r| play(&w.program, &r.execution).reproduced);
    Table1Row {
        system: w.name.clone(),
        manifestation: match w.kind {
            WorkloadKind::Hang => "hang",
            WorkloadKind::Crash => "crash",
        },
        esd_steps,
        paper_secs: w.paper_synth_time_secs,
        playback_ok,
    }
}

/// Renders Table 1 in the paper's layout, with ESD's cost in search steps
/// beside the paper's seconds.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table 1: ESD applied to real bugs (analog workloads)");
    println!(
        "{:<10} {:>14} {:>12} {:>14} {:>10}",
        "System", "Manifestation", "ESD steps", "paper [s]", "replays"
    );
    for r in rows {
        println!(
            "{:<10} {:>14} {:>12} {:>14} {:>10}",
            r.system,
            r.manifestation,
            r.esd_steps.map(|s| s.to_string()).unwrap_or_else(|| "timeout".into()),
            r.paper_secs.map(|s| format!("{s:.0}")).unwrap_or_else(|| "-".into()),
            if r.playback_ok { "yes" } else { "no" },
        );
    }
}

/// One bar group of Figure 2, in search steps (`None` = the budget or cap
/// ran out without finding the path).
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Workload name.
    pub system: String,
    /// ESD's search steps.
    pub esd_steps: Option<u64>,
    /// KC with DFS.
    pub kc_dfs_steps: Option<u64>,
    /// KC with RandomPath.
    pub kc_rand_steps: Option<u64>,
}

/// Regenerates Figure 2: search steps to find a path to the bug, ESD (with
/// the given search frontier) vs the two KC search strategies, on ls1–ls4
/// and the real-bug analogs. Steps are deterministic, unlike the paper's
/// seconds, which are all near zero on analogs this small.
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
    let esd = Esd::new(EsdOptions::builder().max_steps(esd_budget).frontier(frontier).build());
    let esd_steps = esd.synthesize_goal(&w.program, w.goal()).ok().map(|r| r.stats.steps);
    Fig2Row {
        system: w.name.clone(),
        esd_steps,
        kc_dfs_steps: kc_run(w, FrontierKind::Dfs, 0, kc_cap).map(|r| r.stats.steps),
        kc_rand_steps: kc_run(w, FrontierKind::Random, 11, kc_cap).map(|r| r.stats.steps),
    }
}

/// Renders Figure 2 as a table (one row per bar group; "cap" marks the bars
/// that fade out at the top of the paper's plot).
pub fn print_fig2(rows: &[Fig2Row], frontier: FrontierKind) {
    println!(
        "Figure 2: search steps to find a path to the bug — \
         ESD[{frontier}] vs KC(DFS) vs KC(RandPath)"
    );
    println!("{:<10} {:>12} {:>12} {:>14}", "System", "ESD steps", "KC-DFS", "KC-Rand");
    for r in rows {
        println!(
            "{:<10} {:>12} {:>12} {:>14}",
            r.system,
            steps_or_cap(r.esd_steps),
            steps_or_cap(r.kc_dfs_steps),
            steps_or_cap(r.kc_rand_steps)
        );
    }
}

/// A step count, or "cap" when the budget ran out.
fn steps_or_cap(steps: Option<u64>) -> String {
    steps.map_or_else(|| "cap".into(), |s| s.to_string())
}

/// The generator seeds of the medium-genbug Figure 2.
pub const GENBUG_FIG2_SEEDS: std::ops::Range<u64> = 0..8;

/// One bug kind of the medium-genbug Figure 2: search steps per seed, in
/// [`GENBUG_FIG2_SEEDS`] order (`None` = the budget or cap ran out, or the
/// execution did not match the injected ground truth).
#[derive(Debug, Clone)]
pub struct GenbugFig2Row {
    /// The injected bug kind.
    pub kind: InjectedBugKind,
    /// ESD's search steps.
    pub esd_steps: Vec<Option<u64>>,
    /// KC with DFS.
    pub kc_dfs_steps: Vec<Option<u64>>,
}

/// Figure 2 on the generated corpus: search steps to each medium generated
/// bug (seeds [`GENBUG_FIG2_SEEDS`]), ESD (with the given search frontier)
/// against KC-DFS, one row per bug kind in `kinds`. Race kinds run with race
/// detection on both sides. A step count is reported only when the
/// execution matches the injected ground truth.
pub fn fig2_genbugs(
    kinds: &[InjectedBugKind],
    esd_budget: u64,
    kc_cap: u64,
    frontier: FrontierKind,
) -> Vec<GenbugFig2Row> {
    let steps = |w: &GeneratedWorkload, options: EsdOptions| {
        let options = EsdOptions { with_race_detection: w.truth.needs_race_preemptions, ..options };
        let report = Esd::new(options).synthesize_goal(&w.program, w.truth.goal.clone()).ok()?;
        w.truth.matches(&report.execution).ok().map(|()| report.stats.steps)
    };
    let esd = EsdOptions::builder().max_steps(esd_budget).frontier(frontier).build();
    let kc = EsdOptions { max_steps: kc_cap, ..EsdOptions::kc(FrontierKind::Dfs) };
    kinds
        .iter()
        .map(|&kind| {
            let corpus: Vec<GeneratedWorkload> = GENBUG_FIG2_SEEDS
                .map(|seed| generate_bug(&GenConfig { seed, kind, size: GenSize::medium() }))
                .collect();
            GenbugFig2Row {
                kind,
                esd_steps: corpus.iter().map(|w| steps(w, esd.clone())).collect(),
                kc_dfs_steps: corpus.iter().map(|w| steps(w, kc.clone())).collect(),
            }
        })
        .collect()
}

/// Renders the medium-genbug Figure 2: per bug kind, the fewest, most and
/// summed steps over the seeds for ESD and KC-DFS, and on how many seeds
/// ESD needed no more steps than KC-DFS.
pub fn print_fig2_genbugs(rows: &[GenbugFig2Row], frontier: FrontierKind) {
    println!(
        "Figure 2 (generated): search steps over medium genbug seeds {}..{} — \
         ESD[{frontier}] vs KC(DFS)",
        GENBUG_FIG2_SEEDS.start, GENBUG_FIG2_SEEDS.end
    );
    println!(
        "{:<10} {:>14} {:>10} {:>14} {:>10} {:>12}",
        "Kind", "ESD min-max", "ESD sum", "KC-DFS min-max", "KC-DFS sum", "ESD<=KC-DFS"
    );
    // "cap" when any seed ran out of budget.
    let span = |steps: &[Option<u64>]| match steps.iter().copied().collect::<Option<Vec<u64>>>() {
        Some(s) => {
            let (lo, hi) = (s.iter().min().unwrap_or(&0), s.iter().max().unwrap_or(&0));
            (format!("{lo}-{hi}"), s.iter().sum::<u64>().to_string())
        }
        None => ("cap".into(), "cap".into()),
    };
    for r in rows {
        let (esd_range, esd_sum) = span(&r.esd_steps);
        let (kc_range, kc_sum) = span(&r.kc_dfs_steps);
        let wins = r
            .esd_steps
            .iter()
            .zip(&r.kc_dfs_steps)
            .filter(|(esd, kc)| esd.is_some_and(|e| kc.is_none_or(|k| e <= k)))
            .count();
        println!(
            "{:<10} {:>14} {:>10} {:>14} {:>10} {:>12}",
            r.kind.slug(),
            esd_range,
            esd_sum,
            kc_range,
            kc_sum,
            format!("{wins}/{}", r.esd_steps.len())
        );
    }
}

/// One point of Figure 3 (and of Figure 4, whose x-axis is `kloc`).
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
    /// KC (RandomPath) search steps (None = cap reached).
    pub kc_steps: Option<u64>,
}

/// Regenerates Figure 3: synthesis time vs BPF program complexity, with the
/// ESD side using the given search frontier. Each row also carries the
/// program's size in KLOC, Figure 4's x-axis.
pub fn fig3(
    branch_counts: &[u32],
    esd_budget: u64,
    kc_cap: u64,
    frontier: FrontierKind,
) -> Vec<BpfRow> {
    let mut rows = Vec::new();
    for &branches in branch_counts {
        let w = generate_bpf(&BpfConfig { branches, ..Default::default() });
        let esd = Esd::new(EsdOptions::builder().max_steps(esd_budget).frontier(frontier).build());
        let start = Instant::now();
        let esd_result = esd.synthesize_goal(&w.program, w.goal());
        let esd_elapsed = start.elapsed();
        let kc = kc_run(&w, FrontierKind::Random, 5, kc_cap);
        rows.push(BpfRow {
            branches,
            kloc: w.program.estimated_c_loc() as f64 / 1000.0,
            esd_secs: esd_result.as_ref().ok().map(|_| secs(esd_elapsed)),
            esd_steps: esd_result.as_ref().map(|r| r.stats.steps).unwrap_or(0),
            kc_secs: kc.as_ref().map(|r| secs(r.elapsed)),
            kc_steps: kc.map(|r| r.stats.steps),
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

/// Renders Figure 3 (x = branches) with Figure 4's x-axis (program size in
/// KLOC) as one more column.
pub fn print_fig3(rows: &[BpfRow], frontier: FrontierKind) {
    println!(
        "Figure 3/4: BPF — synthesis time vs number of branches and program size \
         (ESD[{frontier}] vs KC-RandPath)"
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "branches", "KLOC", "ESD [s]", "ESD steps", "KC [s]", "KC steps"
    );
    let fmt = |v: &Option<f64>| v.map(|s| format!("{s:.2}")).unwrap_or_else(|| "cap".into());
    for r in rows {
        println!(
            "{:<10} {:>10.3} {:>12} {:>12} {:>12} {:>12}",
            r.branches,
            r.kloc,
            fmt(&r.esd_secs),
            r.esd_steps,
            fmt(&r.kc_secs),
            steps_or_cap(r.kc_steps)
        );
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
        let esd = Esd::new(EsdOptions::builder().max_steps(esd_budget).build());
        let ok = match esd.synthesize_goal(&w.program, w.goal()) {
            Ok(r) => (0..repetitions).all(|_| play(&w.program, &r.execution).reproduced),
            Err(_) => false,
        };
        out.push((w.name.clone(), ok));
    }
    out
}

/// The result of one `irlint` sweep over the shipped program corpus.
#[derive(Debug, Clone)]
pub struct IrlintReport {
    /// The rendered diagnostics: a `=== name ===` header per program
    /// followed by `esd_analysis::lint::render` output, in corpus order.
    pub text: String,
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

/// Runs every lint ([`esd_analysis::lint::run`]) over every program this
/// repository ships — the real-bug analog workloads, the Listing-1 running
/// example, and the smoke-corpus genbug programs (the same 4 seeds × 4
/// kinds the differential matrix exercises) — and renders the diagnostics
/// in stable corpus order. The `irlint` binary prints the text and exits
/// non-zero on any `Error`-severity diagnostic; `tests/irlint_golden.rs`
/// pins the exact bytes.
pub fn irlint_report() -> IrlintReport {
    use esd_analysis::{lint, Severity};
    use esd_workloads::genbug::{generate, GenConfig, InjectedBugKind};

    let mut corpus: Vec<Workload> = all_real_bugs();
    corpus.push(listing1());
    for seed in coverage::smoke_seeds() {
        for kind in InjectedBugKind::ALL {
            corpus.push(generate(&GenConfig::new(seed, kind)).to_workload());
        }
    }

    let mut report =
        IrlintReport { text: String::new(), programs: 0, errors: 0, warnings: 0, notes: 0 };
    for w in &corpus {
        let diags = lint::run(&w.program);
        report.programs += 1;
        for d in &diags {
            match d.severity {
                Severity::Error => report.errors += 1,
                Severity::Warning => report.warnings += 1,
                Severity::Note => report.notes += 1,
            }
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
        assert!(row.esd_steps.is_some());
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
        for frontier in [FrontierKind::Dfs, FrontierKind::Random, FrontierKind::Proximity] {
            let row = run_fig2_row(&w, 20_000, 1_000, frontier);
            assert_eq!(row.system, "mkfifo");
        }
    }
}
