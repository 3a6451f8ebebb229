//! Benchmark harness regenerating the paper's evaluation (§7).
//!
//! Each public function reproduces one table or figure and returns printable
//! rows; the `benches/` targets and `src/bin/` binaries are thin wrappers
//! that run them and print the same rows the paper reports. Absolute times
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

use esd_core::{
    kc_synthesize, stress_test, Esd, EsdOptions, JobExecutor, JobSpec, JobVerdict, KcStrategy,
    StressConfig,
};
use esd_playback::play;
use esd_symex::{FrontierKind, GoalSpec};
use esd_workloads::real_bugs::{ghttpd_log_overflow, paste_invalid_free, sqlite_recursive_lock};
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

/// The executor pool size the multi-job benchmarks should use for
/// their cross-job parallel leg: a `pool:<n>` positional CLI argument wins
/// (`executor_throughput pool:8`), then the `ESD_POOL` environment variable,
/// then 2. `0` (or `auto`) means "all available parallelism". The pool size
/// never changes what is synthesized — only how fast
/// the batch drains (see `esd_core::JobExecutor::pool_size`); the
/// `executor_throughput` binary exits non-zero if it ever does.
pub fn pool_from_args() -> usize {
    let parse = |s: &str| -> usize {
        if s.eq_ignore_ascii_case("auto") {
            return 0;
        }
        s.parse().unwrap_or_else(|_| {
            panic!("pool size {s:?} must be a non-negative integer or \"auto\"")
        })
    };
    let from_cli = std::env::args().skip(1).find_map(|a| a.strip_prefix("pool:").map(parse));
    from_cli.or_else(|| std::env::var("ESD_POOL").ok().map(|s| parse(&s))).unwrap_or(2)
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

/// Runs one Table-1 row (public so the quick bench targets can reuse it).
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

/// One job of the multi-job executor throughput benchmark
/// (`BENCH_executor.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ExecutorJobRow {
    /// The workload/job label.
    pub label: String,
    /// Whether the job synthesized an execution within its budget.
    pub synthesized: bool,
    /// Whether the synthesized execution replayed to the same failure.
    pub replays: bool,
    /// Wall-clock time from the job's admission to its terminal state,
    /// in seconds — this includes the slices spent on the *other* jobs of
    /// the batch, which is the latency a service user observes.
    pub wall_secs: f64,
    /// Executor slices dispatched to the job.
    pub slices: u64,
    /// Search rounds the job advanced.
    pub rounds: u64,
    /// Instructions the job's search executed.
    pub steps: u64,
    /// Branches the static feasibility pass pruned from the job's search.
    pub branches_pruned_static: u64,
    /// Solver queries the static feasibility pass answered without calling
    /// the solver.
    pub solver_queries_saved: u64,
    /// Whether the job ran with race-directed preemptions enabled.
    pub race_mode: bool,
    /// States the job's search forked (including the initial state).
    pub states_created: u64,
    /// Preemption forks the static race-candidate set pruned from the job's
    /// search (always 0 outside race mode).
    pub preemptions_pruned_static: u64,
}

/// The machine-readable result of [`executor_throughput`], serialized to
/// `BENCH_executor.json` by the `executor_throughput` binary and gated in CI
/// (the `bench-smoke` job fails when any batch job fails to synthesize).
#[derive(Debug, Clone, Serialize)]
pub struct ExecutorBenchReport {
    /// The fairness policy the batch ran under.
    pub policy: String,
    /// The executor's base slice length in rounds.
    pub slice_rounds: u64,
    /// Instruction budget per job.
    pub esd_budget: u64,
    /// `"reduced"` (the default / CI smoke mode) or `"full"`
    /// (`ESD_BENCH_FULL=1`).
    pub mode: &'static str,
    /// Whether static pruning — branch-feasibility verdicts and race-pair
    /// candidate gating — was on for the batch (`ESD_STATIC_PRUNING`,
    /// default on).
    pub static_pruning: bool,
    /// Branches the static feasibility pass pruned, summed over the batch.
    pub branches_pruned_static: u64,
    /// Solver queries the static feasibility pass saved, summed over the
    /// batch.
    pub solver_queries_saved: u64,
    /// Preemption forks the candidate set pruned, summed over the batch.
    pub preemptions_pruned_static: u64,
    /// States forked by the race-mode jobs of the batch — the number the
    /// candidate gating shrinks (compare across `ESD_STATIC_PRUNING=0/1`
    /// runs).
    pub race_states_created: u64,
    /// Per-job measurements, in submission order.
    pub jobs: Vec<ExecutorJobRow>,
    /// Number of jobs in the batch.
    pub jobs_total: usize,
    /// Number of jobs that synthesized their failure.
    pub jobs_synthesized: usize,
    /// Wall-clock time to drain the whole batch, in seconds.
    pub total_wall_secs: f64,
    /// Batch throughput: synthesized jobs per second of batch wall time.
    pub throughput_jobs_per_sec: f64,
    /// The executor pool size of the cross-job parallel re-run — jobs
    /// granted a slice per batch, each on its own thread (`pool:<n>` /
    /// `ESD_POOL`; `0` is all available parallelism; the serial baseline
    /// always runs at pool 1).
    pub executor_pool_size: usize,
    /// Wall-clock time to drain the identical batch with cross-job parallel
    /// slice execution at `executor_pool_size`, in seconds.
    pub parallel_total_wall_secs: f64,
    /// Cross-job speedup: serial batch wall time over parallel batch wall
    /// time (> 1 means the pool paid off).
    pub cross_job_speedup: f64,
    /// Labels of jobs whose parallel-run execution file (or verdict)
    /// diverged from the serial baseline — must be empty; the
    /// `executor_throughput` binary exits 6 otherwise.
    pub parallel_divergence: Vec<String>,
    /// Checkpoint cadence (in slices) of the durable re-run.
    pub checkpoint_every: u64,
    /// Wall-clock time to drain the identical batch under a *durable*
    /// executor (write-ahead journal + periodic checkpoints), in seconds.
    pub durable_total_wall_secs: f64,
    /// The durability tax: `(durable - plain) / plain`, as a percentage of
    /// the plain batch wall time. Can be slightly negative on a noisy
    /// machine when the true overhead is below the timing jitter.
    pub checkpoint_overhead_pct: f64,
}

impl ExecutorBenchReport {
    /// True when every job of the batch synthesized its failure — the CI
    /// gate of the `bench-smoke` job.
    pub fn all_synthesized(&self) -> bool {
        self.jobs_synthesized == self.jobs_total
    }
}

/// The throughput batch: a mixed bag of deadlocks and crashes, ≥ 4 jobs
/// (the `bench-smoke` acceptance floor), plus a generated data-race job run
/// with race-directed preemptions (the `bool` of each pair) so the batch
/// always exercises — and the bin can gate on — the static race-candidate
/// pruning counters. Extended with BPF jobs in full mode.
fn executor_batch() -> Vec<(Workload, bool)> {
    use esd_workloads::genbug::{generate, GenConfig, InjectedBugKind};
    let mut batch: Vec<(Workload, bool)> = vec![
        (sqlite_recursive_lock(), false),
        (paste_invalid_free(), false),
        (ghttpd_log_overflow(), false),
        (listing1(), false),
    ];
    batch.extend(
        all_real_bugs()
            .into_iter()
            .filter(|w| w.name == "mkfifo" || w.name == "tac")
            .map(|w| (w, false)),
    );
    let race_seed = coverage::smoke_seeds()[0];
    batch.push((
        generate(&GenConfig::new(race_seed, InjectedBugKind::DataRace)).to_workload(),
        true,
    ));
    if full_mode() {
        batch.push((generate_bpf(&BpfConfig { branches: 128, ..Default::default() }), false));
        batch.push((
            generate_bpf(&BpfConfig { branches: 256, seed: 9, ..Default::default() }),
            false,
        ));
    }
    batch
}

/// The multi-job throughput benchmark: submits the batch (a mixed bag of
/// deadlocks and crashes, ≥ 4 jobs; BPF jobs added in full mode) to a
/// round-robin [`JobExecutor`], drains it, replays every synthesized
/// execution, and reports per-job wall time plus total batch throughput.
///
/// One untimed serial drain runs first, so the timed serial leg does not
/// pay the process's warm-up (page faults, allocator growth) that the
/// legs after it would skip — without it the cross-job speedup mostly
/// measures leg order.
pub fn executor_throughput(esd_budget: u64, slice_rounds: u64) -> ExecutorBenchReport {
    let batch = executor_batch();
    let static_pruning = static_pruning_from_env();
    let job_options = |race: bool| {
        EsdOptions::builder()
            .max_steps(esd_budget)
            .static_pruning(static_pruning)
            .with_race_detection(race)
            .build()
    };
    let specs = || -> Vec<JobSpec> {
        batch
            .iter()
            .map(|(w, race)| {
                JobSpec::new(&w.name, &w.program, w.goal()).options(job_options(*race))
            })
            .collect()
    };
    JobExecutor::round_robin().slice_rounds(slice_rounds).run_batch(specs());

    let mut executor = JobExecutor::round_robin().slice_rounds(slice_rounds);
    let started = Instant::now();
    let handles = executor.submit_batch(specs());
    executor.run_until_idle();
    let total_wall = started.elapsed();

    // The identical batch again with cross-job parallel slice execution:
    // each batch grants up to `pool` jobs a slice, one thread each. The
    // determinism contract says this may only change the wall time, never
    // the execution files — the divergence list (and the binary's exit 6)
    // holds it to that.
    let executor_pool_size = pool_from_args();
    let mut parallel =
        JobExecutor::round_robin().slice_rounds(slice_rounds).pool_size(executor_pool_size);
    let parallel_started = Instant::now();
    let parallel_handles = parallel.submit_batch(specs());
    parallel.run_until_idle();
    let parallel_wall = parallel_started.elapsed();

    // The identical batch again under a durable executor — measures the
    // checkpoint/journal tax a service pays for crash recoverability.
    let checkpoint_every = 8;
    let durable_dir = std::env::temp_dir().join("esd-bench-durable");
    let _ = std::fs::remove_dir_all(&durable_dir);
    let mut durable = JobExecutor::round_robin()
        .slice_rounds(slice_rounds)
        .checkpoint_every(checkpoint_every)
        .durable_dir(&durable_dir)
        .expect("the durable bench directory is writable");
    let durable_started = Instant::now();
    durable.submit_batch(specs());
    durable.run_until_idle();
    let durable_wall = durable_started.elapsed();
    drop(durable);
    let _ = std::fs::remove_dir_all(&durable_dir);

    let mut jobs = Vec::with_capacity(batch.len());
    let mut parallel_divergence = Vec::new();
    for (((w, race), handle), parallel_handle) in batch.iter().zip(handles).zip(parallel_handles) {
        let outcome = executor.take(handle).expect("an idle executor finished every job");
        // The parallel leg's result must be indistinguishable: same verdict,
        // byte-identical execution file.
        let parallel_outcome =
            parallel.take(parallel_handle).expect("an idle executor finished every job");
        let serial_exec = outcome.report().map(|r| r.execution.to_json());
        let parallel_exec = parallel_outcome.report().map(|r| r.execution.to_json());
        if outcome.verdict != parallel_outcome.verdict || serial_exec != parallel_exec {
            parallel_divergence.push(outcome.label.clone());
        }
        let synthesized = outcome.verdict == JobVerdict::Found;
        let members = &outcome.result.members;
        let (replays, steps, pruned, saved, states, preempt_pruned) = match outcome.report() {
            Some(report) => (
                play(&w.program, &report.execution).reproduced,
                report.stats.steps,
                report.stats.branches_pruned_static,
                report.stats.solver_queries_saved,
                report.stats.states_created,
                report.stats.preemptions_pruned_static,
            ),
            None => (
                false,
                members.iter().map(|m| m.stats.steps).sum(),
                members.iter().map(|m| m.stats.branches_pruned_static).sum(),
                members.iter().map(|m| m.stats.solver_queries_saved).sum(),
                members.iter().map(|m| m.stats.states_created).sum(),
                members.iter().map(|m| m.stats.preemptions_pruned_static).sum(),
            ),
        };
        jobs.push(ExecutorJobRow {
            label: outcome.label,
            synthesized,
            replays,
            wall_secs: secs(outcome.wall),
            slices: outcome.slices,
            rounds: outcome.rounds,
            steps,
            branches_pruned_static: pruned,
            solver_queries_saved: saved,
            race_mode: *race,
            states_created: states,
            preemptions_pruned_static: preempt_pruned,
        });
    }
    let jobs_synthesized = jobs.iter().filter(|j| j.synthesized).count();
    ExecutorBenchReport {
        policy: "round-robin".into(),
        slice_rounds,
        esd_budget,
        mode: if full_mode() { "full" } else { "reduced" },
        static_pruning,
        branches_pruned_static: jobs.iter().map(|j| j.branches_pruned_static).sum(),
        solver_queries_saved: jobs.iter().map(|j| j.solver_queries_saved).sum(),
        preemptions_pruned_static: jobs.iter().map(|j| j.preemptions_pruned_static).sum(),
        race_states_created: jobs.iter().filter(|j| j.race_mode).map(|j| j.states_created).sum(),
        jobs_total: jobs.len(),
        jobs_synthesized,
        total_wall_secs: secs(total_wall),
        throughput_jobs_per_sec: if total_wall.is_zero() {
            0.0
        } else {
            jobs_synthesized as f64 / secs(total_wall)
        },
        executor_pool_size,
        parallel_total_wall_secs: secs(parallel_wall),
        cross_job_speedup: if parallel_wall.is_zero() {
            0.0
        } else {
            secs(total_wall) / secs(parallel_wall)
        },
        parallel_divergence,
        checkpoint_every,
        durable_total_wall_secs: secs(durable_wall),
        checkpoint_overhead_pct: if total_wall.is_zero() {
            0.0
        } else {
            (secs(durable_wall) - secs(total_wall)) / secs(total_wall) * 100.0
        },
        jobs,
    }
}

/// Renders the executor throughput report as a table.
pub fn print_executor_throughput(report: &ExecutorBenchReport) {
    println!(
        "Executor throughput: {} jobs under {} (slice={} rounds, budget={}, {})",
        report.jobs_total, report.policy, report.slice_rounds, report.esd_budget, report.mode,
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12} {:>8} {:>8} {:>10}",
        "job", "wall [s]", "slices", "rounds", "steps", "pruned", "saved", "replays"
    );
    for j in &report.jobs {
        println!(
            "{:<10} {:>12.3} {:>10} {:>10} {:>12} {:>8} {:>8} {:>10}",
            j.label,
            j.wall_secs,
            j.slices,
            j.rounds,
            j.steps,
            j.branches_pruned_static,
            j.solver_queries_saved,
            if !j.synthesized {
                "FAILED"
            } else if j.replays {
                "yes"
            } else {
                "NO"
            },
        );
    }
    println!(
        "batch: {}/{} synthesized in {:.3}s — {:.2} jobs/s",
        report.jobs_synthesized,
        report.jobs_total,
        report.total_wall_secs,
        report.throughput_jobs_per_sec
    );
    println!(
        "static pruning {}: {} branches pruned, {} solver queries saved, {} preemption forks \
         pruned, {} states forked in race mode",
        if report.static_pruning { "on" } else { "off" },
        report.branches_pruned_static,
        report.solver_queries_saved,
        report.preemptions_pruned_static,
        report.race_states_created,
    );
    println!(
        "cross-job parallel (pool={}): {:.3}s — {:.2}x vs serial, {}",
        report.executor_pool_size,
        report.parallel_total_wall_secs,
        report.cross_job_speedup,
        if report.parallel_divergence.is_empty() {
            "byte-identical executions".to_string()
        } else {
            format!("DIVERGED: {}", report.parallel_divergence.join(", "))
        },
    );
    println!(
        "durable re-run (checkpoint every {} slices): {:.3}s — {:+.1}% checkpoint overhead",
        report.checkpoint_every, report.durable_total_wall_secs, report.checkpoint_overhead_pct
    );
}

/// Convenience used by tests and the quick bench targets: synthesize one
/// named workload and return the elapsed time if it succeeded.
pub fn synthesize_one(name: &str, budget: u64) -> Option<Duration> {
    let w = all_real_bugs().into_iter().find(|w| w.name == name)?;
    let esd = EsdOptions::builder()
        .max_steps(budget)
        .static_pruning(static_pruning_from_env())
        .synthesizer();
    let start = Instant::now();
    esd.synthesize_goal(&w.program, w.goal()).ok().map(|_| start.elapsed())
}

/// A goal specification for an arbitrary workload, used by the binaries.
pub fn goal_of(w: &Workload) -> GoalSpec {
    w.goal()
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
