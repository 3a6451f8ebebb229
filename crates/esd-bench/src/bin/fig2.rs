//! Regenerates Figure 2 (ESD vs KC-DFS vs KC-RandPath, in search steps to a
//! path to the bug) on ls1–ls4 and the real-bug analogs, then the same
//! comparison against KC-DFS over the medium generated bugs.
//!
//! The ESD column's search frontier is selectable, to compare frontiers on
//! the same workloads: `fig2 [dfs|random|proximity]` (default: proximity).
//! Any other argument, or a second one, prints a usage line and exits 2.
//!
//! Exits 2 when ESD does not synthesize an analog or a generated bug within
//! its budget (the `table1` exit-code convention), so CI can gate on it.
use esd_workloads::genbug::InjectedBugKind;

fn main() {
    let frontier = esd_bench::frontier_from_args("fig2");
    let rows = esd_bench::fig2(esd_bench::ESD_BUDGET, esd_bench::KC_CAP, frontier);
    esd_bench::print_fig2(&rows, frontier);
    let genbugs = esd_bench::fig2_genbugs(
        &InjectedBugKind::ALL,
        esd_bench::ESD_BUDGET,
        esd_bench::KC_CAP,
        frontier,
    );
    println!();
    esd_bench::print_fig2_genbugs(&genbugs, frontier);
    let mut missed: Vec<String> =
        rows.iter().filter(|r| r.esd_steps.is_none()).map(|r| r.system.clone()).collect();
    for r in &genbugs {
        let seeds = esd_bench::GENBUG_FIG2_SEEDS.zip(&r.esd_steps);
        missed.extend(
            seeds.filter(|(_, s)| s.is_none()).map(|(seed, _)| format!("{} s{seed}", r.kind)),
        );
    }
    if !missed.is_empty() {
        eprintln!("FAIL: ESD did not synthesize: {}", missed.join(", "));
        std::process::exit(2);
    }
}
