//! Regenerates Figure 2 (ESD vs KC-DFS vs KC-RandPath, in search steps to a
//! path to the bug).
//!
//! The ESD column's search frontier is selectable, to compare frontiers on
//! the same workloads: `fig2 [dfs|bfs|random|proximity]`, or the
//! `ESD_FRONTIER` environment variable (default: proximity).
//!
//! Exits 2 when ESD does not synthesize an analog within its budget (the
//! `table1` exit-code convention), so CI can gate on it.
fn main() {
    let frontier = esd_bench::frontier_from_args();
    let rows = esd_bench::fig2(esd_bench::ESD_BUDGET, esd_bench::KC_CAP, frontier);
    esd_bench::print_fig2(&rows, frontier);
    let missed: Vec<&str> =
        rows.iter().filter(|r| r.esd_steps.is_none()).map(|r| r.system.as_str()).collect();
    if !missed.is_empty() {
        eprintln!("FAIL: ESD did not synthesize the analogs: {}", missed.join(", "));
        std::process::exit(2);
    }
}
