//! Regenerates Figure 3 (BPF: synthesis time vs number of branches).
//!
//! The ESD search frontier is selectable, to compare frontiers on the same
//! sweep: `fig3 [dfs|bfs|random|proximity|beam[:width]]`, or the `ESD_FRONTIER`
//! environment variable (default: proximity).
fn main() {
    let frontier = esd_bench::frontier_from_args();
    let rows = esd_bench::fig3(
        &esd_bench::fig3_branch_counts(),
        esd_bench::ESD_BUDGET,
        esd_bench::KC_CAP,
        frontier,
    );
    esd_bench::print_fig3(&rows, frontier);
}
