//! Regenerates Figure 4 (BPF: synthesis time vs program size in KLOC).
//!
//! The ESD search frontier is selectable, to compare frontiers on the same
//! sweep: `fig4 [dfs|bfs|random|proximity|beam[:width]]`, or the `ESD_FRONTIER`
//! environment variable (default: proximity).
fn main() {
    let frontier = esd_bench::frontier_from_args();
    let rows = esd_bench::fig3(
        &esd_bench::fig3_branch_counts(),
        esd_bench::ESD_BUDGET,
        esd_bench::KC_CAP,
        frontier,
    );
    esd_bench::print_fig4(&rows, frontier);
}
