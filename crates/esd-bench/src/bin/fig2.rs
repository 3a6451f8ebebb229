//! Regenerates Figure 2 (ESD vs KC-DFS vs KC-RandPath path-synthesis time).
//!
//! The ESD column's search frontier is selectable, to compare frontiers on
//! the same workloads: `fig2 [dfs|bfs|random|proximity|beam[:width]]`, or the
//! `ESD_FRONTIER` environment variable (default: proximity).
fn main() {
    let frontier = esd_bench::frontier_from_args();
    let rows = esd_bench::fig2(esd_bench::ESD_BUDGET, esd_bench::KC_CAP, frontier);
    esd_bench::print_fig2(&rows, frontier);
}
