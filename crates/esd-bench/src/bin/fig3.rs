//! Regenerates Figure 3 (BPF: synthesis time vs number of branches).
//!
//! The ESD search frontier is selectable, to compare frontiers on the same
//! sweep: `fig3 [dfs|random|proximity]` (default: proximity).
//! Any other argument, or a second one, prints a usage line and exits 2.
//!
//! Exits 2 when ESD does not synthesize a row within its budget (the
//! `table1` exit-code convention), so CI can gate on it.
fn main() {
    let frontier = esd_bench::frontier_from_args("fig3");
    let rows = esd_bench::fig3(
        &esd_bench::fig3_branch_counts(),
        esd_bench::ESD_BUDGET,
        esd_bench::KC_CAP,
        frontier,
    );
    esd_bench::print_fig3(&rows, frontier);
    let missed: Vec<String> =
        rows.iter().filter(|r| r.esd_secs.is_none()).map(|r| r.branches.to_string()).collect();
    if !missed.is_empty() {
        eprintln!("FAIL: ESD did not synthesize the BPF rows with branches: {}", missed.join(", "));
        std::process::exit(2);
    }
}
