//! Ablation of ESD's search heuristics on the SQLite deadlock analog: each
//! heuristic switched off in turn.
fn main() {
    let rows = esd_bench::ablation(esd_bench::ESD_BUDGET);
    esd_bench::print_ablation(&rows);
}
