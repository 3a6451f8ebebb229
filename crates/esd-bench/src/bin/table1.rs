//! Regenerates Table 1 of the paper, with ESD's synthesis cost per real bug
//! in search steps (`timeout` when the budget runs out) beside the paper's
//! seconds.
//!
//! Exits 2 when an analog is not synthesized or its execution does not
//! replay (the `coverage_matrix` exit-code convention), so CI can gate on it.
//! Takes no arguments: any argument prints a usage line and exits 2.
fn main() {
    esd_bench::reject_args("table1");
    let rows = esd_bench::table1(esd_bench::ESD_BUDGET);
    esd_bench::print_table1(&rows);
    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| r.esd_steps.is_none() || !r.playback_ok)
        .map(|r| r.system.as_str())
        .collect();
    if !failed.is_empty() {
        eprintln!("FAIL: not synthesized or not replayed: {}", failed.join(", "));
        std::process::exit(2);
    }
}
