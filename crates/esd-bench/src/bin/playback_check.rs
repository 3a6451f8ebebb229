//! §7.1 playback check: every synthesized execution replays deterministically.
//!
//! Exits 2 when any workload does not (the `coverage_matrix` exit-code
//! convention), so CI can gate on it. Takes no arguments: any argument
//! prints a usage line and exits 2.
fn main() {
    esd_bench::reject_args("playback_check");
    println!("{:<20} {:>24}", "workload", "replays deterministically");
    let mut failed = false;
    for (name, ok) in esd_bench::playback_check(esd_bench::ESD_BUDGET, 3) {
        println!("{:<20} {:>24}", name, if ok { "yes" } else { "NO" });
        failed |= !ok;
    }
    if failed {
        std::process::exit(2);
    }
}
