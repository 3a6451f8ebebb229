//! The §7.2 brute-force baseline: bounded random testing of every workload.
//!
//! Takes no arguments: any argument prints a usage line and exits 2.
fn main() {
    esd_bench::reject_args("stress_baseline");
    println!("Stress/random-testing baseline (expected: no failures reproduced)");
    println!("{:<20} {:>10} {:>14}", "workload", "failed?", "total steps");
    for (name, failed, steps) in esd_bench::stress_baseline(100) {
        println!("{:<20} {:>10} {:>14}", name, if failed { "YES" } else { "no" }, steps);
    }
}
