//! IR lint gate over the shipped program corpus.
//!
//! Runs every lint (`esd_analysis::lint::run`) over every program this
//! repository ships — the real-bug analog workloads, the Listing-1 running
//! example, and the smoke-corpus genbug programs — and prints one diagnostic
//! per line plus a per-program summary. This is the
//! CI `lint-gate` job's tool: any `Error`-severity diagnostic fails the run
//! with exit code 2, so an IR-level bug (a lock that is never released, a
//! literal-constant branch) in a checked-in or generated workload is caught
//! before the synthesis benchmarks ever execute it.
//!
//! The rendered output is byte-stable; `tests/irlint_golden.rs` pins it as
//! a golden fixture (`ESD_REGEN_GOLDEN=1` regenerates).
//!
//! Takes no arguments: any argument prints a usage line and exits 2.

fn main() {
    esd_bench::reject_args("irlint");
    let report = esd_bench::irlint_report();
    print!("{}", report.text);
    println!(
        "irlint: {} program(s), {} error(s), {} warning(s), {} note(s)",
        report.programs, report.errors, report.warnings, report.notes
    );
    if report.errors > 0 {
        eprintln!("FAIL: {} Error-severity diagnostic(s) in the corpus", report.errors);
        std::process::exit(2);
    }
}
