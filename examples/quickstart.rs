//! Quickstart: reproduce the paper's Listing-1 deadlock from scratch.
//!
//! 1. Build the Listing-1 program (two threads, a deadlock that needs both
//!    specific inputs and an adverse schedule).
//! 2. Ask ESD to synthesize an execution that reaches the reported deadlock.
//! 3. Play the synthesized execution back deterministically.
//!
//! Run with: `cargo run --example quickstart [dfs|random|proximity]`; the
//! argument swaps the search frontier the synthesizer uses (default:
//! proximity; see `examples/frontier_comparison.rs` for a side-by-side run).

use esd::playback::play;
use esd::workloads::listing1;
use esd::{Esd, EsdOptions};

fn main() {
    let workload = listing1();
    println!("program under debug: {}", workload.program.name);
    println!("goal (from the bug report): {:?}", workload.goal());

    let frontier = std::env::args()
        .nth(1)
        .map(|s| s.parse().unwrap_or_else(|e: String| panic!("{e}")))
        .unwrap_or_default();
    let esd = Esd::new(EsdOptions::builder().frontier(frontier).build());
    let report = esd
        .synthesize_goal(&workload.program, workload.goal())
        .expect("ESD synthesizes the Listing-1 deadlock");
    println!(
        "synthesized in {:.2?} ({} search steps, {} states)",
        report.elapsed, report.stats.steps, report.stats.states_created
    );
    for input in &report.execution.inputs {
        println!("  input t{} #{} ({:?}) = {}", input.thread, input.seq, input.source, input.value);
    }
    println!(
        "  schedule: {} segments, {} context switches",
        report.execution.schedule.segments.len(),
        report.execution.schedule.context_switches()
    );

    let replay = play(&workload.program, &report.execution);
    println!("playback reproduced the deadlock: {}", replay.reproduced);
}
