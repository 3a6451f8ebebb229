//! Compares the pluggable search frontiers on the paper's Listing-1 deadlock:
//! the same synthesis goal is given to ESD's proximity-guided frontier and to
//! the DFS and random baselines, and the amount of exploration each needs
//! is printed side by side.
//!
//! Listing 1 is tiny, so every frontier succeeds here (an undirected search
//! can even get lucky and win). The real-bug analogs of `fig2` are small
//! too. The proximity frontier's advantage — the paper's Figure-3 gap —
//! shows up on the BPF sweep, where KC-RandPath hits its exploration cap
//! from 64 branches on. Run `fig3` from `esd-bench` to see it.
//!
//! Run with: `cargo run --release --example frontier_comparison`

use esd::symex::FrontierKind;
use esd::workloads::listing1;
use esd::{Esd, EsdOptions};

fn main() {
    let workload = listing1();
    println!("program under debug: {}", workload.program.name);
    println!("goal (from the bug report): {:?}\n", workload.goal());
    println!("{:<12} {:>10} {:>10} {:>12}", "frontier", "steps", "states", "outcome");

    for frontier in [FrontierKind::Proximity, FrontierKind::Dfs, FrontierKind::Random] {
        let esd = Esd::new(EsdOptions::builder().frontier(frontier).max_steps(2_000_000).build());
        match esd.synthesize_goal(&workload.program, workload.goal()) {
            Ok(report) => println!(
                "{:<12} {:>10} {:>10} {:>12}",
                frontier.to_string(),
                report.stats.steps,
                report.stats.states_created,
                "synthesized"
            ),
            Err(e) => {
                println!(
                    "{:<12} {:>10} {:>10} {:>12}",
                    frontier.to_string(),
                    "-",
                    "-",
                    format!("{e:?}")
                )
            }
        }
    }
}
