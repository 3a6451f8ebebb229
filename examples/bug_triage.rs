//! The automated triage usage model (§8): every incoming bug report is passed
//! through ESD; reports whose synthesized executions are identical (or fail
//! identically) are flagged as duplicates.
//!
//! Run with: `cargo run --example bug_triage`

use esd::core::{same_bug, BugReport, TriageResult};
use esd::workloads::{capture_coredump, real_bugs::ls_injected};
use esd::Esd;

fn main() {
    let esd = Esd::with_defaults();
    // Two independent reports of the ls1 bug and one report of the ls2 bug.
    let ls1_a = ls_injected(1);
    let ls1_b = ls_injected(1);
    let ls2 = ls_injected(2);

    let mut executions = Vec::new();
    for w in [&ls1_a, &ls1_b, &ls2] {
        let dump = capture_coredump(w, 5).expect("report captured");
        let report =
            esd.synthesize(&w.program, &BugReport::from_coredump(dump)).expect("synthesized");
        executions.push((w.name.clone(), report.execution));
    }

    for i in 0..executions.len() {
        for j in (i + 1)..executions.len() {
            let verdict = same_bug(&executions[i].1, &executions[j].1);
            println!("{} vs {}: {:?}", executions[i].0, executions[j].0, verdict);
            if executions[i].0 == executions[j].0 {
                assert_ne!(verdict, TriageResult::Different);
            }
        }
    }
}
