//! Cross-crate integration tests: the full pipeline from a production failure
//! to a deterministic replay, for representative workloads of each bug class.

use esd::core::BugReport;
use esd::playback::play;
use esd::workloads::{all_real_bugs, capture_coredump, WorkloadKind};
use esd::{Esd, EsdOptions};

/// Crashes: coredump → goal extraction → synthesis → playback, end to end.
#[test]
fn crash_workloads_roundtrip_from_coredump_to_replay() {
    let esd = Esd::new(EsdOptions::builder().max_steps(4_000_000).build());
    for w in all_real_bugs() {
        if w.kind != WorkloadKind::Crash {
            continue;
        }
        let dump = capture_coredump(&w, 5)
            .unwrap_or_else(|| panic!("{}: failure must be reproducible at the user site", w.name));
        let report = esd
            .synthesize(&w.program, &BugReport::from_coredump(dump))
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {:?}", w.name, e));
        let replay = play(&w.program, &report.execution);
        assert!(replay.reproduced, "{}: playback must reproduce the failure", w.name);
    }
}

/// Deadlocks: synthesis from the reported goal and deterministic replay.
#[test]
fn deadlock_workloads_synthesize_and_replay() {
    let esd = Esd::new(EsdOptions::builder().max_steps(6_000_000).build());
    for w in all_real_bugs() {
        if w.kind != WorkloadKind::Hang {
            continue;
        }
        let report = esd
            .synthesize_goal(&w.program, w.goal())
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {:?}", w.name, e));
        assert_eq!(report.execution.fault_tag, "deadlock", "{}", w.name);
        for _ in 0..2 {
            let replay = play(&w.program, &report.execution);
            assert!(replay.reproduced, "{}: deadlock must replay deterministically", w.name);
        }
    }
}

/// The synthesized execution file survives a serialization round trip and
/// still replays.
#[test]
fn execution_files_replay_after_json_roundtrip() {
    let esd = Esd::new(EsdOptions::builder().max_steps(2_000_000).build());
    let w = esd::workloads::real_bugs::paste_invalid_free();
    let report = esd.synthesize_goal(&w.program, w.goal()).unwrap();
    let json = report.execution.to_json();
    let restored = esd::core::SynthesizedExecution::from_json(&json).unwrap();
    assert!(play(&w.program, &restored).reproduced);
}
