//! Golden test for the execution-file JSON format (`esd-core/src/execfile.rs`).
//!
//! A synthesized execution for the `paste` invalid-free workload is checked
//! in under `tests/fixtures/`. It must keep deserializing and replaying, so
//! any change to the JSON format — field renames, enum tagging, schedule
//! encoding — is caught here instead of silently breaking saved execution
//! files in the field.
//!
//! If the format changes *intentionally*, regenerate the fixture with
//!
//! ```text
//! ESD_REGEN_GOLDEN=1 cargo test --test golden_execfile
//! ```
//!
//! and commit the new file together with the format change.

use esd::core::SynthesizedExecution;
use esd::playback::play;
use esd::workloads::real_bugs::paste_invalid_free;
use esd::{Esd, EsdOptions};

const FIXTURE: &str = include_str!("fixtures/paste_execution.json");

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/paste_execution.json")
}

fn regen_requested() -> bool {
    std::env::var("ESD_REGEN_GOLDEN").ok().as_deref() == Some("1")
}

/// Regenerates the fixture (only when `ESD_REGEN_GOLDEN=1`); run this before
/// the read-only golden tests in the same invocation.
#[test]
fn a_regenerate_fixture_when_requested() {
    if !regen_requested() {
        return;
    }
    let w = paste_invalid_free();
    let esd = Esd::new(EsdOptions::builder().max_steps(2_000_000).build());
    let report = esd.synthesize_goal(&w.program, w.goal()).expect("synthesis succeeds");
    let mut json = report.execution.to_json();
    json.push('\n');
    std::fs::write(fixture_path(), json).expect("fixture written");
}

#[test]
fn golden_execution_file_deserializes() {
    if regen_requested() {
        // The in-memory FIXTURE constant is stale during a regeneration run.
        return;
    }
    let exec = SynthesizedExecution::from_json(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "checked-in execution file no longer parses ({e}); if the JSON \
             format changed intentionally, regenerate with \
             ESD_REGEN_GOLDEN=1 cargo test --test golden_execfile"
        )
    });
    assert_eq!(exec.program, "paste");
    assert_eq!(exec.fault_tag, "invalid-free");
    assert!(!exec.inputs.is_empty(), "fixture carries concrete inputs");
    assert!(!exec.schedule.segments.is_empty(), "fixture carries a schedule");
}

#[test]
fn golden_execution_file_replays() {
    if regen_requested() {
        // The in-memory FIXTURE constant is stale during a regeneration run.
        return;
    }
    let exec = SynthesizedExecution::from_json(FIXTURE).expect("fixture parses");
    let w = paste_invalid_free();
    let replay = play(&w.program, &exec);
    assert!(
        replay.reproduced,
        "checked-in execution file must still reproduce the paste invalid free"
    );
}

/// A fresh proximity synthesis reproduces the checked-in execution file byte
/// for byte: the solver, deciding every branch, refutes each side the static
/// interval analysis rules out, so the analysis's verdicts never change what
/// is synthesized.
#[test]
fn fresh_synthesis_reproduces_the_golden_execution_file() {
    if regen_requested() {
        return;
    }
    let w = paste_invalid_free();
    let esd = Esd::new(EsdOptions::builder().max_steps(2_000_000).build());
    let report = esd.synthesize_goal(&w.program, w.goal()).expect("synthesis succeeds");
    assert_eq!(
        format!("{}\n", report.execution.to_json()),
        FIXTURE,
        "a fresh synthesis must reproduce the checked-in execution file byte for byte"
    );
}

/// The static race-pair candidate gating, which skips speculative
/// preemption forks at yields, never hides a race: the racy-counter example
/// synthesizes an execution that replays, and a genbug data-race program
/// synthesizes the injected race while the gating prunes preemption forks.
#[test]
fn race_execution_files_are_invariant_to_candidate_pruning() {
    use esd::ir::{CmpOp, Loc, ProgramBuilder};
    use esd::workloads::genbug::{generate, GenConfig, InjectedBugKind};
    use esd::GoalSpec;

    // The racy-counter program of `examples/race_debugging.rs`.
    let mut pb = ProgramBuilder::new("racy_counter");
    let counter = pb.global("counter", 1);
    let worker = pb.declare("worker", 1);
    pb.define(worker, |f| {
        let cp = f.addr_global(counter);
        let v = f.load(cp);
        f.yield_now();
        let v1 = f.add(v, 1);
        f.store(cp, v1);
        f.ret_void();
    });
    let mut assert_loc = None;
    let main_id = pb.declare("main", 0);
    pb.define(main_id, |f| {
        let t1 = f.spawn(worker, 1);
        let t2 = f.spawn(worker, 2);
        f.join(t1);
        f.join(t2);
        let cp = f.addr_global(counter);
        let v = f.load(cp);
        let ok = f.cmp(CmpOp::Eq, v, 2);
        assert_loc = Some(Loc::new(main_id, f.current_block(), f.next_inst_idx()));
        f.assert(ok, "both increments must be visible");
        f.ret_void();
    });
    let racy = pb.finish("main");
    let racy_goal = GoalSpec::Crash { loc: assert_loc.unwrap() };
    let esd =
        Esd::new(EsdOptions::builder().max_steps(2_000_000).with_race_detection(true).build());

    let report = esd
        .synthesize_goal(&racy, racy_goal)
        .unwrap_or_else(|e| panic!("racy_counter: race synthesis: {e:?}"));
    assert!(play(&racy, &report.execution).reproduced, "racy_counter: must replay");

    let genbug = generate(&GenConfig::new(2, InjectedBugKind::DataRace));
    let report = esd
        .synthesize_goal(&genbug.program, genbug.truth.goal.clone())
        .unwrap_or_else(|e| panic!("{}: race synthesis: {e:?}", genbug.name));
    genbug
        .truth
        .matches(&report.execution)
        .unwrap_or_else(|e| panic!("{}: missed the injected race: {e}", genbug.name));
    assert!(
        report.stats.preemptions_pruned_static > 0,
        "{}: candidate gating pruned no preemption forks",
        genbug.name
    );
}

/// Serialization is deterministic and stable: writing the parsed fixture back
/// out reproduces the checked-in bytes exactly.
#[test]
fn golden_execution_file_roundtrips_byte_identical() {
    if regen_requested() {
        return;
    }
    let exec = SynthesizedExecution::from_json(FIXTURE).expect("fixture parses");
    assert_eq!(
        format!("{}\n", exec.to_json()),
        FIXTURE,
        "re-serializing the fixture must reproduce it byte for byte"
    );
}
