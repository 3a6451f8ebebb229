//! Integration tests for the stepwise-session API redesign: slicing the
//! search must never change the synthesized execution, and cancellation
//! must surface partial statistics.

use esd::playback::play;
use esd::workloads::{listing1, real_bugs::paste_invalid_free};
use esd::{Esd, EsdOptions, FrontierKind, SessionStatus, SynthesisSession};

/// Determinism invariant of the tentpole: for a fixed seed, a session
/// advanced via `run_for(1)` slices yields byte-identical execution-file
/// JSON to the one-shot `Esd::synthesize_goal` — because the one-shot *is* a
/// loop over the same rounds.
#[test]
fn session_slicing_is_deterministic() {
    let w = paste_invalid_free();
    let options = EsdOptions::builder().max_steps(2_000_000).build();

    let one_shot = Esd::new(options.clone())
        .synthesize_goal(&w.program, w.goal())
        .expect("one-shot synthesis succeeds");

    let mut session = SynthesisSession::new(
        &w.program,
        w.goal(),
        EsdOptions::builder().max_steps(2_000_000).build(),
    );
    while session.poll().is_running() {
        session.run_for(1);
    }
    let stepped = session.poll().found().expect("stepped synthesis succeeds").clone();

    assert_eq!(
        stepped.execution.to_json(),
        one_shot.execution.to_json(),
        "single-round slicing must synthesize the identical execution file"
    );
    assert_eq!(stepped.stats.steps, one_shot.stats.steps);
    assert_eq!(stepped.stats.states_created, one_shot.stats.states_created);
    assert!(play(&w.program, &stepped.execution).reproduced);
}

/// Satellite of the static-pruning tentpole: sessions surface the static
/// phase's counters through [`esd::core::session::ProgressEvent`], the
/// counters move on a workload with a statically decidable branch
/// (`mkfifo`'s masked mode-range check), and switching pruning off zeroes
/// them while still synthesizing an execution that replays.
#[test]
fn progress_events_surface_static_pruning_counters() {
    let w = esd::workloads::all_real_bugs().into_iter().find(|w| w.name == "mkfifo").unwrap();
    let run = |pruning: bool| {
        let mut session = SynthesisSession::new(
            &w.program,
            w.goal(),
            EsdOptions::builder().max_steps(2_000_000).static_pruning(pruning).build(),
        );
        while session.poll().is_running() {
            session.run_for(64);
        }
        let event = session.progress_event();
        let report = session.poll().found().expect("mkfifo synthesizes").clone();
        (event, report)
    };

    let (on, found_on) = run(true);
    assert!(on.stats.branches_pruned_static > 0, "mkfifo carries a statically decidable branch");
    assert!(on.stats.solver_queries_saved >= on.stats.branches_pruned_static);
    assert!(play(&w.program, &found_on.execution).reproduced);

    let (off, found_off) = run(false);
    assert_eq!(off.stats.branches_pruned_static, 0, "pruning off must not prune");
    assert_eq!(off.stats.solver_queries_saved, 0);
    assert!(play(&w.program, &found_off.execution).reproduced);
    assert_eq!(
        found_on.execution.to_json(),
        found_off.execution.to_json(),
        "static pruning must not change what is synthesized"
    );
}

/// Cancelling a running session keeps the partial `SearchStats` of the work
/// done so far. The KC-DFS baseline steps one instruction per round and
/// takes 62 rounds on listing1 with race detection, so the search is still
/// running after 50 rounds; ESD's 32-step bursts find it in 3.
#[test]
fn cancel_surfaces_partial_stats() {
    let w = listing1();
    let options = EsdOptions { with_race_detection: true, ..EsdOptions::kc(FrontierKind::Dfs) };
    let mut session = SynthesisSession::new(&w.program, w.goal(), options);
    session.run_for(50);
    assert!(session.poll().is_running(), "listing1 takes more than 50 rounds");
    let stats = session.cancel();
    assert!(stats.steps > 0, "partial stats must reflect the 50 rounds");
    assert!(stats.states_created > 0);
    let status = session.poll();
    assert!(matches!(status, SessionStatus::Cancelled(_)));
    assert_eq!(status.stats().unwrap().steps, stats.steps);
}
