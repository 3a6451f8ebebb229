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

/// Sessions surface the static phase's counters through
/// [`esd::core::session::ProgressEvent`]: on a race job the race-pair
/// candidates gate yield preemptions, the event's count of pruned forks
/// moves and equals the report's, and the synthesized execution is the
/// injected race and replays.
#[test]
fn progress_events_surface_preemption_pruning_counters() {
    use esd::workloads::genbug::{generate, GenConfig, InjectedBugKind};

    let w = generate(&GenConfig::new(2, InjectedBugKind::DataRace));
    let mut session = SynthesisSession::new(
        &w.program,
        w.truth.goal.clone(),
        EsdOptions::builder().max_steps(2_000_000).with_race_detection(true).build(),
    );
    while session.poll().is_running() {
        session.run_for(64);
    }
    let event = session.progress_event();
    let report = session.poll().found().expect("the race synthesizes");
    assert!(event.stats.preemptions_pruned_static > 0, "the candidates gate some yield");
    assert_eq!(event.stats, report.stats);
    w.truth.matches(&report.execution).expect("the injected race");
    assert!(play(&w.program, &report.execution).reproduced);
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
