//! The 32-step burst and the proximity key, measured in deterministic
//! search steps.
//!
//! Each selected state runs a burst of up to 32 micro-steps before the next
//! selection (see the `esd-symex` engine docs), race detection included,
//! and a state's proximity key counts every thread that has not finished, a
//! `main` blocked in `join` included. Over seeds 0..16 the proximity search
//! reaches the medium generated crash and out-of-bounds bugs in at most
//! about 260 steps, and the medium races in 284–316 steps at most 20 live
//! states. The bounds leave headroom over these measurements; lower them
//! when the search improves, never raise them.
//!
//! Static pruning (`EsdOptions::static_pruning`) may change what a search
//! costs, never what it finds. With it off, crash, out-of-bounds and
//! deadlock searches take the very same path, and the medium races, which
//! then fork at every yield, take the same 284–316 steps at most 23 live
//! states.

use esd::playback::play;
use esd::workloads::genbug::{generate, GenConfig, GenSize, GeneratedWorkload, InjectedBugKind};
use esd::{Esd, EsdOptions};

/// The step budget a medium crash, out-of-bounds bug or race must be found
/// in.
const MEDIUM_STEPS: u64 = 1_000;

/// The highest live-state peak a medium race may reach: the measured peak
/// over seeds 0..16 is 20 (seed 13), 23 with static pruning off.
const RACE_LIVE_STATES: usize = 24;

fn medium(seed: u64, kind: InjectedBugKind) -> GeneratedWorkload {
    generate(&GenConfig { seed, kind, size: GenSize::medium() })
}

/// Synthesizes `w` under `options`, checks the execution against the
/// injected ground truth and replays it; returns the search statistics.
fn synthesize_and_replay(w: &GeneratedWorkload, options: EsdOptions) -> esd::symex::SearchStats {
    let report = Esd::new(options)
        .synthesize_goal(&w.program, w.truth.goal.clone())
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e:?}", w.name));
    w.truth
        .matches(&report.execution)
        .unwrap_or_else(|e| panic!("{}: ground truth mismatch: {e}", w.name));
    assert!(play(&w.program, &report.execution).reproduced, "{}: must replay", w.name);
    report.stats
}

#[test]
fn medium_crashes_and_oobs_are_found_within_1k_steps() {
    for kind in [InjectedBugKind::CrashOnPath, InjectedBugKind::OutOfBounds] {
        for seed in 0..16 {
            let w = medium(seed, kind);
            let stats =
                synthesize_and_replay(&w, EsdOptions::builder().max_steps(MEDIUM_STEPS).build());
            assert!(stats.steps <= MEDIUM_STEPS, "{}: {} steps", w.name, stats.steps);
        }
    }
}

#[test]
fn medium_races_keep_their_live_state_peak() {
    for seed in 0..16 {
        let w = medium(seed, InjectedBugKind::DataRace);
        let options =
            EsdOptions::builder().max_steps(MEDIUM_STEPS).with_race_detection(true).build();
        let stats = synthesize_and_replay(&w, options);
        assert!(stats.steps <= MEDIUM_STEPS, "{}: {} steps", w.name, stats.steps);
        assert!(
            stats.max_live_states <= RACE_LIVE_STATES,
            "{}: {} live states",
            w.name,
            stats.max_live_states
        );
    }
}

#[test]
fn medium_races_are_found_with_static_pruning_off() {
    for seed in 0..16 {
        let w = medium(seed, InjectedBugKind::DataRace);
        let options = EsdOptions::builder()
            .max_steps(MEDIUM_STEPS)
            .with_race_detection(true)
            .static_pruning(false)
            .build();
        let stats = synthesize_and_replay(&w, options);
        assert!(stats.steps <= MEDIUM_STEPS, "{}: {} steps", w.name, stats.steps);
        assert!(
            stats.max_live_states <= RACE_LIVE_STATES,
            "{}: {} live states",
            w.name,
            stats.max_live_states
        );
    }
}

/// Without race detection there is no yield gating, so the only static
/// verdicts are the branch-feasibility ones, and the solver refutes every
/// branch side they rule out: the searches match step for step and
/// synthesize the same execution. Only the solver-query counts differ.
#[test]
fn static_pruning_changes_no_search_path_outside_races() {
    let kinds =
        [InjectedBugKind::CrashOnPath, InjectedBugKind::OutOfBounds, InjectedBugKind::AbbaDeadlock];
    for kind in kinds {
        for seed in 0..8 {
            let w = medium(seed, kind);
            let run = |pruning: bool| {
                let options = EsdOptions::builder().static_pruning(pruning).build();
                Esd::new(options)
                    .synthesize_goal(&w.program, w.truth.goal.clone())
                    .unwrap_or_else(|e| panic!("{} (pruning {pruning}): {e:?}", w.name))
            };
            let (on, off) = (run(true), run(false));
            assert_eq!(on.execution, off.execution, "{}: executions differ", w.name);
            let counts = |r: &esd::core::SynthesisReport| {
                (r.stats.steps, r.stats.states_created, r.stats.states_pruned)
            };
            assert_eq!(counts(&on), counts(&off), "{}: (steps, created, pruned)", w.name);
        }
    }
}
