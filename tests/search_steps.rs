//! The 32-step burst, measured in deterministic search steps.
//!
//! Each selected state runs a burst of up to 32 micro-steps before the next
//! selection (see the `esd-symex` engine docs). On the medium generated
//! crash and out-of-bounds bugs this is what lets the proximity search reach
//! the goal in at most about 12,000 steps (most in under 1,500); re-selecting
//! after every instruction took 120,000–200,000 steps and about 2,000 live
//! states on each. Race detection keeps one micro-step per selection, so the
//! medium races keep their live-state peak.

use esd::playback::play;
use esd::workloads::genbug::{generate, GenConfig, GenSize, GeneratedWorkload, InjectedBugKind};
use esd::{Esd, EsdOptions};

/// The step budget a medium crash or out-of-bounds bug must be found in.
const CRASH_STEPS: u64 = 20_000;

/// The highest live-state peak a medium race reached when every frontier
/// re-selected after every instruction.
const RACE_LIVE_STATES: usize = 2_406;

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
fn medium_crashes_and_oobs_are_found_within_20k_steps() {
    for kind in [InjectedBugKind::CrashOnPath, InjectedBugKind::OutOfBounds] {
        for seed in 0..16 {
            let w = medium(seed, kind);
            let stats =
                synthesize_and_replay(&w, EsdOptions::builder().max_steps(CRASH_STEPS).build());
            assert!(stats.steps <= CRASH_STEPS, "{}: {} steps", w.name, stats.steps);
        }
    }
}

#[test]
fn medium_races_keep_their_live_state_peak() {
    for seed in 0..4 {
        let w = medium(seed, InjectedBugKind::DataRace);
        let stats =
            synthesize_and_replay(&w, EsdOptions::builder().with_race_detection(true).build());
        assert!(
            stats.max_live_states <= RACE_LIVE_STATES,
            "{}: {} live states",
            w.name,
            stats.max_live_states
        );
    }
}
