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
//! The race searches also check the static race-pair candidates against
//! the dynamic detector: no flagged access outside the candidates may make
//! the detector's backstop fork (`SearchStats::race_backstop_forks`).

use esd::playback::play;
use esd::workloads::genbug::{generate, GenConfig, GenSize, GeneratedWorkload, InjectedBugKind};
use esd::{Esd, EsdOptions};

/// The step budget a medium crash, out-of-bounds bug or race must be found
/// in.
const MEDIUM_STEPS: u64 = 1_000;

/// The highest live-state peak a medium race may reach: the measured peak
/// over seeds 0..16 is 20 (seed 13).
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
        assert_eq!(stats.race_backstop_forks, 0, "{}: backstop forks", w.name);
    }
}
