//! The one search configuration: [`EsdOptions`].
//!
//! Every search — an ESD synthesis session, an executor job, a KC baseline
//! run — is configured by one [`EsdOptions`] value. The engine, the
//! sessions and executor jobs above it, the journal and the wire all carry
//! exactly this type. The KC baseline is not a second configuration type
//! but a preset of this one, [`EsdOptions::kc`].

use crate::frontier::FrontierKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Chess's preemption bound, which the KC baseline applies
/// ([`EsdOptions::kc_baseline`]).
pub const KC_PREEMPTION_BOUND: u32 = 2;

/// Knobs for a synthesis run (the defaults reproduce the paper's ESD
/// configuration; [`EsdOptions::kc_baseline`] switches to the KC baseline).
///
/// Prefer constructing these with the chainable [`EsdOptions::builder`]:
///
/// ```
/// use esd_symex::{EsdOptions, FrontierKind};
///
/// let options = EsdOptions::builder()
///     .max_steps(1_000_000)
///     .frontier(FrontierKind::Dfs)
///     .build();
/// assert_eq!(options.max_steps, 1_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EsdOptions {
    /// Total instruction budget for the dynamic phase. It is checked
    /// between rounds, so a round may overshoot it by at most one burst:
    /// 32 micro-steps, or one under the KC preset.
    pub max_steps: u64,
    /// Maximum number of live execution states.
    pub max_states: usize,
    /// PRNG seed for the stochastic frontiers ([`FrontierKind::Random`] and
    /// [`FrontierKind::Proximity`]; ignored by the deterministic ones).
    pub seed: u64,
    /// Which search frontier orders the exploration (the paper's
    /// proximity-guided frontier by default; DFS and random, the KC
    /// baseline's searchers, are available for comparison — see
    /// [`crate::frontier`]).
    pub frontier: FrontierKind,
    /// Insert preemption points before accesses flagged by the lockset race
    /// detector, needed to synthesize data-race schedules
    /// (`--with-race-det`).
    pub with_race_detection: bool,
    /// Consult the static phase's result-invariant verdicts before forking
    /// (on by default; `ESD_STATIC_PRUNING=0` turns it off in the benches
    /// and CI). Neither verdict changes what is synthesized:
    ///
    /// * branches the interval analysis proves one-sided for *all* inputs
    ///   take that side without a solver query — the taken side's
    ///   constraint is still recorded, and the solver evaluates the same
    ///   interval transfer functions, so with the verdicts off it refutes
    ///   the other side itself: the search trajectory is unchanged and only
    ///   the query is skipped;
    /// * in race-preemption mode, yields with no race-pair candidate
    ///   material around them skip the speculative preemption fork (counted
    ///   in [`SearchStats::preemptions_pruned_static`]). Sound because the
    ///   candidate set over-approximates the real races (MHP + lockset,
    ///   both conservative) — and accesses the dynamic detector concretely
    ///   flags always fork regardless, so static imprecision can delay but
    ///   never hide a race.
    ///
    /// [`SearchStats::preemptions_pruned_static`]:
    /// crate::SearchStats::preemptions_pruned_static
    pub static_pruning: bool,
    /// Optional wall-clock deadline for the search, measured from session
    /// creation.
    pub deadline: Option<Duration>,
    /// Run as the KC baseline instead of ESD. Off, the search uses ESD's
    /// guidance: intermediate goals, critical-edge abandonment (§3.2–3.4)
    /// and the deadlock schedule heuristics (§4.1).
    /// On, it uses none of them, bounds preemptions at
    /// [`KC_PREEMPTION_BOUND`], as Chess does, and keeps every forked
    /// state, as Klee and Chess do not deduplicate states. Set by the
    /// [`EsdOptions::kc`] preset.
    pub kc_baseline: bool,
}

impl Default for EsdOptions {
    fn default() -> Self {
        EsdOptions {
            max_steps: 5_000_000,
            max_states: 50_000,
            seed: 1,
            frontier: FrontierKind::Proximity,
            with_race_detection: false,
            static_pruning: true,
            deadline: None,
            kc_baseline: false,
        }
    }
}

impl EsdOptions {
    /// Starts a builder over the default options; finish with
    /// [`build`](EsdOptionsBuilder::build).
    pub fn builder() -> EsdOptionsBuilder {
        EsdOptionsBuilder::default()
    }

    /// The KC baseline (§7.2, "a hybrid system that embodies the Klee and
    /// Chess techniques"): the given Klee searcher with
    /// [`EsdOptions::kc_baseline`] on — none of ESD's guidance, Chess's
    /// preemption bound, no state deduplication — a pool of 20,000 live
    /// states, and no static verdicts.
    pub fn kc(frontier: FrontierKind) -> Self {
        EsdOptions {
            max_states: 20_000,
            frontier,
            static_pruning: false,
            kc_baseline: true,
            ..EsdOptions::default()
        }
    }
}

/// Chainable setters for [`EsdOptions`], obtained from
/// [`EsdOptions::builder`] and finished with
/// [`build`](EsdOptionsBuilder::build).
#[derive(Default)]
pub struct EsdOptionsBuilder {
    options: EsdOptions,
}

impl EsdOptionsBuilder {
    /// Total instruction budget for the dynamic phase.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.options.max_steps = max_steps;
        self
    }

    /// Maximum number of live execution states.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.options.max_states = max_states;
        self
    }

    /// Random seed for the stochastic frontiers.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Which search frontier orders the exploration.
    pub fn frontier(mut self, frontier: FrontierKind) -> Self {
        self.options.frontier = frontier;
        self
    }

    /// Enable lockset-race-directed preemptions (`--with-race-det`).
    pub fn with_race_detection(mut self, on: bool) -> Self {
        self.options.with_race_detection = on;
        self
    }

    /// Consult the static phase's result-invariant verdicts (see
    /// [`EsdOptions::static_pruning`]).
    pub fn static_pruning(mut self, on: bool) -> Self {
        self.options.static_pruning = on;
        self
    }

    /// Wall-clock deadline: the session stops with a deadline-expired
    /// status once this much time has passed since it was created.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// The finished options.
    pub fn build(self) -> EsdOptions {
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_option() {
        let options = EsdOptions::builder()
            .max_steps(123)
            .max_states(45)
            .seed(6)
            .frontier(FrontierKind::Dfs)
            .with_race_detection(true)
            .static_pruning(false)
            .deadline(Duration::from_secs(9))
            .build();
        assert_eq!(options.max_steps, 123);
        assert_eq!(options.max_states, 45);
        assert_eq!(options.seed, 6);
        assert_eq!(options.frontier, FrontierKind::Dfs);
        assert!(options.with_race_detection);
        assert!(!options.static_pruning);
        assert_eq!(options.deadline, Some(Duration::from_secs(9)));
    }
}
