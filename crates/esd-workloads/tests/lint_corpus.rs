//! The lint gate over the workload corpus: every program this crate ships —
//! the real-bug analogs and the generated genbug corpus — must be free of
//! `Error`-severity lint diagnostics (the same policy the CI `lint-gate` job
//! enforces with the `irlint` bin), and the genbug defensive check must be
//! visible to the interval analysis (that is what guarantees the engine's
//! `branches_pruned_static` counter moves on generated programs).

use esd_analysis::{lint, Severity};
use esd_workloads::genbug::{generate, GenConfig, InjectedBugKind};
use esd_workloads::real_bugs::all_real_bugs;

const SEEDS: [u64; 4] = [2, 11, 23, 47];

#[test]
fn real_bug_workloads_carry_no_error_diagnostics() {
    for w in all_real_bugs() {
        let errors: Vec<_> =
            lint::run(&w.program).into_iter().filter(|d| d.severity == Severity::Error).collect();
        assert!(errors.is_empty(), "{}: unexpected lint errors: {errors:?}", w.name);
    }
}

#[test]
fn genbug_corpus_carries_no_error_diagnostics() {
    for kind in InjectedBugKind::ALL {
        for seed in SEEDS {
            let gen = generate(&GenConfig::new(seed, kind));
            let errors: Vec<_> = lint::run(&gen.program)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "genbug seed {seed} {kind:?}: unexpected lint errors: {errors:?}"
            );
        }
    }
}

#[test]
fn genbug_defensive_check_is_statically_decided() {
    // The generator plants a `in0 & 63 <= 63` range check in every program;
    // the constant-condition lint (backed by the interval analysis) must see
    // it as a warning — proof that the static phase decides at least one
    // branch on every generated program.
    for kind in InjectedBugKind::ALL {
        for seed in SEEDS {
            let gen = generate(&GenConfig::new(seed, kind));
            let diags = lint::run(&gen.program);
            assert!(
                diags.iter().any(|d| {
                    d.lint == "constant-condition"
                        && d.severity == Severity::Warning
                        && d.message.contains("always true")
                }),
                "genbug seed {seed} {kind:?}: the defensive masked check must be \
                 decided by the interval analysis"
            );
        }
    }
}
