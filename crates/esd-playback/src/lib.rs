//! The ESD playback environment (`esdplay`, §5).
//!
//! Playback takes the program and a synthesized execution file and steers a
//! fresh concrete execution into following the synthesized inputs and thread
//! schedule, deterministically re-creating the reported failure. Developers
//! can observe every step (the [`debugger`] façade models attaching gdb),
//! repeat the execution as many times as needed, and — after applying a fix —
//! re-run synthesis to confirm the bug is no longer reachable
//! ([`verify_patch`]).

// Documentation enforcement (see ARCHITECTURE.md, "Documentation policy"):
// every public item must carry rustdoc.
#![deny(missing_docs)]

pub mod debugger;
pub mod player;

pub use debugger::{BreakpointHit, Debugger};
pub use player::{play, play_with_observer, PlaybackResult};

use esd_core::{Esd, EsdOptions, SynthesisError};
use esd_ir::Program;
use esd_symex::GoalSpec;

/// Re-runs synthesis against the (patched) program to check whether the bug
/// is still reachable: "If ESD can no longer synthesize an execution that
/// triggers the bug, then the patch can be considered successful" (§5.2).
///
/// Returns `Ok(true)` if the patch holds (the search was exhausted: every
/// path was explored without reaching the goal), `Ok(false)` if ESD still
/// synthesizes a failing execution, and `Err` if the search ended without a
/// verdict — its step budget ran out, or its state cap (`max_states`) may
/// have dropped the fork that reaches the goal
/// ([`SynthesisError::BudgetExceeded`]).
pub fn verify_patch(
    patched: &Program,
    goal: GoalSpec,
    options: EsdOptions,
) -> Result<bool, SynthesisError> {
    let esd = Esd::new(options);
    match esd.synthesize_goal(patched, goal) {
        Ok(_) => Ok(false),
        Err(SynthesisError::Exhausted) => Ok(true),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_core::BugReport;
    use esd_ir::{CmpOp, Loc, ProgramBuilder};
    use esd_symex::FrontierKind;

    #[test]
    fn verify_patch_distinguishes_fixed_from_unfixed_programs() {
        // Buggy version: crashes when input == 5.
        let build = |fixed: bool| {
            let mut pb = ProgramBuilder::new(if fixed { "fixed" } else { "buggy" });
            let mut loc = None;
            pb.function("main", 0, |f| {
                let x = f.getchar();
                let c = f.cmp(CmpOp::Eq, x, 5);
                let bug = f.new_block("bug");
                let ok = f.new_block("ok");
                f.cond_br(c, bug, ok);
                f.switch_to(bug);
                if fixed {
                    // The patch handles the case gracefully.
                    f.output(5);
                } else {
                    let z = f.konst(0);
                    loc = Some(Loc::new(esd_ir::FuncId(0), bug, f.next_inst_idx()));
                    let v = f.load(z);
                    f.output(v);
                }
                f.ret_void();
                f.switch_to(ok);
                f.ret_void();
            });
            (pb.finish("main"), loc)
        };
        let (buggy, loc) = build(false);
        let (fixed, _) = build(true);
        let goal = GoalSpec::Crash { loc: loc.unwrap() };
        assert_eq!(verify_patch(&buggy, goal.clone(), EsdOptions::default()), Ok(false));
        assert_eq!(verify_patch(&fixed, goal, EsdOptions::default()), Ok(true));
    }

    /// A search whose state cap dropped forks has not shown the bug to be
    /// unreachable, so it must not vouch for a patch.
    #[test]
    fn verify_patch_does_not_vouch_for_a_search_the_state_cap_cut_short() {
        // Unpatched: three symbolic distractor branches, then a crash on the
        // `else` arm of a fourth.
        let mut pb = ProgramBuilder::new("capped");
        let mut loc = None;
        pb.function("main", 0, |f| {
            for k in 1..=3 {
                let x = f.getchar();
                let c = f.cmp(CmpOp::Eq, x, k);
                let then_bb = f.new_block("distractor");
                let join = f.new_block("join");
                f.cond_br(c, then_bb, join);
                f.switch_to(then_bb);
                f.output(k);
                f.br(join);
                f.switch_to(join);
            }
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 7);
            let ok = f.new_block("ok");
            let bug = f.new_block("bug");
            f.cond_br(c, ok, bug);
            f.switch_to(bug);
            let z = f.konst(0);
            loc = Some(Loc::new(esd_ir::FuncId(0), bug, f.next_inst_idx()));
            let v = f.load(z);
            f.output(v);
            f.ret_void();
            f.switch_to(ok);
            f.ret_void();
        });
        let program = pb.finish("main");
        let goal = GoalSpec::Crash { loc: loc.unwrap() };
        for frontier in [FrontierKind::Proximity, FrontierKind::Random] {
            for max_states in 1..=3 {
                let options = EsdOptions { max_states, ..EsdOptions::kc(frontier) };
                assert_ne!(
                    verify_patch(&program, goal.clone(), options),
                    Ok(true),
                    "{frontier} at max_states {max_states}"
                );
            }
        }
        let uncapped = verify_patch(&program, goal, EsdOptions::kc(FrontierKind::Proximity));
        assert_eq!(uncapped, Ok(false));
    }

    #[test]
    fn synthesized_crash_replays_deterministically() {
        // End to end: production failure -> coredump -> synthesis -> playback
        // reproduces the same fault, repeatedly.
        let mut pb = ProgramBuilder::new("replay");
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let y = f.getchar();
            let sum = f.add(x, y);
            let c = f.cmp(CmpOp::Eq, sum, 77);
            let bug = f.new_block("bug");
            let ok = f.new_block("ok");
            f.cond_br(c, bug, ok);
            f.switch_to(bug);
            let z = f.konst(0);
            let v = f.load(z);
            f.output(v);
            f.ret_void();
            f.switch_to(ok);
            f.output(1);
            f.ret_void();
        });
        let p = pb.finish("main");
        // Production failure with 40 + 37.
        let dump = esd_core::stress_test(
            &p,
            &esd_core::StressConfig {
                runs: 1,
                fixed_inputs: Some(vec![
                    ((esd_ir::ThreadId(0), 0), 40),
                    ((esd_ir::ThreadId(0), 1), 37),
                ]),
                ..Default::default()
            },
        )
        .failure
        .expect("production run fails");
        let esd = Esd::with_defaults();
        let result = esd.synthesize(&p, &BugReport::from_coredump(dump)).unwrap();
        for _ in 0..3 {
            let pr = play(&p, &result.execution);
            assert!(pr.reproduced, "playback must reproduce the synthesized fault");
        }
    }
}
