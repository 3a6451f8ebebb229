//! The `esdsynth` facade: from a bug report to a synthesized execution file.
//!
//! [`Esd::synthesize`] is the blocking one-shot entry point; it is a thin
//! wrapper over a [`SynthesisSession`],
//! the resumable form that supports progress observation, deadlines,
//! cancellation and time-slicing (see [`crate::session`] and
//! [`crate::executor`]).

use crate::report::{extract_goal, BugKind, BugReport};
use crate::session::{SessionStatus, SynthesisSession};
use crate::SynthesizedExecution;
use esd_ir::Program;
use esd_symex::{EsdOptions, GoalSpec, SearchStats};
use std::time::Duration;

/// Why a synthesis attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The coredump could not be turned into a goal.
    GoalExtraction(String),
    /// The search space was exhausted without reaching the goal, and the
    /// state cap (`max_states`) dropped no fork on the way.
    Exhausted,
    /// The step budget was exceeded before reaching the goal, or the search
    /// ran out of states after the state cap (`max_states`) may have dropped
    /// a fork.
    BudgetExceeded,
    /// The wall-clock deadline passed before reaching the goal.
    DeadlineExpired,
    /// The underlying session was cancelled before reaching the goal.
    Cancelled,
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::GoalExtraction(why) => {
                write!(f, "the bug report could not be turned into a goal: {why}")
            }
            SynthesisError::Exhausted => {
                write!(f, "the search space was exhausted without reaching the goal")
            }
            SynthesisError::BudgetExceeded => {
                write!(f, "the step budget was exceeded before reaching the goal")
            }
            SynthesisError::DeadlineExpired => {
                write!(f, "the wall-clock deadline passed before reaching the goal")
            }
            SynthesisError::Cancelled => {
                write!(f, "the session was cancelled before reaching the goal")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// The result of a successful synthesis run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SynthesisReport {
    /// The synthesized execution (inputs + schedule), ready for playback.
    pub execution: SynthesizedExecution,
    /// The goal that was pursued.
    pub goal: GoalSpec,
    /// Search statistics.
    pub stats: SearchStats,
    /// Wall-clock time of the whole synthesis (static + dynamic phase).
    pub elapsed: Duration,
    /// Other (unreported) bugs stumbled upon during the search.
    pub other_bugs: Vec<(esd_ir::FaultKind, Option<esd_ir::Loc>)>,
}

/// The ESD synthesizer.
pub struct Esd {
    options: EsdOptions,
}

impl Esd {
    /// Creates a synthesizer with the given options.
    pub fn new(options: EsdOptions) -> Self {
        Esd { options }
    }

    /// Creates a synthesizer with default options.
    pub fn with_defaults() -> Self {
        Esd::new(EsdOptions::default())
    }

    /// The options this synthesizer runs with.
    pub fn options(&self) -> &EsdOptions {
        &self.options
    }

    /// Synthesizes an execution reproducing the failure in `report`
    /// (the `esdsynth <coredump> <program>` entry point). Race reports
    /// always search with race-directed preemptions, whatever
    /// [`EsdOptions::with_race_detection`] says.
    pub fn synthesize(
        &self,
        program: &Program,
        report: &BugReport,
    ) -> Result<SynthesisReport, SynthesisError> {
        let goal = extract_goal(program, report)
            .map_err(|e| SynthesisError::GoalExtraction(format!("{e:?}")))?;
        let mut options = self.options.clone();
        options.with_race_detection |= report.kind() == BugKind::Race;
        run_to_report(SynthesisSession::new(program, goal, options))
    }

    /// Synthesizes an execution for an explicit goal (used by the workload
    /// harness, and by the "validate a static-analysis report" usage model
    /// where there is no coredump yet).
    ///
    /// This is a convenience wrapper that runs a
    /// [`SynthesisSession`] to completion;
    /// callers that need progress events, deadlines, cancellation or
    /// time-slicing should create the session themselves (see
    /// [`Esd::session`]). Race-directed preemptions are governed by
    /// [`EsdOptions::with_race_detection`] alone.
    pub fn synthesize_goal(
        &self,
        program: &Program,
        goal: GoalSpec,
    ) -> Result<SynthesisReport, SynthesisError> {
        run_to_report(self.session(program, goal))
    }

    /// Creates a resumable [`SynthesisSession`] for `goal` with this
    /// synthesizer's options.
    pub fn session(&self, program: &Program, goal: GoalSpec) -> SynthesisSession {
        SynthesisSession::new(program, goal, self.options.clone())
    }
}

/// Runs `session` to completion and maps its terminal status onto the
/// blocking facade's result.
fn run_to_report(mut session: SynthesisSession) -> Result<SynthesisReport, SynthesisError> {
    session.run_to_completion();
    match session.into_status() {
        SessionStatus::Found(report) => Ok(*report),
        SessionStatus::Exhausted(_) => Err(SynthesisError::Exhausted),
        SessionStatus::BudgetExceeded(_) => Err(SynthesisError::BudgetExceeded),
        SessionStatus::DeadlineExpired(_) => Err(SynthesisError::DeadlineExpired),
        SessionStatus::Cancelled(_) => Err(SynthesisError::Cancelled),
        SessionStatus::Running => unreachable!("run_to_completion returned while running"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{
        interp::{InterpreterConfig, MapInputs, ZeroInputs},
        CmpOp, Interpreter, ProgramBuilder, ThreadId,
    };

    /// A crash that needs a specific input: reproduce it concretely to get a
    /// coredump, then synthesize from the coredump alone and check the
    /// synthesized inputs re-trigger it.
    #[test]
    fn end_to_end_crash_synthesis_from_coredump() {
        let mut pb = ProgramBuilder::new("e2e");
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let is_q = f.cmp(CmpOp::Eq, x, 'q' as i64);
            let bug = f.new_block("bug");
            let ok = f.new_block("ok");
            f.cond_br(is_q, bug, ok);
            f.switch_to(bug);
            let null = f.konst(0);
            let v = f.load(null);
            f.output(v);
            f.ret_void();
            f.switch_to(ok);
            f.output(0);
            f.ret_void();
        });
        let p = pb.finish("main");

        // The failure "happens in production" with input 'q'.
        let mut interp = Interpreter::new(
            &p,
            Box::new(MapInputs::from_entries([((ThreadId(0), 0), 'q' as i64)])),
        );
        let run = interp.run(&InterpreterConfig::default());
        let dump = run.outcome.coredump().expect("production failure").clone();

        // ESD starts from the coredump only.
        let esd = Esd::with_defaults();
        let report = BugReport::from_coredump(dump);
        let result = esd.synthesize(&p, &report).expect("synthesis succeeds");
        let stdin = result.execution.inputs.iter().find(|i| i.seq == 0).unwrap().value;
        assert_eq!(stdin, 'q' as i64, "the synthesized input must re-trigger the crash");
        assert_eq!(result.execution.fault_tag, "segfault");
        assert!(result.stats.steps > 0);
    }

    #[test]
    fn synthesis_reports_exhaustion_for_bug_free_programs() {
        let mut pb = ProgramBuilder::new("clean");
        pb.function("main", 0, |f| {
            let dead = f.new_block("dead");
            f.ret_void();
            f.switch_to(dead);
            let z = f.konst(0);
            let v = f.load(z);
            f.output(v);
            f.ret_void();
        });
        let p = pb.finish("main");
        // Fabricate a report pointing at the unreachable block.
        let mut interp = Interpreter::new(&p, Box::new(ZeroInputs));
        let _ = interp.run(&InterpreterConfig::default());
        let goal =
            esd_symex::GoalSpec::Crash { loc: esd_ir::Loc::new(p.entry, esd_ir::BlockId(1), 1) };
        let esd = Esd::with_defaults();
        let err = esd.synthesize_goal(&p, goal).unwrap_err();
        assert_eq!(err, SynthesisError::Exhausted);
    }

    /// Two workers increment a shared counter without a lock, yielding
    /// between load and store; `main` asserts both increments are visible.
    /// Returns the program and the assertion's location.
    fn racy_counter() -> (Program, esd_ir::Loc) {
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
            assert_loc = Some(esd_ir::Loc::new(main_id, f.current_block(), f.next_inst_idx()));
            f.assert(ok, "both increments must be visible");
            f.ret_void();
        });
        (pb.finish("main"), assert_loc.unwrap())
    }

    /// Regression test: `synthesize_goal` used to take a positional
    /// race-preemption flag that overrode `with_race_detection`, so a caller
    /// who set the option but passed `false` got no race search and the
    /// racy counter came back exhausted. The option alone governs now.
    #[test]
    fn synthesize_goal_honours_the_race_detection_option() {
        let (p, loc) = racy_counter();
        let report = Esd::new(EsdOptions::builder().with_race_detection(true).build())
            .synthesize_goal(&p, GoalSpec::Crash { loc })
            .expect("with_race_detection(true) must synthesize the race");
        assert_eq!(report.execution.fault_tag, "assert-failure");
        assert!(report.stats.races_flagged > 0);
        let err = Esd::with_defaults().synthesize_goal(&p, GoalSpec::Crash { loc }).unwrap_err();
        assert_eq!(err, SynthesisError::Exhausted, "without the option there is no race search");
    }
}
