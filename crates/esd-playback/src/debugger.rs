//! A gdb-style façade over playback: breakpoints, step observation, and
//! inspection of program state at interesting points.
//!
//! The original ESD lets developers attach gdb to the played-back native
//! process; here the "debugger" drives the interpreter through the
//! synthesized schedule and reports where breakpoints were hit, with
//! snapshots of requested global variables at each hit.

use crate::player::{play_with_observer, PlaybackResult};
use esd_core::SynthesizedExecution;
use esd_ir::{Loc, Program, ThreadId, Value};
use std::collections::HashSet;

/// One breakpoint hit during playback.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakpointHit {
    /// The breakpoint location.
    pub loc: Loc,
    /// The thread that was about to execute it.
    pub thread: ThreadId,
    /// Values of the watched globals at the time of the hit, in the order
    /// they were registered with [`Debugger::watch_global`].
    pub watched: Vec<(String, Option<Value>)>,
    /// How many instructions had been executed when the hit occurred.
    pub at_step: u64,
}

/// A simple debugger over the playback environment.
pub struct Debugger<'p> {
    program: &'p Program,
    execution: SynthesizedExecution,
    breakpoints: HashSet<Loc>,
    watched_globals: Vec<String>,
}

impl<'p> Debugger<'p> {
    /// Creates a debugger session for `program` and a synthesized execution.
    pub fn new(program: &'p Program, execution: SynthesizedExecution) -> Self {
        Debugger { program, execution, breakpoints: HashSet::new(), watched_globals: Vec::new() }
    }

    /// Sets a breakpoint at a location.
    pub fn break_at(&mut self, loc: Loc) -> &mut Self {
        self.breakpoints.insert(loc);
        self
    }

    /// Registers a global variable whose value is captured at every
    /// breakpoint hit.
    pub fn watch_global(&mut self, name: &str) -> &mut Self {
        self.watched_globals.push(name.to_string());
        self
    }

    /// Runs the whole synthesized execution, collecting breakpoint hits.
    /// Like re-running a program under gdb, this can be called repeatedly
    /// and yields the same hits every time (deterministic playback).
    pub fn run(&self) -> (Vec<BreakpointHit>, PlaybackResult) {
        let mut hits = Vec::new();
        let result = play_with_observer(self.program, &self.execution, |interp, tid, loc| {
            if self.breakpoints.contains(&loc) {
                let watched = self
                    .watched_globals
                    .iter()
                    .map(|name| {
                        let value = self.program.global_by_name(name).and_then(|gid| {
                            // Globals are allocated in program order, so
                            // the id equals the allocation index.
                            interp.mem.object(find_global_obj(interp, gid.0)).map(|o| o.data[0])
                        });
                        (name.clone(), value)
                    })
                    .collect();
                hits.push(BreakpointHit { loc, thread: tid, watched, at_step: interp.steps() });
            }
        });
        (hits, result)
    }
}

/// Globals are allocated first, in declaration order, so the `i`-th global's
/// object id is `i + 1` (object ids start at 1).
fn find_global_obj(_interp: &esd_ir::Interpreter<'_>, index: u32) -> esd_ir::ObjId {
    esd_ir::ObjId(index as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_concurrency::{Schedule, SegmentStop};
    use esd_core::execfile::InputEntry;
    use esd_ir::{CmpOp, InputSource, ProgramBuilder};

    fn program_and_exec() -> (Program, SynthesizedExecution, Loc) {
        let mut pb = ProgramBuilder::new("dbg");
        let counter = pb.global("counter", 1);
        let mut bp = None;
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let gp = f.addr_global(counter);
            f.store(gp, x);
            bp = Some(Loc::new(esd_ir::FuncId(0), f.current_block(), f.next_inst_idx()));
            let v = f.load(gp);
            let ok = f.cmp(CmpOp::Lt, v, 100);
            f.assert(ok, "counter too large");
            f.ret_void();
        });
        let p = pb.finish("main");
        let mut schedule = Schedule::new();
        schedule.push(0, SegmentStop::Steps(10));
        let exec = SynthesizedExecution {
            program: "dbg".into(),
            fault_tag: "assert-failure".into(),
            fault_loc: None,
            inputs: vec![InputEntry { thread: 0, seq: 0, source: InputSource::Stdin, value: 123 }],
            schedule,
        };
        (p, exec, bp.unwrap())
    }

    #[test]
    fn breakpoints_fire_and_watch_globals() {
        let (p, exec, bp) = program_and_exec();
        let mut dbg = Debugger::new(&p, exec);
        dbg.break_at(bp).watch_global("counter");
        let (hits, result) = dbg.run();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].loc, bp);
        assert_eq!(hits[0].watched[0].1, Some(Value::Int(123)));
        assert!(result.reproduced, "the assert failure is reproduced");
    }

    #[test]
    fn playback_is_repeatable_across_debugger_runs() {
        let (p, exec, bp) = program_and_exec();
        let mut dbg = Debugger::new(&p, exec);
        dbg.break_at(bp).watch_global("counter");
        let (h1, _) = dbg.run();
        let (h2, _) = dbg.run();
        assert_eq!(h1, h2, "deterministic playback yields identical hits");
    }

    #[test]
    fn no_breakpoints_means_no_hits() {
        let (p, exec, _) = program_and_exec();
        let dbg = Debugger::new(&p, exec);
        let (hits, result) = dbg.run();
        assert!(hits.is_empty());
        assert!(result.outcome.is_fault());
    }
}
