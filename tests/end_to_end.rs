//! Cross-crate integration tests: the full pipeline from a production failure
//! to a deterministic replay, for representative workloads of each bug class.

use esd::core::BugReport;
use esd::ir::interp::{InterpreterConfig, MapInputs};
use esd::ir::{
    BinOp, CmpOp, FaultKind, FunctionBuilder, Interpreter, Program, ProgramBuilder, Reg, ThreadId,
    Value,
};
use esd::playback::{play, verify_patch};
use esd::workloads::{all_real_bugs, capture_coredump, WorkloadKind};
use esd::{Esd, EsdOptions, FrontierKind};

/// Crashes: coredump → goal extraction → synthesis → playback, end to end.
#[test]
fn crash_workloads_roundtrip_from_coredump_to_replay() {
    let esd = Esd::new(EsdOptions::builder().max_steps(4_000_000).build());
    for w in all_real_bugs() {
        if w.kind != WorkloadKind::Crash {
            continue;
        }
        let dump = capture_coredump(&w, 5)
            .unwrap_or_else(|| panic!("{}: failure must be reproducible at the user site", w.name));
        let report = esd
            .synthesize(&w.program, &BugReport::from_coredump(dump))
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {:?}", w.name, e));
        let replay = play(&w.program, &report.execution);
        assert!(replay.reproduced, "{}: playback must reproduce the failure", w.name);
    }
}

/// Deadlocks: synthesis from the reported goal and deterministic replay.
#[test]
fn deadlock_workloads_synthesize_and_replay() {
    let esd = Esd::new(EsdOptions::builder().max_steps(6_000_000).build());
    for w in all_real_bugs() {
        if w.kind != WorkloadKind::Hang {
            continue;
        }
        let report = esd
            .synthesize_goal(&w.program, w.goal())
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {:?}", w.name, e));
        assert_eq!(report.execution.fault_tag, "deadlock", "{}", w.name);
        for _ in 0..2 {
            let replay = play(&w.program, &report.execution);
            assert!(replay.reproduced, "{}: deadlock must replay deterministically", w.name);
        }
    }
}

/// The synthesized execution file survives a serialization round trip and
/// still replays.
#[test]
fn execution_files_replay_after_json_roundtrip() {
    let esd = Esd::new(EsdOptions::builder().max_steps(2_000_000).build());
    let w = esd::workloads::real_bugs::paste_invalid_free();
    let report = esd.synthesize_goal(&w.program, w.goal()).unwrap();
    let json = report.execution.to_json();
    let restored = esd::core::SynthesizedExecution::from_json(&json).unwrap();
    assert!(play(&w.program, &restored).reproduced);
}

// ---- The stepper computes what the interpreter computes ----------------------
//
// Each program below fails only on input 7, at a corner of the IR's concrete
// semantics or limits. The interpreter's coredump of that run is the whole
// report: the execution synthesized from it must reach the same failure and
// replay it.

/// Finishes `pb` with a `main` that reads one character and runs `bug` on 7,
/// passing it the register that holds the character.
fn fails_on_input_seven(
    mut pb: ProgramBuilder,
    bug: impl FnOnce(&mut FunctionBuilder, Reg),
) -> Program {
    pb.function("main", 0, |f| {
        let x = f.getchar();
        let seven = f.cmp(CmpOp::Eq, x, 7);
        let bug_bb = f.new_block("bug");
        let ok = f.new_block("ok");
        f.cond_br(seven, bug_bb, ok);
        f.switch_to(bug_bb);
        bug(f, x);
        f.ret_void();
        f.switch_to(ok);
        f.ret_void();
    });
    pb.finish("main")
}

/// Runs `program` on input 7, synthesizes from its coredump within
/// `max_steps`, checks the execution replays, and returns the fault.
fn synthesize_from_the_interpreters_coredump(program: &Program, max_steps: u64) -> FaultKind {
    let inputs = MapInputs::from_entries([((ThreadId(0), 0), 7)]);
    let run = Interpreter::new(program, Box::new(inputs)).run(&InterpreterConfig::default());
    let dump = run.outcome.coredump().expect("input 7 fails").clone();
    let esd = Esd::new(EsdOptions::builder().max_steps(max_steps).build());
    let report = esd
        .synthesize(program, &BugReport::from_coredump(dump.clone()))
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e:?}", program.name));
    assert_eq!(report.execution.fault_tag, dump.fault.tag(), "{}", program.name);
    assert!(play(program, &report.execution).reproduced, "{}: must replay", program.name);
    dump.fault
}

/// Unbounded recursion overflows the stack at `MAX_STACK_DEPTH` in both
/// executors; without the limit the stepper pushes frames until its budget
/// runs out.
#[test]
fn stack_overflow_is_synthesized_from_its_coredump() {
    let mut pb = ProgramBuilder::new("stack_overflow");
    let rec = pb.declare("rec", 1);
    pb.define(rec, |f| {
        let n = f.add(f.param(0), 1);
        f.call_void(rec, vec![n.into()]);
        f.ret_void();
    });
    let program = fails_on_input_seven(pb, |f, _| f.call_void(rec, vec![0.into()]));
    let fault = synthesize_from_the_interpreters_coredump(&program, 20_000);
    assert_eq!(fault, FaultKind::SegFault { addr: Value::Int(-1) });
}

/// A pointer used as an arithmetic operand reads as its word, so
/// `ptr + ptr` is a pointer far past the end of its object.
#[test]
fn pointer_plus_pointer_load_is_synthesized_from_its_coredump() {
    let mut pb = ProgramBuilder::new("ptr_plus_ptr");
    let g = pb.global("g", 1);
    let program = fails_on_input_seven(pb, |f, _| {
        let p = f.addr_global(g);
        let q = f.add(p, p);
        let v = f.load(q);
        f.output(v);
    });
    let fault = synthesize_from_the_interpreters_coredump(&program, 10_000);
    assert!(matches!(fault, FaultKind::OutOfBounds { size: 1, .. }), "{fault:?}");
}

/// `i64::MIN` names no function: a bad indirect call, not an overflow.
#[test]
fn indirect_call_to_i64_min_is_synthesized_from_its_coredump() {
    let program = fails_on_input_seven(ProgramBuilder::new("call_i64_min"), |f, _| {
        let target = f.konst(i64::MIN);
        f.call_indirect(target, vec![]);
    });
    let fault = synthesize_from_the_interpreters_coredump(&program, 10_000);
    assert_eq!(fault, FaultKind::BadIndirectCall { target: Value::Int(i64::MIN) });
}

/// Subtracting `i64::MIN` from a pointer wraps its offset instead of
/// overflowing the negation.
#[test]
fn pointer_minus_i64_min_load_is_synthesized_from_its_coredump() {
    let mut pb = ProgramBuilder::new("ptr_minus_i64_min");
    let g = pb.global("g", 1);
    let program = fails_on_input_seven(pb, |f, _| {
        let p = f.addr_global(g);
        let q = f.sub(p, i64::MIN);
        let v = f.load(q);
        f.output(v);
    });
    let fault = synthesize_from_the_interpreters_coredump(&program, 10_000);
    assert_eq!(fault, FaultKind::OutOfBounds { off: i64::MIN, size: 1 });
}

/// Loads through null when `cond` holds.
fn crash_if(f: &mut FunctionBuilder, cond: Reg) {
    let crash = f.new_block("crash");
    let ok = f.new_block("ok");
    f.cond_br(cond, crash, ok);
    f.switch_to(crash);
    let v = f.load(0);
    f.output(v);
    f.ret_void();
    f.switch_to(ok);
}

/// A symbolic integer plus a pointer is an integer: the pointer's word is
/// added, and subtracting the pointer again gives back the input.
#[test]
fn symbolic_plus_pointer_is_synthesized_from_its_coredump() {
    let mut pb = ProgramBuilder::new("symbolic_plus_pointer");
    let g = pb.global("g", 1);
    let program = fails_on_input_seven(pb, |f, x| {
        let p = f.addr_global(g);
        let y = f.add(x, p);
        let back = f.sub(y, p);
        let seven = f.cmp(CmpOp::Eq, back, 7);
        crash_if(f, seven);
    });
    let fault = synthesize_from_the_interpreters_coredump(&program, 10_000);
    assert_eq!(fault, FaultKind::SegFault { addr: Value::Int(0) });
}

/// Ordering a symbolic integer against a pointer compares it with the
/// pointer's word.
#[test]
fn symbolic_below_pointer_is_synthesized_from_its_coredump() {
    let mut pb = ProgramBuilder::new("symbolic_below_pointer");
    let g = pb.global("g", 1);
    let program = fails_on_input_seven(pb, |f, x| {
        let p = f.addr_global(g);
        let below = f.cmp(CmpOp::Lt, x, p);
        crash_if(f, below);
    });
    let fault = synthesize_from_the_interpreters_coredump(&program, 10_000);
    assert_eq!(fault, FaultKind::SegFault { addr: Value::Int(0) });
}

/// A symbolic divisor that can be zero faults where the interpreter does.
#[test]
fn division_by_a_symbolic_zero_is_synthesized_from_its_coredump() {
    let program = fails_on_input_seven(ProgramBuilder::new("symbolic_div_zero"), |f, x| {
        let d = f.sub(x, 7);
        let q = f.bin(BinOp::Div, 100, d);
        f.output(q);
    });
    let fault = synthesize_from_the_interpreters_coredump(&program, 10_000);
    assert_eq!(fault, FaultKind::DivByZero);
}

/// Two instances of one thread function, and only the second can crash:
/// `worker(arg)` loads through null when `arg == 2` and it reads `'q'`.
/// The first instance's concrete branch leads into a block from which the
/// crash is unreachable, yet the state as a whole can still reach it
/// through the second thread, so no frontier may give the state up there.
#[test]
fn a_crash_in_the_second_instance_of_a_spawned_worker_is_synthesized() {
    let mut pb = ProgramBuilder::new("second_worker_crashes");
    let worker = pb.function("worker", 1, |f| {
        let second = f.cmp(CmpOp::Eq, f.param(0), 2);
        let read = f.new_block("read");
        let done = f.new_block("done");
        f.cond_br(second, read, done);
        f.switch_to(read);
        let c = f.getchar();
        let q = f.cmp(CmpOp::Eq, c, 'q' as i64);
        crash_if(f, q);
        f.ret_void();
        f.switch_to(done);
        f.ret_void();
    });
    pb.function("main", 0, |f| {
        let t1 = f.spawn(worker, 1);
        let t2 = f.spawn(worker, 2);
        f.join(t1);
        f.join(t2);
        f.ret_void();
    });
    let program = pb.finish("main");

    let inputs = MapInputs::from_entries([((ThreadId(2), 0), 'q' as i64)]);
    let run = Interpreter::new(&program, Box::new(inputs)).run(&InterpreterConfig::default());
    let dump = run.outcome.coredump().expect("the second worker crashes on 'q'").clone();
    let report = BugReport::from_coredump(dump);

    for frontier in [FrontierKind::Proximity, FrontierKind::Dfs, FrontierKind::Random] {
        let esd = Esd::new(EsdOptions::builder().frontier(frontier).max_steps(10_000).build());
        let synthesized = esd
            .synthesize(&program, &report)
            .unwrap_or_else(|e| panic!("{frontier:?}: synthesis failed: {e:?}"));
        assert!(play(&program, &synthesized.execution).reproduced, "{frontier:?}: must replay");
    }

    let goal = esd::core::extract_goal(&program, &report).expect("a crash goal");
    assert_eq!(verify_patch(&program, goal, EsdOptions::default()), Ok(false));
}
