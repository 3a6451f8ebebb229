//! Seeded random workload generation with injected bugs of known kind.
//!
//! [`generate`] synthesizes a well-formed IR program — an input-dependent
//! branching skeleton, a bounded loop, worker threads, shared locks,
//! symbolic inputs — and injects exactly one bug of the requested
//! [`InjectedBugKind`]. The result carries the program *plus* a
//! [`GroundTruth`] record: the synthesis goal, the fault tags a correct
//! report may carry, the concrete inputs that arm the bug, and a
//! [`ScheduleHint`] naming the minimal adverse interleaving. Ground truth is
//! what turns the executor into a stress rig with an oracle: a search
//! configuration either finds *the injected bug* (checked by
//! [`GroundTruth::matches`]) or it found nothing — there is no "maybe it
//! found a different bug" ambiguity.
//!
//! The generator is deterministic: the same `(seed, kind, size)` produces a
//! byte-identical program (pinned by a property test in `tests/properties.rs`
//! and a golden fixture in `tests/fixtures/`), so an entire corpus is fully
//! described by its seed set. The differential coverage harness in
//! `esd-bench` (`coverage_matrix`, `tests/differential.rs`) is built on
//! exactly that: N seeds × 4 bug kinds × every `FrontierKind`, asserting
//! full coverage and zero false positives.

use crate::real_bugs::{Workload, WorkloadKind};
use esd_core::SynthesizedExecution;
use esd_ir::{BinOp, CmpOp, Loc, Program, ProgramBuilder};
use esd_symex::GoalSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The bug classes the generator can inject (exactly one per program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectedBugKind {
    /// A null-pointer dereference guarded by a two-input magic comparison:
    /// the crash manifests on any schedule once the inputs are right.
    CrashOnPath,
    /// An AB/BA deadlock between two workers: one worker takes the locks in
    /// reverse order, but only under the arming inputs *and* an adverse
    /// interleaving (each thread preempted while holding its outer lock).
    AbbaDeadlock,
    /// A data race: under the arming inputs the workers update a shared
    /// counter without the lock, and a final assertion in `main` fails when
    /// an increment is lost — reaching it needs race-directed preemptions
    /// (see [`GroundTruth::needs_race_preemptions`]).
    DataRace,
    /// An out-of-bounds store into a fixed-size buffer, reached only under
    /// the arming inputs (the in-bounds path masks the index).
    OutOfBounds,
}

impl InjectedBugKind {
    /// Every kind, in a stable order (corpus enumeration order).
    pub const ALL: [InjectedBugKind; 4] = [
        InjectedBugKind::CrashOnPath,
        InjectedBugKind::AbbaDeadlock,
        InjectedBugKind::DataRace,
        InjectedBugKind::OutOfBounds,
    ];

    /// A short stable slug used in program names and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            InjectedBugKind::CrashOnPath => "crash",
            InjectedBugKind::AbbaDeadlock => "deadlock",
            InjectedBugKind::DataRace => "race",
            InjectedBugKind::OutOfBounds => "oob",
        }
    }

    /// The `fault_tag` values a correct synthesis for this kind may report
    /// (see `esd_ir::FaultKind::tag`).
    pub fn expected_fault_tags(&self) -> &'static [&'static str] {
        match self {
            InjectedBugKind::CrashOnPath => &["segfault"],
            InjectedBugKind::AbbaDeadlock => &["deadlock"],
            InjectedBugKind::DataRace => &["assert-failure"],
            InjectedBugKind::OutOfBounds => &["out-of-bounds"],
        }
    }
}

impl std::fmt::Display for InjectedBugKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

impl std::str::FromStr for InjectedBugKind {
    type Err = String;

    /// Parses the [`InjectedBugKind::slug`] spellings (case-insensitive).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "crash" | "crash-on-path" => Ok(InjectedBugKind::CrashOnPath),
            "deadlock" | "abba" => Ok(InjectedBugKind::AbbaDeadlock),
            "race" | "data-race" => Ok(InjectedBugKind::DataRace),
            "oob" | "out-of-bounds" => Ok(InjectedBugKind::OutOfBounds),
            other => Err(format!("unknown bug kind {other:?} (expected crash|deadlock|race|oob)")),
        }
    }
}

/// Structural size knobs of a generated program. All values are clamped to
/// workable ranges at generation time (see [`generate`]), so any sizes —
/// including proptest-chosen arbitrary ones — yield a valid program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSize {
    /// Symbolic input words read at startup (clamped to ≥ 4: the first two
    /// arm the bug, the rest feed distractor branches).
    pub inputs: u32,
    /// Input-dependent distractor branches in `main` (each a diamond that
    /// enlarges the path space without affecting the bug).
    pub branches: u32,
    /// Iterations of the bounded counting loop in `main` (clamped to 1..=8).
    pub loop_iters: u32,
    /// Worker threads spawned by `main` (clamped to 2..=8).
    pub threads: u32,
    /// Shared lock globals (clamped to 2..=8; the first two host the
    /// deadlock, the last guards benign worker increments).
    pub locks: u32,
}

impl GenSize {
    /// The smoke-corpus size: small enough that every frontier either finds
    /// the bug or exhausts/budgets out within a sub-second budget.
    pub fn small() -> Self {
        GenSize { inputs: 4, branches: 6, loop_iters: 2, threads: 2, locks: 2 }
    }

    /// A larger configuration for the full-mode corpus sweeps.
    pub fn medium() -> Self {
        GenSize { inputs: 6, branches: 24, loop_iters: 4, threads: 3, locks: 3 }
    }
}

impl Default for GenSize {
    fn default() -> Self {
        GenSize::small()
    }
}

/// Full generator configuration: the determinism contract is that equal
/// configs produce byte-identical programs and equal ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// PRNG seed driving magic values, branch constants and buffer sizes.
    pub seed: u64,
    /// Which bug to inject.
    pub kind: InjectedBugKind,
    /// Structural size of the program around the bug.
    pub size: GenSize,
}

impl GenConfig {
    /// A config at the smoke-corpus size.
    pub fn new(seed: u64, kind: InjectedBugKind) -> Self {
        GenConfig { seed, kind, size: GenSize::small() }
    }
}

/// The minimal adverse interleaving that (together with the arming inputs)
/// makes the injected bug manifest — a human- and harness-readable hint, not
/// a replayable schedule (the synthesized execution file is that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleHint {
    /// Any schedule manifests the bug once the arming inputs are in place
    /// (single-threaded reachability).
    AnySchedule,
    /// Each listed thread must be preempted while blocked acquiring its
    /// inner lock at the given location (hold-and-wait on both sides).
    HoldAndWait {
        /// The blocked-lock locations, one per deadlocked thread.
        locs: Vec<Loc>,
    },
    /// A worker must be preempted between the racy load and the racy store
    /// so another worker's increment is lost.
    PreemptBetween {
        /// The unsynchronized load of the shared counter.
        load: Loc,
        /// The unsynchronized store that clobbers the lost update.
        store: Loc,
    },
}

/// Everything the differential harness needs to judge a synthesis result
/// against the injected bug.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The injected bug kind.
    pub kind: InjectedBugKind,
    /// The synthesis goal derived from the injection site(s).
    pub goal: GoalSpec,
    /// The goal locations (the faulting instruction for crashes, the
    /// blocked-lock locations for the deadlock).
    pub goal_locs: Vec<Loc>,
    /// The `fault_tag` values a correct report may carry.
    pub expected_fault_tags: &'static [&'static str],
    /// The `((thread, seq), value)` input words that arm the bug — a correct
    /// synthesized execution must contain exactly these values at these
    /// input positions.
    pub triggering_inputs: Vec<((u32, u32), i64)>,
    /// The minimal adverse interleaving on top of the inputs.
    pub schedule_hint: ScheduleHint,
    /// Whether the search needs lockset-race-directed preemptions
    /// (`EsdOptions::with_race_detection`) to reach the goal.
    pub needs_race_preemptions: bool,
}

impl GroundTruth {
    /// Checks a synthesized execution against the ground truth; an `Err`
    /// describes the mismatch. This is the harness's false-positive oracle:
    /// a configuration only counts as having found the bug when the fault
    /// tag, the fault location and the arming inputs all match what was
    /// injected.
    pub fn matches(&self, execution: &SynthesizedExecution) -> Result<(), String> {
        if !self.expected_fault_tags.contains(&execution.fault_tag.as_str()) {
            return Err(format!(
                "fault tag {:?} does not match the injected {} bug (expected one of {:?})",
                execution.fault_tag, self.kind, self.expected_fault_tags
            ));
        }
        // Deadlock executions carry no single faulting location; for every
        // crash-manifesting kind the faulting instruction must be the
        // injection site.
        if self.kind != InjectedBugKind::AbbaDeadlock {
            match execution.fault_loc {
                Some(loc) if loc == self.goal_locs[0] => {}
                other => {
                    return Err(format!(
                        "fault location {other:?} is not the injection site {:?}",
                        self.goal_locs[0]
                    ));
                }
            }
        }
        for ((thread, seq), value) in &self.triggering_inputs {
            let got = execution
                .inputs
                .iter()
                .find(|i| i.thread == *thread && i.seq == *seq)
                .map(|i| i.value);
            if got != Some(*value) {
                return Err(format!(
                    "arming input (thread {thread}, seq {seq}) is {got:?}, expected {value}"
                ));
            }
        }
        Ok(())
    }
}

/// A generated program together with its ground truth.
#[derive(Clone)]
pub struct GeneratedWorkload {
    /// Stable name encoding seed, kind and size
    /// (`genbug_<kind>_s<seed>_b<branches>_t<threads>`).
    pub name: String,
    /// The generated program.
    pub program: Program,
    /// The injected bug's ground truth.
    pub truth: GroundTruth,
}

impl GeneratedWorkload {
    /// Bridges to the hand-built [`Workload`] shape so generated programs
    /// can ride every harness that consumes one (`stress_test`,
    /// `capture_coredump`, the bench tables).
    pub fn to_workload(&self) -> Workload {
        Workload {
            name: self.name.clone(),
            paper_reference: format!("generated {} workload (genbug)", self.truth.kind),
            kind: match self.truth.kind {
                InjectedBugKind::AbbaDeadlock => WorkloadKind::Hang,
                _ => WorkloadKind::Crash,
            },
            program: self.program.clone(),
            goal_locs: self.truth.goal_locs.clone(),
            failing_inputs: Some(self.truth.triggering_inputs.clone()),
            paper_synth_time_secs: None,
        }
    }
}

/// Generates one program with exactly one injected bug of `config.kind`.
///
/// Every program shares the same skeleton — read `inputs` symbolic words,
/// run `branches` input-dependent distractor diamonds and a bounded counting
/// loop, compute the arming condition (`in0 == magic0 && in1 == magic1`),
/// spawn `threads` workers that contend on shared locks, join them — and
/// differs only in where the bug is spliced in:
///
/// * [`CrashOnPath`](InjectedBugKind::CrashOnPath) — `main`'s tail
///   dereferences null when armed;
/// * [`AbbaDeadlock`](InjectedBugKind::AbbaDeadlock) — worker 2 takes the
///   two deadlock locks in reverse order when armed;
/// * [`DataRace`](InjectedBugKind::DataRace) — armed workers increment the
///   shared counter without the lock, and `main` asserts no increment was
///   lost;
/// * [`OutOfBounds`](InjectedBugKind::OutOfBounds) — `main`'s tail stores
///   past the end of a buffer when armed (masked in bounds otherwise).
pub fn generate(config: &GenConfig) -> GeneratedWorkload {
    let kind = config.kind;
    let kind_salt = InjectedBugKind::ALL.iter().position(|k| *k == kind).unwrap() as u64;
    let mut rng = StdRng::seed_from_u64(config.seed ^ (kind_salt << 56).wrapping_add(kind_salt));
    let inputs = config.size.inputs.max(4);
    let branches = config.size.branches;
    let loop_iters = config.size.loop_iters.clamp(1, 8);
    let threads = config.size.threads.clamp(2, 8);
    let locks = config.size.locks.clamp(2, 8);

    let name = format!("genbug_{}_s{}_b{branches}_t{threads}", kind.slug(), config.seed);
    let mut pb = ProgramBuilder::new(&name);

    // Shared globals of the skeleton.
    let input_globals: Vec<_> = (0..inputs).map(|i| pb.global(&format!("in{i}"), 1)).collect();
    let lock_globals: Vec<_> = (0..locks).map(|i| pb.global(&format!("lock{i}"), 1)).collect();
    let armed = pb.global("armed", 1);
    let scratch = pb.global("scratch", 4);
    // Kind-specific globals.
    let counter = (kind == InjectedBugKind::DataRace).then(|| pb.global("counter", 1));
    let buf_size: i64 = if rng.gen_bool(0.5) { 4 } else { 8 };
    let buffer = (kind == InjectedBugKind::OutOfBounds).then(|| pb.global("buf", buf_size as u32));

    // The two magic input words that arm the bug.
    let magic0: i64 = rng.gen_range(1..120);
    let magic1: i64 = rng.gen_range(1..120);
    // Pre-draw per-branch constants so worker-definition draws (which vary
    // by kind) never shift the distractor constants.
    let branch_consts: Vec<i64> = (0..branches).map(|_| rng.gen_range(0..120)).collect();
    let oob_offset: i64 = buf_size + rng.gen_range(0..4i64);

    // worker(id): benign lock-guarded busy work, plus the bug body for the
    // concurrency kinds. The benign lock is the *last* lock global so it
    // never participates in the injected deadlock's AB/BA pair.
    let worker = pb.declare("worker", 1);
    let mut deadlock_locs: Vec<Loc> = Vec::new();
    let mut race_load_loc = None;
    let mut race_store_loc = None;
    pb.define(worker, |f| {
        let id = f.param(0);
        let benign = f.addr_global(lock_globals[(locks - 1) as usize]);
        let sp = f.addr_global(scratch);
        // Benign phase: guarded scratch increment with a yield inside the
        // critical section, so workers genuinely contend.
        f.lock(benign);
        let s = f.load(sp);
        let s1 = f.add(s, 1);
        f.yield_now();
        f.store(sp, s1);
        f.unlock(benign);
        match kind {
            InjectedBugKind::AbbaDeadlock => {
                let armp = f.addr_global(armed);
                let l0 = f.addr_global(lock_globals[0]);
                let l1 = f.addr_global(lock_globals[1]);
                let is_armed = f.load(armp);
                let is_second = f.cmp(CmpOp::Eq, id, 2);
                let reversed = f.bin(BinOp::And, is_armed, is_second);
                let forward = f.new_block("forward_order");
                let reverse = f.new_block("reverse_order");
                let done = f.new_block("lock_done");
                f.cond_br(reversed, reverse, forward);
                f.switch_to(forward);
                f.lock(l0);
                f.yield_now();
                deadlock_locs.push(f.here());
                f.lock(l1);
                f.unlock(l1);
                f.unlock(l0);
                f.br(done);
                f.switch_to(reverse);
                f.lock(l1);
                f.yield_now();
                deadlock_locs.push(f.here());
                f.lock(l0);
                f.unlock(l0);
                f.unlock(l1);
                f.br(done);
                f.switch_to(done);
            }
            InjectedBugKind::DataRace => {
                let armp = f.addr_global(armed);
                let cp = f.addr_global(counter.unwrap());
                let is_armed = f.load(armp);
                f.diamond(
                    "racy",
                    is_armed,
                    |t| {
                        // The injected race: unsynchronized read-modify-write
                        // of the shared counter; losing the preempted
                        // increment is what the final assertion catches.
                        race_load_loc = Some(t.here());
                        let v = t.load(cp);
                        let v1 = t.add(v, 1);
                        t.yield_now();
                        race_store_loc = Some(t.here());
                        t.store(cp, v1);
                    },
                    |e| {
                        let lk = e.addr_global(lock_globals[0]);
                        e.lock(lk);
                        let v = e.load(cp);
                        let v1 = e.add(v, 1);
                        e.store(cp, v1);
                        e.unlock(lk);
                    },
                );
            }
            InjectedBugKind::CrashOnPath | InjectedBugKind::OutOfBounds => {}
        }
        f.ret_void();
    });

    let main_id = pb.declare("main", 0);
    let mut goal_loc = None;
    pb.define(main_id, |f| {
        // 1. Read the symbolic inputs and publish them to globals.
        let mut input_regs = Vec::new();
        for (i, g) in input_globals.iter().enumerate() {
            let v = f.arg(i as u32);
            let gp = f.addr_global(*g);
            f.store(gp, v);
            input_regs.push(v);
        }
        let sp = f.addr_global(scratch);

        // 1b. A defensive masked range check, the shape real code guards
        // buffer indices with: `in0 & 63` can never exceed 63, so the else
        // edge is infeasible for every input. The condition stays symbolic
        // at run time — without static pruning this fork costs two solver
        // queries; with it, the interval analysis decides the branch. Fixed
        // mask, no extra RNG draws, reuses an already-read input.
        let masked0 = f.bin(BinOp::And, input_regs[0], 63);
        let in_range = f.cmp(CmpOp::Le, masked0, 63);
        f.diamond(
            "defensive",
            in_range,
            |t| {
                let cur = t.load(sp);
                let inc = t.add(cur, 1);
                t.store(sp, inc);
            },
            |e| e.nop(),
        );

        // 2. Distractor branches: input-dependent diamonds over the inputs
        // that do NOT arm the bug, so the path space grows with the branch
        // count without making the arming assignment harder to satisfy.
        for (b, k) in branch_consts.iter().enumerate() {
            let v = input_regs[2 + b % (input_regs.len() - 2)];
            let cond = f.cmp(CmpOp::Gt, v, *k);
            f.diamond(
                &format!("dis{b}"),
                cond,
                |t| {
                    let cur = t.load(sp);
                    let inc = t.add(cur, 1);
                    t.store(sp, inc);
                },
                |e| e.nop(),
            );
        }

        // 3. A bounded counting loop (constant trip count).
        let iters = f.konst(loop_iters as i64);
        let zero = f.konst(0);
        let ctr = f.local(1);
        let ctrp = f.addr_local(ctr);
        f.store(ctrp, zero);
        let header = f.new_block("loop_header");
        let body = f.new_block("loop_body");
        let exit = f.new_block("loop_exit");
        f.br(header);
        f.switch_to(header);
        let i = f.load(ctrp);
        let more = f.cmp(CmpOp::Lt, i, iters);
        f.cond_br(more, body, exit);
        f.switch_to(body);
        let cur = f.load(sp);
        let inc = f.add(cur, 1);
        f.store(sp, inc);
        let i1 = f.add(i, 1);
        f.store(ctrp, i1);
        f.br(header);
        f.switch_to(exit);

        // 4. The arming condition, published for the workers.
        let c0 = f.cmp(CmpOp::Eq, input_regs[0], magic0);
        let c1 = f.cmp(CmpOp::Eq, input_regs[1], magic1);
        let both = f.bin(BinOp::And, c0, c1);
        let armp = f.addr_global(armed);
        f.store(armp, both);

        // 5. Spawn and join the workers.
        let handles: Vec<_> = (0..threads).map(|t| f.spawn(worker, (t + 1) as i64)).collect();
        for h in handles {
            f.join(h);
        }

        // 6. The kind-specific tail.
        let is_armed = f.load(armp);
        match kind {
            InjectedBugKind::CrashOnPath => {
                f.diamond(
                    "bug",
                    is_armed,
                    |t| {
                        // The injected crash: dereference null on the armed
                        // path.
                        let null = t.konst(0);
                        goal_loc = Some(t.here());
                        let v = t.load(null);
                        t.output(v);
                    },
                    |e| e.nop(),
                );
            }
            InjectedBugKind::OutOfBounds => {
                let bp = f.addr_global(buffer.unwrap());
                let mask = f.konst(buf_size - 1);
                f.diamond(
                    "bug",
                    is_armed,
                    |t| {
                        // The injected overflow: a store past the buffer end.
                        let off = t.konst(oob_offset);
                        let p = t.gep(bp, off);
                        goal_loc = Some(t.here());
                        t.store(p, 9);
                    },
                    |e| {
                        let idx = e.bin(BinOp::And, input_regs[2], mask);
                        let p = e.gep(bp, idx);
                        e.store(p, 7);
                    },
                );
            }
            InjectedBugKind::DataRace => {
                let cp = f.addr_global(counter.unwrap());
                let v = f.load(cp);
                let ok = f.cmp(CmpOp::Eq, v, threads as i64);
                goal_loc = Some(f.here());
                f.assert(ok, "no increment may be lost");
            }
            InjectedBugKind::AbbaDeadlock => {}
        }
        f.ret_void();
    });

    let program = pb.finish("main");
    let triggering_inputs = vec![((0, 0), magic0), ((0, 1), magic1)];
    let truth = match kind {
        InjectedBugKind::AbbaDeadlock => GroundTruth {
            kind,
            goal: GoalSpec::Deadlock { thread_locs: deadlock_locs.clone() },
            goal_locs: deadlock_locs.clone(),
            expected_fault_tags: kind.expected_fault_tags(),
            triggering_inputs,
            schedule_hint: ScheduleHint::HoldAndWait { locs: deadlock_locs },
            needs_race_preemptions: false,
        },
        InjectedBugKind::DataRace => {
            let loc = goal_loc.unwrap();
            GroundTruth {
                kind,
                goal: GoalSpec::Crash { loc },
                goal_locs: vec![loc],
                expected_fault_tags: kind.expected_fault_tags(),
                triggering_inputs,
                schedule_hint: ScheduleHint::PreemptBetween {
                    load: race_load_loc.unwrap(),
                    store: race_store_loc.unwrap(),
                },
                needs_race_preemptions: true,
            }
        }
        InjectedBugKind::CrashOnPath | InjectedBugKind::OutOfBounds => {
            let loc = goal_loc.unwrap();
            GroundTruth {
                kind,
                goal: GoalSpec::Crash { loc },
                goal_locs: vec![loc],
                expected_fault_tags: kind.expected_fault_tags(),
                triggering_inputs,
                schedule_hint: ScheduleHint::AnySchedule,
                needs_race_preemptions: false,
            }
        }
    };
    GeneratedWorkload { name, program, truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_core::{Esd, EsdOptions};
    use esd_ir::printer::print_program;
    use esd_ir::validate::validate;

    #[test]
    fn every_kind_generates_a_valid_program() {
        for kind in InjectedBugKind::ALL {
            for seed in [0u64, 1, 42, u64::MAX] {
                let w = generate(&GenConfig::new(seed, kind));
                validate(&w.program).unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
                assert!(!w.truth.goal_locs.is_empty(), "{}", w.name);
                assert_eq!(w.truth.triggering_inputs.len(), 2, "{}", w.name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        for kind in InjectedBugKind::ALL {
            let a = generate(&GenConfig::new(7, kind));
            let b = generate(&GenConfig::new(7, kind));
            assert_eq!(print_program(&a.program), print_program(&b.program));
            assert_eq!(a.truth.triggering_inputs, b.truth.triggering_inputs);
            assert_eq!(a.truth.goal_locs, b.truth.goal_locs);
            let c = generate(&GenConfig::new(8, kind));
            assert_ne!(
                print_program(&a.program),
                print_program(&c.program),
                "{kind}: different seeds must change the program"
            );
        }
    }

    #[test]
    fn kinds_share_a_seed_but_not_a_program() {
        let crash = generate(&GenConfig::new(3, InjectedBugKind::CrashOnPath));
        let oob = generate(&GenConfig::new(3, InjectedBugKind::OutOfBounds));
        assert_ne!(print_program(&crash.program), print_program(&oob.program));
    }

    #[test]
    fn proximity_synthesizes_each_injected_bug_and_the_truth_matches() {
        for kind in InjectedBugKind::ALL {
            let w = generate(&GenConfig::new(11, kind));
            let esd = Esd::new(
                EsdOptions::builder()
                    .max_steps(2_000_000)
                    .with_race_detection(w.truth.needs_race_preemptions)
                    .build(),
            );
            let report = esd
                .synthesize_goal(&w.program, w.truth.goal.clone())
                .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
            w.truth
                .matches(&report.execution)
                .unwrap_or_else(|e| panic!("{}: ground truth mismatch: {e}", w.name));
        }
    }

    #[test]
    fn stress_testing_misses_the_injected_bugs() {
        // The generator's analog of the paper's §7.2/§7.3 calibration: the
        // bugs need rare inputs (and, for the concurrency kinds, an adverse
        // schedule), so a bounded random campaign comes up empty.
        for kind in InjectedBugKind::ALL {
            let w = generate(&GenConfig::new(5, kind)).to_workload();
            let out = esd_core::stress_test(
                &w.program,
                &esd_core::StressConfig {
                    runs: 30,
                    max_steps_per_run: 20_000,
                    ..Default::default()
                },
            );
            assert!(!out.failed(), "{}: stress testing should not trip the bug", w.name);
        }
    }
}
