//! The BPF microbenchmark generator (§7.3).
//!
//! BPF "produces synthetic programs that hang and/or crash. These programs
//! have conditional branch instructions that depend on program inputs. When
//! using more than one thread, the crash/hang scenarios depend on both the
//! thread schedule and program inputs." The generator exposes the paper's
//! five knobs: number of inputs, number of branches, number of
//! input-dependent branches, number of threads and number of shared locks,
//! and injects exactly one deadlock whose manifestation requires both a
//! specific input assignment and an adverse interleaving.

use crate::real_bugs::{Workload, WorkloadKind};
use esd_ir::{BinOp, CmpOp, Loc, ProgramBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters (the paper's five knobs plus a seed).
#[derive(Debug, Clone)]
pub struct BpfConfig {
    /// Number of program inputs read at startup.
    pub inputs: u32,
    /// Total number of conditional branches in the generated program.
    pub branches: u32,
    /// How many of the branches depend (directly or indirectly) on inputs;
    /// the rest compare constants. The paper's experiments use all of them
    /// input-dependent.
    pub dependent_branches: u32,
    /// Number of worker threads (the paper's experiments use 2).
    pub threads: u32,
    /// Number of shared locks (the paper's experiments use 2).
    pub locks: u32,
    /// PRNG seed controlling the branch constants and shapes.
    pub seed: u64,
}

impl Default for BpfConfig {
    fn default() -> Self {
        BpfConfig { inputs: 8, branches: 64, dependent_branches: 64, threads: 2, locks: 2, seed: 7 }
    }
}

/// Generates one BPF program together with its deadlock goal.
pub fn generate_bpf(config: &BpfConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let inputs = config.inputs.max(4);
    let threads = config.threads.max(2);
    let locks = config.locks.max(2);

    let mut pb = ProgramBuilder::new(&format!(
        "bpf_b{}_i{}_t{}_l{}",
        config.branches, inputs, threads, locks
    ));
    let input_globals: Vec<_> = (0..inputs).map(|i| pb.global(&format!("input{i}"), 1)).collect();
    let lock_globals: Vec<_> = (0..locks).map(|i| pb.global(&format!("lock{i}"), 1)).collect();
    let enable = pb.global("deadlock_enable", 1);
    let scratch = pb.global("scratch", 4);

    // The two magic values that arm the deadlock.
    let magic0: i64 = rng.gen_range(1..120);
    let magic1: i64 = rng.gen_range(1..120);

    // worker(id): branchy work, then the lock phase. Worker 1 takes
    // lock0 → lock1; worker 2 takes lock1 → lock0, but only when the
    // deadlock is armed; otherwise everyone takes lock0 → lock1.
    let worker = pb.declare("worker", 1);
    let mut inner_a = None;
    let mut inner_b = None;
    pb.define(worker, |f| {
        let id = f.param(0);
        let enp = f.addr_global(enable);
        let l0 = f.addr_global(lock_globals[0]);
        let l1 = f.addr_global(lock_globals[1]);
        // A little per-thread busy work guarded by the shared scratch data.
        let sp = f.addr_global(scratch);
        let s = f.load(sp);
        let positive = f.cmp(CmpOp::Gt, s, 0);
        let work = f.new_block("work");
        let idle = f.new_block("idle");
        let phase = f.new_block("lock_phase");
        f.cond_br(positive, work, idle);
        f.switch_to(work);
        f.yield_now();
        f.br(phase);
        f.switch_to(idle);
        f.nop();
        f.br(phase);
        f.switch_to(phase);
        let armed = f.load(enp);
        let is_second = f.cmp(CmpOp::Eq, id, 2);
        let inverted = f.bin(BinOp::And, armed, is_second);
        let path_a = f.new_block("forward_order");
        let path_b = f.new_block("reverse_order");
        let done = f.new_block("done");
        f.cond_br(inverted, path_b, path_a);
        f.switch_to(path_a);
        f.lock(l0);
        f.yield_now();
        inner_a = Some(Loc::new(worker, path_a, f.next_inst_idx()));
        f.lock(l1);
        f.unlock(l1);
        f.unlock(l0);
        f.br(done);
        f.switch_to(path_b);
        f.lock(l1);
        f.yield_now();
        inner_b = Some(Loc::new(worker, path_b, f.next_inst_idx()));
        f.lock(l0);
        f.unlock(l0);
        f.unlock(l1);
        f.br(done);
        f.switch_to(done);
        f.ret_void();
    });

    let main_id = pb.declare("main", 0);
    pb.define(main_id, |f| {
        // Read the inputs into globals.
        let mut input_regs = Vec::new();
        for (i, g) in input_globals.iter().enumerate() {
            let v = f.arg(i as u32);
            let gp = f.addr_global(*g);
            f.store(gp, v);
            input_regs.push(v);
        }
        let sp = f.addr_global(scratch);

        // The branch chain: `branches` conditional branches, the first
        // `dependent_branches` of which compare an input word against a
        // generated constant; the rest compare constants (and fold away at
        // run time, as dead conditions do in real code).
        let total = config.branches.saturating_sub(2); // two more come below
        for b in 0..total {
            let dependent = b < config.dependent_branches;
            let cond = if dependent {
                // Distractor branches read the inputs that do NOT arm the
                // deadlock (inputs 0 and 1 are reserved for arming), so the
                // path space grows with the branch count without making the
                // deadlock-arming assignment itself harder to satisfy.
                let v = input_regs[2 + (b as usize) % (input_regs.len() - 2)];
                let k: i64 = rng.gen_range(0..128);
                f.cmp(CmpOp::Gt, v, k)
            } else {
                let k: i64 = rng.gen_range(0..2);
                f.cmp(CmpOp::Eq, k, 1)
            };
            let t = f.new_block(&format!("b{b}_t"));
            let e = f.new_block(&format!("b{b}_e"));
            let j = f.new_block(&format!("b{b}_j"));
            f.cond_br(cond, t, e);
            f.switch_to(t);
            let cur = f.load(sp);
            let inc = f.add(cur, 1);
            f.store(sp, inc);
            f.br(j);
            f.switch_to(e);
            f.nop();
            f.br(j);
            f.switch_to(j);
        }

        // Arm the deadlock only for one specific input combination.
        let c0 = f.cmp(CmpOp::Eq, input_regs[0], magic0);
        let c1 = f.cmp(CmpOp::Eq, input_regs[1], magic1);
        let both = f.bin(BinOp::And, c0, c1);
        let arm = f.new_block("arm");
        let disarm = f.new_block("disarm");
        let spawn_bb = f.new_block("spawn");
        f.cond_br(both, arm, disarm);
        f.switch_to(arm);
        let enp = f.addr_global(enable);
        f.store(enp, 1);
        f.br(spawn_bb);
        f.switch_to(disarm);
        f.nop();
        f.br(spawn_bb);
        f.switch_to(spawn_bb);
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = f.spawn(worker, (t + 1) as i64);
            handles.push(h);
        }
        for h in handles {
            f.join(h);
        }
        f.ret_void();
    });

    let program = pb.finish("main");
    Workload {
        name: program.name.clone(),
        paper_reference: format!(
            "BPF synthetic program ({} branches, {} inputs, {} threads, {} locks)",
            config.branches, inputs, threads, locks
        ),
        kind: WorkloadKind::Hang,
        goal_locs: vec![inner_a.unwrap(), inner_b.unwrap()],
        failing_inputs: Some(vec![((0, 0), magic0), ((0, 1), magic1)]),
        paper_synth_time_secs: None,
        program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_core::{stress_test, Esd, EsdOptions, StressConfig};

    #[test]
    fn generated_programs_scale_with_the_branch_knob() {
        let sizes: Vec<usize> = [8u32, 32, 128]
            .iter()
            .map(|b| {
                generate_bpf(&BpfConfig { branches: *b, ..Default::default() }).program.num_insts()
            })
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_bpf(&BpfConfig::default());
        let b = generate_bpf(&BpfConfig::default());
        assert_eq!(a.program.num_insts(), b.program.num_insts());
        assert_eq!(
            esd_ir::printer::print_program(&a.program),
            esd_ir::printer::print_program(&b.program)
        );
        assert_eq!(a.failing_inputs, b.failing_inputs);
        let c = generate_bpf(&BpfConfig { seed: 99, ..Default::default() });
        assert_ne!(a.failing_inputs, c.failing_inputs);
    }

    #[test]
    fn stress_testing_does_not_reproduce_the_bpf_deadlock() {
        // The §7.3 calibration: "we ran stress tests for one hour on each
        // program; neither of them deadlocked". A bounded random campaign
        // must come up empty here too.
        let w = generate_bpf(&BpfConfig { branches: 16, ..Default::default() });
        let out = stress_test(
            &w.program,
            &StressConfig { runs: 40, max_steps_per_run: 50_000, ..Default::default() },
        );
        assert!(!out.failed());
    }

    #[test]
    fn esd_synthesizes_the_bpf_deadlock_on_a_small_config() {
        let w = generate_bpf(&BpfConfig { branches: 16, ..Default::default() });
        let esd = Esd::new(EsdOptions::builder().max_steps(3_000_000).build());
        let result = esd.synthesize_goal(&w.program, w.goal()).expect("bpf deadlock");
        assert_eq!(result.execution.fault_tag, "deadlock");
        // The synthesized inputs must include the two magic values.
        let magic = w.failing_inputs.unwrap();
        for ((t, s), v) in magic {
            let got = result
                .execution
                .inputs
                .iter()
                .find(|i| i.thread == t && i.seq == s)
                .map(|i| i.value);
            assert_eq!(got, Some(v));
        }
    }
}
