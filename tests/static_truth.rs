//! Truth oracle for the CFGs, the cost model and the per-goal distance maps.
//!
//! The static phase builds Algorithm 1's inputs with fast passes: CFGs in
//! compressed rows, instruction costs as prefix sums priced callee-first
//! over the call graph's SCCs, and distance maps by a callee-first worklist
//! that recomputes a function only when a callee's entry distance drops.
//! This test recomputes each fact the slow, obvious way and demands
//! equality:
//!
//! * every CFG row against the terminators;
//! * every instruction cost against its definition from the callee costs
//!   (recursion and call targets found here by brute force), and every
//!   block prefix and suffix cost against sums of instruction costs;
//! * `dist2ret` at every location, and every function cost, against a
//!   Bellman-Ford walk to the nearest return;
//! * the distance maps of every final and intermediate goal against a
//!   Bellman-Ford over (function, block) nodes of the whole program, run to
//!   convergence, and `distance_from` at every location against those
//!   nodes.
//!
//! The programs: the static-facts golden's corpus, plus programs built here
//! with mutual recursion, indirect calls and an indirect spawn, whose every
//! location is also tried as a goal.

use esd::analysis::{DistanceOracle, StaticAnalysis, INF, RECURSION_COST};
use esd::ir::{
    BlockId, Callee, CmpOp, FuncId, Inst, Loc, Operand, Program, ProgramBuilder, Terminator,
};
use esd::workloads::genbug::{generate, GenConfig, GenSize, InjectedBugKind};
use esd::workloads::{all_real_bugs, generate_bpf, BpfConfig};
use std::sync::Arc;

fn sat(a: u64, b: u64) -> u64 {
    a.saturating_add(b).min(INF)
}

/// The golden's corpus: every real-bug analog, the smoke seeds and two
/// medium seeds per bug kind, and BPF at 128 and 512 branches.
fn corpus() -> Vec<(String, Program, Vec<Loc>)> {
    let mut workloads = all_real_bugs();
    for seed in esd_bench::coverage::smoke_seeds() {
        for kind in InjectedBugKind::ALL {
            workloads.push(generate(&GenConfig::new(seed, kind)).to_workload());
        }
    }
    for seed in [2, 11] {
        for kind in InjectedBugKind::ALL {
            let config = GenConfig { seed, kind, size: GenSize::medium() };
            workloads.push(generate(&config).to_workload());
        }
    }
    for branches in [128, 512] {
        workloads.push(generate_bpf(&BpfConfig { branches, ..BpfConfig::default() }));
    }
    workloads.into_iter().map(|w| (w.name, w.program, w.goal_locs)).collect()
}

/// Call targets and recursion, found by brute force from the instructions.
struct Calls {
    address_taken: Vec<FuncId>,
    /// `reaches[f][t]`: some chain of calls or spawns leads from `f` to `t`.
    reaches: Vec<Vec<bool>>,
}

impl Calls {
    fn new(program: &Program) -> Self {
        let mut address_taken: Vec<FuncId> = insts(program)
            .filter_map(|(_, inst)| match inst {
                Inst::FuncAddr { func, .. } => Some(*func),
                _ => None,
            })
            .collect();
        address_taken.sort();
        address_taken.dedup();
        let mut calls = Calls { address_taken, reaches: Vec::new() };
        let n = program.functions.len();
        let mut edges = vec![Vec::new(); n];
        for (loc, inst) in insts(program) {
            edges[loc.func.0 as usize].extend(calls.targets(program, inst));
        }
        for f in 0..n {
            let mut seen = vec![false; n];
            let mut stack = edges[f].clone();
            while let Some(t) = stack.pop() {
                if !std::mem::replace(&mut seen[t.0 as usize], true) {
                    stack.extend(edges[t.0 as usize].iter().copied());
                }
            }
            calls.reaches.push(seen);
        }
        calls
    }

    /// Functions `inst` may enter: a direct callee, or every address-taken
    /// function of the right arity (a spawned function takes one argument).
    fn targets(&self, program: &Program, inst: &Inst) -> Vec<FuncId> {
        let (callee, arity) = match inst {
            Inst::Call { callee, args, .. } => (callee, args.len()),
            Inst::ThreadSpawn { func, .. } => (func, 1),
            _ => return Vec::new(),
        };
        match callee {
            Callee::Direct(t) => vec![*t],
            Callee::Indirect(_) => self
                .address_taken
                .iter()
                .copied()
                .filter(|t| program.func(*t).num_params as usize == arity)
                .collect(),
        }
    }

    fn recursive(&self, caller: FuncId, callee: FuncId) -> bool {
        caller == callee
            || (self.reaches[caller.0 as usize][callee.0 as usize]
                && self.reaches[callee.0 as usize][caller.0 as usize])
    }
}

/// Every instruction of `program` with its location.
fn insts(program: &Program) -> impl Iterator<Item = (Loc, &Inst)> {
    program.func_ids().flat_map(move |f| {
        program.func(f).blocks.iter().enumerate().flat_map(move |(bi, block)| {
            block
                .insts
                .iter()
                .enumerate()
                .map(move |(i, inst)| (Loc::new(f, BlockId(bi as u32), i as u32), inst))
        })
    })
}

/// Per block, the running sums of the (checked) instruction costs:
/// `sums[f][b][i]` is the cost of the block's first `i` instructions.
type Sums = Vec<Vec<Vec<u64>>>;

/// Checks the CFG rows against the terminators.
fn check_cfgs(name: &str, program: &Program, sa: &StaticAnalysis) {
    for f in program.func_ids() {
        let function = program.func(f);
        let cfg = &sa.facts.cfgs[f.0 as usize];
        assert_eq!(cfg.num_blocks(), function.blocks.len(), "{name}: {f:?} block count");
        for b in function.block_ids() {
            let succs: Vec<BlockId> = function.block(b).term.successors().collect();
            assert_eq!(cfg.succs(b), succs.as_slice(), "{name}: successors of {f:?}:{b:?}");
            let preds: Vec<BlockId> = function
                .block_ids()
                .flat_map(|p| {
                    function.block(p).term.successors().filter(|s| *s == b).map(move |_| p)
                })
                .collect();
            assert_eq!(cfg.preds(b), preds.as_slice(), "{name}: predecessors of {f:?}:{b:?}");
        }
    }
}

/// Checks instruction, block, function and return costs against their
/// definitions; returns the running sums the distance checks build on.
fn check_costs(name: &str, program: &Program, sa: &StaticAnalysis, calls: &Calls) -> Sums {
    let costs = &sa.facts.costs;
    let mut sums = Sums::new();
    for f in program.func_ids() {
        let function = program.func(f);
        let mut per_block = Vec::new();
        for b in function.block_ids() {
            let block = function.block(b);
            let mut running = vec![0u64];
            for (i, inst) in block.insts.iter().enumerate() {
                let expected = match inst {
                    Inst::Call { callee, .. } => {
                        let cost = match callee {
                            Callee::Direct(t) if calls.recursive(f, *t) => RECURSION_COST,
                            Callee::Direct(t) => costs.func_cost(*t),
                            Callee::Indirect(_) => {
                                let priced: Vec<u64> = calls
                                    .targets(program, inst)
                                    .into_iter()
                                    .filter(|t| !calls.recursive(f, *t))
                                    .map(|t| costs.func_cost(t).min(RECURSION_COST))
                                    .collect();
                                if priced.is_empty() {
                                    RECURSION_COST
                                } else {
                                    priced.iter().sum::<u64>() / priced.len() as u64
                                }
                            }
                        };
                        sat(1, cost.min(10 * RECURSION_COST))
                    }
                    _ => 1,
                };
                let loc = Loc::new(f, b, i as u32);
                assert_eq!(costs.inst_cost(loc), expected, "{name}: inst_cost at {loc:?}");
                running.push(running[i] + expected);
            }
            let len = block.insts.len();
            assert_eq!(costs.inst_cost(Loc::new(f, b, len as u32)), 1, "{name}: terminator cost");
            for idx in 0..=len + 1 {
                let upto = running[idx.min(len)];
                let (prefix, suffix) = (upto, 1 + running[len] - upto);
                let at = Loc::new(f, b, idx as u32);
                assert_eq!(costs.block_prefix_cost(f, b, idx as u32), prefix, "{name}: {at:?}");
                assert_eq!(costs.block_suffix_cost(f, b, idx as u32), suffix, "{name}: {at:?}");
            }
            assert_eq!(costs.block_cost(f, b), 1 + running[len], "{name}: {f:?}:{b:?} cost");
            per_block.push(running);
        }

        // Bellman-Ford to the nearest return, from each block's start.
        let block_cost = |b: usize| 1 + per_block[b].last().copied().unwrap_or(0);
        let mut to_ret = vec![INF; function.blocks.len()];
        loop {
            let mut changed = false;
            for b in (0..function.blocks.len()).rev() {
                let term = &function.blocks[b].term;
                let mut best =
                    if matches!(term, Terminator::Ret { .. }) { block_cost(b) } else { INF };
                for s in term.successors() {
                    best = best.min(sat(block_cost(b), to_ret[s.0 as usize]));
                }
                if best < to_ret[b] {
                    to_ret[b] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let entry_cost = to_ret.first().copied().unwrap_or(INF);
        assert_eq!(costs.func_cost(f), entry_cost, "{name}: func_cost of {f:?}");
        for (bi, block) in function.blocks.iter().enumerate() {
            let after = if matches!(block.term, Terminator::Ret { .. }) {
                0
            } else {
                block.term.successors().map(|s| to_ret[s.0 as usize]).min().unwrap_or(INF)
            };
            let running = &per_block[bi];
            let len = block.insts.len();
            for idx in 0..=len {
                let loc = Loc::new(f, BlockId(bi as u32), idx as u32);
                let suffix = 1 + running[len] - running[idx];
                assert_eq!(costs.dist2ret(loc), sat(suffix, after), "{name}: {loc:?}");
            }
        }
        sums.push(per_block);
    }
    sums
}

/// Least cost from instruction `from` of block `b` of `f` to `goal` without
/// leaving the block through its terminator, over the node distances `d`.
fn within_block(
    program: &Program,
    calls: &Calls,
    sums: &Sums,
    d: &[Vec<u64>],
    goal: Loc,
    (f, b, from): (FuncId, BlockId, usize),
) -> u64 {
    let running = &sums[f.0 as usize][b.0 as usize];
    let mut best = INF;
    if (f, b) == (goal.func, goal.block) && from <= goal.idx as usize {
        best = running[(goal.idx as usize).min(running.len() - 1)] - running[from];
    }
    for (i, inst) in program.func(f).block(b).insts.iter().enumerate().skip(from) {
        for t in calls.targets(program, inst) {
            best = best.min(sat(sat(running[i] - running[from], 1), d[t.0 as usize][0]));
        }
    }
    best
}

/// Bellman-Ford over every (function, block) node: the least cost from the
/// start of each block to `goal`.
fn naive_distances(program: &Program, calls: &Calls, sums: &Sums, goal: Loc) -> Vec<Vec<u64>> {
    let mut d: Vec<Vec<u64>> =
        program.functions.iter().map(|f| vec![INF; f.blocks.len()]).collect();
    loop {
        let mut changed = false;
        for f in program.func_ids() {
            let function = program.func(f);
            for b in (0..function.blocks.len()).rev() {
                let block = BlockId(b as u32);
                let mut best = within_block(program, calls, sums, &d, goal, (f, block, 0));
                let cost = 1 + sums[f.0 as usize][b].last().copied().unwrap_or(0);
                for s in function.blocks[b].term.successors() {
                    best = best.min(sat(cost, d[f.0 as usize][s.0 as usize]));
                }
                if best < d[f.0 as usize][b] {
                    d[f.0 as usize][b] = best;
                    changed = true;
                }
            }
        }
        if !changed {
            return d;
        }
    }
}

/// Checks the oracle's maps and `distance_from` for each of `goals`.
fn check_distances(
    name: &str,
    program: &Program,
    sa: Arc<StaticAnalysis>,
    calls: &Calls,
    sums: &Sums,
    goals: &[Loc],
) {
    let oracle = DistanceOracle::new(Arc::new(program.clone()), sa);
    for &goal in goals {
        let gd = oracle.goal_distances(goal);
        let d = naive_distances(program, calls, sums, goal);
        for f in program.func_ids() {
            let fi = f.0 as usize;
            assert_eq!(gd.block_entry[fi], d[fi], "{name}: goal {goal:?}, blocks of {f:?}");
            let entry = d[fi].first().copied().unwrap_or(INF);
            assert_eq!(gd.func_entry[fi], entry, "{name}: goal {goal:?}, entry of {f:?}");
            for b in program.func(f).block_ids() {
                let block = program.func(f).block(b);
                let running = &sums[fi][b.0 as usize];
                for idx in 0..=block.insts.len() {
                    let mut expected = within_block(program, calls, sums, &d, goal, (f, b, idx));
                    let suffix = 1 + running[block.insts.len()] - running[idx];
                    for s in block.term.successors() {
                        expected = expected.min(sat(suffix, d[fi][s.0 as usize]));
                    }
                    let loc = Loc::new(f, b, idx as u32);
                    assert_eq!(
                        oracle.distance_from(&gd, loc),
                        expected,
                        "{name}: goal {goal:?}, distance from {loc:?}"
                    );
                }
            }
        }
    }
}

/// Runs every check on `program`; the distance maps are checked for the
/// final goals, the intermediate goals the static phase derives from them,
/// and `extra_goals`.
fn check_program(name: &str, program: &Program, goals: &[Loc], extra_goals: &[Loc]) {
    let sa = Arc::new(StaticAnalysis::compute_multi(program, goals));
    let calls = Calls::new(program);
    check_cfgs(name, program, &sa);
    let sums = check_costs(name, program, &sa, &calls);
    let mut all_goals: Vec<Loc> = goals.iter().chain(extra_goals).copied().collect();
    all_goals.extend(sa.goal_info.intermediate_goal_locs().into_iter().flatten());
    all_goals.sort();
    all_goals.dedup();
    check_distances(name, program, sa, &calls, &sums, &all_goals);
}

/// Every location of `program`, terminators included.
fn every_loc(program: &Program) -> Vec<Loc> {
    let mut locs = Vec::new();
    for f in program.func_ids() {
        for b in program.func(f).block_ids() {
            for idx in 0..=program.func(f).block(b).insts.len() as u32 {
                locs.push(Loc::new(f, b, idx));
            }
        }
    }
    locs
}

#[test]
fn corpus_distances_and_costs_match_a_naive_walk() {
    for (name, program, goals) in corpus() {
        check_program(&name, &program, &goals, &[]);
    }
}

/// `even` and `odd` call each other, the goal sits past the recursive call
/// in `odd`, and `main` reaches it only through `even`.
#[test]
fn mutually_recursive_distances_and_costs_match_a_naive_walk() {
    let mut pb = ProgramBuilder::new("mutual");
    let even = pb.declare("even", 1);
    let odd = pb.declare("odd", 1);
    let spin = pb.declare("spin", 0);
    pb.define(even, |f| {
        let n = f.param(0);
        let z = f.cmp(CmpOp::Le, n, 0);
        let base = f.new_block("base");
        let again = f.new_block("again");
        f.cond_br(z, base, again);
        f.switch_to(base);
        f.ret(1);
        f.switch_to(again);
        let n1 = f.sub(n, 1);
        let r = f.call(odd, vec![n1.into()]);
        f.ret(r);
    });
    pb.define(odd, |f| {
        let n = f.param(0);
        let z = f.cmp(CmpOp::Le, n, 0);
        let base = f.new_block("base");
        let again = f.new_block("again");
        f.cond_br(z, base, again);
        f.switch_to(base);
        f.ret(0);
        f.switch_to(again);
        for _ in 0..5 {
            f.nop();
        }
        let n1 = f.sub(n, 1);
        let r = f.call(even, vec![n1.into()]);
        f.output(r);
        f.ret(r);
    });
    pb.define(spin, |f| {
        let l = f.new_block("l");
        f.br(l);
        f.switch_to(l);
        f.nop();
        f.br(l);
    });
    pb.function("main", 0, |f| {
        let x = f.getchar();
        let c = f.cmp(CmpOp::Eq, x, 3);
        let rec = f.new_block("rec");
        let stuck = f.new_block("stuck");
        f.cond_br(c, rec, stuck);
        f.switch_to(rec);
        let r = f.call(even, vec![x.into()]);
        f.output(r);
        f.ret_void();
        f.switch_to(stuck);
        f.call_void(spin, vec![]);
        f.ret_void();
    });
    let p = pb.finish("main");
    let goal = Loc::new(odd, BlockId(2), 7);
    check_program("mutual", &p, &[goal], &every_loc(&p));
}

/// Indirect calls of two arities, an indirect call no function can take,
/// an indirect spawn, and a pointer-called function that recurses through
/// its caller.
#[test]
fn indirect_call_distances_and_costs_match_a_naive_walk() {
    let mut pb = ProgramBuilder::new("indirect");
    let main = pb.declare("main", 0);
    let short = pb.declare("short", 1);
    let long = pb.declare("long", 1);
    let pair = pb.declare("pair", 2);
    let back = pb.declare("back", 1);
    pb.define(short, |f| {
        f.output(f.param(0));
        f.ret_void();
    });
    pb.define(long, |f| {
        for _ in 0..12 {
            f.nop();
        }
        f.output(f.param(0));
        f.ret_void();
    });
    pb.define(pair, |f| {
        let s = f.add(f.param(0), f.param(1));
        f.output(s);
        f.ret_void();
    });
    pb.define(back, |f| {
        let n = f.param(0);
        let z = f.cmp(CmpOp::Le, n, 0);
        let out = f.new_block("out");
        let again = f.new_block("again");
        f.cond_br(z, out, again);
        f.switch_to(out);
        f.ret_void();
        f.switch_to(again);
        let fp = f.func_addr(long);
        f.call_indirect(fp, vec![Operand::Const(1)]);
        f.call_void(main, vec![]);
        f.ret_void();
    });
    let mut short_ptr = None;
    pb.define(main, |f| {
        let fs = f.func_addr(short);
        short_ptr = Some(fs);
        f.func_addr(back);
        let fp = f.func_addr(pair);
        let x = f.getchar();
        let c = f.cmp(CmpOp::Eq, x, 1);
        let one = f.new_block("one");
        let two = f.new_block("two");
        f.cond_br(c, one, two);
        f.switch_to(one);
        f.call_indirect(fs, vec![x.into()]);
        f.spawn(short, 0);
        f.ret_void();
        f.switch_to(two);
        f.call_indirect(fp, vec![x.into(), Operand::Const(2)]);
        f.call_indirect(fp, vec![x.into(), Operand::Const(2), Operand::Const(3)]);
        f.ret_void();
    });
    let mut p = pb.finish("main");
    // Turn the direct spawn into a spawn through the `short` pointer.
    let spawn_block = &mut p.functions[main.0 as usize].blocks[1];
    let spawn = spawn_block.insts.iter_mut().find(|i| matches!(i, Inst::ThreadSpawn { .. }));
    let Some(Inst::ThreadSpawn { func, .. }) = spawn else { panic!("main spawns") };
    *func = Callee::Indirect(Operand::Reg(short_ptr.expect("main takes short's address")));
    let goal = Loc::new(long, BlockId(0), 12);
    check_program("indirect", &p, &[goal], &every_loc(&p));
}
