//! Instruction, block and function cost model, and distance-to-return.
//!
//! These costs implement the building blocks of Algorithm 1 in the paper:
//! the "cost of calling a procedure corresponds to the number of instructions
//! along the shortest path from the procedure's start instruction to the
//! nearest return point" (`func_cost` here), recursion and unresolved
//! indirect calls are charged a fixed penalty, and `dist2ret` gives the
//! distance from an arbitrary instruction to the nearest return of its
//! function.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use esd_ir::{BlockId, Callee, FuncId, Inst, Loc, Program, Terminator};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "Infinite" distance: the goal (or a return) cannot be reached.
pub const INF: u64 = u64::MAX / 4;

/// Cost charged for recursive calls and for calls whose target could not be
/// resolved (the paper uses a fixed weight of 1000 instructions).
pub const RECURSION_COST: u64 = 1000;

/// Cost model for a whole program.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `func_cost[f]` = estimated number of instructions to execute function
    /// `f` from entry to its nearest return (INF if it cannot return).
    pub func_cost: Vec<u64>,
    /// `block_cost[f][b]` = cost of executing block `b` of `f` from its first
    /// instruction through its terminator, including the cost of calls made
    /// inside the block.
    pub block_cost: Vec<Vec<u64>>,
    /// `inst_cost[f][b][i]` = cost of the `i`-th instruction of that block
    /// (1 for ordinary instructions, 1 + callee cost for calls).
    pub inst_cost: Vec<Vec<Vec<u64>>>,
    /// `dist2ret_entry[f][b]` = cost from the start of block `b` to the
    /// nearest return of `f` (INF if no return is reachable).
    pub dist2ret_entry: Vec<Vec<u64>>,
}

fn saturate(a: u64, b: u64) -> u64 {
    let s = a.saturating_add(b);
    if s >= INF {
        INF
    } else {
        s
    }
}

impl CostModel {
    /// Computes the cost model for `program`.
    pub fn new(program: &Program, cfgs: &[Cfg], callgraph: &CallGraph) -> Self {
        let n = program.functions.len();
        let mut func_cost = vec![INF; n];
        let mut computed = vec![false; n];

        // Process call-graph SCCs in reverse topological order (callees
        // first). Calls into the same SCC (recursion) are charged
        // RECURSION_COST; calls to not-yet-computed functions (only possible
        // through imprecise indirect resolution) are charged RECURSION_COST
        // as well.
        for scc in &callgraph.sccs {
            for f in scc {
                func_cost[f.0 as usize] =
                    dist2ret_of_entry(program, cfgs, callgraph, *f, &func_cost, &computed);
            }
            for f in scc {
                computed[f.0 as usize] = true;
            }
        }

        // With all function costs known, compute the final per-instruction,
        // per-block costs and distance-to-return maps.
        let mut block_cost = Vec::with_capacity(n);
        let mut inst_cost = Vec::with_capacity(n);
        let mut dist2ret_entry = Vec::with_capacity(n);
        let all_computed = vec![true; n];
        for fid in program.func_ids() {
            let (bc, ic) = block_costs(program, callgraph, fid, &func_cost, &all_computed);
            let d2r = dist2ret_blocks(program, &cfgs[fid.0 as usize], fid, &bc);
            block_cost.push(bc);
            inst_cost.push(ic);
            dist2ret_entry.push(d2r);
        }

        CostModel { func_cost, block_cost, inst_cost, dist2ret_entry }
    }

    /// Cost of calling function `f` (entry to nearest return).
    pub fn func_cost(&self, f: FuncId) -> u64 {
        self.func_cost[f.0 as usize]
    }

    /// Cost of the instruction at `loc` (the terminator costs 1).
    pub fn inst_cost(&self, loc: Loc) -> u64 {
        let per_block = &self.inst_cost[loc.func.0 as usize][loc.block.0 as usize];
        if (loc.idx as usize) < per_block.len() {
            per_block[loc.idx as usize]
        } else {
            1
        }
    }

    /// Cost of executing block `b` of `f` from instruction `from_idx` through
    /// its terminator.
    pub fn block_suffix_cost(&self, f: FuncId, b: BlockId, from_idx: u32) -> u64 {
        let per_block = &self.inst_cost[f.0 as usize][b.0 as usize];
        let mut c = 1u64; // terminator
        for &cost in per_block.iter().skip(from_idx as usize) {
            c = saturate(c, cost);
        }
        c
    }

    /// Cost of executing block `b` of `f` from its start up to (but not
    /// including) instruction `upto_idx`.
    pub fn block_prefix_cost(&self, f: FuncId, b: BlockId, upto_idx: u32) -> u64 {
        let per_block = &self.inst_cost[f.0 as usize][b.0 as usize];
        let mut c = 0u64;
        for &cost in per_block.iter().take(upto_idx as usize) {
            c = saturate(c, cost);
        }
        c
    }

    /// Distance from the instruction at `loc` to the nearest return of its
    /// function (the paper's `dist2ret`).
    pub fn dist2ret(&self, program: &Program, loc: Loc) -> u64 {
        let f = program.func(loc.func);
        let block = f.block(loc.block);
        let suffix = self.block_suffix_cost(loc.func, loc.block, loc.idx);
        if matches!(block.term, Terminator::Ret { .. }) {
            return suffix;
        }
        let mut best = INF;
        for s in block.term.successors() {
            best = best.min(self.dist2ret_entry[loc.func.0 as usize][s.0 as usize]);
        }
        saturate(suffix, best)
    }
}

/// Per-instruction and per-block costs for one function, given (partially
/// computed) function costs.
fn block_costs(
    program: &Program,
    callgraph: &CallGraph,
    fid: FuncId,
    func_cost: &[u64],
    computed: &[bool],
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let f = program.func(fid);
    let mut per_block = Vec::with_capacity(f.blocks.len());
    let mut per_inst = Vec::with_capacity(f.blocks.len());
    for block in &f.blocks {
        let mut insts = Vec::with_capacity(block.insts.len());
        let mut total = 1u64; // terminator
        for inst in &block.insts {
            let c = match inst {
                Inst::Call { callee, .. } => {
                    let call_cost = match callee {
                        Callee::Direct(t) => {
                            if callgraph.is_recursive_call(fid, *t) || !computed[t.0 as usize] {
                                RECURSION_COST
                            } else {
                                func_cost[t.0 as usize]
                            }
                        }
                        Callee::Indirect(_) => {
                            // Average over possible targets, as in the paper;
                            // fall back to the recursion penalty if none.
                            let targets: Vec<u64> = callgraph
                                .address_taken
                                .iter()
                                .filter(|t| {
                                    !callgraph.is_recursive_call(fid, **t) && computed[t.0 as usize]
                                })
                                .map(|t| func_cost[t.0 as usize].min(RECURSION_COST))
                                .collect();
                            if targets.is_empty() {
                                RECURSION_COST
                            } else {
                                targets.iter().sum::<u64>() / targets.len() as u64
                            }
                        }
                    };
                    saturate(1, call_cost.min(RECURSION_COST * 10))
                }
                // Spawning does not execute the child inline.
                _ => 1,
            };
            insts.push(c);
            total = saturate(total, c);
        }
        per_block.push(total);
        per_inst.push(insts);
    }
    (per_block, per_inst)
}

/// Shortest cost from the start of each block to a return terminator.
fn dist2ret_blocks(program: &Program, cfg: &Cfg, fid: FuncId, block_cost: &[u64]) -> Vec<u64> {
    let f = program.func(fid);
    let n = f.blocks.len();
    let mut dist = vec![INF; n];
    let mut heap = BinaryHeap::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        if matches!(block.term, Terminator::Ret { .. }) {
            dist[bi] = block_cost[bi];
            heap.push(Reverse((dist[bi], bi)));
        }
    }
    while let Some(Reverse((d, b))) = heap.pop() {
        if d > dist[b] {
            continue;
        }
        for p in cfg.preds(BlockId(b as u32)) {
            let pi = p.0 as usize;
            let nd = saturate(block_cost[pi], d);
            if nd < dist[pi] {
                dist[pi] = nd;
                heap.push(Reverse((nd, pi)));
            }
        }
    }
    dist
}

/// `dist2ret` of a function's entry block — i.e. the function's call cost.
fn dist2ret_of_entry(
    program: &Program,
    cfgs: &[Cfg],
    callgraph: &CallGraph,
    fid: FuncId,
    func_cost: &[u64],
    computed: &[bool],
) -> u64 {
    let (bc, _) = block_costs(program, callgraph, fid, func_cost, computed);
    let d2r = dist2ret_blocks(program, &cfgs[fid.0 as usize], fid, &bc);
    d2r[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, Operand, ProgramBuilder};

    fn build_model(p: &Program) -> CostModel {
        crate::ProgramFacts::compute(p).costs
    }

    #[test]
    fn straight_line_function_cost_counts_instructions() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            f.konst(1);
            f.konst(2);
            f.nop();
            f.ret_void();
        });
        let p = pb.finish("main");
        let m = build_model(&p);
        // 3 instructions + terminator.
        assert_eq!(m.func_cost(p.entry), 4);
    }

    #[test]
    fn call_cost_includes_callee_cost() {
        let mut pb = ProgramBuilder::new("p");
        let leaf = pb.function("leaf", 0, |f| {
            f.nop();
            f.nop();
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            f.call_void(leaf, vec![]);
            f.ret_void();
        });
        let p = pb.finish("main");
        let m = build_model(&p);
        let leaf_id = p.func_by_name("leaf").unwrap();
        assert_eq!(m.func_cost(leaf_id), 3);
        // main: call (1 + 3) + ret (1) = 5.
        assert_eq!(m.func_cost(p.entry), 5);
    }

    #[test]
    fn recursive_calls_get_fixed_penalty() {
        let mut pb = ProgramBuilder::new("p");
        let rec = pb.declare("rec", 1);
        pb.define(rec, |f| {
            let n = f.param(0);
            let z = f.cmp(CmpOp::Le, n, 0);
            let base = f.new_block("base");
            let again = f.new_block("again");
            f.cond_br(z, base, again);
            f.switch_to(base);
            f.ret(0);
            f.switch_to(again);
            let n1 = f.sub(n, 1);
            let r = f.call(rec, vec![n1.into()]);
            f.ret(r);
        });
        pb.function("main", 0, |f| {
            let r = f.call(rec, vec![Operand::Const(3)]);
            f.output(r);
            f.ret_void();
        });
        let p = pb.finish("main");
        let m = build_model(&p);
        let rec_id = p.func_by_name("rec").unwrap();
        // The shortest path through `rec` takes the base case: cmp + condbr +
        // ret = 3 instructions; the recursive path is penalized but not taken
        // for the minimum.
        assert_eq!(m.func_cost(rec_id), 3);
        // main still pays the callee's shortest cost.
        assert!(m.func_cost(p.entry) >= 3);
    }

    #[test]
    fn function_that_never_returns_costs_inf() {
        let mut pb = ProgramBuilder::new("p");
        let spin = pb.function("spin", 0, |f| {
            let l = f.new_block("l");
            f.br(l);
            f.switch_to(l);
            f.nop();
            f.br(l);
        });
        pb.function("main", 0, |f| {
            f.call_void(spin, vec![]);
            f.ret_void();
        });
        let p = pb.finish("main");
        let m = build_model(&p);
        let spin_id = p.func_by_name("spin").unwrap();
        assert_eq!(m.func_cost(spin_id), INF);
    }

    #[test]
    fn dist2ret_from_mid_block_counts_remaining_instructions() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            f.nop();
            f.nop();
            f.nop();
            f.ret_void();
        });
        let p = pb.finish("main");
        let m = build_model(&p);
        let loc0 = Loc::new(p.entry, BlockId(0), 0);
        let loc2 = Loc::new(p.entry, BlockId(0), 2);
        assert_eq!(m.dist2ret(&p, loc0), 4);
        assert_eq!(m.dist2ret(&p, loc2), 2);
    }

    #[test]
    fn dist2ret_takes_shortest_branch() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let short = f.new_block("short");
            let long = f.new_block("long");
            f.cond_br(x, short, long);
            f.switch_to(short);
            f.ret_void();
            f.switch_to(long);
            for _ in 0..10 {
                f.nop();
            }
            f.ret_void();
        });
        let p = pb.finish("main");
        let m = build_model(&p);
        // From entry: input + condbr + (short: just ret) = 3.
        assert_eq!(m.func_cost(p.entry), 3);
    }

    #[test]
    fn prefix_and_suffix_costs_partition_block_cost() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            f.nop();
            f.nop();
            f.nop();
            f.nop();
            f.ret_void();
        });
        let p = pb.finish("main");
        let m = build_model(&p);
        let f = p.entry;
        let b = BlockId(0);
        for idx in 0..=4u32 {
            let prefix = m.block_prefix_cost(f, b, idx);
            let suffix = m.block_suffix_cost(f, b, idx);
            assert_eq!(prefix + suffix, 5, "idx {idx}");
        }
    }
}
