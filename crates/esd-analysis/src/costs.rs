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
use esd_ir::{BlockId, Callee, FuncId, Function, Inst, Loc, Program, Terminator};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "Infinite" distance: the goal (or a return) cannot be reached.
pub const INF: u64 = u64::MAX / 4;

/// Cost charged for recursive calls and for calls whose target could not be
/// resolved (the paper uses a fixed weight of 1000 instructions).
pub const RECURSION_COST: u64 = 1000;

/// Cost model for a whole program.
///
/// Each function's costs are flat arrays: instruction costs as running sums
/// over the whole function, indexed through per-block offsets, so every
/// query below is a few array reads.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `func_cost[f]` = estimated number of instructions to execute function
    /// `f` from entry to its nearest return (INF if it cannot return).
    pub func_cost: Vec<u64>,
    funcs: Vec<FuncCosts>,
}

/// The flat cost tables of one function.
#[derive(Debug, Clone)]
struct FuncCosts {
    /// Block `b`'s instructions are the function's instructions
    /// `block_start[b]..block_start[b + 1]`, numbered in block order.
    block_start: Vec<u32>,
    /// `prefix[k]` = total cost of the function's instructions before the
    /// `k`-th one (so `prefix.len()` is the instruction count plus one). An
    /// instruction costs 1, or 1 + its callee's cost for a call; the
    /// terminators are not in these sums and cost 1 each.
    prefix: Vec<u64>,
    /// `exit_to_ret[b]` = cost from the end of block `b` (its terminator
    /// executed) to the nearest return: 0 when the block returns, else the
    /// cheapest successor's distance-to-return, INF if none is reachable.
    exit_to_ret: Vec<u64>,
}

impl FuncCosts {
    /// Index in `prefix` of instruction `idx` of block `b`, clamped to the
    /// block's end.
    fn at(&self, b: BlockId, idx: u32) -> usize {
        let (start, end) = (self.block_start[b.0 as usize], self.block_start[b.0 as usize + 1]);
        start.saturating_add(idx).min(end) as usize
    }

    /// Cost of the instructions of block `b` from `from` up to (not
    /// including) `upto`.
    fn span(&self, b: BlockId, from: u32, upto: u32) -> u64 {
        self.prefix[self.at(b, upto)] - self.prefix[self.at(b, from)]
    }

    /// `dist2ret` of the function's entry block, i.e. the function's call
    /// cost.
    fn entry_to_ret(&self) -> u64 {
        saturate(saturate(1, self.span(BlockId(0), 0, u32::MAX)), self.exit_to_ret[0])
    }
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
        let mut funcs: Vec<Option<FuncCosts>> = vec![None; n];

        // Process call-graph SCCs in reverse topological order (callees
        // first), so every non-recursive callee's cost is final when its
        // caller is priced; calls into the same SCC (recursion) are charged
        // RECURSION_COST. Each function's tables are built once.
        for scc in &callgraph.sccs {
            for &f in scc {
                let costs = function_costs(program, &cfgs[f.0 as usize], callgraph, f, &func_cost);
                func_cost[f.0 as usize] = costs.entry_to_ret();
                funcs[f.0 as usize] = Some(costs);
            }
        }
        let funcs = funcs.into_iter().map(|c| c.expect("every function is in an SCC")).collect();
        CostModel { func_cost, funcs }
    }

    /// Cost of calling function `f` (entry to nearest return).
    pub fn func_cost(&self, f: FuncId) -> u64 {
        self.func_cost[f.0 as usize]
    }

    /// Cost of executing block `b` of `f` from its first instruction through
    /// its terminator, including the cost of calls made inside the block.
    pub fn block_cost(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_suffix_cost(f, b, 0)
    }

    /// Cost of the instruction at `loc` (the terminator costs 1).
    pub fn inst_cost(&self, loc: Loc) -> u64 {
        let fc = &self.funcs[loc.func.0 as usize];
        let k = fc.at(loc.block, loc.idx);
        if k < fc.block_start[loc.block.0 as usize + 1] as usize {
            fc.prefix[k + 1] - fc.prefix[k]
        } else {
            1
        }
    }

    /// Cost of executing block `b` of `f` from instruction `from_idx` through
    /// its terminator.
    pub fn block_suffix_cost(&self, f: FuncId, b: BlockId, from_idx: u32) -> u64 {
        saturate(1, self.funcs[f.0 as usize].span(b, from_idx, u32::MAX))
    }

    /// Cost of executing block `b` of `f` from its start up to (but not
    /// including) instruction `upto_idx`.
    pub fn block_prefix_cost(&self, f: FuncId, b: BlockId, upto_idx: u32) -> u64 {
        self.funcs[f.0 as usize].span(b, 0, upto_idx)
    }

    /// Distance from the instruction at `loc` to the nearest return of its
    /// function (the paper's `dist2ret`).
    pub fn dist2ret(&self, loc: Loc) -> u64 {
        let exit = self.funcs[loc.func.0 as usize].exit_to_ret[loc.block.0 as usize];
        saturate(self.block_suffix_cost(loc.func, loc.block, loc.idx), exit)
    }

    /// Re-prices at zero every instruction of function `f` that `keep`
    /// rejects (`keep[b][i]` for instruction `i` of block `b`), leaving the
    /// function costs and the distances past each block's terminator as they
    /// were: the relevance slice's re-weighting.
    pub(crate) fn zero_unkept(&mut self, f: FuncId, keep: &[Vec<bool>]) {
        let fc = &mut self.funcs[f.0 as usize];
        let mut flat = keep.iter().flatten();
        let mut total = 0u64;
        for k in 0..fc.prefix.len() - 1 {
            let cost = fc.prefix[k + 1] - fc.prefix[k];
            fc.prefix[k] = total;
            if flat.next().copied().unwrap_or(true) {
                total += cost;
            }
        }
        *fc.prefix.last_mut().expect("prefix holds one more entry than instructions") = total;
    }
}

/// Cost of a call from `caller` to `callee`, whose call site resolves to
/// `targets`, given the costs of every function outside `caller`'s SCC.
fn call_cost(
    callgraph: &CallGraph,
    caller: FuncId,
    callee: &Callee,
    targets: &[FuncId],
    func_cost: &[u64],
) -> u64 {
    let cost = match callee {
        Callee::Direct(t) if callgraph.is_recursive_call(caller, *t) => RECURSION_COST,
        Callee::Direct(t) => func_cost[t.0 as usize],
        Callee::Indirect(_) => {
            // Average over the resolved targets, as in the paper; fall back
            // to the recursion penalty if none is outside the caller's SCC.
            let (sum, count) = targets
                .iter()
                .filter(|t| !callgraph.is_recursive_call(caller, **t))
                .fold((0u64, 0u64), |(sum, count), t| {
                    (sum + func_cost[t.0 as usize].min(RECURSION_COST), count + 1)
                });
            sum.checked_div(count).unwrap_or(RECURSION_COST)
        }
    };
    saturate(1, cost.min(RECURSION_COST * 10))
}

/// The flat cost tables of `fid`, given the final costs of every function
/// in an earlier SCC.
fn function_costs(
    program: &Program,
    cfg: &Cfg,
    callgraph: &CallGraph,
    fid: FuncId,
    func_cost: &[u64],
) -> FuncCosts {
    let f = program.func(fid);
    let mut block_start = Vec::with_capacity(f.blocks.len() + 1);
    let mut prefix = Vec::with_capacity(f.num_insts() + 1);
    // Call sites are listed in instruction order, one per call or spawn.
    let mut sites = callgraph.sites_of(fid).iter();
    let mut total = 0u64;
    prefix.push(0);
    block_start.push(0);
    for block in &f.blocks {
        for inst in &block.insts {
            let c = match inst {
                Inst::Call { callee, .. } => {
                    let site = sites.next().expect("every call has a call site");
                    call_cost(callgraph, fid, callee, &site.targets, func_cost)
                }
                // Spawning does not execute the child inline.
                Inst::ThreadSpawn { .. } => {
                    sites.next();
                    1
                }
                _ => 1,
            };
            total += c;
            prefix.push(total);
        }
        block_start.push((prefix.len() - 1) as u32);
    }
    let mut costs = FuncCosts { block_start, prefix, exit_to_ret: Vec::new() };
    costs.exit_to_ret = exit_to_ret(f, cfg, &costs);
    costs
}

/// For each block, the cost from its end to the nearest return: a
/// shortest-path search backward from the returning blocks over block costs.
fn exit_to_ret(f: &Function, cfg: &Cfg, costs: &FuncCosts) -> Vec<u64> {
    let n = f.blocks.len();
    let block_cost = |b: usize| saturate(1, costs.span(BlockId(b as u32), 0, u32::MAX));
    // `dist[b]` = cost from the start of block `b` to a return.
    let mut dist = vec![INF; n];
    let mut exit = vec![INF; n];
    let mut heap = BinaryHeap::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        if matches!(block.term, Terminator::Ret { .. }) {
            exit[bi] = 0;
            dist[bi] = block_cost(bi);
            heap.push(Reverse((dist[bi], bi)));
        }
    }
    while let Some(Reverse((d, b))) = heap.pop() {
        if d > dist[b] {
            continue;
        }
        for p in cfg.preds(BlockId(b as u32)) {
            let pi = p.0 as usize;
            exit[pi] = exit[pi].min(d);
            let nd = saturate(block_cost(pi), d);
            if nd < dist[pi] {
                dist[pi] = nd;
                heap.push(Reverse((nd, pi)));
            }
        }
    }
    exit
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
        assert_eq!(m.dist2ret(loc0), 4);
        assert_eq!(m.dist2ret(loc2), 2);
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

    /// Regression test: indirect-call costs once depended on the iteration
    /// order of a hash set of address-taken functions, which changed the
    /// call graph's SCC order and with it which callees counted as priced,
    /// and the average ignored the call's arity. `main` calls `a` or `b`
    /// through a pointer; `a` calls `g` through a pointer with one argument;
    /// `b` makes a two-argument indirect call that no function can take.
    #[test]
    fn indirect_call_costs_average_the_resolved_targets_in_any_build() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare("main", 0);
        let a = pb.declare("a", 0);
        let b = pb.declare("b", 0);
        let g = pb.declare("g", 1);
        pb.define(main, |f| {
            let fa = f.func_addr(a);
            f.func_addr(b);
            f.call_indirect(fa, vec![]);
            f.ret_void();
        });
        pb.define(a, |f| {
            let fg = f.func_addr(g);
            f.call_indirect(fg, vec![Operand::Const(1)]);
            f.ret_void();
        });
        pb.define(b, |f| {
            let fp = f.konst(0);
            f.call_indirect(fp, vec![Operand::Const(1), Operand::Const(2)]);
            f.ret_void();
        });
        pb.define(g, |f| {
            for _ in 0..39 {
                f.nop();
            }
            f.ret_void();
        });
        let p = pb.finish("main");
        let cfgs: Vec<Cfg> = p.func_ids().map(|f| Cfg::build(p.func(f), f)).collect();
        // g: 39 nops + ret. a: func_addr + call (1 + g) + ret. b: konst +
        // call with no target (1 + RECURSION_COST) + ret. main: two
        // func_addrs + call (1 + the mean of a's 43 and b's cost capped at
        // RECURSION_COST) + ret.
        let expected = [2 + 1 + (43 + RECURSION_COST) / 2 + 1, 43, 1003, 40];
        for _ in 0..64 {
            let m = CostModel::new(&p, &cfgs, &CallGraph::build(&p));
            let costs: Vec<u64> = p.func_ids().map(|f| m.func_cost(f)).collect();
            assert_eq!(costs, expected);
            for (f, idx, cost) in
                [(main, 2, 1 + (43 + RECURSION_COST) / 2), (a, 1, 41), (b, 1, 1001)]
            {
                assert_eq!(m.inst_cost(Loc::new(f, BlockId(0), idx)), cost);
                assert_eq!(m.block_suffix_cost(f, BlockId(0), 0), expected[f.0 as usize]);
            }
        }
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
