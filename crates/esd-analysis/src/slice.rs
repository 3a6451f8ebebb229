//! Backward goal-directed relevance slicing over the points-to facts.
//!
//! **Nothing in the pipeline reads this module.** It once sharpened the
//! proximity heuristic (Algorithm 1) by pricing the instructions that cannot
//! affect the goal at zero in a sliced copy of the [`CostModel`], and the
//! search measured its final goal with that copy. On the corpus the sliced
//! model moved three search cells by 2–4 steps, and it forced points-to into
//! every job's static phase, so the search now measures every goal with the
//! full model ([`crate::goaldist`]). The module stays only because the
//! benchmark's per-pass probe (`perfbench/src/probe.rs`) still times
//! [`compute`]; ROADMAP's "Descriptions that match the measurements" drops
//! that call with the next benchmark change and then deletes this file.
//!
//! A demand-driven backward slice from the goal locations marks the
//! instructions that can still *affect* whether and how the goal is reached,
//! and the sliced cost model charges everything else zero.
//!
//! The slice is the classic demand set over three kinds of items, closed
//! under the worklist below:
//!
//! * **registers** — demanded registers make their defining instructions
//!   relevant, which in turn demand their operands;
//! * **abstract memory locations** — a relevant `Load` demands the
//!   [`AbsLoc`]s it may read (from [`crate::pointsto`]), which makes every
//!   `Store` that may touch them relevant; a load or store whose address
//!   points-to cannot resolve counts as touching every location;
//! * **control and schedule** — every branch condition is demanded (control
//!   flow always decides reachability), and synchronization instructions
//!   (locks, condition variables, spawn/join/yield, `Free`, `Assert`, and
//!   calls) are unconditionally relevant: they shape the schedule space the
//!   dynamic phase searches.
//!
//! Slicing only re-weights the search's *guidance*; it never removes states
//! or forks, so a too-small slice can cost search time but not soundness.

use crate::callgraph::CallGraph;
use crate::costs::CostModel;
use crate::pointsto::{AbsLoc, PointsTo};
use esd_ir::{BlockId, Callee, FuncId, Inst, Loc, Operand, Program, Reg, Terminator};
use std::collections::{BTreeSet, HashMap};

/// The relevance slice for one goal set, with the sliced cost model derived
/// from it.
#[derive(Debug, Clone)]
pub struct RelevanceSlice {
    /// The goal locations this slice was computed for.
    pub goals: BTreeSet<Loc>,
    /// `relevant[f][b][i]` — the `i`-th instruction of that block can still
    /// affect a goal (terminators are always counted and not listed here).
    pub relevant: Vec<Vec<Vec<bool>>>,
    /// The full cost model with irrelevant instructions re-weighted to zero
    /// (block costs recomputed accordingly; function costs, call costs and
    /// distance-to-return keep their unsliced values).
    pub costs: CostModel,
}

impl RelevanceSlice {
    /// True when the instruction at `loc` is in the slice (terminator
    /// positions answer `true`).
    pub fn is_relevant(&self, loc: Loc) -> bool {
        self.relevant
            .get(loc.func.0 as usize)
            .and_then(|f| f.get(loc.block.0 as usize))
            .map(|b| loc.idx as usize >= b.len() || b[loc.idx as usize])
            .unwrap_or(true)
    }

    /// Number of instructions sliced away (relevant = false) program-wide.
    pub fn pruned_count(&self) -> usize {
        self.relevant.iter().flat_map(|f| f.iter()).flat_map(|b| b.iter()).filter(|r| !**r).count()
    }
}

/// Worklist items of the demand closure.
#[derive(Clone, Copy)]
enum Item {
    Inst(Loc),
    Reg(FuncId, Reg),
    Mem(AbsLoc),
    /// The return value of a function is demanded.
    Ret(FuncId),
}

/// One function's dense def index: the instructions defining register `r`
/// are `sites[start[r]..start[r + 1]]` (compressed rows, in program order).
struct Defs {
    start: Vec<u32>,
    sites: Vec<(BlockId, u32)>,
}

impl Defs {
    /// Indexes a function's `(register, block, index)` definitions, listed
    /// in program order. Registers are numbered below `num_regs`, but a def
    /// past it widens the index rather than being lost.
    fn new(pairs: Vec<(Reg, BlockId, u32)>, num_regs: u32) -> Self {
        let regs = pairs.iter().map(|p| p.0 .0 + 1).max().unwrap_or(0).max(num_regs) as usize;
        let mut start = vec![0u32; regs + 1];
        for (r, _, _) in &pairs {
            start[r.0 as usize + 1] += 1;
        }
        for r in 0..regs {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut sites = vec![(BlockId(0), 0); pairs.len()];
        for (r, b, i) in pairs {
            let slot = &mut next[r.0 as usize];
            sites[*slot as usize] = (b, i);
            *slot += 1;
        }
        Defs { start, sites }
    }

    fn regs(&self) -> usize {
        self.start.len() - 1
    }

    fn of(&self, r: Reg) -> &[(BlockId, u32)] {
        let r = r.0 as usize;
        &self.sites[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// The stores that may write one abstract location, and whether the closure
/// has demanded it yet.
#[derive(Default)]
struct MemSlot {
    stores: Vec<Loc>,
    demanded: bool,
}

/// Computes the backward relevance slice from `goals` and derives the sliced
/// cost model from `costs`.
pub fn compute(
    program: &Program,
    callgraph: &CallGraph,
    points_to: &PointsTo,
    costs: &CostModel,
    goals: &[Loc],
) -> RelevanceSlice {
    // ---- indices -----------------------------------------------------------
    // `relevant` doubles as the closure's visited set for instructions.
    let mut relevant: Vec<Vec<Vec<bool>>> = Vec::with_capacity(program.functions.len());
    let mut defs: Vec<Defs> = Vec::with_capacity(program.functions.len());
    let mut ret_regs: Vec<Vec<Reg>> = Vec::with_capacity(program.functions.len());
    let mut mem: HashMap<AbsLoc, MemSlot> = HashMap::new();
    let mut unresolved_stores: Vec<Loc> = Vec::new();
    let mut worklist: Vec<Item> = goals.iter().map(|g| Item::Inst(*g)).collect();
    // `points_to.accesses` lists every load and store in program order, so a
    // cursor finds each store's access without a lookup.
    let mut accesses = points_to.accesses.iter().peekable();

    for fid in program.func_ids() {
        let function = program.func(fid);
        let mut def_sites = Vec::new();
        let mut rets = Vec::new();
        let mut bits = Vec::with_capacity(function.blocks.len());
        for (bi, block) in function.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(fid, BlockId(bi as u32), ii as u32);
                let access = accesses.next_if(|a| a.loc == loc);
                if let Some(dst) = inst.def() {
                    def_sites.push((dst, loc.block, loc.idx));
                }
                match inst {
                    Inst::Store { .. } => match access {
                        Some(a) if !a.targets.is_empty() => {
                            for t in &a.targets {
                                mem.entry(*t).or_default().stores.push(loc);
                            }
                        }
                        _ => unresolved_stores.push(loc),
                    },
                    // Seeds: every schedule-shaping instruction.
                    Inst::MutexLock { .. }
                    | Inst::MutexUnlock { .. }
                    | Inst::CondWait { .. }
                    | Inst::CondSignal { .. }
                    | Inst::CondBroadcast { .. }
                    | Inst::ThreadSpawn { .. }
                    | Inst::ThreadJoin { .. }
                    | Inst::Yield
                    | Inst::Free { .. }
                    | Inst::Assert { .. }
                    | Inst::Call { .. } => worklist.push(Item::Inst(loc)),
                    _ => {}
                }
            }
            match &block.term {
                // Seeds: every branch condition.
                Terminator::CondBr { cond: Operand::Reg(r), .. } => {
                    worklist.push(Item::Reg(fid, *r))
                }
                Terminator::Ret { value: Some(Operand::Reg(r)) } => rets.push(*r),
                _ => {}
            }
            bits.push(vec![false; block.insts.len()]);
        }
        relevant.push(bits);
        defs.push(Defs::new(def_sites, function.num_regs));
        ret_regs.push(rets);
    }

    // ---- demand closure ----------------------------------------------------
    let mut demanded_regs: Vec<Vec<bool>> = defs.iter().map(|d| vec![false; d.regs()]).collect();
    let mut demanded_rets = vec![false; program.functions.len()];
    let mut unresolved_stores_demanded = false;
    let mut unresolved_load_seen = false;

    // Any demanded memory, and any unresolved read, may be fed by a store
    // through an unresolved address.
    let mut demand_unresolved_stores = |worklist: &mut Vec<Item>| {
        if !std::mem::replace(&mut unresolved_stores_demanded, true) {
            worklist.extend(unresolved_stores.iter().map(|s| Item::Inst(*s)));
        }
    };

    while let Some(item) = worklist.pop() {
        match item {
            Item::Inst(loc) => {
                let Some(bit) = relevant
                    .get_mut(loc.func.0 as usize)
                    .and_then(|f| f.get_mut(loc.block.0 as usize))
                    .and_then(|b| b.get_mut(loc.idx as usize))
                else {
                    continue;
                };
                if std::mem::replace(bit, true) {
                    continue;
                }
                let Some(inst) = program.inst_at(loc) else { continue };
                for op in inst.uses() {
                    if let Operand::Reg(r) = op {
                        worklist.push(Item::Reg(loc.func, r));
                    }
                }
                if matches!(inst, Inst::Load { .. }) {
                    if let Some(a) = points_to.access_at(loc) {
                        worklist.extend(a.targets.iter().map(|t| Item::Mem(*t)));
                        if a.targets.is_empty()
                            && !std::mem::replace(&mut unresolved_load_seen, true)
                        {
                            // Unresolved read: any store may feed it.
                            worklist.extend(mem.keys().map(|l| Item::Mem(*l)));
                            demand_unresolved_stores(&mut worklist);
                        }
                    }
                }
            }
            Item::Reg(f, r) => {
                let Some(seen) = demanded_regs[f.0 as usize].get_mut(r.0 as usize) else {
                    // Past every def: nothing defines it.
                    continue;
                };
                if std::mem::replace(seen, true) {
                    continue;
                }
                for &(block, idx) in defs[f.0 as usize].of(r) {
                    let loc = Loc::new(f, block, idx);
                    worklist.push(Item::Inst(loc));
                    // A call's result carries its callees' return values.
                    if let Some(Inst::Call { callee, .. }) = program.inst_at(loc) {
                        match callee {
                            Callee::Direct(t) => worklist.push(Item::Ret(*t)),
                            Callee::Indirect(_) => {
                                if let Some(site) =
                                    callgraph.sites_of(f).iter().find(|s| s.loc == loc)
                                {
                                    worklist.extend(site.targets.iter().map(|t| Item::Ret(*t)));
                                }
                            }
                        }
                    }
                }
            }
            Item::Mem(l) => {
                demand_unresolved_stores(&mut worklist);
                if let Some(slot) = mem.get_mut(&l) {
                    if !std::mem::replace(&mut slot.demanded, true) {
                        worklist.extend(slot.stores.iter().map(|s| Item::Inst(*s)));
                    }
                }
            }
            Item::Ret(f) => {
                if std::mem::replace(&mut demanded_rets[f.0 as usize], true) {
                    continue;
                }
                worklist.extend(ret_regs[f.0 as usize].iter().map(|r| Item::Reg(f, *r)));
            }
        }
    }

    // ---- sliced cost model -------------------------------------------------
    let mut sliced = costs.clone();
    for (f, keep) in relevant.iter().enumerate() {
        sliced.zero_unkept(FuncId(f as u32), keep);
    }

    RelevanceSlice { goals: goals.iter().copied().collect(), relevant, costs: sliced }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, ProgramBuilder};

    fn run(program: &Program, goals: &[Loc]) -> RelevanceSlice {
        let facts = crate::ProgramFacts::compute(program);
        compute(program, &facts.callgraph, facts.points_to(program), &facts.costs, goals)
    }

    #[test]
    fn dead_arithmetic_is_sliced_away_and_costs_zero() {
        let mut pb = ProgramBuilder::new("p");
        let mut dead = None;
        let mut goal = None;
        pb.function("main", 0, |f| {
            // Bookkeeping that feeds only an output — irrelevant to the goal.
            dead = Some(f.here());
            let a = f.konst(10);
            let b = f.mul(a, 3);
            f.output(b);
            // The goal and what feeds it.
            let x = f.getchar();
            let c = f.eq(x, 7);
            goal = Some(f.here());
            f.assert(c, "x is 7");
            f.ret_void();
        });
        let p = pb.finish("main");
        let goal = goal.unwrap();
        let slice = run(&p, &[goal]);
        assert!(!slice.is_relevant(dead.unwrap()), "dead constant sliced away");
        assert!(slice.is_relevant(goal), "the goal itself stays");
        assert_eq!(slice.costs.inst_cost(dead.unwrap()), 0);
        assert!(slice.costs.inst_cost(goal) >= 1);
        assert!(slice.pruned_count() >= 2, "const + mul are both irrelevant");
        // Output itself is sliced (pure observation), its feeder too.
        let full = crate::ProgramFacts::compute(&p).costs;
        assert!(
            slice.costs.block_cost(FuncId(0), BlockId(0)) < full.block_cost(FuncId(0), BlockId(0)),
            "the sliced block is cheaper than the full one"
        );
    }

    #[test]
    fn stores_feeding_a_goal_load_stay_relevant() {
        let mut pb = ProgramBuilder::new("p");
        let flag = pb.global("flag", 1);
        let noise = pb.global("noise", 1);
        let mut flag_store = None;
        let mut noise_store = None;
        let mut goal = None;
        pb.function("main", 0, |f| {
            let fp = f.addr_global(flag);
            let np = f.addr_global(noise);
            flag_store = Some(f.here());
            f.store(fp, 1);
            noise_store = Some(f.here());
            f.store(np, 2);
            let v = f.load(fp);
            let c = f.cmp(CmpOp::Eq, v, 1);
            goal = Some(f.here());
            f.assert(c, "flag set");
            f.ret_void();
        });
        let p = pb.finish("main");
        let slice = run(&p, &[goal.unwrap()]);
        assert!(
            slice.is_relevant(flag_store.unwrap()),
            "the store feeding the goal's load is in the slice"
        );
        assert!(
            !slice.is_relevant(noise_store.unwrap()),
            "a store to memory the goal never reads is sliced away"
        );
    }

    /// A load through an address the points-to analysis cannot resolve may
    /// read what any unresolved store wrote, even when no store in the
    /// program resolved to an abstract location.
    #[test]
    fn unresolved_stores_feed_an_unresolved_load() {
        let mut pb = ProgramBuilder::new("p");
        let mut store = None;
        let mut goal = None;
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let ptr = f.add(x, 8);
            store = Some(f.here());
            f.store(ptr, 1);
            let v = f.load(ptr);
            let c = f.eq(v, 1);
            goal = Some(f.here());
            f.assert(c, "read back what was written");
            f.ret_void();
        });
        let p = pb.finish("main");
        let store = store.unwrap();
        let callgraph = CallGraph::build(&p);
        let points_to = PointsTo::compute(&p, &callgraph);
        assert!(
            points_to.accesses.iter().all(|a| a.targets.is_empty()),
            "both accesses go through an input-derived pointer"
        );
        let slice = run(&p, &[goal.unwrap()]);
        assert!(slice.is_relevant(store), "the unresolved store may feed the goal's load");
    }

    #[test]
    fn synchronization_is_always_relevant() {
        let mut pb = ProgramBuilder::new("p");
        let m = pb.global("m", 1);
        let mut lock_loc = None;
        let mut yield_loc = None;
        let mut goal = None;
        pb.function("main", 0, |f| {
            let mp = f.addr_global(m);
            lock_loc = Some(f.here());
            f.lock(mp);
            yield_loc = Some(f.here());
            f.yield_now();
            f.unlock(mp);
            goal = Some(f.here());
            f.output(1);
            f.ret_void();
        });
        let p = pb.finish("main");
        let slice = run(&p, &[goal.unwrap()]);
        assert!(slice.is_relevant(lock_loc.unwrap()));
        assert!(slice.is_relevant(yield_loc.unwrap()));
    }

    #[test]
    fn demand_crosses_calls_through_return_values() {
        let mut pb = ProgramBuilder::new("p");
        let mut feeder = None;
        let helper = pb.declare("helper", 1);
        pb.define(helper, |f| {
            feeder = Some(f.here());
            let v = f.add(f.param(0), 5);
            f.ret(v);
        });
        let mut goal = None;
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let r = f.call(helper, vec![x.into()]);
            let c = f.eq(r, 9);
            goal = Some(f.here());
            f.assert(c, "r is 9");
            f.ret_void();
        });
        let p = pb.finish("main");
        let slice = run(&p, &[goal.unwrap()]);
        assert!(
            slice.is_relevant(feeder.unwrap()),
            "the callee's add feeds the demanded return value"
        );
    }
}
