//! Static lockset and lock-order-graph analysis.
//!
//! The paper's static phase promises deadlock search a list of *candidate
//! deadlock sites* before any dynamic exploration (§3.2, §4.1). This module
//! delivers it: a may-hold lockset dataflow over each function (locks
//! identified by tracing their address operands to globals), lock-order
//! edges `A → B` recorded wherever `B` is acquired while `A` may be held,
//! and ABBA cycle detection over the resulting graph. Entry locksets
//! propagate through direct calls (a callee inherits what its callers may
//! hold) *and* through thread spawns: a lock held across `ThreadSpawn` is
//! visible to the child's analysis, because the child may run its entire
//! body while the parent still holds it — exactly the window in which a
//! parent-held/child-acquired ordering can participate in a deadlock.
//!
//! The output is *guidance only*: [`crate::StaticAnalysis::compute_multi`]
//! turns cycle sites into extra intermediate goals for deadlock searches,
//! which bias the frontier but can never make the search unsound — a wrong
//! candidate merely wastes priority. The analysis is correspondingly
//! approximate: it assumes direct calls preserve the caller's lockset and
//! ignores locks whose identity cannot be traced statically.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::{self, ForwardAnalysis, JoinSemiLattice};
use crate::reachdef::{CondExpr, DefIndex};
use esd_ir::{FuncId, Function, GlobalId, Inst, Loc, Operand, Program};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// A lock-order edge: `second` is acquired at `site` while `first` may
/// already be held.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The mutex that may already be held.
    pub first: GlobalId,
    /// The mutex being acquired.
    pub second: GlobalId,
    /// The acquisition site (the `MutexLock` instruction's location).
    pub site: Loc,
}

/// A potential ABBA deadlock: both lock orders `a → b` and `b → a` occur in
/// the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycle {
    /// The mutex pair, with `pair.0 < pair.1`.
    pub pair: (GlobalId, GlobalId),
    /// The inner-acquisition sites of both directions, sorted — each is a
    /// candidate blocked-lock location of the deadlock.
    pub sites: Vec<Loc>,
}

/// The lock-order analysis result for a whole program.
#[derive(Debug, Clone, Default)]
pub struct LockOrderInfo {
    /// All lock-order edges, sorted and deduplicated.
    pub edges: Vec<LockEdge>,
    /// Detected ABBA cycles, ranked: fewest candidate sites first (tighter
    /// cycles make better intermediate goals), then by mutex pair.
    pub cycles: Vec<LockCycle>,
    /// Per-function *entry* may-hold locksets from the interprocedural
    /// fixpoint (indexed by [`FuncId`]): what a function's callers — or, for
    /// thread entry points, the spawning thread — may hold when the function
    /// starts. Consumed by the race-candidate analysis and the
    /// aliasing-dependent lints.
    pub entry_locksets: Vec<BTreeSet<GlobalId>>,
}

/// The dataflow fact: the set of mutexes (as global ids) that may be held.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct LockSet(pub(crate) BTreeSet<GlobalId>);

impl JoinSemiLattice for LockSet {
    fn join(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().copied());
        self.0.len() != before
    }
}

/// Resolves a mutex operand to its global identity, if statically visible.
pub(crate) fn mutex_identity(defs: &DefIndex<'_>, op: Operand) -> Option<GlobalId> {
    match defs.trace(op) {
        CondExpr::GlobalAddr(g, _) => Some(g),
        _ => None,
    }
}

pub(crate) struct LocksetAnalysis<'a> {
    pub(crate) defs: &'a DefIndex<'a>,
    pub(crate) entry: LockSet,
}

impl ForwardAnalysis for LocksetAnalysis<'_> {
    type Fact = LockSet;

    fn entry_fact(&self) -> LockSet {
        self.entry.clone()
    }

    fn transfer_inst(&self, fact: &mut LockSet, inst: &Inst, _loc: Loc) {
        match inst {
            Inst::MutexLock { mutex } => {
                if let Some(g) = mutex_identity(self.defs, *mutex) {
                    fact.0.insert(g);
                }
            }
            Inst::MutexUnlock { mutex } => {
                if let Some(g) = mutex_identity(self.defs, *mutex) {
                    fact.0.remove(&g);
                }
            }
            // CondWait releases and re-acquires its mutex around the wait;
            // from the lock-order perspective the mutex is held again when
            // the instruction completes, so the set is unchanged.
            _ => {}
        }
    }

    fn widen(&self, _fact: &mut LockSet) {
        // The lattice is a finite powerset: joins already terminate.
    }
}

/// Runs the lock-order analysis over the whole program. (The call graph is
/// accepted for signature stability alongside the other whole-program
/// analyses; the function-level fixpoint below discovers direct-call
/// propagation on its own.)
pub fn analyze(program: &Program, cfgs: &[Cfg], _callgraph: &CallGraph) -> LockOrderInfo {
    let n = program.functions.len();
    // Entry locksets: what each function's callers may hold at the call
    // site. Spawn sites contribute too — a lock held across `ThreadSpawn`
    // may still be held for the child's whole lifetime.
    let mut entry: Vec<LockSet> = vec![LockSet::default(); n];
    let mut queued = vec![true; n];
    let mut worklist: VecDeque<FuncId> = program.func_ids().collect();
    let defs: Vec<DefIndex<'_>> = program.functions.iter().map(DefIndex::new).collect();

    // Fixpoint over functions: the powerset lattice over globals is finite,
    // so entry sets grow monotonically and terminate.
    while let Some(fid) = worklist.pop_front() {
        queued[fid.0 as usize] = false;
        let function = program.func(fid);
        let analysis =
            LocksetAnalysis { defs: &defs[fid.0 as usize], entry: entry[fid.0 as usize].clone() };
        let facts = dataflow::solve_function(&analysis, function, &cfgs[fid.0 as usize], fid);
        for (bi, block) in function.blocks.iter().enumerate() {
            let Some(mut fact) = facts.at(esd_ir::BlockId(bi as u32)).cloned() else { continue };
            for (ii, inst) in block.insts.iter().enumerate() {
                let flows_to = match inst {
                    Inst::Call { callee: esd_ir::Callee::Direct(target), .. } => Some(*target),
                    Inst::ThreadSpawn { func: esd_ir::Callee::Direct(target), .. } => Some(*target),
                    _ => None,
                };
                if let Some(target) = flows_to {
                    if entry[target.0 as usize].join(&fact) && !queued[target.0 as usize] {
                        queued[target.0 as usize] = true;
                        worklist.push_back(target);
                    }
                }
                let loc = Loc::new(fid, esd_ir::BlockId(bi as u32), ii as u32);
                analysis.transfer_inst(&mut fact, inst, loc);
            }
        }
    }

    // Edge generation: re-run each function with its final entry set and
    // record an edge for every held mutex at every acquisition.
    let mut edges: Vec<LockEdge> = Vec::new();
    for fid in program.func_ids() {
        let function = program.func(fid);
        let fdefs = &defs[fid.0 as usize];
        let analysis = LocksetAnalysis { defs: fdefs, entry: entry[fid.0 as usize].clone() };
        let facts = dataflow::solve_function(&analysis, function, &cfgs[fid.0 as usize], fid);
        for (bi, block) in function.blocks.iter().enumerate() {
            let Some(mut fact) = facts.at(esd_ir::BlockId(bi as u32)).cloned() else { continue };
            for (ii, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(fid, esd_ir::BlockId(bi as u32), ii as u32);
                if let Inst::MutexLock { mutex } = inst {
                    if let Some(second) = mutex_identity(fdefs, *mutex) {
                        for first in &fact.0 {
                            if *first != second {
                                edges.push(LockEdge { first: *first, second, site: loc });
                            }
                        }
                    }
                }
                analysis.transfer_inst(&mut fact, inst, loc);
            }
        }
    }
    edges.sort();
    edges.dedup();

    // ABBA detection: a pair (a, b) with edges in both directions.
    let mut by_pair: HashMap<(GlobalId, GlobalId), (bool, bool, Vec<Loc>)> = HashMap::new();
    for e in &edges {
        let (key, forward) = if e.first < e.second {
            ((e.first, e.second), true)
        } else {
            ((e.second, e.first), false)
        };
        let entry = by_pair.entry(key).or_default();
        if forward {
            entry.0 = true;
        } else {
            entry.1 = true;
        }
        entry.2.push(e.site);
    }
    let mut cycles: Vec<LockCycle> = by_pair
        .into_iter()
        .filter(|(_, (fwd, rev, _))| *fwd && *rev)
        .map(|(pair, (_, _, mut sites))| {
            sites.sort();
            sites.dedup();
            LockCycle { pair, sites }
        })
        .collect();
    cycles.sort_by_key(|c| (c.sites.len(), c.pair));
    let entry_locksets = entry.into_iter().map(|s| s.0).collect();
    LockOrderInfo { edges, cycles, entry_locksets }
}

/// Locks acquired *within* `function` (the analysis starts from an empty
/// lockset — a caller's holds are the caller's responsibility) that may
/// still be held at some `Ret`. Returns `(ret_loc, mutex)` pairs, sorted
/// and deduplicated; the location is the returning terminator's.
///
/// This is the engine behind the `lock-never-released` lint; lock-helper
/// functions that hand a held mutex back to their caller legitimately
/// trigger it, which is why the lint reports a warning, not an error.
pub fn unreleased_at_return(function: &Function, cfg: &Cfg, func: FuncId) -> Vec<(Loc, GlobalId)> {
    let defs = DefIndex::new(function);
    let analysis = LocksetAnalysis { defs: &defs, entry: LockSet::default() };
    let facts = dataflow::solve_function(&analysis, function, cfg, func);
    let mut out = Vec::new();
    for (bi, block) in function.blocks.iter().enumerate() {
        if !matches!(block.term, esd_ir::Terminator::Ret { .. }) {
            continue;
        }
        let b = esd_ir::BlockId(bi as u32);
        let Some(mut fact) = facts.at(b).cloned() else { continue };
        for (ii, inst) in block.insts.iter().enumerate() {
            analysis.transfer_inst(&mut fact, inst, Loc::new(func, b, ii as u32));
        }
        let ret_loc = Loc::new(func, b, block.insts.len() as u32);
        for g in &fact.0 {
            out.push((ret_loc, *g));
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, ProgramBuilder};

    fn run(program: &Program) -> LockOrderInfo {
        crate::ProgramFacts::compute(program).lock_order
    }

    #[test]
    fn abba_between_two_workers_is_detected() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.global("lock_a", 1);
        let b = pb.global("lock_b", 1);
        let w1 = pb.function("w1", 1, |f| {
            let ap = f.addr_global(a);
            let bp = f.addr_global(b);
            f.lock(ap);
            f.lock(bp);
            f.unlock(bp);
            f.unlock(ap);
            f.ret_void();
        });
        let w2 = pb.function("w2", 1, |f| {
            let ap = f.addr_global(a);
            let bp = f.addr_global(b);
            f.lock(bp);
            f.lock(ap);
            f.unlock(ap);
            f.unlock(bp);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t1 = f.spawn(w1, 1);
            let t2 = f.spawn(w2, 2);
            f.join(t1);
            f.join(t2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let info = run(&p);
        assert_eq!(info.cycles.len(), 1);
        let cycle = &info.cycles[0];
        assert_eq!(cycle.pair, (a, b));
        // Both inner acquisitions are candidate blocked-lock sites, one in
        // each worker.
        assert_eq!(cycle.sites.len(), 2);
        assert!(cycle.sites.iter().any(|l| l.func == w1));
        assert!(cycle.sites.iter().any(|l| l.func == w2));
    }

    #[test]
    fn consistent_ordering_yields_edges_but_no_cycle() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.global("lock_a", 1);
        let b = pb.global("lock_b", 1);
        pb.function("main", 0, |f| {
            let ap = f.addr_global(a);
            let bp = f.addr_global(b);
            f.lock(ap);
            f.lock(bp);
            f.unlock(bp);
            f.unlock(ap);
            f.lock(ap);
            f.lock(bp);
            f.unlock(bp);
            f.unlock(ap);
            f.ret_void();
        });
        let p = pb.finish("main");
        let info = run(&p);
        // Edges are per acquisition site: both b-acquisitions order a → b.
        assert_eq!(info.edges.len(), 2);
        assert!(info.edges.iter().all(|e| e.first == a && e.second == b));
        assert!(info.cycles.is_empty());
    }

    #[test]
    fn locksets_propagate_through_direct_calls() {
        // The cross-function shape of the sqlite bug: the caller holds the
        // master lock while a callee acquires the btree lock, and another
        // path takes them in the opposite order.
        let mut pb = ProgramBuilder::new("p");
        let master = pb.global("master", 1);
        let btree = pb.global("btree", 1);
        let inner = pb.declare("inner", 0);
        pb.define(inner, |f| {
            let bp = f.addr_global(btree);
            f.lock(bp);
            f.unlock(bp);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let mp = f.addr_global(master);
            let bp = f.addr_global(btree);
            f.lock(mp);
            f.call_void(inner, vec![]);
            f.unlock(mp);
            // Reverse order inline.
            f.lock(bp);
            f.lock(mp);
            f.unlock(mp);
            f.unlock(bp);
            f.ret_void();
        });
        let p = pb.finish("main");
        let info = run(&p);
        assert_eq!(info.cycles.len(), 1);
        assert_eq!(info.cycles[0].pair, (master, btree).min((btree, master)));
        // One candidate site sits inside the callee.
        assert!(info.cycles[0].sites.iter().any(|l| l.func == inner));
    }

    #[test]
    fn unlock_ends_the_hold_window() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.global("lock_a", 1);
        let b = pb.global("lock_b", 1);
        pb.function("main", 0, |f| {
            let ap = f.addr_global(a);
            let bp = f.addr_global(b);
            // a is released before b is taken: no ordering edge either way.
            f.lock(ap);
            f.unlock(ap);
            f.lock(bp);
            f.unlock(bp);
            f.ret_void();
        });
        let p = pb.finish("main");
        let info = run(&p);
        assert!(info.edges.is_empty());
        assert!(info.cycles.is_empty());
    }

    #[test]
    fn locksets_propagate_into_spawned_thread_entry_points() {
        // A lock held across `ThreadSpawn` must be visible to the child's
        // analysis: the child may run while the parent still holds it. Here
        // main holds `master` at the spawn of a worker that takes `btree`,
        // and elsewhere takes the two in the opposite order — the worker's
        // acquisition is one side of the ABBA cycle.
        let mut pb = ProgramBuilder::new("p");
        let master = pb.global("master", 1);
        let btree = pb.global("btree", 1);
        let worker = pb.function("worker", 1, |f| {
            let bp = f.addr_global(btree);
            f.lock(bp);
            f.unlock(bp);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let mp = f.addr_global(master);
            let bp = f.addr_global(btree);
            f.lock(mp);
            let t = f.spawn(worker, 1);
            f.unlock(mp);
            f.join(t);
            // Reverse order inline.
            f.lock(bp);
            f.lock(mp);
            f.unlock(mp);
            f.unlock(bp);
            f.ret_void();
        });
        let p = pb.finish("main");
        let info = run(&p);
        assert!(
            info.entry_locksets[worker.0 as usize].contains(&master),
            "the spawn-time hold must flow into the worker's entry lockset"
        );
        assert_eq!(info.cycles.len(), 1);
        assert!(
            info.cycles[0].sites.iter().any(|l| l.func == worker),
            "the worker's inner acquisition is a candidate deadlock site"
        );
    }

    #[test]
    fn branch_dependent_holds_are_may_edges() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.global("lock_a", 1);
        let b = pb.global("lock_b", 1);
        pb.function("main", 0, |f| {
            let ap = f.addr_global(a);
            let bp = f.addr_global(b);
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 1);
            f.diamond("maybe_hold", c, |t| t.lock(ap), |e| e.nop());
            // a may or may not be held here; the edge must still be
            // reported (may-analysis).
            f.lock(bp);
            f.unlock(bp);
            f.ret_void();
        });
        let p = pb.finish("main");
        let info = run(&p);
        assert_eq!(info.edges.len(), 1);
        assert_eq!(info.edges[0].first, a);
        assert_eq!(info.edges[0].second, b);
    }
}
