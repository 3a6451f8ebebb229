//! The interprocedural call graph, with best-effort function-pointer
//! resolution.
//!
//! The paper's static phase "performs alias analysis and resolves as many
//! function pointers as possible, replacing them with the corresponding
//! direct calls", and when that is not possible "averages the cost of the
//! call instruction across all possible targets". Our IR's only source of
//! function pointers is the `FuncAddr` instruction, so the resolution here is
//! address-taken + arity filtering: an indirect call may target any function
//! whose address is taken somewhere in the program and whose arity matches
//! the call.

use esd_ir::{Callee, FuncId, Inst, Loc, Program};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// One call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Location of the call (or spawn) instruction.
    pub loc: Loc,
    /// Possible targets (singleton for direct calls).
    pub targets: Vec<FuncId>,
    /// True if this is a thread spawn rather than a call.
    pub is_spawn: bool,
    /// True if the call was indirect and had to be resolved heuristically.
    pub indirect: bool,
}

/// The program call graph.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// All call sites, indexed by calling function, each function's in
    /// instruction order.
    pub sites: Vec<Vec<CallSite>>,
    /// Reverse edges: for each function, the call sites that may target it.
    pub callers: HashMap<FuncId, Vec<(FuncId, Loc)>>,
    /// Functions whose address is taken by a `FuncAddr` instruction, in id
    /// order (so indirect-call targets are listed in id order too).
    pub address_taken: BTreeSet<FuncId>,
    /// Strongly connected components of the call graph, in reverse
    /// topological order (callees before callers); `scc_index[f]` gives the
    /// component of `f`.
    pub scc_index: Vec<usize>,
    /// Members of each SCC.
    pub sccs: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the call graph of `program`.
    pub fn build(program: &Program) -> Self {
        let mut address_taken = BTreeSet::new();
        for f in &program.functions {
            for b in &f.blocks {
                for inst in &b.insts {
                    if let Inst::FuncAddr { func, .. } = inst {
                        address_taken.insert(*func);
                    }
                }
            }
        }

        let mut sites: Vec<Vec<CallSite>> = Vec::with_capacity(program.functions.len());
        let mut callers: HashMap<FuncId, Vec<(FuncId, Loc)>> = HashMap::new();
        for fid in program.func_ids() {
            let f = program.func(fid);
            let mut fsites = Vec::new();
            for bid in f.block_ids() {
                let block = f.block(bid);
                for (idx, inst) in block.insts.iter().enumerate() {
                    let loc = Loc { func: fid, block: bid, idx: idx as u32 };
                    let (callee, is_spawn, expected_arity) = match inst {
                        Inst::Call { callee, args, .. } => (callee, false, args.len()),
                        Inst::ThreadSpawn { func, .. } => (func, true, 1usize),
                        _ => continue,
                    };
                    let (targets, indirect) = match callee {
                        Callee::Direct(t) => (vec![*t], false),
                        Callee::Indirect(_) => {
                            let t: Vec<FuncId> = address_taken
                                .iter()
                                .copied()
                                .filter(|t| program.func(*t).num_params as usize == expected_arity)
                                .collect();
                            (t, true)
                        }
                    };
                    for t in &targets {
                        callers.entry(*t).or_default().push((fid, loc));
                    }
                    fsites.push(CallSite { loc, targets, is_spawn, indirect });
                }
            }
            sites.push(fsites);
        }

        let (scc_index, sccs) = compute_sccs(&sites);
        CallGraph { sites, callers, address_taken, scc_index, sccs }
    }

    /// Call sites within `f`.
    pub fn sites_of(&self, f: FuncId) -> &[CallSite] {
        self.sites.get(f.0 as usize).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// True if `caller` and `callee` belong to the same SCC (i.e. the call is
    /// part of a recursion cycle), or if `callee == caller`.
    pub fn is_recursive_call(&self, caller: FuncId, callee: FuncId) -> bool {
        caller == callee || self.scc_index[caller.0 as usize] == self.scc_index[callee.0 as usize]
    }

    /// Functions reachable from `entry` through calls and spawns.
    pub fn reachable_functions(&self, entry: FuncId) -> HashSet<FuncId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(entry);
        queue.push_back(entry);
        while let Some(f) = queue.pop_front() {
            for site in self.sites_of(f) {
                for t in &site.targets {
                    if seen.insert(*t) {
                        queue.push_back(*t);
                    }
                }
            }
        }
        seen
    }
}

/// Tarjan's SCC algorithm over the call graph. Returns `(scc_index, sccs)`
/// with SCCs emitted in reverse topological order (callees first).
fn compute_sccs(sites: &[Vec<CallSite>]) -> (Vec<usize>, Vec<Vec<FuncId>>) {
    let n = sites.len();
    // The call-graph successors of `v` are `succ[succ_start[v]..succ_start[v + 1]]`.
    let mut succ_start = Vec::with_capacity(n + 1);
    let mut succ: Vec<usize> = Vec::new();
    succ_start.push(0);
    for fsites in sites {
        succ.extend(fsites.iter().flat_map(|s| s.targets.iter().map(|t| t.0 as usize)));
        succ_start.push(succ.len());
    }
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<FuncId>> = Vec::new();
    let mut scc_index = vec![usize::MAX; n];

    // Iterative Tarjan to avoid deep recursion on large programs.
    enum Phase {
        Enter(usize),
        Resume(usize, usize),
    }
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work = vec![Phase::Enter(start)];
        while let Some(phase) = work.pop() {
            match phase {
                Phase::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Phase::Resume(v, 0));
                }
                Phase::Resume(v, mut child_idx) => {
                    let succs = &succ[succ_start[v]..succ_start[v + 1]];
                    let mut descended = false;
                    while child_idx < succs.len() {
                        let w = succs[child_idx];
                        child_idx += 1;
                        if index[w] == usize::MAX {
                            work.push(Phase::Resume(v, child_idx));
                            work.push(Phase::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All children processed.
                    if lowlink[v] == index[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w] = false;
                            scc_index[w] = sccs.len();
                            component.push(FuncId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(component);
                    }
                    // Propagate lowlink to parent, if any.
                    if let Some(Phase::Resume(parent, _)) = work.last() {
                        let parent = *parent;
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                }
            }
        }
    }
    (scc_index, sccs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, Operand, ProgramBuilder};

    fn program_with_calls() -> Program {
        let mut pb = ProgramBuilder::new("p");
        let leaf = pb.function("leaf", 1, |f| {
            let r = f.add(f.param(0), 1);
            f.ret(r);
        });
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
            let a = f.call(leaf, vec![Operand::Const(1)]);
            let fp = f.func_addr(leaf);
            let b = f.call_indirect(fp, vec![Operand::Const(2)]);
            let c = f.call(rec, vec![a.into()]);
            let s = f.add(b, c);
            f.output(s);
            f.ret_void();
        });
        pb.finish("main")
    }

    #[test]
    fn direct_and_indirect_sites_are_collected() {
        let p = program_with_calls();
        let cg = CallGraph::build(&p);
        let main = p.func_by_name("main").unwrap();
        let leaf = p.func_by_name("leaf").unwrap();
        let sites = cg.sites_of(main);
        assert_eq!(sites.len(), 3);
        assert!(sites.iter().any(|s| s.indirect && s.targets.contains(&leaf)));
        assert!(cg.address_taken.contains(&leaf));
    }

    #[test]
    fn recursion_is_detected_via_sccs() {
        let p = program_with_calls();
        let cg = CallGraph::build(&p);
        let rec = p.func_by_name("rec").unwrap();
        let leaf = p.func_by_name("leaf").unwrap();
        let main = p.func_by_name("main").unwrap();
        assert!(cg.is_recursive_call(rec, rec));
        assert!(!cg.is_recursive_call(main, leaf));
        // Reverse topological order: leaf and rec must come before main.
        let main_scc = cg.scc_index[main.0 as usize];
        assert!(cg.scc_index[leaf.0 as usize] < main_scc);
        assert!(cg.scc_index[rec.0 as usize] < main_scc);
    }

    #[test]
    fn reachable_functions_from_entry() {
        let p = program_with_calls();
        let cg = CallGraph::build(&p);
        let all = cg.reachable_functions(p.entry);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn spawns_count_as_call_edges() {
        let mut pb = ProgramBuilder::new("p");
        let worker = pb.function("worker", 1, |f| f.ret_void());
        pb.function("main", 0, |f| {
            let t = f.spawn(worker, 0);
            f.join(t);
            f.ret_void();
        });
        let p = pb.finish("main");
        let cg = CallGraph::build(&p);
        let main = p.func_by_name("main").unwrap();
        let sites = cg.sites_of(main);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].is_spawn);
        assert!(cg.reachable_functions(p.entry).contains(&worker));
    }
}
