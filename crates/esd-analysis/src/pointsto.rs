//! Flow-insensitive Andersen-style points-to and escape analysis.
//!
//! The paper's static phase "performs alias analysis" before the dynamic
//! search starts; this module is the memory half of that promise. Every IR
//! value that can carry an address is mapped to the set of *abstract
//! locations* ([`AbsLoc`]) it may point to: globals (`AddrGlobal`),
//! addressable stack slots (`AddrLocal`), and heap allocation sites
//! (`Alloc`). Constraints are the classic Andersen inclusion kind —
//! address-of introduces a location, copies and `Gep` propagate sets, and
//! `Load`/`Store` dereference through the current solution — iterated to a
//! fixpoint over the whole program (calls and spawns pass argument sets to
//! parameters, returns flow back to call results).
//!
//! On top of the solution, the *escape* classification marks the abstract
//! locations another thread could possibly touch: all globals, everything
//! reachable from a spawned thread's argument, and transitively everything
//! stored inside an escaped location. Each `Load`/`Store` site is then
//! classified **thread-local** vs **may-shared** ([`MemAccess`]): an access
//! is may-shared when any abstract location it may touch has escaped, or
//! when its address cannot be resolved at all (the conservative direction —
//! the race-candidate pruning built on this analysis must only ever
//! *over*-approximate the racing accesses).
//!
//! Consumers: [`crate::racecand`] builds the static race-pair candidates
//! from the shared accesses, [`crate::slice`] uses the location sets to
//! follow memory dependences backward from the goal, and the
//! aliasing-dependent lints (`inconsistent-lock-guard`,
//! `shared-unsynchronized-write`) read the classification directly.

use crate::callgraph::CallGraph;
use esd_ir::{Callee, FuncId, GlobalId, Inst, Loc, LocalId, Operand, Program, Reg, Terminator};
use std::collections::{BTreeSet, HashMap};

/// An abstract memory location of the points-to solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsLoc {
    /// A global variable (the whole object; the analysis is field-
    /// insensitive, so every word of a global is one location).
    Global(GlobalId),
    /// An addressable local slot of the given function.
    Local(FuncId, LocalId),
    /// The heap object allocated by the `Alloc` instruction at this site.
    Alloc(Loc),
}

/// One classified memory access (`Load` or `Store`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    /// The access instruction's location.
    pub loc: Loc,
    /// True for `Store`, false for `Load`.
    pub is_write: bool,
    /// The abstract locations the access may touch (empty when the address
    /// could not be resolved to any abstract location).
    pub targets: BTreeSet<AbsLoc>,
    /// True when another thread may touch the same memory: a target escaped,
    /// or the address is unresolved (conservative).
    pub may_shared: bool,
}

/// The points-to and escape solution for a whole program.
#[derive(Debug, Clone, Default)]
pub struct PointsTo {
    /// Every `Load`/`Store` in the program, classified, in program order.
    pub accesses: Vec<MemAccess>,
    /// The escaped (may-shared) abstract locations.
    pub shared: BTreeSet<AbsLoc>,
    /// Points-to sets of virtual registers, keyed by `(function, register)`.
    /// Registers that never carry an address are absent.
    reg_pts: HashMap<(FuncId, Reg), BTreeSet<AbsLoc>>,
    /// Index of [`PointsTo::accesses`] by location.
    by_loc: HashMap<Loc, usize>,
}

/// Constraint-graph node: a register value, a function's return value, or
/// the contents of an abstract location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Var(FuncId, Reg),
    Ret(FuncId),
    Mem(AbsLoc),
}

/// The collected inclusion constraints, solved by [`PointsTo::compute`].
#[derive(Default)]
struct Constraints {
    /// `pts(node) ∋ loc` seeds.
    base: Vec<(Node, AbsLoc)>,
    /// `pts(dst) ⊇ pts(src)` copies.
    copy: Vec<(Node, Node)>,
    /// `pts(dst) ⊇ pts(*addr)` loads.
    load: Vec<(Node, Node)>,
    /// `pts(*addr) ⊇ pts(src)` stores.
    store: Vec<(Node, Node)>,
    /// Operands passed to `ThreadSpawn` (their pointees escape).
    spawn_args: Vec<Node>,
}

impl PointsTo {
    /// Runs the analysis over `program`, resolving indirect calls and spawns
    /// through `callgraph`.
    pub fn compute(program: &Program, callgraph: &CallGraph) -> Self {
        let constraints = collect_constraints(program, callgraph);
        let mut pts: HashMap<Node, BTreeSet<AbsLoc>> = HashMap::new();
        for (node, loc) in &constraints.base {
            pts.entry(*node).or_default().insert(*loc);
        }

        // Fixpoint over the inclusion constraints. The abstract-location
        // universe is finite (globals + locals + allocation sites), so every
        // set grows monotonically toward a bound and the loop terminates.
        loop {
            let mut changed = false;
            for (dst, src) in &constraints.copy {
                changed |= flow(&mut pts, *src, *dst);
            }
            for (dst, addr) in &constraints.load {
                let targets: Vec<AbsLoc> =
                    pts.get(addr).map(|s| s.iter().copied().collect()).unwrap_or_default();
                for l in targets {
                    changed |= flow(&mut pts, Node::Mem(l), *dst);
                }
            }
            for (addr, src) in &constraints.store {
                let targets: Vec<AbsLoc> =
                    pts.get(addr).map(|s| s.iter().copied().collect()).unwrap_or_default();
                for l in targets {
                    changed |= flow(&mut pts, *src, Node::Mem(l));
                }
            }
            if !changed {
                break;
            }
        }

        // Escape closure: globals are addressable from any thread; whatever
        // a spawn argument points to is handed to the child; and anything
        // stored inside an escaped location escapes with it.
        let mut shared: BTreeSet<AbsLoc> =
            (0..program.globals.len() as u32).map(|g| AbsLoc::Global(GlobalId(g))).collect();
        for arg in &constraints.spawn_args {
            if let Some(s) = pts.get(arg) {
                shared.extend(s.iter().copied());
            }
        }
        loop {
            let mut grew = false;
            for l in shared.clone() {
                if let Some(contents) = pts.get(&Node::Mem(l)) {
                    for c in contents {
                        grew |= shared.insert(*c);
                    }
                }
            }
            if !grew {
                break;
            }
        }

        // Classify every access with the final solution.
        let mut accesses = Vec::new();
        let mut by_loc = HashMap::new();
        for fid in program.func_ids() {
            let function = program.func(fid);
            for (bi, block) in function.blocks.iter().enumerate() {
                for (ii, inst) in block.insts.iter().enumerate() {
                    let loc = Loc::new(fid, esd_ir::BlockId(bi as u32), ii as u32);
                    let (addr, is_write) = match inst {
                        Inst::Load { addr, .. } => (*addr, false),
                        Inst::Store { addr, .. } => (*addr, true),
                        _ => continue,
                    };
                    let targets = match addr {
                        Operand::Reg(r) => pts.get(&Node::Var(fid, r)).cloned().unwrap_or_default(),
                        Operand::Const(_) => BTreeSet::new(),
                    };
                    let may_shared =
                        targets.is_empty() || targets.iter().any(|t| shared.contains(t));
                    by_loc.insert(loc, accesses.len());
                    accesses.push(MemAccess { loc, is_write, targets, may_shared });
                }
            }
        }

        let reg_pts = pts
            .into_iter()
            .filter_map(|(node, set)| match node {
                Node::Var(f, r) if !set.is_empty() => Some(((f, r), set)),
                _ => None,
            })
            .collect();
        PointsTo { accesses, shared, reg_pts, by_loc }
    }

    /// The classified access at `loc`, if `loc` is a `Load` or `Store`.
    pub fn access_at(&self, loc: Loc) -> Option<&MemAccess> {
        self.by_loc.get(&loc).map(|i| &self.accesses[*i])
    }

    /// The points-to set of register `reg` in `func` (empty when the
    /// register never carries an address).
    pub fn points_to(&self, func: FuncId, reg: Reg) -> BTreeSet<AbsLoc> {
        self.reg_pts.get(&(func, reg)).cloned().unwrap_or_default()
    }
}

/// Unions `pts(src)` into `pts(dst)`; true if `dst` grew.
fn flow(pts: &mut HashMap<Node, BTreeSet<AbsLoc>>, src: Node, dst: Node) -> bool {
    if src == dst {
        return false;
    }
    let Some(from) = pts.get(&src).cloned() else { return false };
    if from.is_empty() {
        return false;
    }
    let into = pts.entry(dst).or_default();
    let before = into.len();
    into.extend(from);
    into.len() != before
}

/// One pass over the program collecting the inclusion constraints.
fn collect_constraints(program: &Program, callgraph: &CallGraph) -> Constraints {
    let mut c = Constraints::default();
    for fid in program.func_ids() {
        let function = program.func(fid);
        // Indirect call/spawn targets come from the call graph's
        // address-taken + arity resolution.
        let site_targets: HashMap<Loc, Vec<FuncId>> =
            callgraph.sites_of(fid).iter().map(|s| (s.loc, s.targets.clone())).collect();
        let var = |r: Reg| Node::Var(fid, r);
        let operand = |op: Operand| -> Option<Node> {
            match op {
                Operand::Reg(r) => Some(Node::Var(fid, r)),
                Operand::Const(_) => None,
            }
        };
        for (bi, block) in function.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(fid, esd_ir::BlockId(bi as u32), ii as u32);
                match inst {
                    Inst::AddrGlobal { dst, global } => {
                        c.base.push((var(*dst), AbsLoc::Global(*global)));
                    }
                    Inst::AddrLocal { dst, local } => {
                        c.base.push((var(*dst), AbsLoc::Local(fid, *local)));
                    }
                    Inst::Alloc { dst, .. } => {
                        c.base.push((var(*dst), AbsLoc::Alloc(loc)));
                    }
                    // Field-insensitive: a pointer adjusted by `Gep` (or by
                    // plain arithmetic) still points into the same objects.
                    Inst::Gep { dst, base, .. } => {
                        if let Some(src) = operand(*base) {
                            c.copy.push((var(*dst), src));
                        }
                    }
                    Inst::Bin { dst, a, b, .. } => {
                        for op in [a, b] {
                            if let Some(src) = operand(*op) {
                                c.copy.push((var(*dst), src));
                            }
                        }
                    }
                    Inst::Load { dst, addr } => {
                        if let Some(addr) = operand(*addr) {
                            c.load.push((var(*dst), addr));
                        }
                    }
                    Inst::Store { addr, value } => {
                        if let (Some(addr), Some(value)) = (operand(*addr), operand(*value)) {
                            c.store.push((addr, value));
                        }
                    }
                    Inst::Call { dst, callee, args } => {
                        let targets: Vec<FuncId> = match callee {
                            Callee::Direct(t) => vec![*t],
                            Callee::Indirect(_) => {
                                site_targets.get(&loc).cloned().unwrap_or_default()
                            }
                        };
                        for t in targets {
                            for (i, arg) in args.iter().enumerate() {
                                if let Some(src) = operand(*arg) {
                                    c.copy.push((Node::Var(t, Reg(i as u32)), src));
                                }
                            }
                            if let Some(d) = dst {
                                c.copy.push((var(*d), Node::Ret(t)));
                            }
                        }
                    }
                    Inst::ThreadSpawn { func, arg, .. } => {
                        let targets: Vec<FuncId> = match func {
                            Callee::Direct(t) => vec![*t],
                            Callee::Indirect(_) => {
                                site_targets.get(&loc).cloned().unwrap_or_default()
                            }
                        };
                        if let Some(src) = operand(*arg) {
                            for t in &targets {
                                c.copy.push((Node::Var(*t, Reg(0)), src));
                            }
                            c.spawn_args.push(src);
                        }
                    }
                    _ => {}
                }
            }
            if let Terminator::Ret { value: Some(op) } = &block.term {
                if let Some(src) = operand(*op) {
                    c.copy.push((Node::Ret(fid), src));
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::ProgramBuilder;

    fn compute(p: &Program) -> PointsTo {
        PointsTo::compute(p, &CallGraph::build(p))
    }

    #[test]
    fn globals_are_shared_and_locals_are_thread_local() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("g", 1);
        let mut global_store = None;
        let mut local_store = None;
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            global_store = Some(f.here());
            f.store(gp, 1);
            let slot = f.local(1);
            let lp = f.addr_local(slot);
            local_store = Some(f.here());
            f.store(lp, 2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let pts = compute(&p);
        let ga = pts.access_at(global_store.unwrap()).unwrap();
        assert!(ga.may_shared, "a global access is always may-shared");
        assert_eq!(ga.targets.iter().collect::<Vec<_>>(), vec![&AbsLoc::Global(g)]);
        let la = pts.access_at(local_store.unwrap()).unwrap();
        assert!(!la.may_shared, "an unescaped local access is thread-local");
        assert!(la.is_write);
    }

    #[test]
    fn gep_and_arithmetic_preserve_the_pointed_to_object() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("buf", 4);
        let mut access = None;
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            let off = f.konst(2);
            let elem = f.gep(gp, off);
            access = Some(f.here());
            f.store(elem, 7);
            f.ret_void();
        });
        let p = pb.finish("main");
        let pts = compute(&p);
        let a = pts.access_at(access.unwrap()).unwrap();
        assert!(a.targets.contains(&AbsLoc::Global(g)));
    }

    #[test]
    fn pointers_flow_through_calls_and_returns() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("g", 1);
        let mut callee_store = None;
        let id = pb.declare("id", 1);
        pb.define(id, |f| {
            let p0 = f.param(0);
            callee_store = Some(f.here());
            f.store(p0, 5);
            f.ret(p0);
        });
        let mut caller_load = None;
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            let back = f.call(id, vec![gp.into()]);
            caller_load = Some(f.here());
            let v = f.load(back);
            f.output(v);
            f.ret_void();
        });
        let p = pb.finish("main");
        let pts = compute(&p);
        assert!(pts.access_at(callee_store.unwrap()).unwrap().targets.contains(&AbsLoc::Global(g)));
        assert!(pts.access_at(caller_load.unwrap()).unwrap().targets.contains(&AbsLoc::Global(g)));
    }

    #[test]
    fn memory_indirection_resolves_through_stores() {
        // g holds a pointer to the local slot; a load through g then reaches
        // the slot, and the slot escapes because g is a global.
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("holder", 1);
        let mut indirect_store = None;
        pb.function("main", 0, |f| {
            let slot = f.local(1);
            let lp = f.addr_local(slot);
            let gp = f.addr_global(g);
            f.store(gp, lp);
            let back = f.load(gp);
            indirect_store = Some(f.here());
            f.store(back, 3);
            f.ret_void();
        });
        let p = pb.finish("main");
        let pts = compute(&p);
        let main = p.entry;
        let a = pts.access_at(indirect_store.unwrap()).unwrap();
        assert!(a.targets.contains(&AbsLoc::Local(main, LocalId(0))));
        assert!(a.may_shared, "a local published through a global escapes");
        assert!(pts.shared.contains(&AbsLoc::Local(main, LocalId(0))));
    }

    #[test]
    fn alloc_stays_local_until_it_escapes_via_spawn() {
        let mut pb = ProgramBuilder::new("p");
        let mut worker_store = None;
        let worker = pb.declare("worker", 1);
        pb.define(worker, |f| {
            let p0 = f.param(0);
            worker_store = Some(f.here());
            f.store(p0, 1);
            f.ret_void();
        });
        let mut private_store = None;
        pb.function("main", 0, |f| {
            let private = f.alloc(2);
            private_store = Some(f.here());
            f.store(private, 9);
            let handed = f.alloc(2);
            let t = f.spawn(worker, handed);
            f.join(t);
            f.ret_void();
        });
        let p = pb.finish("main");
        let pts = compute(&p);
        assert!(
            !pts.access_at(private_store.unwrap()).unwrap().may_shared,
            "an allocation never handed out stays thread-local"
        );
        let wa = pts.access_at(worker_store.unwrap()).unwrap();
        assert!(wa.may_shared, "a spawn argument's pointee escapes to the child");
        assert!(!wa.targets.is_empty());
    }

    #[test]
    fn unresolved_addresses_classify_as_shared() {
        let mut pb = ProgramBuilder::new("p");
        let mut access = None;
        pb.function("main", 0, |f| {
            let null = f.konst(0);
            access = Some(f.here());
            let v = f.load(null);
            f.output(v);
            f.ret_void();
        });
        let p = pb.finish("main");
        let pts = compute(&p);
        let a = pts.access_at(access.unwrap()).unwrap();
        assert!(a.targets.is_empty());
        assert!(a.may_shared, "an unresolved address must classify conservatively");
    }
}
