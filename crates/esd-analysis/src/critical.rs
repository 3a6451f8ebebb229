//! Critical edges and intermediate goals (the output of the paper's static
//! phase, §3.2).
//!
//! * A **critical edge** is a CFG edge that *must* be followed on any path to
//!   the goal: at a conditional branch from which only one successor can
//!   still reach the goal block, that successor's edge is critical. During
//!   the dynamic phase, states that take the other edge are abandoned.
//! * An **intermediate goal** is a basic block that must execute for a
//!   critical edge to be traversable: a definition of one of the variables in
//!   the branch condition that (alone or in combination with definitions of
//!   the other variables) gives the condition its required value.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::reachdef::{eval_tri, global_stores, DefIndex, GlobalStore};
use esd_ir::{BlockId, FuncId, GlobalId, Loc, Operand, Program, Terminator};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

/// A branch edge that every path to the goal must take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalEdge {
    /// Function containing the branch.
    pub func: FuncId,
    /// Block whose terminator is the conditional branch.
    pub branch_block: BlockId,
    /// The successor that must be taken.
    pub required_succ: BlockId,
    /// The branch condition operand.
    pub cond: Operand,
    /// The value the condition must evaluate to (`true` = then-edge).
    pub required_value: bool,
}

/// A "must execute" block set: any one of the alternatives satisfies this
/// intermediate goal (alternatives are disjunctive; distinct
/// `IntermediateGoal`s are conjunctive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntermediateGoal {
    /// Candidate locations (each the location of a defining store).
    pub alternatives: Vec<Loc>,
    /// The global word whose definition this goal tracks.
    pub variable: (GlobalId, i64),
}

/// The result of the static phase for one goal.
#[derive(Debug, Clone)]
pub struct StaticGoalInfo {
    /// The goal the info was computed for.
    pub goal: Loc,
    /// Critical edges on the way to the goal (within the goal's function).
    pub critical_edges: Vec<CriticalEdge>,
    /// Intermediate goals derived from the critical edges' conditions.
    pub intermediate_goals: Vec<IntermediateGoal>,
}

impl StaticGoalInfo {
    /// Runs the static phase for `goal`. Every result lies within the goal's
    /// function, so `_callgraph` is unused; it stays for existing callers.
    pub fn compute(program: &Program, cfgs: &[Cfg], _callgraph: &CallGraph, goal: Loc) -> Self {
        let stores = OnceCell::new();
        let defs = DefIndex::new(program.func(goal.func));
        Self::compute_with(program, cfgs, goal, &defs, || {
            stores.get_or_init(|| global_stores(program)).as_slice()
        })
    }

    /// [`StaticGoalInfo::compute`] over the goal function's already built
    /// `defs`, reading the program's global stores from `stores` only when
    /// a critical edge's condition names a global: a caller that computes
    /// several goals of one program builds both once.
    pub(crate) fn compute_with<'s>(
        program: &Program,
        cfgs: &[Cfg],
        goal: Loc,
        defs: &DefIndex<'_>,
        stores: impl Fn() -> &'s [GlobalStore],
    ) -> Self {
        let goal_cfg = &cfgs[goal.func.0 as usize];
        let can_reach_goal = goal_cfg.can_reach(goal.block);
        let critical_edges = find_critical_edges(program, goal_cfg, goal, &can_reach_goal);
        let intermediate_goals = derive_intermediate_goals(program, defs, &critical_edges, stores);
        StaticGoalInfo { goal, critical_edges, intermediate_goals }
    }

    /// Returns the critical edge at `branch_block` of the goal function, if
    /// one was identified.
    pub fn critical_edge_at(&self, func: FuncId, block: BlockId) -> Option<&CriticalEdge> {
        self.critical_edges.iter().find(|e| e.func == func && e.branch_block == block)
    }

    /// All intermediate-goal locations, flattened (used to set up the virtual
    /// priority queues of the dynamic phase).
    pub fn intermediate_goal_locs(&self) -> Vec<Vec<Loc>> {
        self.intermediate_goals.iter().map(|g| g.alternatives.clone()).collect()
    }

    /// Merges the static phase's results for *several* goal locations into
    /// one bundle — a multi-threaded goal (a deadlock report lists one
    /// blocked-lock location per deadlocked thread) needs guidance toward
    /// every location, not just the first:
    ///
    /// * **intermediate goals** are the union (each becomes its own virtual
    ///   queue, so proximity guidance covers every thread's lock site);
    /// * **critical edges** are the intersection — an edge is only "must
    ///   take" if every goal requires it (with a single goal this is the
    ///   identity, and the engine does not apply critical edges to deadlock
    ///   goals anyway).
    ///
    /// `goal` (and the panic on an empty list) keep the single-goal shape:
    /// the first location stays the nominal primary goal.
    pub fn merge(infos: Vec<StaticGoalInfo>) -> StaticGoalInfo {
        let mut infos = infos.into_iter();
        let mut merged = infos.next().expect("at least one goal");
        for info in infos {
            merged.critical_edges.retain(|e| info.critical_edges.contains(e));
            for goal in info.intermediate_goals {
                if !merged.intermediate_goals.contains(&goal) {
                    merged.intermediate_goals.push(goal);
                }
            }
        }
        merged
    }
}

/// Walks backward from the goal block marking critical edges, in the style of
/// the paper: follow single-predecessor chains; at each predecessor whose
/// conditional branch has exactly one goal-reaching successor, mark that
/// edge.
fn find_critical_edges(
    program: &Program,
    cfg: &Cfg,
    goal: Loc,
    can_reach_goal: &[bool],
) -> Vec<CriticalEdge> {
    let function = program.func(goal.func);
    let mut edges = Vec::new();
    let mut visited = HashSet::new();
    let mut cur = goal.block;
    visited.insert(cur);
    loop {
        let preds = cfg.preds(cur);
        if preds.len() != 1 {
            break;
        }
        let p = preds[0];
        if !visited.insert(p) {
            break;
        }
        if let Terminator::CondBr { cond, then_bb, else_bb } = &function.block(p).term {
            let then_ok = can_reach_goal[then_bb.0 as usize];
            let else_ok = can_reach_goal[else_bb.0 as usize];
            if then_ok != else_ok {
                let required_succ = if then_ok { *then_bb } else { *else_bb };
                edges.push(CriticalEdge {
                    func: goal.func,
                    branch_block: p,
                    required_succ,
                    cond: *cond,
                    required_value: then_ok,
                });
            }
        }
        cur = p;
    }
    edges
}

const MAX_DEFS_PER_VAR: usize = 32;

/// Derives intermediate goals from critical-edge conditions: definitions of
/// the condition's global variables that give (or at least permit) the
/// condition its required value.
///
/// For each variable `v` in the condition of a critical edge:
///
/// * a constant definition `v = k` is **viable** if, with `v = k` and all
///   other variables unknown, the condition still *can* evaluate to the
///   required value (three-valued evaluation);
/// * if the variable's initial value is already viable, no intermediate goal
///   is emitted for it (executing a definition is not required);
/// * otherwise the viable definitions become the goal's (disjunctive)
///   alternatives; if there are none, every definition of the variable —
///   constant or not — is kept as a weak alternative. A wrong intermediate
///   goal only slows the search down, it never makes it unsound.
///
/// Every critical edge sits in the goal's function, whose definitions `defs`
/// indexes. `stores` hands out the program's global stores, built on the
/// first call.
fn derive_intermediate_goals<'s>(
    program: &Program,
    defs: &DefIndex<'_>,
    critical_edges: &[CriticalEdge],
    stores: impl Fn() -> &'s [GlobalStore],
) -> Vec<IntermediateGoal> {
    let mut goals = Vec::new();
    for edge in critical_edges {
        let expr = defs.trace(edge.cond);
        let vars = expr.globals();
        if vars.is_empty() {
            continue;
        }
        let stores = stores();

        // Viability of value `k` for variable `var`: with var = k and every
        // other variable unknown, can the condition still take the required
        // value?
        let viable = |var: (GlobalId, i64), value: i64| -> bool {
            let mut asg = HashMap::new();
            asg.insert(var, value);
            let t = eval_tri(&expr, &asg);
            if edge.required_value {
                !t.is_false()
            } else {
                !t.is_true()
            }
        };

        for var in &vars {
            let init = program.global(var.0).init.get(var.1 as usize).copied().unwrap_or(0);
            let var_stores: Vec<&GlobalStore> =
                stores.iter().filter(|s| s.target == *var).take(MAX_DEFS_PER_VAR).collect();

            if viable(*var, init) && var_stores.iter().all(|s| s.value.is_none()) {
                // The initial value already permits the condition and there is
                // no constant definition to prefer: no goal needed.
                continue;
            }
            let mut alternatives: Vec<Loc> = var_stores
                .iter()
                .filter(|s| match s.value {
                    Some(v) => viable(*var, v),
                    None => false,
                })
                .map(|s| s.loc)
                .collect();
            if alternatives.is_empty() {
                if viable(*var, init) {
                    // Initial value works; constant stores exist but none are
                    // required.
                    continue;
                }
                // Weak fallback: one of the variable's definitions (constant
                // or not) must execute for the condition to change.
                alternatives = var_stores.iter().map(|s| s.loc).collect();
            }
            alternatives.sort();
            alternatives.dedup();
            if !alternatives.is_empty() {
                goals.push(IntermediateGoal { alternatives, variable: *var });
            }
        }
    }
    // Deduplicate goals tracking the same variable with the same set.
    goals.sort_by_key(|g| (g.variable, g.alternatives.len()));
    goals.dedup();
    goals
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{BinOp, CmpOp, ProgramBuilder};

    /// A program shaped like the paper's Listing 1 `main`/`CriticalSection`
    /// condition: the goal sits behind `mode == 1 && idx == 1`.
    fn listing1_like() -> esd_ir::Program {
        let mut pb = ProgramBuilder::new("p");
        let mode = pb.global("mode", 1);
        let idx = pb.global("idx", 1);
        pb.function("main", 0, |f| {
            let modep = f.addr_global(mode);
            let idxp = f.addr_global(idx);
            // if (getchar() == 'm') idx++
            let c = f.getchar();
            let is_m = f.cmp(CmpOp::Eq, c, 'm' as i64);
            let inc = f.new_block("inc");
            let after = f.new_block("after");
            f.cond_br(is_m, inc, after);
            f.switch_to(inc);
            let v = f.load(idxp);
            let v1 = f.add(v, 1);
            f.store(idxp, v1);
            f.br(after);
            f.switch_to(after);
            // if (getenv == 'Y') mode = 1 else mode = 2
            let e = f.getenv("mode");
            let is_y = f.cmp(CmpOp::Eq, e, 'Y' as i64);
            let yes = f.new_block("yes");
            let no = f.new_block("no");
            let check = f.new_block("check");
            f.cond_br(is_y, yes, no);
            f.switch_to(yes);
            f.store(modep, 1);
            f.br(check);
            f.switch_to(no);
            f.store(modep, 2);
            f.br(check);
            f.switch_to(check);
            // if (mode == 1 && idx == 1) goal else other
            let mv = f.load(modep);
            let iv = f.load(idxp);
            let c1 = f.cmp(CmpOp::Eq, mv, 1);
            let c2 = f.cmp(CmpOp::Eq, iv, 1);
            let both = f.bin(BinOp::And, c1, c2);
            let goal_bb = f.new_block("goal");
            let other = f.new_block("other");
            f.cond_br(both, goal_bb, other);
            f.switch_to(goal_bb);
            f.output(1);
            f.ret_void();
            f.switch_to(other);
            f.ret_void();
        });
        pb.finish("main")
    }

    fn compute(p: &esd_ir::Program, goal: Loc) -> StaticGoalInfo {
        let cfgs: Vec<Cfg> = p.func_ids().map(|f| Cfg::build(p.func(f), f)).collect();
        let cg = CallGraph::build(p);
        StaticGoalInfo::compute(p, &cfgs, &cg, goal)
    }

    #[test]
    fn critical_edge_found_for_goal_behind_condition() {
        let p = listing1_like();
        let main = p.entry;
        let goal_bb = BlockId(6); // "goal"
        let info = compute(&p, Loc::new(main, goal_bb, 0));
        assert_eq!(info.critical_edges.len(), 1);
        let e = &info.critical_edges[0];
        assert_eq!(e.branch_block, BlockId(5)); // "check"
        assert_eq!(e.required_succ, goal_bb);
        assert!(e.required_value);
        assert!(info.critical_edge_at(main, BlockId(5)).is_some());
        assert!(info.critical_edge_at(main, BlockId(0)).is_none());
    }

    #[test]
    fn intermediate_goals_cover_mode_and_idx_definitions() {
        let p = listing1_like();
        let main = p.entry;
        let info = compute(&p, Loc::new(main, BlockId(6), 0));
        let mode = p.global_by_name("mode").unwrap();
        let idx = p.global_by_name("idx").unwrap();
        let mode_goal = info.intermediate_goals.iter().find(|g| g.variable.0 == mode);
        let idx_goal = info.intermediate_goals.iter().find(|g| g.variable.0 == idx);
        let mode_goal = mode_goal.expect("mode must have an intermediate goal");
        let idx_goal = idx_goal.expect("idx must have an intermediate goal");
        // mode's satisfying definition is the constant store `mode = 1` in
        // block "yes" (block 3); the store of 2 must not be an alternative.
        assert_eq!(mode_goal.alternatives.len(), 1);
        assert_eq!(mode_goal.alternatives[0].block, BlockId(3));
        // idx has only the non-constant `idx++` definition in block "inc".
        assert!(idx_goal.alternatives.iter().any(|l| l.block == BlockId(1)));
    }

    #[test]
    fn no_critical_edges_when_goal_reachable_from_both_sides() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let a = f.new_block("a");
            let b = f.new_block("b");
            let join = f.new_block("join");
            f.cond_br(x, a, b);
            f.switch_to(a);
            f.br(join);
            f.switch_to(b);
            f.br(join);
            f.switch_to(join);
            f.ret_void();
        });
        let p = pb.finish("main");
        let info = compute(&p, Loc::new(p.entry, BlockId(3), 0));
        // The join block has two predecessors, so the backward walk stops
        // immediately and no critical edges are reported.
        assert!(info.critical_edges.is_empty());
        assert!(info.intermediate_goals.is_empty());
    }
}
