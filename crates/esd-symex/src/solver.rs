//! A lightweight constraint solver for path conditions.
//!
//! Klee delegates to STP; this reproduction uses a small solver tailored to
//! the constraints execution synthesis actually produces (equalities and
//! comparisons between linear combinations of input words and constants):
//!
//! 1. the bounds pass: interval narrowing from `var <op> const`
//!    constraints. It answers `Unsat` on a constant-0 conjunct, an empty
//!    interval, or a conjunct whose value range is exactly 0 under the
//!    static interval analysis's transfer functions, and it is the only step
//!    that ever answers `Unsat`;
//! 2. a candidate assignment from the narrowed intervals, the values
//!    `var == const` constraints fix and the "interesting constants"
//!    appearing in the constraints;
//! 3. verification by concrete evaluation. Only if the candidate fails, two
//!    deterministic fallbacks: a violated `a == b` conjunct solved for one of
//!    its variables, then enumeration of the harvested box when it holds at
//!    most 4,096 points. Past both the answer is `Unknown`, even for an
//!    exhausted box.
//!
//! Feasibility questions ([`Solver::is_feasible`], [`Solver::branch_feasible`])
//! stop after the bounds pass: they only need to know whether the answer is
//! `Unsat`. Only model requests ([`Solver::solve`]) build and verify a
//! candidate.
//!
//! The solver is sound but deliberately incomplete: a returned model always
//! satisfies the constraints (it is re-verified concretely), while a
//! `Unknown` answer merely means the search must look elsewhere — matching
//! the paper's discussion of inherently hard constraints (§8).

use crate::expr::{SymExpr, SymVar};
use esd_analysis::interval::{bin_interval, cmp_interval};
use esd_analysis::{Feasibility, Interval};
use esd_ir::CmpOp;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The outcome of a solver query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverResult {
    /// A satisfying assignment was found.
    Sat(HashMap<SymVar, i64>),
    /// The constraints are definitely unsatisfiable.
    Unsat,
    /// The solver gave up.
    Unknown,
}

impl SolverResult {
    /// Returns the model if satisfiable.
    pub fn model(self) -> Option<HashMap<SymVar, i64>> {
        match self {
            SolverResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// True if a model was found.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolverResult::Sat(_))
    }
}

/// Accepted and ignored by [`Solver::new`]: nothing is left to configure. It
/// stays, without fields, because the benchmark's layer probe
/// (`perfbench/src/probe.rs`) calls `Solver::new(SolverConfig::default())`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverConfig;

/// Every value a variable can take: the interval harvesting starts from.
const FULL_RANGE: (i64, i64) = (i64::MIN, i64::MAX);

/// An empty interval (`lo > hi`) that narrowing keeps empty.
const EMPTY: (i64, i64) = (i64::MAX, i64::MIN);

/// Where candidate values are sampled when the constraints allow: a quarter
/// of the range on either side, so arithmetic on a sampled value rarely
/// overflows.
const SAMPLE_CLAMP: (i64, i64) = (i64::MIN / 4, i64::MAX / 4);

/// The most points a harvested box may hold for `solve` to enumerate it.
const ENUMERATION_LIMIT: u64 = 1 << 12;

/// The constraint solver. Stateless apart from its counter.
#[derive(Debug, Default)]
pub struct Solver {
    /// Number of queries answered (reported in search statistics): one per
    /// `solve` or `is_feasible` call, two per `branch_feasible` call.
    pub queries: u64,
}

impl Solver {
    /// Creates a solver; the configuration is ignored (see [`SolverConfig`]).
    pub fn new(_config: SolverConfig) -> Self {
        Solver::default()
    }

    /// Checks whether all constraints (interpreted as "must be non-zero") can
    /// hold simultaneously, returning a model if one is found.
    pub fn solve(&mut self, constraints: &[Arc<SymExpr>]) -> SolverResult {
        self.queries += 1;
        let mut hints = Hints::default();
        let Some(mut intervals) = bounds(constraints, Some(&mut hints)) else {
            return SolverResult::Unsat;
        };
        let Hints { fixed, interesting } = hints;
        let mut vars = Vec::new();
        for c in constraints {
            c.vars(&mut vars);
        }

        // Candidate assignment: fixed values, otherwise an interesting value
        // inside the interval, otherwise a clamped default. Sample inside the
        // default clamp where the constraints allow it, and from the harvested
        // interval when they require a value outside it.
        let mut candidate: HashMap<SymVar, i64> = HashMap::new();
        for v in &vars {
            let (lo, hi) = *intervals.entry(*v).or_insert(FULL_RANGE);
            let (lo, hi) = match (lo.max(SAMPLE_CLAMP.0), hi.min(SAMPLE_CLAMP.1)) {
                (l, h) if l <= h => (l, h),
                _ => (lo, hi),
            };
            let value = if let Some(f) = fixed.get(v) {
                *f
            } else if let Some(cands) = interesting.get(v) {
                cands.iter().copied().find(|c| *c >= lo && *c <= hi).unwrap_or(lo.max(0.min(hi)))
            } else {
                0.clamp(lo, hi)
            };
            candidate.insert(*v, value);
        }
        if verify(constraints, &candidate) {
            return SolverResult::Sat(candidate);
        }
        solve_equalities(constraints, &intervals, &candidate)
            .or_else(|| enumerate(constraints, &intervals))
            .map_or(SolverResult::Unknown, SolverResult::Sat)
    }

    /// Is the conjunction satisfiable at all? Exactly "`solve` would not
    /// answer `Unsat`", decided by the bounds pass alone: no candidate model
    /// is built or verified.
    pub fn is_feasible(&mut self, constraints: &[Arc<SymExpr>]) -> bool {
        self.queries += 1;
        bounds(constraints, None).is_some()
    }

    /// Both sides of a branch on `cond` under the path condition `prefix`:
    /// `(is_feasible(prefix + [cond]), is_feasible(prefix + [¬cond]))`, and
    /// counted as those two queries, but with `prefix` harvested once.
    pub fn branch_feasible(
        &mut self,
        prefix: &[Arc<SymExpr>],
        cond: &Arc<SymExpr>,
    ) -> (bool, bool) {
        self.queries += 2;
        if has_false_conjunct(prefix) {
            return (false, false);
        }
        let mut shared = Intervals::new();
        for c in prefix {
            harvest(c, true, &mut shared, None);
        }
        let negated = SymExpr::not(cond.clone());
        let then_feasible = extend(prefix, cond, shared.clone());
        let else_feasible = extend(prefix, &negated, shared);
        (then_feasible, else_feasible)
    }
}

/// Per-variable bounds harvested from a conjunction; a variable without an
/// entry is unbounded.
type Intervals = BTreeMap<SymVar, (i64, i64)>;

/// What `solve` harvests beyond the bounds to build its candidate model.
#[derive(Default)]
struct Hints {
    /// Values equality constraints fix.
    fixed: HashMap<SymVar, i64>,
    /// Constants worth trying for each variable.
    interesting: HashMap<SymVar, Vec<i64>>,
}

impl Hints {
    /// Marks every constant of `expr` (and its neighbours) as interesting for
    /// every variable of `expr`.
    fn note_consts(&mut self, expr: &SymExpr) {
        let mut vars = Vec::new();
        expr.vars(&mut vars);
        let consts = collect_consts(expr);
        for v in vars {
            let e = self.interesting.entry(v).or_default();
            for c in &consts {
                push_interesting(e, *c);
            }
        }
    }
}

/// The bounds pass, the solver's only `Unsat` decider: a constant-0
/// conjunct, an empty harvested interval, or a conjunct whose range is
/// exactly 0 (see [`consistent`]). Returns the harvested intervals, or `None` when the conjunction is unsatisfiable. `hints`, when
/// given, also collects what `solve` needs for its candidate model.
fn bounds(constraints: &[Arc<SymExpr>], mut hints: Option<&mut Hints>) -> Option<Intervals> {
    if has_false_conjunct(constraints) {
        return None;
    }
    let mut intervals = Intervals::new();
    for c in constraints {
        harvest(c, true, &mut intervals, hints.as_deref_mut());
    }
    consistent(constraints.iter(), &intervals).then_some(intervals)
}

/// The bounds pass for `prefix + [last]`, given `prefix`'s harvested
/// intervals and that `prefix` has no constant-0 conjunct.
fn extend(prefix: &[Arc<SymExpr>], last: &Arc<SymExpr>, mut intervals: Intervals) -> bool {
    if last.as_const() == Some(0) {
        return false;
    }
    harvest(last, true, &mut intervals, None);
    consistent(prefix.iter().chain([last]), &intervals)
}

fn has_false_conjunct(constraints: &[Arc<SymExpr>]) -> bool {
    constraints.iter().any(|c| c.as_const() == Some(0))
}

/// Whether the harvested `intervals` leave the conjunction possible. The
/// bounds come from single-variable constraints over the full i64 range, so
/// an empty interval is a definitive Unsat. So is a conjunct whose [`range`]
/// is exactly 0; that covers a conjunct false at the values one-value
/// intervals pin its variables to, unless evaluating it could wrap.
fn consistent<'a>(
    mut conjuncts: impl Iterator<Item = &'a Arc<SymExpr>>,
    intervals: &Intervals,
) -> bool {
    !intervals.values().any(|(lo, hi)| lo > hi)
        && conjuncts.all(|c| range(c, intervals).as_const() != Some(0))
}

/// The values `expr` can take with each variable in its harvested interval,
/// under the static interval analysis's own transfer functions. A branch
/// that analysis proves one-sided (say `x & 63 <= 63`) is therefore refuted
/// here on its other side, so the search never forks a branch the static
/// phase knows to be decided. Callers have already rejected empty intervals.
fn range(expr: &SymExpr, intervals: &Intervals) -> Interval {
    match expr {
        SymExpr::Const(c) => Interval::exact(*c),
        SymExpr::Var(v) => {
            intervals.get(v).map_or(Interval::TOP, |(lo, hi)| Interval::new(*lo, *hi))
        }
        SymExpr::Bin(op, a, b) => bin_interval(*op, range(a, intervals), range(b, intervals)),
        SymExpr::Cmp(op, a, b) => cmp_interval(*op, range(a, intervals), range(b, intervals)),
        SymExpr::Not(a) => match range(a, intervals).feasibility() {
            Feasibility::AlwaysTrue => Interval::exact(0),
            Feasibility::AlwaysFalse => Interval::exact(1),
            Feasibility::Unknown => Interval::new(0, 1),
        },
    }
}

fn verify(constraints: &[Arc<SymExpr>], assignment: &HashMap<SymVar, i64>) -> bool {
    constraints.iter().all(|c| c.eval(assignment) != 0)
}

/// The first fallback: for each violated `a == b` conjunct and each of its
/// variables in `SymVar` order, hold the others at the candidate and move
/// that one to its root (see [`linear_root`]) if the root lies in its
/// harvested interval. Returns the first assignment that verifies.
fn solve_equalities(
    constraints: &[Arc<SymExpr>],
    intervals: &Intervals,
    candidate: &HashMap<SymVar, i64>,
) -> Option<HashMap<SymVar, i64>> {
    for c in constraints.iter().filter(|c| c.eval(candidate) == 0) {
        let SymExpr::Cmp(CmpOp::Eq, a, b) = c.as_ref() else { continue };
        let mut vars = Vec::new();
        c.vars(&mut vars);
        vars.sort();
        for v in vars {
            let (mut at, (lo, hi)) = (candidate.clone(), intervals[&v]);
            if let Some(root) = linear_root(a, b, v, &mut at).filter(|r| (lo..=hi).contains(r)) {
                at.insert(v, root);
                if verify(constraints, &at) {
                    return Some(at);
                }
            }
        }
    }
    None
}

/// The root of `a - b` in `v`, read as linear from its values at `v = 0` and
/// `v = 1` with the other variables as in `at`. `None` unless the root is an
/// integer and no step overflows.
fn linear_root(a: &SymExpr, b: &SymExpr, v: SymVar, at: &mut HashMap<SymVar, i64>) -> Option<i64> {
    let mut residual = |value| {
        at.insert(v, value);
        a.eval(at).checked_sub(b.eval(at))
    };
    let offset = residual(0)?;
    let slope = residual(1)?.checked_sub(offset)?;
    // `checked_div` already refused a zero slope and the one overflow of `%`.
    offset.checked_div(slope).filter(|_| offset % slope == 0)?.checked_neg()
}

/// The second fallback: when the harvested box holds at most
/// [`ENUMERATION_LIMIT`] points, try them in `SymVar` order from low to high
/// (the lowest variable changing slowest) and return the first model.
fn enumerate(constraints: &[Arc<SymExpr>], intervals: &Intervals) -> Option<HashMap<SymVar, i64>> {
    let mut points: u64 = 1;
    for (lo, hi) in intervals.values() {
        let width = hi.abs_diff(*lo).checked_add(1)?;
        points = points.checked_mul(width).filter(|p| *p <= ENUMERATION_LIMIT)?;
    }
    (0..points).find_map(|mut point| {
        let mut at = HashMap::new();
        for (v, (lo, hi)) in intervals.iter().rev() {
            let width = hi.abs_diff(*lo) + 1;
            at.insert(*v, lo + (point % width) as i64);
            point /= width;
        }
        verify(constraints, &at).then_some(at)
    })
}

/// Harvests interval bounds from a constraint that must evaluate to
/// `required` (true = non-zero), and with `hints` also fixed values and
/// interesting constants.
fn harvest(
    expr: &SymExpr,
    required: bool,
    intervals: &mut Intervals,
    mut hints: Option<&mut Hints>,
) {
    match expr {
        SymExpr::Not(inner) => harvest(inner, !required, intervals, hints),
        SymExpr::Cmp(op, a, b) => {
            let (var, konst, op) = match (a.as_ref(), b.as_ref()) {
                (SymExpr::Var(v), SymExpr::Const(c)) => (*v, *c, *op),
                (SymExpr::Const(c), SymExpr::Var(v)) => (*v, *c, op.swap()),
                _ => {
                    if let Some(h) = hints {
                        h.note_consts(expr);
                    }
                    return;
                }
            };
            let op = if required { op } else { op.negate() };
            let entry = intervals.entry(var).or_insert(FULL_RANGE);
            match op {
                CmpOp::Eq => {
                    if let Some(h) = hints.as_deref_mut() {
                        h.fixed.insert(var, konst);
                    }
                    entry.0 = entry.0.max(konst);
                    entry.1 = entry.1.min(konst);
                }
                CmpOp::Ne => {
                    if let Some(h) = hints.as_deref_mut() {
                        let e = h.interesting.entry(var).or_default();
                        push_interesting(e, konst.wrapping_add(1));
                        push_interesting(e, konst.wrapping_sub(1));
                    }
                }
                // `x < i64::MIN` and `x > i64::MAX` hold for no value.
                CmpOp::Lt => match konst.checked_sub(1) {
                    Some(k) => entry.1 = entry.1.min(k),
                    None => *entry = EMPTY,
                },
                CmpOp::Le => entry.1 = entry.1.min(konst),
                CmpOp::Gt => match konst.checked_add(1) {
                    Some(k) => entry.0 = entry.0.max(k),
                    None => *entry = EMPTY,
                },
                CmpOp::Ge => entry.0 = entry.0.max(konst),
            }
            if let Some(h) = hints {
                let e = h.interesting.entry(var).or_default();
                push_interesting(e, konst);
                push_interesting(e, konst.wrapping_add(1));
                push_interesting(e, konst.wrapping_sub(1));
            }
        }
        SymExpr::Bin(esd_ir::BinOp::And, a, b) if required => {
            harvest(a, true, intervals, hints.as_deref_mut());
            harvest(b, true, intervals, hints);
        }
        SymExpr::Var(v) => {
            if let Some(h) = hints {
                if required {
                    push_interesting(h.interesting.entry(*v).or_default(), 1);
                } else {
                    h.fixed.insert(*v, 0);
                }
            }
        }
        _ => {
            if let Some(h) = hints {
                h.note_consts(expr);
            }
        }
    }
}

fn push_interesting(list: &mut Vec<i64>, v: i64) {
    if !list.contains(&v) && list.len() < 64 {
        list.push(v);
    }
}

fn collect_consts(expr: &SymExpr) -> Vec<i64> {
    let mut out = Vec::new();
    fn rec(e: &SymExpr, out: &mut Vec<i64>) {
        match e {
            SymExpr::Const(c) => {
                if !out.contains(c) {
                    out.push(*c);
                    out.push(c.wrapping_add(1));
                    out.push(c.wrapping_sub(1));
                }
            }
            SymExpr::Var(_) => {}
            SymExpr::Bin(_, a, b) | SymExpr::Cmp(_, a, b) => {
                rec(a, out);
                rec(b, out);
            }
            SymExpr::Not(a) => rec(a, out),
        }
    }
    rec(expr, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::BinOp;

    fn var(i: u32) -> Arc<SymExpr> {
        SymExpr::var(SymVar(i))
    }

    fn c(v: i64) -> Arc<SymExpr> {
        SymExpr::constant(v)
    }

    #[test]
    fn equality_constraints_are_solved_directly() {
        let mut s = Solver::default();
        let constraints = vec![SymExpr::cmp(CmpOp::Eq, var(0), c('m' as i64))];
        let model = s.solve(&constraints).model().unwrap();
        assert_eq!(model[&SymVar(0)], 'm' as i64);
    }

    #[test]
    fn conjunction_over_multiple_variables() {
        let mut s = Solver::default();
        let constraints = vec![
            SymExpr::cmp(CmpOp::Eq, var(0), c('Y' as i64)),
            SymExpr::cmp(CmpOp::Gt, var(1), c(10)),
            SymExpr::cmp(CmpOp::Lt, var(1), c(20)),
            SymExpr::cmp(CmpOp::Ne, var(2), c(0)),
        ];
        let model = s.solve(&constraints).model().unwrap();
        assert_eq!(model[&SymVar(0)], 'Y' as i64);
        assert!(model[&SymVar(1)] > 10 && model[&SymVar(1)] < 20);
        assert_ne!(model[&SymVar(2)], 0);
    }

    #[test]
    fn contradictory_equalities_are_unsat_or_unknown_but_never_sat() {
        let mut s = Solver::default();
        let constraints =
            vec![SymExpr::cmp(CmpOp::Eq, var(0), c(1)), SymExpr::cmp(CmpOp::Eq, var(0), c(2))];
        let r = s.solve(&constraints);
        assert!(!r.is_sat());
    }

    #[test]
    fn empty_interval_is_unsat() {
        let mut s = Solver::default();
        let constraints =
            vec![SymExpr::cmp(CmpOp::Gt, var(0), c(10)), SymExpr::cmp(CmpOp::Lt, var(0), c(5))];
        assert_eq!(s.solve(&constraints), SolverResult::Unsat);
        assert!(!s.is_feasible(&constraints));
    }

    /// Regression: a path condition holding `x == 49 ∧ y == 29` and its
    /// negation defeated the former randomized repair loop, so `solve`
    /// answered `Unknown` and `is_feasible` called the contradiction
    /// feasible. Both variables are pinned by the first conjunct's bounds,
    /// and the second is false there.
    #[test]
    fn complementary_conjunctions_are_unsat() {
        let mut s = Solver::default();
        let both = SymExpr::bin(
            BinOp::And,
            SymExpr::cmp(CmpOp::Eq, var(0), c(49)),
            SymExpr::cmp(CmpOp::Eq, var(1), c(29)),
        );
        let constraints = vec![both.clone(), SymExpr::not(both)];
        assert_eq!(s.solve(&constraints), SolverResult::Unsat);
        assert!(!s.is_feasible(&constraints));
    }

    #[test]
    fn branch_feasible_answers_both_sides_as_two_queries() {
        let mut s = Solver::default();
        let prefix = vec![SymExpr::cmp(CmpOp::Gt, var(0), c(10))];
        let lt5 = SymExpr::cmp(CmpOp::Lt, var(0), c(5));
        assert_eq!(s.branch_feasible(&prefix, &lt5), (false, true));
        let gt20 = SymExpr::cmp(CmpOp::Gt, var(0), c(20));
        assert_eq!(s.branch_feasible(&prefix, &gt20), (true, true));
        let pinned = vec![SymExpr::cmp(CmpOp::Eq, var(0), c(3))];
        let sum = SymExpr::cmp(CmpOp::Eq, SymExpr::bin(BinOp::Add, var(0), c(1)), c(4));
        assert_eq!(s.branch_feasible(&pinned, &sum), (true, false));
        assert_eq!(s.branch_feasible(&[c(0)], &sum), (false, false));
        assert_eq!(s.queries, 8);
    }

    /// Regression: the masked range check `x & 63 <= 63` holds for every
    /// input, and the static interval analysis decides it, but the bounds
    /// pass called its else side feasible. A search that asked the solver
    /// then forked that infeasible side and never reached a bug armed by
    /// `x == 18`, which the else side contradicts.
    #[test]
    fn ranges_refute_what_the_interval_analysis_decides() {
        let mut s = Solver::default();
        let masked = SymExpr::bin(BinOp::And, var(0), c(63));
        let in_range = SymExpr::cmp(CmpOp::Le, masked.clone(), c(63));
        assert_eq!(s.branch_feasible(&[], &in_range), (true, false));
        assert_eq!(s.solve(&[SymExpr::not(in_range)]), SolverResult::Unsat);
        // Harvested bounds narrow the range too: `100 < x < 1000` puts
        // `x + 1` in `[102, 1000]`. (Without the upper bound `x + 1` could
        // wrap, and the range is the full one.)
        let prefix =
            vec![SymExpr::cmp(CmpOp::Gt, var(0), c(100)), SymExpr::cmp(CmpOp::Lt, var(0), c(1000))];
        let small = SymExpr::cmp(CmpOp::Lt, SymExpr::bin(BinOp::Add, var(0), c(1)), c(50));
        assert_eq!(s.branch_feasible(&prefix, &small), (false, true));
        // An undecided range leaves both sides open.
        let low = SymExpr::cmp(CmpOp::Lt, masked, c(10));
        assert_eq!(s.branch_feasible(&[], &low), (true, true));
    }

    /// Regression: harvesting used to start every variable at the sampling
    /// clamp (±`i64::MAX / 4`), so a bound beyond it read as an empty
    /// interval and a satisfiable query came back Unsat.
    #[test]
    fn bounds_beyond_the_sampling_clamp_stay_satisfiable() {
        let mut s = Solver::default();
        let above = vec![SymExpr::cmp(CmpOp::Gt, var(0), c(i64::MAX / 4))];
        let model = s.solve(&above).model().expect("x > i64::MAX / 4 is satisfiable");
        assert!(model[&SymVar(0)] > i64::MAX / 4);
        let at_max = vec![SymExpr::cmp(CmpOp::Eq, var(0), c(i64::MAX))];
        assert_eq!(s.solve(&at_max).model().expect("x == i64::MAX")[&SymVar(0)], i64::MAX);
        let below = vec![SymExpr::cmp(CmpOp::Le, var(0), c(i64::MIN / 2))];
        assert!(s.solve(&below).model().expect("x <= i64::MIN / 2")[&SymVar(0)] <= i64::MIN / 2);
        // Inside the clamp nothing changes: the sample stays where it was.
        let inside = vec![SymExpr::cmp(CmpOp::Gt, var(0), c(10))];
        assert_eq!(s.solve(&inside).model().expect("x > 10")[&SymVar(0)], 11);
    }

    /// Regression: `konst - 1` / `konst + 1` overflowed on the extreme
    /// constants. Nothing is below `i64::MIN` or above `i64::MAX`.
    #[test]
    fn comparisons_past_the_i64_extremes_are_unsat() {
        let mut s = Solver::default();
        for (op, k) in [(CmpOp::Lt, i64::MIN), (CmpOp::Gt, i64::MAX)] {
            let constraints = vec![SymExpr::cmp(op, var(0), c(k))];
            assert_eq!(s.solve(&constraints), SolverResult::Unsat, "x {op:?} {k}");
            // The negations hold for every value.
            assert!(s.solve(&[SymExpr::not(constraints[0].clone())]).is_sat());
        }
    }

    /// Three shapes whose first candidate fails: each needs one variable
    /// moved to the root of an equality.
    #[test]
    fn linear_equalities_solved_directly() {
        let mut s = Solver::default();
        let sum = SymExpr::bin(BinOp::Add, var(0), var(1));
        let twice = SymExpr::bin(BinOp::Mul, var(0), c(2));
        let cases = [
            // x == 42 ∧ x + y == 100 ⇒ y == 58.
            vec![
                SymExpr::cmp(CmpOp::Eq, var(0), c(42)),
                SymExpr::cmp(CmpOp::Eq, sum.clone(), c(100)),
            ],
            vec![SymExpr::cmp(CmpOp::Eq, twice, c(84))],
            vec![SymExpr::cmp(CmpOp::Eq, sum, c(77))],
        ];
        for constraints in cases {
            match s.solve(&constraints) {
                SolverResult::Sat(m) => assert!(verify(&constraints, &m), "{constraints:?}: {m:?}"),
                other => panic!("{constraints:?}: expected sat, got {other:?}"),
            }
        }
    }

    /// A box of exactly `ENUMERATION_LIMIT` points is enumerated; one value
    /// wider, the same query is `Unknown` although it has a model.
    #[test]
    fn enumeration_stops_at_the_limit() {
        let mut s = Solver::default();
        let query = |hi: i64| {
            // x · x == 4095², which no candidate or linear root satisfies.
            let square = SymExpr::bin(BinOp::Mul, var(0), var(0));
            vec![
                SymExpr::cmp(CmpOp::Ge, var(0), c(0)),
                SymExpr::cmp(CmpOp::Le, var(0), c(hi)),
                SymExpr::cmp(CmpOp::Eq, square, c(4095 * 4095)),
            ]
        };
        assert_eq!(ENUMERATION_LIMIT, 4096);
        assert_eq!(s.solve(&query(4095)).model().unwrap()[&SymVar(0)], 4095);
        assert_eq!(s.solve(&query(4096)), SolverResult::Unknown);
    }

    #[test]
    fn negated_branch_conditions() {
        let mut s = Solver::default();
        let constraints = vec![
            SymExpr::not(SymExpr::cmp(CmpOp::Eq, var(0), c(7))),
            SymExpr::cmp(CmpOp::Ge, var(0), c(7)),
        ];
        let model = s.solve(&constraints).model().unwrap();
        assert!(model[&SymVar(0)] > 7);
    }

    #[test]
    fn no_constraints_is_trivially_sat() {
        let mut s = Solver::default();
        assert!(s.solve(&[]).is_sat());
        assert_eq!(s.queries, 1);
    }

    #[test]
    fn constant_false_constraint_is_unsat() {
        let mut s = Solver::default();
        assert_eq!(s.solve(&[c(0)]), SolverResult::Unsat);
        assert!(s.solve(&[c(1)]).is_sat());
    }

    #[test]
    fn boolean_and_of_conditions_is_split() {
        let mut s = Solver::default();
        let both = SymExpr::bin(
            BinOp::And,
            SymExpr::cmp(CmpOp::Eq, var(0), c(1)),
            SymExpr::cmp(CmpOp::Eq, var(1), c(1)),
        );
        let model = s.solve(&[both]).model().unwrap();
        assert_eq!(model[&SymVar(0)], 1);
        assert_eq!(model[&SymVar(1)], 1);
    }
}
