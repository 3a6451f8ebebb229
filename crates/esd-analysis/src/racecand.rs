//! Static race-pair candidates: may-happen-in-parallel × lockset filtering
//! over the points-to classification.
//!
//! The paper's static phase promises the race-directed schedule search a set
//! of *candidate racing accesses* before any dynamic exploration (§4.2):
//! preemptions only matter around accesses that could actually race. This
//! module computes that set from three ingredients:
//!
//! 1. **Shared accesses** — [`crate::pointsto`] classifies each `Load`/`Store`
//!    as thread-local vs. may-shared; only may-shared accesses can race.
//! 2. **May-happen-in-parallel (MHP)** — an approximation from the
//!    spawn/join structure. Accesses in two *different* spawned thread roots
//!    always MHP; two accesses in the *same* root MHP only when that root
//!    may have multiple live instances (several static spawn/call sites, a
//!    site in a loop or recursion, or a spawner whose own body runs multiply
//!    — a fixpoint over call *and* spawn edges); a main-context access MHPs
//!    with a root only while some spawn of that root is still *outstanding*
//!    — a forward dataflow over spawn sites with joins killing the (unique,
//!    non-looped) site they synchronize with, and calls adding every spawn
//!    site in the callee's call closure (a helper that spawns leaves the
//!    thread outstanding in its caller after the call returns).
//! 3. **Locksets** — a pair is excluded only when both accesses *must* hold
//!    a common statically-identified mutex (intraprocedural, empty entry
//!    fact, intersection join, cleared across calls). Must-hold is the sound
//!    direction: if both sides provably hold the same global mutex, the
//!    dynamic lockset detector can never flag the pair, so skipping the
//!    preemption fork is behavior-preserving. The *may*-hold sets (seeded
//!    from [`crate::lockorder`]'s interprocedural entry locksets) are kept
//!    alongside for the aliasing-dependent lints, never for exclusion.
//!
//! Surviving pairs become ranked [`RacePairCandidate`]s — fewest
//! *distractor* accesses (other shared accesses touching the same abstract
//! locations) first, mirroring `lockorder`'s tightest-cycle-first ranking —
//! and the union of their locations gates the stepper's race-preemption
//! forks. A second, coarser gate covers `Yield`: a yield needs a fork only
//! if some candidate access (or a call that can reach one) can precede it on
//! the same thread *and* another can follow it ([`RaceCandidates::relevant_yields`]);
//! precedence propagates through calls but not through spawns, because a
//! parent's accesses before a spawn are ordered before everything the child
//! does regardless of how the child's yields are scheduled.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::{self, ForwardAnalysis, JoinSemiLattice};
use crate::lockorder::{self, LockOrderInfo, LockSet};
use crate::pointsto::{AbsLoc, PointsTo};
use crate::reachdef::DefIndex;
use esd_ir::{BlockId, Callee, FuncId, GlobalId, Inst, Loc, Program, Reg};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A pair of may-shared accesses that may race: they may touch the same
/// abstract location, at least one writes, they may happen in parallel, and
/// no common mutex is provably held on both sides. `access_a == access_b`
/// encodes a self-race — the same static instruction executed by two
/// instances of a multiply-spawned thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RacePairCandidate {
    /// The first access location (`access_a <= access_b`).
    pub access_a: Loc,
    /// The second access location.
    pub access_b: Loc,
    /// Mutexes provably held on both sides — empty by construction: pairs
    /// with a common must-held lock are excluded, so every *candidate*
    /// reaches the search with an empty common lockset.
    pub common_locks: BTreeSet<GlobalId>,
    /// The shared abstract locations both sides may touch.
    pub targets: BTreeSet<AbsLoc>,
    /// Number of *other* shared accesses that also touch [`targets`] — the
    /// ranking key: fewer distractors means a tighter, more actionable
    /// candidate.
    ///
    /// [`targets`]: RacePairCandidate::targets
    pub distractors: usize,
}

/// The static race-candidate analysis result for a whole program.
#[derive(Debug, Clone, Default)]
pub struct RaceCandidates {
    /// The candidate pairs, ranked tightest-first: ascending distractor
    /// count, then by location pair.
    pub candidates: Vec<RacePairCandidate>,
    /// Union of all candidate access locations — the stepper's per-access
    /// preemption gate.
    pub candidate_locs: BTreeSet<Loc>,
    /// `Yield` locations where a preemption fork can still matter (see the
    /// module docs for the betweenness rule). Yields *not* in this set skip
    /// the race-preemption fork.
    pub relevant_yields: BTreeSet<Loc>,
    /// All `Yield` locations in the program (so consumers can tell "pruned"
    /// from "never a yield").
    pub all_yields: BTreeSet<Loc>,
    /// May-hold locksets at each may-shared access, seeded from the
    /// interprocedural entry locksets. Lint fodder, never used for
    /// exclusion.
    pub may_locksets: BTreeMap<Loc, BTreeSet<GlobalId>>,
    /// Must-hold locksets at each may-shared access (intraprocedural,
    /// empty-entry, intersection join).
    pub must_locksets: BTreeMap<Loc, BTreeSet<GlobalId>>,
}

impl RaceCandidates {
    /// True when the access at `loc` participates in some candidate pair —
    /// i.e. a race-preemption fork at this access can matter.
    pub fn is_candidate_access(&self, loc: Loc) -> bool {
        self.candidate_locs.contains(&loc)
    }

    /// True when a preemption fork at the `Yield` at `loc` can matter.
    pub fn is_relevant_yield(&self, loc: Loc) -> bool {
        self.relevant_yields.contains(&loc)
    }
}

/// The must-hold lockset fact: mutexes held on *every* path. The lattice is
/// the dual powerset — join is intersection, and the empty set is bottom
/// ("nothing provably held"), which is also the sound fallback everywhere.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct MustLockSet(BTreeSet<GlobalId>);

impl JoinSemiLattice for MustLockSet {
    fn join(&mut self, other: &Self) -> bool {
        let inter: BTreeSet<GlobalId> = self.0.intersection(&other.0).copied().collect();
        if inter.len() != self.0.len() {
            self.0 = inter;
            true
        } else {
            false
        }
    }
}

struct MustLockAnalysis<'a> {
    defs: &'a DefIndex<'a>,
}

impl ForwardAnalysis for MustLockAnalysis<'_> {
    type Fact = MustLockSet;

    fn entry_fact(&self) -> MustLockSet {
        // Empty on purpose: callers' holds are invisible to the
        // intraprocedural pass, which only ever *weakens* exclusion.
        MustLockSet::default()
    }

    fn transfer_inst(&self, fact: &mut MustLockSet, inst: &Inst, _loc: Loc) {
        match inst {
            Inst::MutexLock { mutex } => {
                if let Some(g) = lockorder::mutex_identity(self.defs, *mutex) {
                    fact.0.insert(g);
                }
            }
            Inst::MutexUnlock { mutex } => match lockorder::mutex_identity(self.defs, *mutex) {
                Some(g) => {
                    fact.0.remove(&g);
                }
                // Unknown unlock target: anything might have been released.
                None => fact.0.clear(),
            },
            // A callee could release any of our locks through the global
            // mutex objects; must-hold cannot survive the call.
            Inst::Call { .. } => fact.0.clear(),
            _ => {}
        }
    }

    fn widen(&self, fact: &mut MustLockSet) {
        fact.0.clear();
    }
}

/// The outstanding-spawn-sites fact: spawn instructions whose thread may
/// still be running. Union join (may-analysis).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct SpawnSet(BTreeSet<Loc>);

impl JoinSemiLattice for SpawnSet {
    fn join(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().copied());
        self.0.len() != before
    }
}

struct OutstandingAnalysis<'a> {
    entry: SpawnSet,
    /// `ThreadJoin` handles that synchronize with a unique, non-looped spawn
    /// site of this function — joining them retires that site.
    kills: &'a HashMap<Reg, Loc>,
    /// Call site → spawn sites anywhere in the callee's call closure. A call
    /// may leave any of those threads running, so the transfer adds them all
    /// — the return flow that caller→callee entry propagation cannot
    /// express.
    call_spawns: &'a HashMap<Loc, BTreeSet<Loc>>,
}

impl ForwardAnalysis for OutstandingAnalysis<'_> {
    type Fact = SpawnSet;

    fn entry_fact(&self) -> SpawnSet {
        self.entry.clone()
    }

    fn transfer_inst(&self, fact: &mut SpawnSet, inst: &Inst, loc: Loc) {
        match inst {
            Inst::ThreadSpawn { .. } => {
                fact.0.insert(loc);
            }
            Inst::ThreadJoin { thread: esd_ir::Operand::Reg(r) } => {
                if let Some(site) = self.kills.get(r) {
                    fact.0.remove(site);
                }
            }
            Inst::Call { .. } => {
                if let Some(sites) = self.call_spawns.get(&loc) {
                    fact.0.extend(sites.iter().copied());
                }
            }
            _ => {}
        }
    }

    fn widen(&self, _fact: &mut SpawnSet) {
        // Finite powerset of spawn sites: joins already terminate.
    }
}

/// True when block `b` lies on a CFG cycle (some successor can reach it
/// back).
fn block_in_cycle(cfg: &Cfg, b: BlockId) -> bool {
    let back = cfg.can_reach(b);
    cfg.succs(b).iter().any(|s| back[s.0 as usize])
}

/// The join-kill map of one function: handle register → the unique spawn
/// site it retires. Only valid in non-recursive functions (a recursive frame
/// would kill a site its *caller's* frame still has outstanding).
fn join_kills(
    program: &Program,
    cfgs: &[Cfg],
    callgraph: &CallGraph,
    fid: FuncId,
) -> HashMap<Reg, Loc> {
    let scc = &callgraph.sccs[callgraph.scc_index[fid.0 as usize]];
    let self_call = callgraph.sites_of(fid).iter().any(|s| !s.is_spawn && s.targets.contains(&fid));
    if scc.len() > 1 || self_call {
        return HashMap::new();
    }
    let function = program.func(fid);
    let cfg = &cfgs[fid.0 as usize];
    let mut defs: HashMap<Reg, Vec<Loc>> = HashMap::new();
    for (bi, block) in function.blocks.iter().enumerate() {
        for (ii, inst) in block.insts.iter().enumerate() {
            if let Inst::ThreadSpawn { dst, .. } = inst {
                defs.entry(*dst).or_default().push(Loc::new(fid, BlockId(bi as u32), ii as u32));
            }
        }
    }
    defs.into_iter()
        .filter_map(|(r, sites)| match sites.as_slice() {
            [site] if !block_in_cycle(cfg, site.block) => Some((r, *site)),
            _ => None,
        })
        .collect()
}

/// Functions reachable from `root` through *calls only* (spawned children
/// run on their own thread and are separate roots).
fn call_reachable(callgraph: &CallGraph, root: FuncId) -> HashSet<FuncId> {
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(root);
    queue.push_back(root);
    while let Some(f) = queue.pop_front() {
        for site in callgraph.sites_of(f) {
            if site.is_spawn {
                continue;
            }
            for t in &site.targets {
                if seen.insert(*t) {
                    queue.push_back(*t);
                }
            }
        }
    }
    seen
}

/// Runs the race-candidate analysis. `points_to` and `lock_order` are the
/// already-computed sibling analyses from [`crate::ProgramFacts`].
pub fn compute(
    program: &Program,
    cfgs: &[Cfg],
    callgraph: &CallGraph,
    points_to: &PointsTo,
    lock_order: &LockOrderInfo,
) -> RaceCandidates {
    let n = program.functions.len();

    // ---- thread roots and contexts ----------------------------------------
    // spawn_sites[r] = static spawn sites that may start root r.
    let mut spawn_sites: HashMap<FuncId, Vec<Loc>> = HashMap::new();
    for fid in program.func_ids() {
        for site in callgraph.sites_of(fid) {
            if site.is_spawn {
                for t in &site.targets {
                    spawn_sites.entry(*t).or_default().push(site.loc);
                }
            }
        }
    }
    let mut roots: Vec<FuncId> = vec![program.entry];
    let mut spawned_roots: BTreeSet<FuncId> = BTreeSet::new();
    for r in spawn_sites.keys() {
        spawned_roots.insert(*r);
        if *r != program.entry {
            roots.push(*r);
        }
    }
    roots.sort();
    roots.dedup();

    let reach: HashMap<FuncId, HashSet<FuncId>> =
        roots.iter().map(|r| (*r, call_reachable(callgraph, *r))).collect();
    // ctx[f] = thread roots whose call closure contains f.
    let mut ctx: Vec<Vec<FuncId>> = vec![Vec::new(); n];
    for r in &roots {
        for f in &reach[r] {
            ctx[f.0 as usize].push(*r);
        }
    }

    // multi_exec[f] = f's body may execute more than once in a single run:
    // several static call/spawn sites target it, some site sits in a CFG
    // cycle, f is (mutually) recursive or self-spawning, or — the fixpoint
    // below — some site targeting it lives in a function that itself runs
    // multiply. Covers a worker whose only spawn site sits in a helper that
    // main invokes twice (or from a loop), not just properties of the
    // spawn site's own function.
    let mut multi_exec = vec![false; n];
    for fid in program.func_ids() {
        let f = fid.0 as usize;
        let scc = &callgraph.sccs[callgraph.scc_index[f]];
        let recursive =
            scc.len() > 1 || callgraph.sites_of(fid).iter().any(|s| s.targets.contains(&fid));
        let sites = callgraph.callers.get(&fid).map(|v| v.as_slice()).unwrap_or(&[]);
        if recursive
            || sites.len() >= 2
            || sites.iter().any(|(g, l)| block_in_cycle(&cfgs[g.0 as usize], l.block))
        {
            multi_exec[f] = true;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for fid in program.func_ids() {
            if !multi_exec[fid.0 as usize] {
                continue;
            }
            for site in callgraph.sites_of(fid) {
                for t in &site.targets {
                    if !multi_exec[t.0 as usize] {
                        multi_exec[t.0 as usize] = true;
                        changed = true;
                    }
                }
            }
        }
    }

    // multi[r] = root r may have several live instances at once.
    let multi: HashMap<FuncId, bool> =
        spawned_roots.iter().map(|r| (*r, multi_exec[r.0 as usize])).collect();

    // ---- outstanding spawn sites (interprocedural, call edges only) -------
    let kills: Vec<HashMap<Reg, Loc>> =
        program.func_ids().map(|f| join_kills(program, cfgs, callgraph, f)).collect();
    // call_spawns[call site] = spawn sites transitively reachable through
    // the callee: after the call returns those threads may still be running.
    let closure_spawns: Vec<BTreeSet<Loc>> = program
        .func_ids()
        .map(|f| {
            call_reachable(callgraph, f)
                .into_iter()
                .flat_map(|g| callgraph.sites_of(g))
                .filter(|s| s.is_spawn)
                .map(|s| s.loc)
                .collect()
        })
        .collect();
    let mut call_spawns: HashMap<Loc, BTreeSet<Loc>> = HashMap::new();
    for fid in program.func_ids() {
        for site in callgraph.sites_of(fid) {
            if site.is_spawn {
                continue;
            }
            let sites: BTreeSet<Loc> = site
                .targets
                .iter()
                .flat_map(|t| closure_spawns[t.0 as usize].iter().copied())
                .collect();
            if !sites.is_empty() {
                call_spawns.insert(site.loc, sites);
            }
        }
    }
    let mut out_entry: Vec<SpawnSet> = vec![SpawnSet::default(); n];
    {
        let mut queued = vec![true; n];
        let mut worklist: VecDeque<FuncId> = program.func_ids().collect();
        while let Some(fid) = worklist.pop_front() {
            queued[fid.0 as usize] = false;
            let function = program.func(fid);
            let analysis = OutstandingAnalysis {
                entry: out_entry[fid.0 as usize].clone(),
                kills: &kills[fid.0 as usize],
                call_spawns: &call_spawns,
            };
            let facts = dataflow::solve_function(&analysis, function, &cfgs[fid.0 as usize], fid);
            for (bi, block) in function.blocks.iter().enumerate() {
                let Some(mut fact) = facts.at(BlockId(bi as u32)).cloned() else { continue };
                for (ii, inst) in block.insts.iter().enumerate() {
                    if let Inst::Call { callee: Callee::Direct(target), .. } = inst {
                        if out_entry[target.0 as usize].join(&fact) && !queued[target.0 as usize] {
                            queued[target.0 as usize] = true;
                            worklist.push_back(*target);
                        }
                    }
                    let loc = Loc::new(fid, BlockId(bi as u32), ii as u32);
                    analysis.transfer_inst(&mut fact, inst, loc);
                }
            }
        }
    }

    // ---- per-access facts: outstanding sites, may- and must-locksets ------
    let shared_locs: HashSet<Loc> =
        points_to.accesses.iter().filter(|a| a.may_shared).map(|a| a.loc).collect();
    let mut outstanding_at: HashMap<Loc, BTreeSet<Loc>> = HashMap::new();
    let mut may_locksets: BTreeMap<Loc, BTreeSet<GlobalId>> = BTreeMap::new();
    let mut must_locksets: BTreeMap<Loc, BTreeSet<GlobalId>> = BTreeMap::new();
    for fid in program.func_ids() {
        let function = program.func(fid);
        let cfg = &cfgs[fid.0 as usize];
        let out_an = OutstandingAnalysis {
            entry: out_entry[fid.0 as usize].clone(),
            kills: &kills[fid.0 as usize],
            call_spawns: &call_spawns,
        };
        let out_facts = dataflow::solve_function(&out_an, function, cfg, fid);
        let defs = DefIndex::new(function);
        let may_an = lockorder::LocksetAnalysis {
            defs: &defs,
            entry: LockSet(
                lock_order.entry_locksets.get(fid.0 as usize).cloned().unwrap_or_default(),
            ),
        };
        let may_facts = dataflow::solve_function(&may_an, function, cfg, fid);
        let must_an = MustLockAnalysis { defs: &defs };
        let must_facts = dataflow::solve_function(&must_an, function, cfg, fid);
        for (bi, block) in function.blocks.iter().enumerate() {
            let b = BlockId(bi as u32);
            let (Some(mut out_f), Some(mut may_f), Some(mut must_f)) =
                (out_facts.at(b).cloned(), may_facts.at(b).cloned(), must_facts.at(b).cloned())
            else {
                continue;
            };
            for (ii, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(fid, b, ii as u32);
                if shared_locs.contains(&loc) {
                    outstanding_at.insert(loc, out_f.0.clone());
                    may_locksets.insert(loc, may_f.0.clone());
                    must_locksets.insert(loc, must_f.0.clone());
                }
                out_an.transfer_inst(&mut out_f, inst, loc);
                may_an.transfer_inst(&mut may_f, inst, loc);
                must_an.transfer_inst(&mut must_f, inst, loc);
            }
        }
    }

    // ---- MHP and pair construction ----------------------------------------
    let empty = BTreeSet::new();
    let empty_locks: BTreeSet<GlobalId> = BTreeSet::new();
    let site_targets_root = |site: Loc, root: FuncId| -> bool {
        callgraph
            .sites_of(site.func)
            .iter()
            .any(|s| s.loc == site && s.is_spawn && s.targets.contains(&root))
    };
    let mhp = |a: Loc, b: Loc| -> bool {
        for ra in &ctx[a.func.0 as usize] {
            for rb in &ctx[b.func.0 as usize] {
                let mhp_pair = if ra != rb {
                    match (*ra == program.entry, *rb == program.entry) {
                        // Two distinct spawned roots always may overlap (we
                        // deliberately ignore join ordering between
                        // siblings: over-approximation is the safe side).
                        (false, false) => true,
                        // Main-context vs. spawned root: only while a spawn
                        // of that root is outstanding at the main-side
                        // access.
                        (true, false) => outstanding_at
                            .get(&a)
                            .unwrap_or(&empty)
                            .iter()
                            .any(|s| site_targets_root(*s, *rb)),
                        (false, true) => outstanding_at
                            .get(&b)
                            .unwrap_or(&empty)
                            .iter()
                            .any(|s| site_targets_root(*s, *ra)),
                        (true, true) => unreachable!("ra != rb but both are entry"),
                    }
                } else {
                    // Same root on both sides: parallel only when that root
                    // may have several live instances (`multi` only carries
                    // spawned roots, so the single main thread answers no).
                    *multi.get(ra).unwrap_or(&false)
                };
                if mhp_pair {
                    return true;
                }
            }
        }
        false
    };

    let shared: Vec<&crate::pointsto::MemAccess> =
        points_to.accesses.iter().filter(|a| a.may_shared).collect();
    // Which shared accesses may touch a given abstract location (for the
    // distractor count). Unresolved accesses (empty targets) may touch
    // anything and count everywhere.
    let unresolved = shared.iter().filter(|a| a.targets.is_empty()).count();
    let mut touching: BTreeMap<AbsLoc, usize> = BTreeMap::new();
    for a in &shared {
        for t in &a.targets {
            *touching.entry(*t).or_default() += 1;
        }
    }

    let overlap = |a: &crate::pointsto::MemAccess,
                   b: &crate::pointsto::MemAccess|
     -> Option<BTreeSet<AbsLoc>> {
        match (a.targets.is_empty(), b.targets.is_empty()) {
            // An unresolved side may alias anything the other side touches.
            (true, _) => Some(b.targets.clone()),
            (_, true) => Some(a.targets.clone()),
            _ => {
                let common: BTreeSet<AbsLoc> =
                    a.targets.intersection(&b.targets).copied().collect();
                if common.is_empty() {
                    None
                } else {
                    Some(common)
                }
            }
        }
    };

    // `mhp` holds only between two accesses that each run in a spawned root,
    // in a multiply-spawned entry function, or in the entry function while a
    // spawn is outstanding. Keeping just those accesses (in their original
    // order) leaves the pairs and their order unchanged; on a program whose
    // shared accesses all precede the first spawn it empties the loop.
    let may_run_in_parallel = |x: Loc| {
        ctx[x.func.0 as usize].iter().any(|r| {
            *r != program.entry
                || *multi.get(r).unwrap_or(&false)
                || outstanding_at.get(&x).is_some_and(|sites| !sites.is_empty())
        })
    };
    let parallel: Vec<&crate::pointsto::MemAccess> =
        shared.iter().copied().filter(|a| may_run_in_parallel(a.loc)).collect();

    let mut candidates: Vec<RacePairCandidate> = Vec::new();
    for (i, a) in parallel.iter().enumerate() {
        for b in parallel.iter().skip(i) {
            if !a.is_write && !b.is_write {
                continue;
            }
            let Some(targets) = overlap(a, b) else { continue };
            if !mhp(a.loc, b.loc) {
                continue;
            }
            let must_a = must_locksets.get(&a.loc).unwrap_or(&empty_locks);
            let must_b = must_locksets.get(&b.loc).unwrap_or(&empty_locks);
            if must_a.intersection(must_b).next().is_some() {
                continue;
            }
            let involved = if a.loc == b.loc { 1 } else { 2 };
            // Max over targets counts resolved traffic; the unresolved
            // accesses (which may touch anything) are added exactly once,
            // even when both sides are themselves unresolved.
            let distractors = targets
                .iter()
                .map(|t| touching.get(t).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
                .saturating_add(unresolved)
                .saturating_sub(involved);
            let (access_a, access_b) = if a.loc <= b.loc { (a.loc, b.loc) } else { (b.loc, a.loc) };
            candidates.push(RacePairCandidate {
                access_a,
                access_b,
                common_locks: BTreeSet::new(),
                targets,
                distractors,
            });
        }
    }
    candidates.sort_by(|x, y| {
        (x.distractors, x.access_a, x.access_b).cmp(&(y.distractors, y.access_a, y.access_b))
    });
    candidates.dedup_by(|x, y| (x.access_a, x.access_b) == (y.access_a, y.access_b));
    let candidate_locs: BTreeSet<Loc> =
        candidates.iter().flat_map(|c| [c.access_a, c.access_b]).collect();

    // ---- yield relevance ---------------------------------------------------
    let (relevant_yields, all_yields) = yield_relevance(program, cfgs, callgraph, &candidate_locs);

    RaceCandidates {
        candidates,
        candidate_locs,
        relevant_yields,
        all_yields,
        may_locksets,
        must_locksets,
    }
}

/// Computes which `Yield`s still need a preemption fork: those with
/// candidate-access material both before and after them in same-thread
/// program order (locally or through calls).
fn yield_relevance(
    program: &Program,
    cfgs: &[Cfg],
    callgraph: &CallGraph,
    candidate_locs: &BTreeSet<Loc>,
) -> (BTreeSet<Loc>, BTreeSet<Loc>) {
    let n = program.functions.len();
    // Functions whose call closure (calls *and* spawns — generous on
    // purpose) contains a candidate access.
    let mut closure_has_candidate = vec![false; n];
    {
        let mut worklist: VecDeque<FuncId> = VecDeque::new();
        for loc in candidate_locs {
            if !closure_has_candidate[loc.func.0 as usize] {
                closure_has_candidate[loc.func.0 as usize] = true;
                worklist.push_back(loc.func);
            }
        }
        while let Some(f) = worklist.pop_front() {
            if let Some(callers) = callgraph.callers.get(&f) {
                for (caller, _) in callers {
                    if !closure_has_candidate[caller.0 as usize] {
                        closure_has_candidate[caller.0 as usize] = true;
                        worklist.push_back(*caller);
                    }
                }
            }
        }
    }

    // positions[f] = locations in f that stand for candidate accesses: the
    // accesses themselves plus call/spawn sites whose target closure
    // contains one.
    let mut positions: Vec<Vec<Loc>> = vec![Vec::new(); n];
    for loc in candidate_locs {
        positions[loc.func.0 as usize].push(*loc);
    }
    for fid in program.func_ids() {
        for site in callgraph.sites_of(fid) {
            if site.targets.iter().any(|t| closure_has_candidate[t.0 as usize]) {
                positions[fid.0 as usize].push(site.loc);
            }
        }
    }

    // Interprocedural before/after bits, propagated through *call* edges
    // only: a callee inherits "candidate material precedes me" from a caller
    // position that reaches the call site (and symmetrically for after).
    let mut before = vec![false; n];
    let mut after = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for fid in program.func_ids() {
            let f = fid.0 as usize;
            let cfg = &cfgs[f];
            for site in callgraph.sites_of(fid) {
                if site.is_spawn {
                    continue;
                }
                let b = before[f] || positions[f].iter().any(|p| reaches(cfg, *p, site.loc));
                let a = after[f] || positions[f].iter().any(|p| reaches(cfg, site.loc, *p));
                for t in &site.targets {
                    let ti = t.0 as usize;
                    if b && !before[ti] {
                        before[ti] = true;
                        changed = true;
                    }
                    if a && !after[ti] {
                        after[ti] = true;
                        changed = true;
                    }
                }
            }
        }
    }

    let mut relevant = BTreeSet::new();
    let mut all = BTreeSet::new();
    for fid in program.func_ids() {
        let f = fid.0 as usize;
        let function = program.func(fid);
        let cfg = &cfgs[f];
        for (bi, block) in function.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                if !matches!(inst, Inst::Yield) {
                    continue;
                }
                let y = Loc::new(fid, BlockId(bi as u32), ii as u32);
                all.insert(y);
                let has_before = before[f] || positions[f].iter().any(|p| reaches(cfg, *p, y));
                let has_after = after[f] || positions[f].iter().any(|p| reaches(cfg, y, *p));
                if has_before && has_after {
                    relevant.insert(y);
                }
            }
        }
    }
    (relevant, all)
}

/// May-reach in same-thread program order between two locations of one
/// function: strictly earlier in the same block, any block-level path, or
/// back around a loop.
fn reaches(cfg: &Cfg, from: Loc, to: Loc) -> bool {
    if from.block == to.block {
        from.idx < to.idx || block_in_cycle(cfg, from.block)
    } else {
        cfg.can_reach(to.block)[from.block.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, ProgramBuilder};

    fn run(program: &Program) -> RaceCandidates {
        let facts = crate::ProgramFacts::compute(program);
        compute(program, &facts.cfgs, &facts.callgraph, facts.points_to(program), &facts.lock_order)
    }

    /// The PR 1 `racy_counter` shape: two spawns of a worker that does an
    /// unguarded load/yield/store on a global counter.
    fn racy_counter() -> (Program, Loc, Loc, Loc) {
        let mut pb = ProgramBuilder::new("racy");
        let counter = pb.global("counter", 1);
        let mut load_loc = None;
        let mut store_loc = None;
        let mut yield_loc = None;
        let worker = pb.function("worker", 1, |f| {
            let cp = f.addr_global(counter);
            load_loc = Some(f.here());
            let v = f.load(cp);
            yield_loc = Some(f.here());
            f.yield_now();
            let v1 = f.add(v, 1);
            store_loc = Some(f.here());
            f.store(cp, v1);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t1 = f.spawn(worker, 1);
            let t2 = f.spawn(worker, 2);
            f.join(t1);
            f.join(t2);
            f.ret_void();
        });
        (pb.finish("main"), load_loc.unwrap(), store_loc.unwrap(), yield_loc.unwrap())
    }

    #[test]
    fn unguarded_counter_races_are_candidates() {
        let (p, load, store, y) = racy_counter();
        let rc = run(&p);
        assert!(rc.is_candidate_access(load));
        assert!(rc.is_candidate_access(store));
        // Both load/store and the store's self-race survive.
        assert!(rc.candidates.iter().any(|c| (c.access_a, c.access_b) == (load, store)));
        assert!(rc.candidates.iter().any(|c| (c.access_a, c.access_b) == (store, store)));
        assert!(rc.candidates.iter().all(|c| c.common_locks.is_empty()));
        // The yield sits between two candidate accesses: a fork there matters.
        assert!(rc.is_relevant_yield(y));
    }

    #[test]
    fn a_common_must_held_lock_excludes_the_pair() {
        let mut pb = ProgramBuilder::new("guarded");
        let counter = pb.global("counter", 1);
        let m = pb.global("m", 1);
        let mut store_loc = None;
        let worker = pb.function("worker", 1, |f| {
            let cp = f.addr_global(counter);
            let mp = f.addr_global(m);
            f.lock(mp);
            let v = f.load(cp);
            let v1 = f.add(v, 1);
            store_loc = Some(f.here());
            f.store(cp, v1);
            f.unlock(mp);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t1 = f.spawn(worker, 1);
            let t2 = f.spawn(worker, 2);
            f.join(t1);
            f.join(t2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        assert!(
            !rc.is_candidate_access(store_loc.unwrap()),
            "a consistently lock-guarded access must not be a candidate"
        );
        assert!(rc.candidates.is_empty());
        assert_eq!(rc.must_locksets[&store_loc.unwrap()], BTreeSet::from([m]));
    }

    #[test]
    fn inconsistent_guarding_keeps_the_pair() {
        // One side locks, the other does not: the lock excludes nothing.
        let mut pb = ProgramBuilder::new("inconsistent");
        let counter = pb.global("counter", 1);
        let m = pb.global("m", 1);
        let mut guarded = None;
        let w1 = pb.function("w1", 1, |f| {
            let cp = f.addr_global(counter);
            let mp = f.addr_global(m);
            f.lock(mp);
            guarded = Some(f.here());
            f.store(cp, 1);
            f.unlock(mp);
            f.ret_void();
        });
        let mut unguarded = None;
        let w2 = pb.function("w2", 1, |f| {
            let cp = f.addr_global(counter);
            unguarded = Some(f.here());
            f.store(cp, 2);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t1 = f.spawn(w1, 1);
            let t2 = f.spawn(w2, 2);
            f.join(t1);
            f.join(t2);
            f.ret_void();
        });
        let _ = (w1, w2);
        let p = pb.finish("main");
        let rc = run(&p);
        assert!(rc
            .candidates
            .iter()
            .any(|c| (c.access_a, c.access_b) == (guarded.unwrap(), unguarded.unwrap())));
    }

    #[test]
    fn joined_threads_no_longer_happen_in_parallel_with_main() {
        let mut pb = ProgramBuilder::new("joined");
        let g = pb.global("g", 1);
        let worker = pb.function("worker", 1, |f| {
            let gp = f.addr_global(g);
            f.store(gp, 1);
            f.ret_void();
        });
        let mut during = None;
        let mut after = None;
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            let t = f.spawn(worker, 1);
            during = Some(f.here());
            f.store(gp, 2);
            f.join(t);
            after = Some(f.here());
            f.store(gp, 3);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        assert!(
            rc.is_candidate_access(during.unwrap()),
            "a main access while the spawn is outstanding may race"
        );
        assert!(
            !rc.is_candidate_access(after.unwrap()),
            "a main access after joining the only thread cannot race"
        );
    }

    #[test]
    fn single_instance_thread_does_not_self_race() {
        let mut pb = ProgramBuilder::new("single");
        let g = pb.global("g", 1);
        let mut store = None;
        let worker = pb.function("worker", 1, |f| {
            let gp = f.addr_global(g);
            store = Some(f.here());
            f.store(gp, 1);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t = f.spawn(worker, 1);
            f.join(t);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        assert!(
            !rc.is_candidate_access(store.unwrap()),
            "one spawn site, no loop: the worker's store cannot race with itself"
        );
    }

    #[test]
    fn spawns_in_a_loop_may_self_race() {
        let mut pb = ProgramBuilder::new("looped");
        let g = pb.global("g", 1);
        let mut store = None;
        let worker = pb.function("worker", 1, |f| {
            let gp = f.addr_global(g);
            store = Some(f.here());
            f.store(gp, 1);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let header = f.new_block("header");
            let body = f.new_block("body");
            let exit = f.new_block("exit");
            f.br(header);
            f.switch_to(header);
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 1);
            f.cond_br(c, body, exit);
            f.switch_to(body);
            f.spawn(worker, 1);
            f.br(header);
            f.switch_to(exit);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        assert!(
            rc.is_candidate_access(store.unwrap()),
            "a loop may spawn several instances: the store may self-race"
        );
        assert!(rc
            .candidates
            .iter()
            .any(|c| (c.access_a, c.access_b) == (store.unwrap(), store.unwrap())));
    }

    /// Satellite: the ranking mirrors `lockorder`'s tightest-cycle-first
    /// rule — the pair whose location attracts fewest distractor accesses
    /// sorts before a pair on a heavily-trafficked location.
    #[test]
    fn tightest_candidates_rank_first() {
        let mut pb = ProgramBuilder::new("ranked");
        let noisy = pb.global("noisy", 1);
        let quiet = pb.global("quiet", 1);
        let mut quiet_store = None;
        let mut noisy_store = None;
        let worker = pb.function("worker", 1, |f| {
            let np = f.addr_global(noisy);
            let qp = f.addr_global(quiet);
            noisy_store = Some(f.here());
            f.store(np, 1);
            quiet_store = Some(f.here());
            f.store(qp, 1);
            // Extra traffic on `noisy` only.
            let v = f.load(np);
            f.store(np, v);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t1 = f.spawn(worker, 1);
            let t2 = f.spawn(worker, 2);
            f.join(t1);
            f.join(t2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        let (quiet_store, noisy_store) = (quiet_store.unwrap(), noisy_store.unwrap());
        let pos = |l: Loc| {
            rc.candidates
                .iter()
                .position(|c| (c.access_a, c.access_b) == (l, l))
                .expect("self-pair present")
        };
        assert!(
            pos(quiet_store) < pos(noisy_store),
            "the quiet location's pair has fewer distractors and must rank first"
        );
        let q = &rc.candidates[pos(quiet_store)];
        let n = &rc.candidates[pos(noisy_store)];
        assert!(q.distractors < n.distractors, "{} < {}", q.distractors, n.distractors);
    }

    /// The genbug DataRace shape in miniature: a lock-guarded benign phase
    /// with a yield inside, then an unguarded racy phase with a yield
    /// between its load and store. Only the racy yield needs a fork.
    #[test]
    fn benign_phase_yields_are_pruned_racy_yields_kept() {
        let mut pb = ProgramBuilder::new("phases");
        let scratch = pb.global("scratch", 1);
        let counter = pb.global("counter", 1);
        let m = pb.global("m", 1);
        let mut benign_yield = None;
        let mut racy_yield = None;
        let worker = pb.function("worker", 1, |f| {
            let sp = f.addr_global(scratch);
            let cp = f.addr_global(counter);
            let mp = f.addr_global(m);
            // Benign phase: everything on `scratch` under the lock.
            f.lock(mp);
            let s = f.load(sp);
            let s1 = f.add(s, 1);
            benign_yield = Some(f.here());
            f.yield_now();
            f.store(sp, s1);
            f.unlock(mp);
            // Racy phase: unguarded counter increment.
            let v = f.load(cp);
            let v1 = f.add(v, 1);
            racy_yield = Some(f.here());
            f.yield_now();
            f.store(cp, v1);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t1 = f.spawn(worker, 1);
            let t2 = f.spawn(worker, 2);
            f.join(t1);
            f.join(t2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        assert!(
            !rc.is_relevant_yield(benign_yield.unwrap()),
            "no candidate access precedes the benign yield: the fork is prunable"
        );
        assert!(
            rc.is_relevant_yield(racy_yield.unwrap()),
            "the racy yield sits between two candidate accesses"
        );
        assert_eq!(rc.all_yields.len(), 2);
    }

    /// Review regression: a spawn executed inside a *callee* must stay
    /// outstanding in the caller after the call returns — main's accesses
    /// after invoking a helper that spawns a worker may race with that
    /// worker, even though `main` itself contains no `ThreadSpawn`.
    #[test]
    fn spawns_inside_callees_stay_outstanding_in_the_caller() {
        let mut pb = ProgramBuilder::new("callee_spawn");
        let g = pb.global("g", 1);
        let mut w_store = None;
        let worker = pb.function("worker", 1, |f| {
            let gp = f.addr_global(g);
            w_store = Some(f.here());
            f.store(gp, 1);
            f.ret_void();
        });
        let helper = pb.function("helper", 0, |f| {
            f.spawn(worker, 1);
            f.ret_void();
        });
        let mut before = None;
        let mut after = None;
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            before = Some(f.here());
            f.store(gp, 41);
            f.call(helper, vec![]);
            after = Some(f.here());
            f.store(gp, 42);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        let (w_store, before, after) = (w_store.unwrap(), before.unwrap(), after.unwrap());
        assert!(
            rc.is_candidate_access(after),
            "the helper's spawn is still outstanding when the post-call store runs"
        );
        assert!(
            rc.candidates.iter().any(|c| (c.access_a, c.access_b) == (w_store, after)),
            "the worker store must pair with main's post-call store"
        );
        assert!(
            !rc.is_candidate_access(before),
            "a store before the spawning call still cannot race"
        );
        // One spawn site, once-invoked helper: the worker stays
        // single-instance and must not self-race.
        assert!(!rc.candidates.iter().any(|c| (c.access_a, c.access_b) == (w_store, w_store)));
    }

    /// Review regression: a worker whose single spawn site sits in a helper
    /// that is *invoked twice* has two live instances — its accesses
    /// self-race even though the spawn site's own block is loop-free and its
    /// function is neither recursive nor spawned code.
    #[test]
    fn twice_invoked_spawner_makes_the_worker_multi_instance() {
        let mut pb = ProgramBuilder::new("twice_spawner");
        let g = pb.global("g", 1);
        let mut store = None;
        let worker = pb.function("worker", 1, |f| {
            let gp = f.addr_global(g);
            store = Some(f.here());
            f.store(gp, 1);
            f.ret_void();
        });
        let helper = pb.function("helper", 0, |f| {
            f.spawn(worker, 1);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            f.call(helper, vec![]);
            f.call(helper, vec![]);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        let store = store.unwrap();
        assert!(rc.is_candidate_access(store));
        assert!(
            rc.candidates.iter().any(|c| (c.access_a, c.access_b) == (store, store)),
            "two helper invocations spawn two worker instances: the store may self-race"
        );
    }

    /// Same hole through a loop: the spawn site is straight-line code in the
    /// helper, but main calls the helper from a loop body.
    #[test]
    fn spawner_called_from_a_loop_makes_the_worker_multi_instance() {
        let mut pb = ProgramBuilder::new("looped_spawner");
        let g = pb.global("g", 1);
        let mut store = None;
        let worker = pb.function("worker", 1, |f| {
            let gp = f.addr_global(g);
            store = Some(f.here());
            f.store(gp, 1);
            f.ret_void();
        });
        let helper = pb.function("helper", 0, |f| {
            f.spawn(worker, 1);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let header = f.new_block("header");
            let body = f.new_block("body");
            let exit = f.new_block("exit");
            f.br(header);
            f.switch_to(header);
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 1);
            f.cond_br(c, body, exit);
            f.switch_to(body);
            f.call(helper, vec![]);
            f.br(header);
            f.switch_to(exit);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        let store = store.unwrap();
        assert!(
            rc.candidates.iter().any(|c| (c.access_a, c.access_b) == (store, store)),
            "a loop-invoked spawner may spawn several instances: the store may self-race"
        );
    }

    #[test]
    fn pre_spawn_accesses_do_not_pair_with_workers() {
        let mut pb = ProgramBuilder::new("prespawn");
        let g = pb.global("g", 1);
        let worker = pb.function("worker", 1, |f| {
            let gp = f.addr_global(g);
            let v = f.load(gp);
            f.output(v);
            f.ret_void();
        });
        let mut init = None;
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            init = Some(f.here());
            f.store(gp, 42);
            let t = f.spawn(worker, 1);
            f.join(t);
            f.ret_void();
        });
        let p = pb.finish("main");
        let rc = run(&p);
        assert!(
            !rc.is_candidate_access(init.unwrap()),
            "an initialization store before any spawn cannot race"
        );
    }
}
