//! Golden test pinning the static phase's results on the shipped corpus.
//!
//! The static passes are pure functions of the program: branch-feasibility
//! verdicts, the global stores behind intermediate goals, the merged
//! per-goal info (critical edges, intermediate goals), the lock-order edges
//! and cycles, and the race candidates with their per-access locksets. This
//! fixture renders all of them in a stable textual form, so an optimization
//! of any pass must reproduce its results byte for byte rather than merely
//! keep the searches that consume them passing. The cost model and the
//! per-goal distance maps are too large to list, so each program gets one
//! `fnv1a64` digest line over them: function costs, block costs, and per
//! location the instruction cost, block prefix cost and `dist2ret`; then, for
//! every final and intermediate goal, the function-entry and block-entry
//! distance maps and the distance from every location.
//!
//! The corpus: every real-bug analog (Listing 1 included), the genbug smoke
//! seeds × 4 kinds, two medium-size genbug seeds per kind, and BPF at 128
//! and 512 branches.
//!
//! If a pass changes its results *intentionally*, regenerate with
//!
//! ```text
//! ESD_REGEN_GOLDEN=1 cargo test --test golden_static_facts
//! ```
//!
//! and commit the new fixture together with the change.

use esd::analysis::reachdef::global_stores;
use esd::analysis::{BranchFeasibility, DistanceOracle, StaticAnalysis};
use esd::core::snapshot::fnv1a64;
use esd::ir::{BlockId, Loc, Program};
use esd::workloads::genbug::{generate, GenConfig, GenSize, InjectedBugKind};
use esd::workloads::{all_real_bugs, generate_bpf, BpfConfig, Workload};
use std::fmt::Write;
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/static_facts.txt");

/// The medium-size genbug seeds rendered per kind.
const MEDIUM_SEEDS: [u64; 2] = [2, 11];

/// The BPF branch counts rendered.
const BPF_BRANCHES: [u32; 2] = [128, 512];

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/static_facts.txt")
}

fn regen_requested() -> bool {
    std::env::var("ESD_REGEN_GOLDEN").ok().as_deref() == Some("1")
}

fn corpus() -> Vec<Workload> {
    let mut corpus = all_real_bugs();
    for seed in esd_bench::coverage::smoke_seeds() {
        for kind in InjectedBugKind::ALL {
            corpus.push(generate(&GenConfig::new(seed, kind)).to_workload());
        }
    }
    for seed in MEDIUM_SEEDS {
        for kind in InjectedBugKind::ALL {
            let config = GenConfig { seed, kind, size: GenSize::medium() };
            corpus.push(generate(&config).to_workload());
        }
    }
    for branches in BPF_BRANCHES {
        corpus.push(generate_bpf(&BpfConfig { branches, ..BpfConfig::default() }));
    }
    corpus
}

/// Every instruction position of `program`, terminators included.
fn all_locs(program: &Program) -> Vec<Loc> {
    let mut locs = Vec::new();
    for f in program.func_ids() {
        for (bi, block) in program.func(f).blocks.iter().enumerate() {
            for idx in 0..=block.insts.len() as u32 {
                locs.push(Loc::new(f, BlockId(bi as u32), idx));
            }
        }
    }
    locs
}

/// `fnv1a64` digests of the cost model and of the distance maps of every
/// final and intermediate goal, as `(costs, distances)`.
fn cost_and_distance_digests(
    program: &Program,
    sa: &Arc<StaticAnalysis>,
    final_goals: &[Loc],
) -> (u64, u64) {
    let costs = &sa.facts.costs;
    let locs = all_locs(program);
    let mut bytes = Vec::new();
    for f in program.func_ids() {
        bytes.extend(costs.func_cost(f).to_le_bytes());
        for b in program.func(f).block_ids() {
            bytes.extend(costs.block_suffix_cost(f, b, 0).to_le_bytes());
        }
    }
    for loc in &locs {
        bytes.extend(costs.inst_cost(*loc).to_le_bytes());
        bytes.extend(costs.block_prefix_cost(loc.func, loc.block, loc.idx).to_le_bytes());
        bytes.extend(costs.dist2ret(*loc).to_le_bytes());
    }
    let cost_digest = fnv1a64(&bytes);

    let mut goals: Vec<Loc> = final_goals.to_vec();
    goals.extend(sa.goal_info.intermediate_goal_locs().into_iter().flatten());
    goals.sort();
    goals.dedup();
    let oracle = DistanceOracle::new(Arc::new(program.clone()), Arc::clone(sa));
    bytes.clear();
    for goal in goals {
        let gd = oracle.goal_distances(goal);
        for d in gd.func_entry.iter().chain(gd.block_entry.iter().flatten()) {
            bytes.extend(d.to_le_bytes());
        }
        for loc in &locs {
            bytes.extend(oracle.distance_from(&gd, *loc).to_le_bytes());
        }
    }
    (cost_digest, fnv1a64(&bytes))
}

/// One program's static facts, every collection in a sorted order.
fn render_program(out: &mut String, name: &str, program: &Program, goals: &[esd::ir::Loc]) {
    let sa = Arc::new(StaticAnalysis::compute_multi(program, goals));
    writeln!(out, "=== {name} goals={goals:?} ===").unwrap();

    let feasibility = BranchFeasibility::compute(program, &sa.facts.cfgs, &sa.facts.callgraph);
    let mut verdicts: Vec<_> = feasibility.iter().collect();
    verdicts.sort_by_key(|(key, _)| *key);
    writeln!(out, "feasibility {}", verdicts.len()).unwrap();
    for ((func, block), verdict) in verdicts {
        writeln!(out, "  {func:?}:{block:?} {verdict:?}").unwrap();
    }

    let stores = global_stores(program);
    writeln!(out, "global_stores {}", stores.len()).unwrap();
    for s in stores {
        writeln!(out, "  {:?} {:?}[{}] = {:?}", s.loc, s.target.0, s.target.1, s.value).unwrap();
    }

    let info = &sa.goal_info;
    writeln!(out, "critical_edges {}", info.critical_edges.len()).unwrap();
    for e in &info.critical_edges {
        writeln!(out, "  {e:?}").unwrap();
    }
    writeln!(out, "intermediate_goals {}", info.intermediate_goals.len()).unwrap();
    for g in &info.intermediate_goals {
        writeln!(out, "  {:?}[{}] <- {:?}", g.variable.0, g.variable.1, g.alternatives).unwrap();
    }

    let lock_order = &sa.facts.lock_order;
    writeln!(out, "lock_edges {}", lock_order.edges.len()).unwrap();
    for e in &lock_order.edges {
        writeln!(out, "  {:?} -> {:?} at {:?}", e.first, e.second, e.site).unwrap();
    }
    writeln!(out, "lock_cycles {}", lock_order.cycles.len()).unwrap();
    for c in &lock_order.cycles {
        writeln!(out, "  {:?} {:?}", c.pair, c.sites).unwrap();
    }

    let rc = sa.facts.race_candidates(program);
    writeln!(out, "race_candidates {}", rc.candidates.len()).unwrap();
    for c in &rc.candidates {
        writeln!(
            out,
            "  {:?} {:?} distractors={} targets={:?} common={:?}",
            c.access_a, c.access_b, c.distractors, c.targets, c.common_locks
        )
        .unwrap();
    }
    writeln!(out, "candidate_locs {:?}", rc.candidate_locs).unwrap();
    writeln!(out, "relevant_yields {:?}", rc.relevant_yields).unwrap();
    writeln!(out, "all_yields {:?}", rc.all_yields).unwrap();
    writeln!(out, "may_locksets {}", rc.may_locksets.len()).unwrap();
    for (loc, locks) in &rc.may_locksets {
        writeln!(out, "  {loc:?} {locks:?}").unwrap();
    }
    writeln!(out, "must_locksets {}", rc.must_locksets.len()).unwrap();
    for (loc, locks) in &rc.must_locksets {
        writeln!(out, "  {loc:?} {locks:?}").unwrap();
    }

    let (costs, distances) = cost_and_distance_digests(program, &sa, goals);
    writeln!(out, "digest costs={costs:016x} distances={distances:016x}").unwrap();
}

fn render_corpus() -> String {
    let mut out = String::new();
    for w in corpus() {
        render_program(&mut out, &w.name, &w.program, &w.goal_locs);
    }
    out
}

/// Regenerates the fixture (only when `ESD_REGEN_GOLDEN=1`); alphabetically
/// first so a regeneration run rewrites before the read-only checks.
#[test]
fn a_regenerate_fixture_when_requested() {
    if !regen_requested() {
        return;
    }
    std::fs::write(fixture_path(), render_corpus()).expect("fixture written");
}

/// Every static pass reproduces the checked-in facts byte for byte.
#[test]
fn static_facts_match_the_checked_in_fixture() {
    if regen_requested() {
        // The in-memory FIXTURE constant is stale during a regeneration run.
        return;
    }
    let fresh = render_corpus();
    if fresh != FIXTURE {
        let line = fresh.lines().zip(FIXTURE.lines()).position(|(a, b)| a != b).map(|i| i + 1);
        panic!(
            "the static facts drifted from the checked-in fixture (first differing line: \
             {line:?}); if the change is intentional, regenerate with \
             ESD_REGEN_GOLDEN=1 cargo test --test golden_static_facts"
        );
    }
}
