//! IR lints: static checks with ranked diagnostics.
//!
//! Lints are the user-facing face of the static phase: the same facts that
//! prune the symbolic search ([`ProgramFacts`]: the interval verdicts, the
//! lock order, the CFG walks) double as bug-pattern detectors over workload
//! IR. [`run`] builds the facts once, runs every lint over them and returns
//! [`Diagnostic`]s in a deterministic order, so lint output is goldenable.
//!
//! `Error`-severity diagnostics fail the CI `lint-gate`, which runs the lints
//! over every checked-in IR fixture and a genbug corpus; warnings and notes
//! stay advisory.
//!
//! The lints: `unreachable-block`, `dead-store`, `constant-condition`,
//! `lock-never-released`, `read-of-never-written`, `inconsistent-lock-guard`,
//! `shared-unsynchronized-write`.

use crate::interval::Feasibility;
use crate::lockorder;
use crate::pointsto::AbsLoc;
use crate::reachdef::{CondExpr, DefIndex};
use crate::ProgramFacts;
use esd_ir::{BlockId, GlobalId, Inst, Loc, Operand, Program, Terminator};
use std::fmt;

/// How serious a diagnostic is. `Error` fails the CI lint gate; the rest
/// are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Note,
    /// Suspicious but possibly intentional.
    Warning,
    /// Definitely wrong; rejected by the CI lint gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of one lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The reporting lint's stable kebab-case name.
    pub lint: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Where the finding is anchored (`idx == insts.len()` = the terminator).
    pub loc: Loc,
    /// Human-readable description.
    pub message: String,
}

/// Runs every lint over `program` and returns the diagnostics, sorted by
/// location (then severity, lint name, message) and deduplicated.
pub fn run(program: &Program) -> Vec<Diagnostic> {
    let facts = ProgramFacts::compute(program);
    let globals = scan_globals(program);
    let mut out = Vec::new();
    unreachable_block(program, &facts, &mut out);
    dead_store(program, &globals, &mut out);
    constant_condition(program, &facts, &mut out);
    lock_never_released(program, &facts, &mut out);
    read_of_never_written(program, &globals, &mut out);
    inconsistent_lock_guard(program, &facts, &mut out);
    shared_unsynchronized_write(program, &facts, &mut out);
    out.sort_by(|a, b| {
        (a.loc, std::cmp::Reverse(a.severity), a.lint, &a.message).cmp(&(
            b.loc,
            std::cmp::Reverse(b.severity),
            b.lint,
            &b.message,
        ))
    });
    out.dedup();
    out
}

/// Renders diagnostics as stable human-readable text (one line each plus a
/// summary line) — the format the `irlint` bin prints and the golden lint
/// fixture pins.
pub fn render(program: &Program, diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut notes = 0usize;
    for d in diags {
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
            Severity::Note => notes += 1,
        }
        let fname = &program.func(d.loc.func).name;
        s.push_str(&format!(
            "{}[{}] {}:bb{}:{}: {}\n",
            d.severity, d.lint, fname, d.loc.block.0, d.loc.idx, d.message
        ));
    }
    s.push_str(&format!("{errors} error(s), {warnings} warning(s), {notes} note(s)\n"));
    s
}

// ---------------------------------------------------------------------------
// Shared global-access scan (dead-store & read-of-never-written).

/// What the program does with each global, tracked only through statically
/// traceable addresses: once a global's address escapes (flows anywhere we
/// cannot follow — a call argument, a stored value, a non-constant `Gep`, a
/// sync primitive), the scan gives up on that global entirely.
struct GlobalAccess {
    /// Every store whose address traces to the global, in program order.
    stores: Vec<Vec<Loc>>,
    /// Every load whose address traces to the global: `(loc, word offset)`.
    loads: Vec<Vec<(Loc, i64)>>,
    /// The global's address escaped static tracking.
    escaped: Vec<bool>,
}

fn scan_globals(program: &Program) -> GlobalAccess {
    let n = program.globals.len();
    let mut acc = GlobalAccess {
        stores: vec![Vec::new(); n],
        loads: vec![Vec::new(); n],
        escaped: vec![false; n],
    };
    let escape = |acc: &mut GlobalAccess, defs: &DefIndex<'_>, op: Operand| {
        if let CondExpr::GlobalAddr(g, _) = defs.trace(op) {
            acc.escaped[g.0 as usize] = true;
        }
    };
    for fid in program.func_ids() {
        let function = program.func(fid);
        let defs = DefIndex::new(function);
        for (bi, block) in function.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(fid, BlockId(bi as u32), ii as u32);
                match inst {
                    Inst::Store { addr, value } => {
                        if let CondExpr::GlobalAddr(g, _) = defs.trace(*addr) {
                            acc.stores[g.0 as usize].push(loc);
                        }
                        escape(&mut acc, &defs, *value);
                    }
                    Inst::Load { addr, .. } => {
                        if let CondExpr::GlobalAddr(g, off) = defs.trace(*addr) {
                            acc.loads[g.0 as usize].push((loc, off));
                        }
                    }
                    // A Gep the tracer can fold (constant offset) surfaces
                    // at the eventual load/store; a non-constant offset
                    // makes the derived pointer untrackable.
                    Inst::Gep { base, offset, .. } => {
                        let folds = matches!(defs.trace(*offset), CondExpr::Const(_));
                        if !folds {
                            escape(&mut acc, &defs, *base);
                        }
                    }
                    // AddrGlobal only materializes the address; what the
                    // register is used for decides everything.
                    Inst::AddrGlobal { .. } => {}
                    // Every other use of a global address leaves our sight:
                    // call arguments, sync primitives, output, arithmetic.
                    _ => {
                        for op in inst.uses() {
                            escape(&mut acc, &defs, op);
                        }
                    }
                }
            }
            match &block.term {
                Terminator::CondBr { cond, .. } => escape(&mut acc, &defs, *cond),
                Terminator::Ret { value: Some(v) } => escape(&mut acc, &defs, *v),
                _ => {}
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// The lints.

/// Flags blocks with no CFG path from the function entry.
fn unreachable_block(program: &Program, facts: &ProgramFacts, out: &mut Vec<Diagnostic>) {
    for fid in program.func_ids() {
        let function = program.func(fid);
        let reachable = facts.cfgs[fid.0 as usize].reachable_from_entry();
        for (bi, block) in function.blocks.iter().enumerate() {
            if reachable[bi] {
                continue;
            }
            let label = block.label.as_deref().map(|l| format!(" (`{l}`)")).unwrap_or_default();
            out.push(Diagnostic {
                lint: "unreachable-block",
                severity: Severity::Warning,
                loc: Loc::new(fid, BlockId(bi as u32), 0),
                message: format!("block bb{bi}{label} is unreachable from function entry"),
            });
        }
    }
}

/// Flags stores that cannot be observed: a same-block overwrite with no
/// possible intervening reader, and globals that are written but never read
/// (address never escaping static tracking).
fn dead_store(program: &Program, acc: &GlobalAccess, out: &mut Vec<Diagnostic>) {
    use std::collections::HashMap;
    // Same-block overwrites.
    for fid in program.func_ids() {
        let function = program.func(fid);
        let defs = DefIndex::new(function);
        for (bi, block) in function.blocks.iter().enumerate() {
            // (global, word offset) → index of the last unread store.
            let mut pending: HashMap<(GlobalId, i64), usize> = HashMap::new();
            for (ii, inst) in block.insts.iter().enumerate() {
                match inst {
                    Inst::Store { addr, .. } => {
                        if let CondExpr::GlobalAddr(g, off) = defs.trace(*addr) {
                            if let Some(prev) = pending.insert((g, off), ii) {
                                let name = &program.global(g).name;
                                out.push(Diagnostic {
                                    lint: "dead-store",
                                    severity: Severity::Warning,
                                    loc: Loc::new(fid, BlockId(bi as u32), prev as u32),
                                    message: format!(
                                        "store to `{name}`[{off}] is overwritten at \
                                         instruction {ii} before any possible read"
                                    ),
                                });
                            }
                        } else {
                            // An untracked store may alias anything.
                            pending.clear();
                        }
                    }
                    // Anything that reads memory, calls out, or lets
                    // another thread run can observe the store.
                    Inst::Load { .. } | Inst::Call { .. } | Inst::Free { .. } => pending.clear(),
                    _ if inst.is_sync() => pending.clear(),
                    _ => {}
                }
            }
        }
    }
    // Write-only globals.
    for (gi, stores) in acc.stores.iter().enumerate() {
        if stores.is_empty() || acc.escaped[gi] || !acc.loads[gi].is_empty() {
            continue;
        }
        let name = &program.globals[gi].name;
        out.push(Diagnostic {
            lint: "dead-store",
            severity: Severity::Warning,
            loc: stores[0],
            message: format!(
                "global `{name}` is written ({} store(s)) but never read",
                stores.len()
            ),
        });
    }
}

/// Flags conditional branches whose condition is statically decided: a
/// literal constant is an error (one edge is textually dead); an
/// interval-analysis verdict is a warning (the dead edge may be a deliberate
/// defensive check).
fn constant_condition(program: &Program, facts: &ProgramFacts, out: &mut Vec<Diagnostic>) {
    for fid in program.func_ids() {
        let function = program.func(fid);
        let defs = DefIndex::new(function);
        for (bi, block) in function.blocks.iter().enumerate() {
            let Terminator::CondBr { cond, .. } = block.term else { continue };
            let b = BlockId(bi as u32);
            let loc = Loc::new(fid, b, block.insts.len() as u32);
            if let CondExpr::Const(v) = defs.trace(cond) {
                let (taken, dead) = if v != 0 { ("then", "else") } else { ("else", "then") };
                out.push(Diagnostic {
                    lint: "constant-condition",
                    severity: Severity::Error,
                    loc,
                    message: format!(
                        "branch condition is the constant {v}: the {taken} edge is \
                         always taken and the {dead} edge is dead"
                    ),
                });
                continue;
            }
            let verdict = facts.branch_feasibility.verdict(fid, b);
            if verdict != Feasibility::Unknown {
                let way = match verdict {
                    Feasibility::AlwaysTrue => "always true",
                    Feasibility::AlwaysFalse => "always false",
                    Feasibility::Unknown => unreachable!(),
                };
                out.push(Diagnostic {
                    lint: "constant-condition",
                    severity: Severity::Warning,
                    loc,
                    message: format!(
                        "branch condition is {way} by interval analysis; \
                         the other edge is statically infeasible"
                    ),
                });
            }
        }
    }
}

/// Flags functions that may return while still holding a mutex they
/// themselves acquired. Lock-helper functions legitimately do this, hence a
/// warning; it also catches the classic leaked-lock bug shape.
fn lock_never_released(program: &Program, facts: &ProgramFacts, out: &mut Vec<Diagnostic>) {
    for fid in program.func_ids() {
        let function = program.func(fid);
        let cfg = &facts.cfgs[fid.0 as usize];
        for (loc, g) in lockorder::unreleased_at_return(function, cfg, fid) {
            let name = &program.global(g).name;
            out.push(Diagnostic {
                lint: "lock-never-released",
                severity: Severity::Warning,
                loc,
                message: format!(
                    "mutex `{name}` acquired in this function may still be held at return"
                ),
            });
        }
    }
}

/// Flags loads from global words that no instruction ever writes and the
/// initializer leaves implicitly zero — the value can only ever be 0, which
/// usually means a missing initialization or a vestigial flag.
fn read_of_never_written(program: &Program, acc: &GlobalAccess, out: &mut Vec<Diagnostic>) {
    for (gi, loads) in acc.loads.iter().enumerate() {
        if acc.escaped[gi] || !acc.stores[gi].is_empty() {
            continue;
        }
        let global = &program.globals[gi];
        for (loc, off) in loads {
            let initialized = (0..global.init.len() as i64).contains(off);
            if initialized {
                continue;
            }
            out.push(Diagnostic {
                lint: "read-of-never-written",
                severity: Severity::Warning,
                loc: *loc,
                message: format!(
                    "load from `{}`[{off}] reads memory that is never written and not \
                     initialized: the value is always 0",
                    global.name
                ),
            });
        }
    }
}

/// Renders an abstract location for a diagnostic message.
fn absloc_name(program: &Program, l: AbsLoc) -> String {
    match l {
        AbsLoc::Global(g) => format!("`{}`", program.global(g).name),
        AbsLoc::Local(f, _) => format!("a stack slot of `{}`", program.func(f).name),
        AbsLoc::Alloc(loc) => {
            format!(
                "the allocation at `{}`:bb{}:{}",
                program.func(loc.func).name,
                loc.block.0,
                loc.idx
            )
        }
    }
}

/// Flags may-shared locations accessed both under a mutex and (elsewhere)
/// possibly without it: the classic "forgot the lock on one path" shape the
/// lockset detectors hunt dynamically, caught statically via aliasing. A
/// warning — the unguarded access may be ordered by spawn/join structure the
/// lockset view cannot see.
fn inconsistent_lock_guard(program: &Program, facts: &ProgramFacts, out: &mut Vec<Diagnostic>) {
    use std::collections::BTreeMap;
    let rc = facts.race_candidates(program);
    // Group the may-shared accesses by the abstract locations they touch.
    let mut by_target: BTreeMap<AbsLoc, Vec<Loc>> = BTreeMap::new();
    for a in &facts.points_to.accesses {
        if !a.may_shared {
            continue;
        }
        for t in &a.targets {
            by_target.entry(*t).or_default().push(a.loc);
        }
    }
    let empty = std::collections::BTreeSet::new();
    for (target, accesses) in &by_target {
        // Mutexes some access of this location *must* hold.
        let mut guards: Vec<(GlobalId, Loc)> = Vec::new();
        for loc in accesses {
            for g in rc.must_locksets.get(loc).unwrap_or(&empty) {
                if !guards.iter().any(|(have, _)| have == g) {
                    guards.push((*g, *loc));
                }
            }
        }
        for (g, guarded_at) in guards {
            for loc in accesses {
                if rc.may_locksets.get(loc).unwrap_or(&empty).contains(&g) {
                    continue;
                }
                let gname = &program.global(g).name;
                let gfn = &program.func(guarded_at.func).name;
                out.push(Diagnostic {
                    lint: "inconsistent-lock-guard",
                    severity: Severity::Warning,
                    loc: *loc,
                    message: format!(
                        "{} is guarded by mutex `{gname}` at `{gfn}`:bb{}:{} but this \
                         access may not hold it",
                        absloc_name(program, *target),
                        guarded_at.block.0,
                        guarded_at.idx,
                    ),
                });
            }
        }
    }
}

/// Flags writes to may-shared memory performed with no lock possibly held at
/// all while the write belongs to a race-pair candidate: nothing orders it
/// against the other side of the pair. A warning — the race workloads in the
/// corpus do this deliberately.
fn shared_unsynchronized_write(program: &Program, facts: &ProgramFacts, out: &mut Vec<Diagnostic>) {
    let rc = facts.race_candidates(program);
    let empty = std::collections::BTreeSet::new();
    for a in &facts.points_to.accesses {
        if !a.is_write || !a.may_shared || !rc.is_candidate_access(a.loc) {
            continue;
        }
        if !rc.may_locksets.get(&a.loc).unwrap_or(&empty).is_empty() {
            continue;
        }
        let what =
            a.targets.iter().map(|t| absloc_name(program, *t)).collect::<Vec<_>>().join(", ");
        let what = if what.is_empty() { "an unresolved address".to_string() } else { what };
        out.push(Diagnostic {
            lint: "shared-unsynchronized-write",
            severity: Severity::Warning,
            loc: a.loc,
            message: format!(
                "write to may-shared {what} holds no lock and races with another \
                 access (static race-pair candidate)"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, ProgramBuilder};

    fn names(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn unreachable_block_is_flagged() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let dead = f.new_block("orphan");
            f.ret_void();
            f.switch_to(dead);
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        assert_eq!(names(&diags), vec!["unreachable-block"]);
        assert!(diags[0].message.contains("orphan"));
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn overwritten_store_is_flagged_and_intervening_load_suppresses() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("g", 1);
        let h = pb.global("h", 1);
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            f.store(gp, 1);
            f.store(gp, 2); // overwrites the first store
            let hp = f.addr_global(h);
            f.store(hp, 1);
            let v = f.load(hp); // observes it
            f.store(hp, 2);
            let s = f.add(v, 0);
            f.output(s);
            let v2 = f.load(gp);
            f.output(v2);
            let v3 = f.load(hp);
            f.output(v3);
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        assert_eq!(names(&diags), vec!["dead-store"]);
        assert!(diags[0].message.contains("`g`"));
    }

    #[test]
    fn write_only_global_is_flagged() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("scratch", 1);
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            let x = f.getchar();
            f.store(gp, x);
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        assert_eq!(names(&diags), vec!["dead-store"]);
        assert!(diags[0].message.contains("never read"));
    }

    #[test]
    fn escaped_global_is_not_write_only() {
        // The address is passed to a callee, so the scan must give up.
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("shared", 1);
        let sink = pb.declare("sink", 1);
        pb.define(sink, |f| {
            let v = f.load(f.param(0));
            f.output(v);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            f.store(gp, 7);
            f.call_void(sink, vec![gp.into()]);
            f.ret_void();
        });
        let p = pb.finish("main");
        assert!(run(&p).is_empty());
    }

    #[test]
    fn literal_constant_condition_is_an_error() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let c = f.konst(1);
            f.diamond("dbg", c, |t| t.nop(), |e| e.nop());
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        // The dead else-arm also trips unreachable-block? No: both arms are
        // CFG-reachable — only the constant-condition error fires.
        assert_eq!(names(&diags), vec!["constant-condition"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("constant 1"));
    }

    #[test]
    fn interval_decided_condition_is_a_warning() {
        // x & 63 <= 63 is not a literal constant but the interval analysis
        // decides it — the defensive-check shape must stay sub-error.
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let masked = f.bin(esd_ir::BinOp::And, x, 63);
            let c = f.cmp(CmpOp::Le, masked, 63);
            f.diamond("defensive", c, |t| t.nop(), |e| e.nop());
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        assert_eq!(names(&diags), vec!["constant-condition"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("always true"));
    }

    #[test]
    fn lock_held_at_return_is_flagged() {
        let mut pb = ProgramBuilder::new("p");
        let m = pb.global("m", 1);
        pb.function("main", 0, |f| {
            let mp = f.addr_global(m);
            f.lock(mp);
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        assert_eq!(names(&diags), vec!["lock-never-released"]);
        assert!(diags[0].message.contains("`m`"));
    }

    #[test]
    fn read_of_never_written_uninitialized_global_is_flagged() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("ghost", 2);
        let init = pb.global_init("seeded", 1, vec![5]);
        pb.function("main", 0, |f| {
            let gp = f.addr_global(g);
            let v = f.load(gp);
            f.output(v);
            // An explicitly initialized global read-only is fine.
            let ip = f.addr_global(init);
            let w = f.load(ip);
            f.output(w);
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        assert_eq!(names(&diags), vec!["read-of-never-written"]);
        assert!(diags[0].message.contains("`ghost`"));
    }

    #[test]
    fn inconsistently_guarded_shared_access_is_flagged() {
        // worker1 writes `counter` under `m`; worker2 writes it with no lock.
        let mut pb = ProgramBuilder::new("p");
        let counter = pb.global("counter", 1);
        let m = pb.global("m", 1);
        let w1 = pb.declare("w1", 1);
        pb.define(w1, |f| {
            let mp = f.addr_global(m);
            let cp = f.addr_global(counter);
            f.lock(mp);
            f.store(cp, 1);
            f.unlock(mp);
            f.ret_void();
        });
        let w2 = pb.declare("w2", 1);
        let mut naked = None;
        pb.define(w2, |f| {
            let cp = f.addr_global(counter);
            naked = Some(f.here());
            f.store(cp, 2);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let h1 = f.spawn(w1, 0);
            let h2 = f.spawn(w2, 0);
            f.join(h1);
            f.join(h2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        let guard: Vec<_> = diags.iter().filter(|d| d.lint == "inconsistent-lock-guard").collect();
        assert!(!guard.is_empty(), "the unguarded access must be flagged: {diags:?}");
        assert!(guard.iter().any(|d| d.loc == naked.unwrap()));
        assert!(guard[0].message.contains("`m`"));
        assert!(guard.iter().all(|d| d.severity == Severity::Warning));
        // The naked shared write is also a race-candidate write with no lock.
        assert!(diags.iter().any(|d| d.lint == "shared-unsynchronized-write"));
    }

    #[test]
    fn consistently_guarded_accesses_stay_silent() {
        let mut pb = ProgramBuilder::new("p");
        let counter = pb.global("counter", 1);
        let m = pb.global("m", 1);
        let w = pb.declare("w", 1);
        pb.define(w, |f| {
            let mp = f.addr_global(m);
            let cp = f.addr_global(counter);
            f.lock(mp);
            let v = f.load(cp);
            let v1 = f.add(v, 1);
            f.store(cp, v1);
            f.unlock(mp);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let h1 = f.spawn(w, 0);
            let h2 = f.spawn(w, 0);
            f.join(h1);
            f.join(h2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        assert!(
            !diags.iter().any(|d| matches!(
                d.lint,
                "inconsistent-lock-guard" | "shared-unsynchronized-write"
            )),
            "consistently locked accesses must not trip the aliasing lints: {diags:?}"
        );
    }

    #[test]
    fn render_is_stable_and_counts_severities() {
        let mut pb = ProgramBuilder::new("p");
        let m = pb.global("m", 1);
        pb.function("main", 0, |f| {
            let mp = f.addr_global(m);
            f.lock(mp);
            let c = f.konst(1);
            f.diamond("dbg", c, |t| t.nop(), |e| e.nop());
            f.ret_void();
        });
        let p = pb.finish("main");
        let diags = run(&p);
        let text = render(&p, &diags);
        assert!(text.contains("error[constant-condition] main:"));
        assert!(text.contains("warning[lock-never-released] main:"));
        assert!(text.ends_with("1 error(s), 1 warning(s), 0 note(s)\n"));
    }
}
