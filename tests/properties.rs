//! Property-based tests over the core data structures and invariants.

use esd::concurrency::{Schedule, SegmentStop};
use esd::core::journal::{encode_frame, scan, JournalRecord};
use esd::core::snapshot::{load_snapshot, save_snapshot, SnapshotError};
use esd::ir::interp::{InterpreterConfig, MapInputs, SchedulerKind};
use esd::ir::printer::print_program;
use esd::ir::validate::validate;
use esd::ir::{BinOp, BlockId, CmpOp, Loc, ProgramBuilder};
use esd::ir::{Interpreter, ThreadId};
use esd::service::wire::{
    decode_request, decode_response, encode_frame as encode_wire_frame, encode_request,
    encode_response, FrameDecoder, WireRequest, WireResponse,
};
use esd::symex::{
    ExecState, HotState, ProximityFrontier, RaceDetector, SearchFrontier, SearchStats, Solver,
    SolverResult, StatePriority, SymExpr, SymVar,
};
use esd::workloads::genbug::{generate, GenConfig, GenSize, InjectedBugKind, ScheduleHint};
use esd::{
    EsdOptions, ExecutorSnapshot, FrontierKind, ServiceError, SessionStatus, SynthesisSession,
    SynthesizedExecution,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    /// The solver never returns a model that violates the constraints it was
    /// given (soundness): whatever assignment comes back must satisfy every
    /// constraint under concrete evaluation.
    #[test]
    fn solver_models_always_satisfy_their_constraints(
        bounds in proptest::collection::vec((0u32..4, 0i64..100, 0usize..6), 1..6)
    ) {
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let constraints: Vec<_> = bounds
            .iter()
            .map(|(var, k, op)| SymExpr::cmp(ops[*op], SymExpr::var(SymVar(*var)), SymExpr::constant(*k)))
            .collect();
        let mut solver = Solver::default();
        if let esd::symex::SolverResult::Sat(model) = solver.solve(&constraints) {
            for c in &constraints {
                prop_assert_ne!(c.eval(&model), 0, "model must satisfy every constraint");
            }
        }
    }

    /// The solver against brute force (a truth oracle, not a
    /// self-consistency check). Random conjunctions over 1–3 variables, each
    /// variable boxed into [-3, 3] by explicit constraints, so enumerating
    /// the box decides every query:
    ///
    /// * `Unsat` from `solve`, or `false` from `is_feasible` or from either
    ///   side of `branch_feasible`, means no assignment in the box works;
    /// * every `Sat` model satisfies every constraint;
    /// * a query with a model in the box gets one from `solve`: the box holds
    ///   at most 7³ = 343 points, inside the solver's enumeration limit;
    /// * `is_feasible(c) == !matches!(solve(c), Unsat)`;
    /// * `branch_feasible(p, c) == (is_feasible(p + [c]), is_feasible(p + [¬c]))`.
    #[test]
    fn solver_verdicts_agree_with_brute_force(
        vars in 1u32..4,
        conjuncts in 1usize..4,
        genes in proptest::collection::vec(0u32..1000, 0..40)
    ) {
        let mut reader = ExprGenes { genes: &genes, at: 0, vars };
        let mut prefix = Vec::new();
        for v in 0..vars {
            let x = SymExpr::var(SymVar(v));
            prefix.push(SymExpr::cmp(CmpOp::Ge, x.clone(), SymExpr::constant(-BOX)));
            prefix.push(SymExpr::cmp(CmpOp::Le, x, SymExpr::constant(BOX)));
        }
        for _ in 0..conjuncts {
            prefix.push(reader.cond(2));
        }
        let cond = reader.cond(2);
        let with = |c: Arc<SymExpr>| -> Vec<Arc<SymExpr>> {
            prefix.iter().cloned().chain([c]).collect()
        };
        let then_side = with(cond.clone());
        let else_side = with(SymExpr::not(cond.clone()));
        let mut solver = Solver::default();
        for constraints in [&prefix, &then_side, &else_side] {
            let satisfiable = brute_force_sat(constraints, vars);
            let solved = solver.solve(constraints);
            let feasible = solver.is_feasible(constraints);
            prop_assert_eq!(feasible, !matches!(solved, SolverResult::Unsat), "{:?}", constraints);
            prop_assert!(feasible || !satisfiable, "refuted a satisfiable query: {:?}", constraints);
            prop_assert!(solved.is_sat() || !satisfiable, "no model for {:?}", constraints);
            if let SolverResult::Sat(model) = &solved {
                for c in constraints {
                    prop_assert_ne!(c.eval(model), 0, "{:?} fails its model {:?}", c, model);
                }
            }
        }
        let sides = (solver.is_feasible(&then_side), solver.is_feasible(&else_side));
        prop_assert_eq!(solver.branch_feasible(&prefix, &cond), sides, "{:?} on {:?}", cond, prefix);
    }

    /// Schedules preserve the total number of counted steps under the
    /// merge-on-push normalization.
    #[test]
    fn schedule_push_preserves_counted_steps(segs in proptest::collection::vec((0u32..3, 1u64..50), 0..40)) {
        let mut schedule = Schedule::new();
        let mut expected = 0u64;
        for (t, n) in &segs {
            schedule.push(*t, SegmentStop::Steps(*n));
            expected += n;
        }
        prop_assert_eq!(schedule.counted_steps(), expected);
        // Merging never produces two adjacent Steps segments of the same thread.
        for w in schedule.segments.windows(2) {
            let same_thread = w[0].thread == w[1].thread;
            let both_steps = matches!(w[0].stop, SegmentStop::Steps(_)) && matches!(w[1].stop, SegmentStop::Steps(_));
            prop_assert!(!(same_thread && both_steps));
        }
    }

    /// Forked execution states carry independent concurrency analysis:
    /// cloning an `ExecState` and advancing the clone's lockset/race state
    /// never mutates the parent's — in either direction — no matter what
    /// access sequence each side performs (the ROADMAP-tracked
    /// sibling-suppression bug, stated as a property).
    #[test]
    fn forked_state_race_analysis_never_leaks_into_the_parent(
        prefix in proptest::collection::vec((0u64..4, 0u32..3, 0u64..30, 0u64..4), 0..20),
        suffix in proptest::collection::vec((0u64..4, 0u32..3, 0u64..30, 0u64..4), 1..40),
    ) {
        let mut pb = ProgramBuilder::new("tiny");
        pb.function("main", 0, |f| {
            f.nop();
            f.ret_void();
        });
        let program = pb.finish("main");
        let entry = program.entry;
        // (word, thread, site, flags): bit 0 = write, bit 1 = lock held.
        let access = |d: &mut RaceDetector, (w, t, a, fl): (u64, u32, u64, u64)| {
            let held: &[(u64, i64)] = if fl & 2 != 0 { &[(9, 0)] } else { &[] };
            d.access((w, 0), t, Loc::new(entry, BlockId(a as u32), 0), fl & 1 != 0, held);
        };
        let mut parent = ExecState::initial(&program);
        for a in &prefix {
            access(&mut parent.race_detector, *a);
        }
        let snapshot = parent.race_detector.clone();
        let mut child = parent.clone();
        for a in &suffix {
            access(&mut child.race_detector, *a);
        }
        // The child advanced; the parent must be bit-for-bit where it was.
        prop_assert!(parent.race_detector == snapshot, "child accesses leaked into the parent");
        prop_assert_eq!(parent.race_detector.reported_pairs(), snapshot.reported_pairs());
        // And the reverse: advancing the parent leaves the child untouched.
        let child_snapshot = child.race_detector.clone();
        for a in &suffix {
            access(&mut parent.race_detector, *a);
        }
        prop_assert!(child.race_detector == child_snapshot, "parent accesses leaked into the child");
    }

    /// The bug generator only emits well-formed programs: for arbitrary
    /// seeds, bug kinds and size knobs (including degenerate zero sizes,
    /// which the generator clamps), the generated program passes full IR
    /// validation — no dangling block references, every function's entry
    /// reachable, every register defined.
    #[test]
    fn generated_programs_always_pass_ir_validation(
        seed in 0u64..1_000_000_000,
        kind_idx in 0usize..4,
        dims in (0u32..12, 0u32..32, 0u32..12, 0u32..12, 0u32..12),
    ) {
        let (inputs, branches, loop_iters, threads, locks) = dims;
        let config = GenConfig {
            seed,
            kind: InjectedBugKind::ALL[kind_idx],
            size: GenSize { inputs, branches, loop_iters, threads, locks },
        };
        let w = generate(&config);
        prop_assert!(
            validate(&w.program).is_ok(),
            "{}: generated program must validate", w.name
        );
        prop_assert!(!w.truth.goal_locs.is_empty(), "{}: ground truth has a goal", w.name);
    }

    /// The static phase is *sound* on the generated corpus: branch
    /// feasibility verdicts only ever remove edges that are infeasible for
    /// every input, so the blocks holding the injected bug stay reachable
    /// when each function's CFG is restricted to the edges the verdicts
    /// keep. An `AlwaysFalse` on the guard of the bug path would be a false
    /// `constant-condition` warning, and since the solver evaluates the same
    /// transfer functions, a sign that it could refute the bug path too.
    #[test]
    fn feasibility_verdicts_never_rule_out_the_injected_bug(
        seed in 0u64..1_000_000_000,
        kind_idx in 0usize..4,
        dims in (0u32..12, 0u32..32, 0u32..12, 0u32..12, 0u32..12),
    ) {
        use esd::analysis::{BranchFeasibility, Feasibility, ProgramFacts};
        use esd::ir::inst::Terminator;

        let (inputs, branches, loop_iters, threads, locks) = dims;
        let config = GenConfig {
            seed,
            kind: InjectedBugKind::ALL[kind_idx],
            size: GenSize { inputs, branches, loop_iters, threads, locks },
        };
        let w = generate(&config);
        let program = &w.program;
        let facts = ProgramFacts::compute(program);
        let feasibility = BranchFeasibility::compute(program, &facts.cfgs, &facts.callgraph);

        for goal in &w.truth.goal_locs {
            // Reachability from the goal function's entry, walking only the
            // CFG edges the verdicts keep.
            let func = program.func(goal.func);
            let mut seen = vec![false; func.blocks.len()];
            let mut stack = vec![BlockId(0)];
            while let Some(b) = stack.pop() {
                if std::mem::replace(&mut seen[b.0 as usize], true) {
                    continue;
                }
                let next: Vec<BlockId> = match &func.blocks[b.0 as usize].term {
                    Terminator::CondBr { then_bb, else_bb, .. } => {
                        match feasibility.verdict(goal.func, b) {
                            Feasibility::AlwaysTrue => vec![*then_bb],
                            Feasibility::AlwaysFalse => vec![*else_bb],
                            Feasibility::Unknown => vec![*then_bb, *else_bb],
                        }
                    }
                    t => t.successors().collect(),
                };
                stack.extend(next);
            }
            prop_assert!(
                seen[goal.block.0 as usize],
                "{}: the injected bug block {:?} was pruned away by the \
                 feasibility verdicts (seed {seed})",
                w.name, goal
            );
        }
    }

    /// The static race-pair candidate set is *sound* on the generated
    /// corpus: whatever the generator dimensions, both instructions of an
    /// injected data race land in the candidate set — and one candidate
    /// pair covers exactly the injected pair — so the candidate gating of
    /// yield preemptions can never make the injected race unsynthesizable.
    #[test]
    fn injected_data_races_always_appear_in_the_candidate_set(
        seed in 0u64..1_000_000_000,
        dims in (0u32..12, 0u32..32, 0u32..12, 0u32..12, 0u32..12),
    ) {
        use esd::analysis::ProgramFacts;

        let (inputs, branches, loop_iters, threads, locks) = dims;
        let config = GenConfig {
            seed,
            kind: InjectedBugKind::DataRace,
            size: GenSize { inputs, branches, loop_iters, threads, locks },
        };
        let w = generate(&config);
        let facts = ProgramFacts::compute(&w.program);
        let rc = facts.race_candidates(&w.program);
        let (load, store) = match w.truth.schedule_hint {
            ScheduleHint::PreemptBetween { load, store } => (load, store),
            ref other => panic!("{}: DataRace ground truth carries {other:?}", w.name),
        };
        prop_assert!(
            rc.is_candidate_access(load),
            "{}: the injected racy load {load:?} is not a candidate access (seed {seed})",
            w.name
        );
        prop_assert!(
            rc.is_candidate_access(store),
            "{}: the injected racy store {store:?} is not a candidate access (seed {seed})",
            w.name
        );
        prop_assert!(
            rc.candidates.iter().any(|c| {
                (c.access_a == load || c.access_a == store)
                    && (c.access_b == load || c.access_b == store)
            }),
            "{}: no candidate pair covers the injected load/store pair (seed {seed})",
            w.name
        );
    }

    /// Generator determinism, as a property: the same `(seed, kind, size)`
    /// always produces a byte-identical serialized program and the same
    /// ground truth. (A checked-in golden fixture pins the concrete bytes
    /// across releases in `tests/golden_genbug.rs`.)
    #[test]
    fn generator_is_deterministic_per_seed(
        seed in 0u64..1_000_000_000,
        kind_idx in 0usize..4,
        branches in 0u32..24,
    ) {
        let config = GenConfig {
            seed,
            kind: InjectedBugKind::ALL[kind_idx],
            size: GenSize { branches, ..GenSize::small() },
        };
        let a = generate(&config);
        let b = generate(&config);
        prop_assert_eq!(print_program(&a.program), print_program(&b.program));
        prop_assert_eq!(a.truth.goal_locs, b.truth.goal_locs);
        prop_assert_eq!(a.truth.triggering_inputs, b.truth.triggering_inputs);
        prop_assert_eq!(a.name, b.name);
    }

    /// A restored session is indistinguishable from the one that wrote the
    /// snapshot: snapshot → restore → snapshot reproduces byte-identical
    /// serialized state for arbitrary workloads and interruption points.
    /// Only the wall-clock `elapsed` field is excluded — it keeps advancing
    /// between the two snapshot calls by construction.
    #[test]
    fn session_snapshot_round_trip_is_byte_identical(
        seed in 0u64..1_000_000,
        kind_idx in 0usize..4,
        rounds in 0u64..60,
    ) {
        let w = generate(&GenConfig::new(seed, InjectedBugKind::ALL[kind_idx])).to_workload();
        let mut session =
            SynthesisSession::new(&w.program, w.goal(), EsdOptions::builder().max_steps(100_000).build());
        session.run_for(rounds);
        let snap = session.snapshot();
        let mut again = SynthesisSession::restore(&snap).snapshot();
        again.elapsed = snap.elapsed;
        prop_assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    /// Resuming is exact: a session restored from a snapshot taken at round
    /// `k` and the uninterrupted session snapshot byte-identically (all but
    /// the wall-clock `elapsed` times) after `n` more rounds, under every
    /// frontier. At every round the reported live-state count equals the
    /// number of states the snapshot carries.
    #[test]
    fn restored_sessions_continue_identically(
        seed in 0u64..1_000_000,
        kind_idx in 0usize..4,
        frontier_idx in 0usize..3,
        k in 0u64..30,
        n in 1u64..40,
    ) {
        let frontier =
            [FrontierKind::Dfs, FrontierKind::Random, FrontierKind::Proximity][frontier_idx];
        let w = generate(&GenConfig::new(seed, InjectedBugKind::ALL[kind_idx])).to_workload();
        let mut original = SynthesisSession::new(&w.program, w.goal(), EsdOptions::builder()
            .max_steps(100_000)
            .seed(seed)
            .frontier(frontier).build());
        original.run_for(k);
        let mut restored = SynthesisSession::restore(&original.snapshot());
        let mut images = Vec::new();
        for session in [&mut original, &mut restored] {
            for _ in 0..n {
                session.run_for(1);
                let live = session.snapshot().engine.states.len();
                prop_assert_eq!(session.progress_event().live_states, live);
            }
            let mut snap = session.snapshot();
            snap.elapsed = Duration::ZERO;
            if let SessionStatus::Found(report) = &mut snap.status {
                report.elapsed = Duration::ZERO;
            }
            images.push(serde_json::to_string(&snap).unwrap());
        }
        prop_assert_eq!(&images[0], &images[1], "{} diverged after restore", frontier);
    }

    /// The proximity frontier's hot selection decides exactly what pushing
    /// the hot state and popping would. Random scripts of admissions,
    /// promotions (re-pushes), deaths and selections — with tied keys and
    /// depths, and drawn queues that hold only stale entries or none — drive
    /// two frontiers with the same seed, one through `pop_with` and one
    /// through `push` then `pop`. Every selection picks the same id
    /// and the two snapshots stay equal throughout.
    #[test]
    fn proximity_hot_selection_matches_push_then_pop(
        seed in 0u64..1_000,
        queues in 1usize..4,
        script in proptest::collection::vec((0u32..4, 0u64..64, 0u64..3), 0..80),
    ) {
        // Two bits of key per queue: keys in 0..4, so ties are common.
        let prio = |genes: u64, depth: u64| StatePriority {
            queue_keys: (0..queues).map(|q| (genes >> (2 * q)) & 3).collect(),
            depth,
        };
        let mut hot_path = ProximityFrontier::new(queues, seed);
        let mut reference = ProximityFrontier::new(queues, seed);
        let mut queued: Vec<u64> = Vec::new();
        let mut hot: Option<TestHot> = None;
        let mut next_id = 0;
        for (op, genes, depth) in script {
            match op {
                0 => {
                    for frontier in [&mut hot_path, &mut reference] {
                        frontier.push(next_id, &prio(genes, depth));
                    }
                    queued.push(next_id);
                    next_id += 1;
                }
                1 if !queued.is_empty() => {
                    let id = queued[genes as usize % queued.len()];
                    for frontier in [&mut hot_path, &mut reference] {
                        frontier.push(id, &prio(genes, depth));
                    }
                }
                3 => hot = None,
                _ => {
                    let (selected, expected) = match &hot {
                        Some(h) => {
                            let selected = hot_path.pop_with(h);
                            reference.push(h.id, &h.prio);
                            (selected, reference.pop())
                        }
                        None => (hot_path.pop(), reference.pop()),
                    };
                    prop_assert_eq!(selected, expected);
                    if let Some(h) = hot.take() {
                        if selected != Some(h.id) {
                            queued.push(h.id);
                        }
                    }
                    queued.retain(|id| selected != Some(*id));
                    hot = selected.map(|id| TestHot { id, prio: prio(genes, depth) });
                }
            }
            prop_assert_eq!(hot_path.len(), reference.len());
            prop_assert_eq!(hot_path.snapshot(), reference.snapshot());
        }
    }

    /// Journal scanning is total: truncating a valid journal at any byte
    /// offset, or flipping any single bit, yields the longest valid prefix
    /// of the original records — and never panics.
    #[test]
    fn journal_scan_survives_arbitrary_corruption(
        grants in proptest::collection::vec((0u64..8, 1u64..512), 1..20),
        cut in 0usize..100_000,
        flip_at in 0usize..100_000,
        flip_bit in 0u32..8,
    ) {
        let records: Vec<JournalRecord> = grants
            .iter()
            .map(|(a, b)| JournalRecord::Grant { grants: vec![*a, *b] })
            .collect();
        let frames: Vec<Vec<u8>> = records.iter().map(encode_frame).collect();
        let bytes: Vec<u8> = frames.concat();

        // A clean journal reads back completely.
        let clean = scan(&bytes);
        prop_assert_eq!(clean.records.len(), records.len());
        prop_assert!(clean.damage.is_none());
        prop_assert_eq!(clean.valid_len, bytes.len());

        // Truncation at an arbitrary offset: exactly the fully-framed
        // prefix survives, and valid_len points at its end.
        let cut = cut % (bytes.len() + 1);
        let truncated = scan(&bytes[..cut]);
        let mut consumed = 0usize;
        for (r, orig) in truncated.records.iter().zip(&frames) {
            prop_assert_eq!(&encode_frame(r), orig);
            consumed += orig.len();
        }
        prop_assert_eq!(truncated.valid_len, consumed);
        prop_assert!(consumed <= cut);

        // A single flipped bit: still a valid prefix of the originals.
        let mut mangled = bytes.clone();
        let at = flip_at % mangled.len();
        mangled[at] ^= 1 << flip_bit;
        let scanned = scan(&mangled);
        for (r, orig) in scanned.records.iter().zip(&frames) {
            prop_assert_eq!(&encode_frame(r), orig);
        }
        // Re-scanning the reported valid prefix is clean — recovery can
        // truncate to valid_len and trust what remains.
        let again = scan(&mangled[..scanned.valid_len]);
        prop_assert!(again.damage.is_none());
        prop_assert_eq!(again.records.len(), scanned.records.len());
    }

    /// Snapshot loading is total: a snapshot file truncated at any byte
    /// offset, or with a few bits flipped anywhere, loads as a typed
    /// `SnapshotError` — never a panic, and never a value other than the
    /// one saved.
    #[test]
    fn snapshot_load_survives_arbitrary_corruption(
        grants in proptest::collection::vec((0u64..8, 1u64..512), 0..12),
        cut in 0usize..100_000,
        flips in proptest::collection::vec((0usize..100_000, 0u32..8), 1..4),
    ) {
        let records: Vec<JournalRecord> = grants
            .iter()
            .map(|(a, b)| JournalRecord::Grant { grants: vec![*a, *b] })
            .collect();
        let payload = serde_json::to_string(&records).expect("records serialize");
        let path = std::env::temp_dir()
            .join(format!("esd_snapshot_corruption_{}.frame", std::process::id()));
        save_snapshot(&path, &records).expect("snapshot saves");
        let bytes = std::fs::read(&path).expect("snapshot reads");
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("snapshot writes");
            load_snapshot::<Vec<JournalRecord>>(&path)
        };
        let reloaded = load(&bytes).expect("a clean snapshot loads");
        prop_assert_eq!(&serde_json::to_string(&reloaded).expect("records serialize"), &payload);

        // Truncation anywhere short of the end: the file is incomplete.
        let cut = cut % bytes.len();
        let truncated = load(&bytes[..cut]);
        prop_assert!(matches!(truncated, Err(SnapshotError::Malformed(_))), "{:?}", truncated);

        // Flipped bits: a version, checksum or framing error, or (when the
        // flips cancel out) the original value.
        let mut mangled = bytes.clone();
        for (at, bit) in &flips {
            let at = at % mangled.len();
            mangled[at] ^= 1 << bit;
        }
        match load(&mangled) {
            Ok(value) => {
                prop_assert_eq!(mangled, bytes);
                prop_assert_eq!(serde_json::to_string(&value).expect("records serialize"), payload);
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    SnapshotError::UnknownVersion(_)
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::Malformed(_)
                ),
                "{:?}",
                e
            ),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Wire round-trip: arbitrary request/response conversations encoded as
    /// frames survive an incremental decoder fed in arbitrary chunk sizes —
    /// every message decodes, in order, to something that re-encodes to the
    /// original bytes.
    #[test]
    fn wire_messages_round_trip_through_arbitrary_chunking(
        picks in proptest::collection::vec((0usize..12, 0u64..1000), 1..20),
        chunk in 1usize..64,
    ) {
        let messages: Vec<(Vec<u8>, bool)> = picks
            .iter()
            .map(|&(which, n)| match which {
                10 => (encode_request(&WireRequest::Submit { request: wire_request(n) }), true),
                11 => {
                    let outcome = wire_outcomes()[(n % 3) as usize].clone();
                    (encode_response(&WireResponse::Outcome { outcome: Box::new(Some(outcome)) }), false)
                }
                0 => (encode_request(&WireRequest::Poll { ticket: n }), true),
                1 => (encode_request(&WireRequest::Cancel { ticket: n }), true),
                2 => (encode_request(&WireRequest::Take { ticket: n }), true),
                3 => (encode_request(&WireRequest::Subscribe { ticket: n }), true),
                4 => (encode_request(&WireRequest::Shutdown), true),
                5 => (encode_response(&WireResponse::Ticket { ticket: n }), false),
                6 => (encode_response(&WireResponse::Status { status: wire_status(n) }), false),
                7 => (encode_response(&WireResponse::Cancelled { cancelled: n.is_multiple_of(2) }), false),
                8 => (encode_response(&WireResponse::Error { error: wire_error(n) }), false),
                _ => (encode_response(&WireResponse::Bye), false),
            })
            .collect();
        let bytes: Vec<u8> = messages.iter().flat_map(|(b, _)| b.clone()).collect();

        let mut decoder = FrameDecoder::new();
        let mut decoded: Vec<Vec<u8>> = Vec::new();
        for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            while let Some(frame) = decoder.next_frame().expect("clean stream never errors") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded.len(), messages.len());
        for (payload, (original, is_request)) in decoded.iter().zip(&messages) {
            let reencoded = if *is_request {
                encode_request(&decode_request(payload).expect("request decodes"))
            } else {
                encode_response(&decode_response(payload).expect("response decodes"))
            };
            prop_assert_eq!(&reencoded, original, "decode∘encode must be the identity");
        }
    }

    /// Every decoder a peer or a disk can reach is total on the payload
    /// itself, below the frame checksum (which any peer can compute): a
    /// pinned codec document truncated anywhere, or with any byte replaced
    /// by any other, decodes to a value or an error as each decoder's type
    /// — never a panic.
    #[test]
    fn decoders_survive_truncated_and_mutated_payloads(
        pick in 0usize..1000,
        cut in 0usize..1_000_000,
        at in 0usize..1_000_000,
        byte in 0u8..=255,
    ) {
        let corpus = codec_corpus();
        let original = corpus[pick % corpus.len()].as_bytes();
        decode_with_every_decoder(&original[..cut % (original.len() + 1)]);
        let mut mutated = original.to_vec();
        mutated[at % original.len()] = byte;
        decode_with_every_decoder(&mutated);
    }

    /// Wire decoding is total: flipping any single bit of a framed stream,
    /// or truncating it anywhere, yields typed errors or a wait for more
    /// bytes — never a panic — and every frame delivered before the damage
    /// point is unaltered.
    #[test]
    fn wire_decoder_survives_arbitrary_corruption(
        picks in proptest::collection::vec(0u64..1000, 1..10),
        cut in 0usize..100_000,
        flip_at in 0usize..100_000,
        flip_bit in 0u32..8,
    ) {
        let frames: Vec<Vec<u8>> = picks
            .iter()
            .map(|&n| encode_response(&WireResponse::Status { status: wire_status(n) }))
            .collect();
        let bytes: Vec<u8> = frames.concat();

        // Truncation: the fully-framed prefix decodes, the tail waits.
        let cut = cut % (bytes.len() + 1);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes[..cut]);
        let mut seen = 0usize;
        while let Some(payload) = decoder.next_frame().expect("truncation is never corruption") {
            prop_assert_eq!(
                encode_wire_frame(&payload).as_slice(),
                frames[seen].as_slice(),
                "prefix frames must be unaltered"
            );
            seen += 1;
        }

        // A single flipped bit: frames before the damage are unaltered,
        // and the stream ends in a typed error or a clean/waiting state —
        // no panic, no silently altered message.
        let mut mangled = bytes.clone();
        let at = flip_at % mangled.len();
        mangled[at] ^= 1 << flip_bit;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&mangled);
        let mut offset = 0usize;
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => {
                    let reframed = encode_wire_frame(&payload);
                    if at >= offset && at < offset + reframed.len() {
                        // The flip landed inside this frame yet the checksum
                        // passed: FNV-1a caught nothing only if the payload
                        // decodes to a message re-encoding to these bytes —
                        // a semantic no-op is impossible for a 1-bit flip,
                        // so this frame must fail to parse as a message.
                        prop_assert!(
                            decode_response(&payload).is_err(),
                            "a bit flip inside a frame must not yield a valid message"
                        );
                    } else {
                        prop_assert_eq!(
                            reframed.as_slice(),
                            &mangled[offset..offset + reframed.len()],
                            "frames outside the damage must be unaltered"
                        );
                    }
                    offset += reframed.len();
                }
                Ok(None) => break,   // waiting for bytes that will never come
                Err(esd::ServiceError::Protocol { .. }) => break,
                Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
            }
        }
    }

    /// The concrete interpreter is deterministic: same program, same inputs,
    /// same scheduler seed ⇒ identical output and step count.
    #[test]
    fn interpreter_is_deterministic(x in 0i64..200, y in 0i64..200, seed in 0u64..32) {
        let mut pb = ProgramBuilder::new("det");
        pb.function("main", 0, |f| {
            let a = f.getchar();
            let b = f.getchar();
            let s = f.bin(BinOp::Add, a, b);
            let big = f.cmp(CmpOp::Gt, s, 100);
            let t = f.new_block("t");
            let e = f.new_block("e");
            f.cond_br(big, t, e);
            f.switch_to(t);
            f.output(1);
            f.ret_void();
            f.switch_to(e);
            f.output(0);
            f.ret_void();
        });
        let p = pb.finish("main");
        let run = || {
            let inputs = MapInputs::from_entries([((ThreadId(0), 0), x), ((ThreadId(0), 1), y)]);
            let mut i = Interpreter::new(&p, Box::new(inputs));
            let r = i.run(&InterpreterConfig { scheduler: SchedulerKind::Random { seed }, ..Default::default() });
            (r.output.clone(), r.steps)
        };
        prop_assert_eq!(run(), run());
    }
}

/// The documents of the codec golden (`tests/fixtures/codec_frames.txt`):
/// wire requests and responses, journal records, an executor snapshot and
/// a pretty-printed execution file.
fn codec_corpus() -> Vec<String> {
    let file = include_str!("fixtures/codec_frames.txt");
    esd_bench::codec::read_frames(file).into_iter().map(|(_, text)| text).collect()
}

/// Decodes `payload` as each type a peer or a disk hands the system: a wire
/// request and response, a journal record, an executor snapshot and an
/// execution file. The outcomes do not matter; returning does.
fn decode_with_every_decoder(payload: &[u8]) {
    let _ = decode_request(payload);
    let _ = decode_response(payload);
    let text = String::from_utf8_lossy(payload);
    let _ = serde_json::from_str::<JournalRecord>(&text);
    let _ = serde_json::from_str::<ExecutorSnapshot>(&text);
    let _ = SynthesizedExecution::from_json(&text);
}

/// A megabyte of `[` — one frame's worth of nesting a hostile peer can
/// send — is a typed error from every decoder on a thread with a 2 MB
/// stack: the parser refuses nesting past `serde_json::MAX_DEPTH` without
/// recursing. Nesting right up to the bound, in the deepest recursive type
/// a payload holds (a chain of symbolic `Not`s, which a session snapshot
/// can carry), still decodes on that stack.
#[test]
fn nesting_past_the_depth_bound_is_a_typed_error_on_a_small_stack() {
    let brackets = vec![b'['; 1 << 20];
    let small_stack = std::thread::Builder::new().stack_size(2 << 20);
    let checked = small_stack.spawn(move || {
        for decoded in [decode_request(&brackets).err(), decode_response(&brackets).err()] {
            assert!(matches!(decoded, Some(ServiceError::Protocol { .. })), "{decoded:?}");
        }
        let text = std::str::from_utf8(&brackets).expect("ASCII");
        let errors = [
            serde_json::from_str::<JournalRecord>(text).err(),
            serde_json::from_str::<ExecutorSnapshot>(text).err(),
            SynthesizedExecution::from_json(text).err(),
        ];
        for error in errors {
            let category = error.map(|e| e.classify());
            assert_eq!(category, Some(serde_json::Category::Depth));
        }

        let chain = |nots: usize| {
            format!("{}{{\"Const\":1}}{}", "{\"Not\":".repeat(nots), "}".repeat(nots))
        };
        let deepest = serde_json::MAX_DEPTH - 1;
        let expr: SymExpr = serde_json::from_str(&chain(deepest)).expect("at the bound decodes");
        let mut depth = 0;
        let mut node = &expr;
        while let SymExpr::Not(inner) = node {
            depth += 1;
            node = inner;
        }
        assert_eq!((depth, node), (deepest, &SymExpr::Const(1)));
        let past = serde_json::from_str::<SymExpr>(&chain(deepest + 1)).map(|_| ());
        assert_eq!(past.map_err(|e| e.classify()), Err(serde_json::Category::Depth));
    });
    checked.expect("spawns").join().expect("no decoder overflows a 2 MB stack");
}

/// The interval analysis's branch verdicts against concrete runs (a truth
/// oracle, not a self-consistency check): a branch a concrete run takes is
/// never judged to go the other way. Every real-bug analog, `listing1` and
/// the genbugs of seeds 0..8 (every kind, small and medium) run once on
/// their failing inputs and 20 times on random inputs, each under a seeded
/// random choice among the runnable threads before every step. At each
/// executed `CondBr` the successor must agree with
/// `BranchFeasibility::compute`: `AlwaysFalse` never goes to `then`, and
/// `AlwaysTrue` never goes to `else`.
#[test]
fn branch_verdicts_never_contradict_a_concrete_run() {
    use esd::analysis::{BranchFeasibility, Feasibility, ProgramFacts};
    use esd::ir::inst::Terminator;
    use esd::ir::interp::{InputProvider, RandomInputs, StepResult};
    use esd::workloads::{all_real_bugs, listing1};

    const RANDOM_RUNS: u64 = 20;
    const MAX_STEPS: u64 = 20_000;

    let mut corpus = all_real_bugs();
    corpus.push(listing1());
    for seed in 0..8 {
        for kind in InjectedBugKind::ALL {
            for size in [GenSize::small(), GenSize::medium()] {
                corpus.push(generate(&GenConfig { seed, kind, size }).to_workload());
            }
        }
    }
    let mut decided = 0u64;
    for (pi, w) in corpus.iter().enumerate() {
        let program = &w.program;
        let facts = ProgramFacts::compute(program);
        let verdicts = BranchFeasibility::compute(program, &facts.cfgs, &facts.callgraph);
        let failing = w.failing_inputs.as_ref().expect("every corpus program has failing inputs");
        let failing =
            MapInputs::from_entries(failing.iter().map(|((t, s), v)| ((ThreadId(*t), *s), *v)));
        let random = (0..RANDOM_RUNS)
            .map(|seed| Box::new(RandomInputs::new(seed, 0, 127)) as Box<dyn InputProvider>);
        let runs = std::iter::once(Box::new(failing) as Box<dyn InputProvider>).chain(random);
        for (run, inputs) in runs.enumerate() {
            let mut interp = Interpreter::new(program, inputs);
            // SplitMix64 over (program, run): the thread choice before each step.
            let mut rng = ((pi as u64) << 32) | run as u64;
            let mut next = move || {
                rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (rng ^ (rng >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for _ in 0..MAX_STEPS {
                let runnable = interp.runnable_threads();
                if runnable.is_empty() {
                    break;
                }
                let tid = runnable[next() as usize % runnable.len()];
                let at = interp.current_loc(tid).expect("a runnable thread has a location");
                let block = program.func(at.func).block(at.block);
                let arms = match block.term {
                    Terminator::CondBr { then_bb, else_bb, .. }
                        if at.idx as usize == block.insts.len() =>
                    {
                        Some((then_bb, else_bb))
                    }
                    _ => None,
                };
                match interp.step_thread(tid) {
                    StepResult::Continue => {}
                    StepResult::Blocked | StepResult::ThreadFinished => continue,
                    StepResult::ProgramExit { .. } | StepResult::Fault(_) => break,
                }
                let Some((then_bb, else_bb)) = arms else { continue };
                let verdict = verdicts.verdict(at.func, at.block);
                let ruled_out = match verdict {
                    Feasibility::AlwaysFalse => then_bb,
                    Feasibility::AlwaysTrue => else_bb,
                    Feasibility::Unknown => continue,
                };
                decided += 1;
                let to = interp.current_loc(tid).expect("a branch keeps its thread alive").block;
                assert!(
                    to != ruled_out || then_bb == else_bb,
                    "{}: the branch at {at:?} is judged {verdict:?} but run {run} went to {to:?}",
                    w.name
                );
            }
        }
    }
    assert!(decided > 0, "no statically decided branch ran, so nothing was checked");
}

/// One of each `JobStatus` shape, chosen by `n`, with `n`-derived payloads.
fn wire_status(n: u64) -> esd::JobStatus {
    match n % 4 {
        0 => esd::JobStatus::Queued,
        1 => esd::JobStatus::Running {
            slices: n,
            progress: esd::ProgressEvent {
                rounds: n * 3,
                live_states: (n % 17) as usize,
                stats: SearchStats {
                    steps: n * 7,
                    states_created: n * 5 + 1,
                    states_pruned: n % 13,
                    max_live_states: (n % 19) as usize,
                    solver_queries: n * 11,
                    branches_pruned_static: n % 23,
                    solver_queries_saved: n % 29,
                    preemptions_pruned_static: n % 37,
                    races_flagged: (n % 5) as usize,
                    race_backstop_forks: n % 41,
                    best_proximity: if n.is_multiple_of(2) { Some(n % 31) } else { None },
                },
                elapsed: Duration::new(n % 1000, (n * 7_919 % 1_000_000_000) as u32),
            },
        },
        2 => esd::JobStatus::Finished {
            verdict: if n.is_multiple_of(2) {
                esd::JobVerdict::Found
            } else {
                esd::JobVerdict::Unsatisfied
            },
        },
        _ => esd::JobStatus::Finished { verdict: esd::JobVerdict::Cancelled },
    }
}

/// A submission with non-default options, the search deadline included, so
/// every `JobSpec` field crosses the wire.
fn wire_request(n: u64) -> esd::JobSpec {
    let (program, loc) = wire_program(n as i64, true);
    let options = EsdOptions::builder()
        .frontier(if n.is_multiple_of(2) { FrontierKind::Dfs } else { FrontierKind::Random })
        .seed(n)
        .max_steps(1_000 + n)
        .with_race_detection(n.is_multiple_of(3))
        .deadline(Duration::from_millis(n + 1))
        .build();
    esd::JobSpec::new(format!("job{n}"), &program, esd::GoalSpec::Crash { loc }).options(options)
}

/// `main` reads one input and crashes on a null load when it equals
/// `trigger`; `crashes == false` swaps the load for an output, so the goal
/// location is reachable but never faults.
fn wire_program(trigger: i64, crashes: bool) -> (esd::ir::Program, Loc) {
    let mut pb = ProgramBuilder::new("wire_job");
    let mut loc = None;
    pb.function("main", 0, |f| {
        let x = f.getchar();
        let c = f.cmp(CmpOp::Eq, x, trigger);
        let bug = f.new_block("bug");
        let ok = f.new_block("ok");
        f.cond_br(c, bug, ok);
        f.switch_to(bug);
        let z = f.konst(0);
        loc = Some(Loc::new(esd::ir::FuncId(0), bug, f.next_inst_idx()));
        if crashes {
            let v = f.load(z);
            f.output(v);
        } else {
            f.output(z);
        }
        f.ret_void();
        f.switch_to(ok);
        f.ret_void();
    });
    (pb.finish("main"), loc.expect("the bug block was built"))
}

/// Real executor outcomes of the three shapes a client can take: `Found`
/// (with its execution file), `Exhausted`, and cancelled while still queued.
fn wire_outcomes() -> &'static [esd::JobOutcome; 3] {
    static OUTCOMES: std::sync::OnceLock<[esd::JobOutcome; 3]> = std::sync::OnceLock::new();
    OUTCOMES.get_or_init(|| {
        let mut executor = esd::JobExecutor::round_robin().max_running(1);
        let (found, found_loc) = wire_program(7, true);
        let (clean, clean_loc) = wire_program(7, false);
        let handles = [
            executor.submit(esd::JobSpec::new("found", &found, esd::GoalSpec::Crash { loc: found_loc })),
            executor.submit(esd::JobSpec::new("exhausted", &clean, esd::GoalSpec::Crash { loc: clean_loc })),
            executor.submit(esd::JobSpec::new("queued", &found, esd::GoalSpec::Crash { loc: found_loc })),
        ];
        assert!(executor.cancel(handles[2]), "the third job is still queued");
        executor.run_until_idle();
        let outcomes = handles.map(|h| executor.take(h).expect("every job finished"));
        assert!(matches!(outcomes[0].status, SessionStatus::Found(_)));
        assert!(matches!(outcomes[1].status, SessionStatus::Exhausted(_)), "{:?}", outcomes[1].status);
        assert!(matches!(&outcomes[2].status, SessionStatus::Cancelled(s) if *s == SearchStats::default()));
        outcomes
    })
}

/// One of each `ServiceError` shape, chosen by `n`.
fn wire_error(n: u64) -> esd::ServiceError {
    match n % 5 {
        0 => esd::ServiceError::Overloaded { retry_after_slices: n },
        1 => esd::ServiceError::UnknownTicket { ticket: n },
        2 => esd::ServiceError::Transport { detail: format!("transport #{n}") },
        3 => esd::ServiceError::Protocol { detail: format!("protocol #{n}") },
        _ => esd::ServiceError::Disconnected,
    }
}

/// The box every variable of the solver oracle is confined to.
const BOX: i64 = 3;

/// Reads a random condition out of a flat list of choices (the proptest
/// shim has no recursive strategies). Past the end of the list every choice
/// is 0, which picks a leaf, so reading always ends.
struct ExprGenes<'a> {
    genes: &'a [u32],
    at: usize,
    vars: u32,
}

impl ExprGenes<'_> {
    fn next(&mut self) -> u32 {
        let gene = self.genes.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        gene
    }

    /// An integer term: a variable, a small constant, or a sum.
    fn term(&mut self, depth: u32) -> Arc<SymExpr> {
        let gene = self.next();
        match gene % 4 {
            0 | 1 => SymExpr::var(SymVar(gene / 4 % self.vars)),
            2 if depth > 0 => {
                SymExpr::Bin(BinOp::Add, self.term(depth - 1), self.term(depth - 1)).arc()
            }
            _ => SymExpr::constant((gene / 4 % 9) as i64 - 4),
        }
    }

    /// A condition: a comparison of terms, a conjunction or a negation,
    /// built without the simplifying constructors so every shape occurs.
    fn cond(&mut self, depth: u32) -> Arc<SymExpr> {
        const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let gene = self.next();
        match gene % 5 {
            3 if depth > 0 => {
                SymExpr::Bin(BinOp::And, self.cond(depth - 1), self.cond(depth - 1)).arc()
            }
            4 if depth > 0 => SymExpr::Not(self.cond(depth - 1)).arc(),
            _ => {
                let op = OPS[(gene / 5 % 6) as usize];
                SymExpr::Cmp(op, self.term(depth), self.term(depth)).arc()
            }
        }
    }
}

/// Whether some assignment of the box satisfies every constraint.
fn brute_force_sat(constraints: &[Arc<SymExpr>], vars: u32) -> bool {
    let width = (2 * BOX + 1) as u32;
    (0..width.pow(vars)).any(|mut code| {
        let mut assignment = HashMap::new();
        for v in 0..vars {
            assignment.insert(SymVar(v), (code % width) as i64 - BOX);
            code /= width;
        }
        constraints.iter().all(|c| c.eval(&assignment) != 0)
    })
}

/// A hot state with a fixed priority, for driving a frontier directly.
struct TestHot {
    id: u64,
    prio: StatePriority,
}

impl HotState for TestHot {
    fn id(&self) -> u64 {
        self.id
    }

    fn priority(&self) -> StatePriority {
        self.prio.clone()
    }

    fn queue_key(&self, queue: usize) -> u64 {
        self.prio.queue_keys[queue]
    }

    fn depth(&self) -> u64 {
        self.prio.depth
    }
}
