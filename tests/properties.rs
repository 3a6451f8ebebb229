//! Property-based tests over the core data structures and invariants.

use esd::concurrency::{Schedule, SegmentStop, VectorClock};
use esd::core::journal::{encode_frame, scan, JournalRecord};
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
use esd::{EsdOptions, FrontierKind, SessionStatus, SynthesisSession};
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

    /// Vector-clock happens-before is antisymmetric and consistent with joins.
    #[test]
    fn vector_clock_partial_order(ticks in proptest::collection::vec((0usize..3, 1u8..4), 1..20)) {
        let mut a = VectorClock::new();
        for (t, n) in &ticks {
            for _ in 0..*n {
                a.tick(*t);
            }
        }
        let mut b = a.clone();
        b.tick(0);
        prop_assert!(a.happens_before(&b));
        prop_assert!(!b.happens_before(&a));
        let mut c = VectorClock::new();
        c.tick(1);
        c.join(&b);
        prop_assert!(a.happens_before(&c));
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
    /// keep. An `AlwaysFalse` on the guard of the bug path would make the
    /// injected failure unsynthesizable under pruning — exactly the outcome
    /// the engine's `static_pruning` option must never produce.
    #[test]
    fn feasibility_verdicts_never_rule_out_the_injected_bug(
        seed in 0u64..1_000_000_000,
        kind_idx in 0usize..4,
        dims in (0u32..12, 0u32..32, 0u32..12, 0u32..12, 0u32..12),
    ) {
        use esd::analysis::{BranchFeasibility, CallGraph, Cfg, Feasibility};
        use esd::ir::inst::Terminator;

        let (inputs, branches, loop_iters, threads, locks) = dims;
        let config = GenConfig {
            seed,
            kind: InjectedBugKind::ALL[kind_idx],
            size: GenSize { inputs, branches, loop_iters, threads, locks },
        };
        let w = generate(&config);
        let program = &w.program;
        let cfgs: Vec<Cfg> =
            program.func_ids().map(|f| Cfg::build(program.func(f), f)).collect();
        let callgraph = CallGraph::build(program);
        let feasibility = BranchFeasibility::compute(program, &cfgs, &callgraph);

        for goal in &w.truth.goal_locs {
            // Reachability from the goal function's entry, walking only the
            // CFG edges a pruning stepper would still take.
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
                    t => t.successors(),
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
    /// pair covers exactly the injected pair — so candidate-gated preemption
    /// pruning (part of `EsdOptions::static_pruning`) can never make the
    /// injected race unsynthesizable.
    #[test]
    fn injected_data_races_always_appear_in_the_candidate_set(
        seed in 0u64..1_000_000_000,
        dims in (0u32..12, 0u32..32, 0u32..12, 0u32..12, 0u32..12),
    ) {
        use esd::analysis::StaticAnalysis;

        let (inputs, branches, loop_iters, threads, locks) = dims;
        let config = GenConfig {
            seed,
            kind: InjectedBugKind::DataRace,
            size: GenSize { inputs, branches, loop_iters, threads, locks },
        };
        let w = generate(&config);
        let analysis = StaticAnalysis::compute_multi(&w.program, &w.truth.goal_locs);
        let rc = &analysis.race_candidates;
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
            EsdOptions::builder().max_steps(100_000).session(&w.program, w.goal());
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
        frontier_idx in 0usize..5,
        k in 0u64..30,
        n in 1u64..40,
    ) {
        let frontier = [
            FrontierKind::Dfs,
            FrontierKind::Bfs,
            FrontierKind::Random,
            FrontierKind::Proximity,
            FrontierKind::beam(),
        ][frontier_idx];
        let w = generate(&GenConfig::new(seed, InjectedBugKind::ALL[kind_idx])).to_workload();
        let mut original = EsdOptions::builder()
            .max_steps(100_000)
            .seed(seed)
            .frontier(frontier)
            .session(&w.program, w.goal());
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
    /// two frontiers with the same seed, one through `pop_batch_with` and
    /// one through `push` then `pop_batch`. Every selection picks the same id
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
                            let selected = hot_path.pop_batch_with(h);
                            reference.push(h.id, &h.prio);
                            (selected, reference.pop_batch())
                        }
                        None => (hot_path.pop_batch(), reference.pop_batch()),
                    };
                    prop_assert_eq!(&selected, &expected);
                    if let Some(h) = hot.take() {
                        if selected != [h.id] {
                            queued.push(h.id);
                        }
                    }
                    queued.retain(|id| !selected.contains(id));
                    hot = selected.first().map(|&id| TestHot { id, prio: prio(genes, depth) });
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
            .map(|(h, r)| JournalRecord::Grant { grants: vec![(*h, *r)] })
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

    /// Wire round-trip: arbitrary request/response conversations encoded as
    /// frames survive an incremental decoder fed in arbitrary chunk sizes —
    /// every message decodes, in order, to something that re-encodes to the
    /// original bytes.
    #[test]
    fn wire_messages_round_trip_through_arbitrary_chunking(
        picks in proptest::collection::vec((0usize..10, 0u64..1000), 1..20),
        chunk in 1usize..64,
    ) {
        let messages: Vec<(Vec<u8>, bool)> = picks
            .iter()
            .map(|&(which, n)| match which {
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
                    other_bugs_found: (n % 3) as usize,
                    races_flagged: (n % 5) as usize,
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
        _ => esd::JobStatus::Cancelled,
    }
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
