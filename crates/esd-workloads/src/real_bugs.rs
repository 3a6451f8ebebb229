//! Analogs of the real bugs evaluated in the paper (Table 1 / Figure 2).
//!
//! Each workload reproduces the *structure* of the original bug — the lock
//! nesting of the deadlocks, the input-dependent path to the crashes, the
//! error-handling paths — in the crate's IR, together with enough distractor
//! code (option parsing, unrelated branches) that finding the bug-bound path
//! is a genuine search problem. The `paper_synth_time_secs` field carries the
//! time reported in Table 1, for side-by-side reporting by the bench harness.

use esd_ir::{BinOp, CmpOp, FunctionBuilder, InputSource, Loc, Program, ProgramBuilder};
use esd_symex::GoalSpec;

/// Whether the bug manifests as a hang or a crash (the "Bug manifestation"
/// column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The program hangs (deadlock).
    Hang,
    /// The program crashes.
    Crash,
}

/// One evaluation workload.
#[derive(Clone)]
pub struct Workload {
    /// Short name (`sqlite`, `ghttpd`, `ls1`, …).
    pub name: String,
    /// What the workload models in the paper.
    pub paper_reference: String,
    /// Hang or crash.
    pub kind: WorkloadKind,
    /// The program.
    pub program: Program,
    /// Goal locations: the faulting instruction for crashes, the blocked-lock
    /// locations for deadlocks.
    pub goal_locs: Vec<Loc>,
    /// A concrete input vector (`(thread, seq) -> value`) under which the
    /// failure can manifest at the end-user site (crashes always fail with
    /// it; hangs additionally need an adverse schedule).
    pub failing_inputs: Option<Vec<((u32, u32), i64)>>,
    /// Synthesis time reported in Table 1 of the paper, in seconds.
    pub paper_synth_time_secs: Option<f64>,
}

impl Workload {
    /// The synthesis goal for this workload.
    pub fn goal(&self) -> GoalSpec {
        match self.kind {
            WorkloadKind::Crash => GoalSpec::Crash { loc: self.goal_locs[0] },
            WorkloadKind::Hang => GoalSpec::Deadlock { thread_locs: self.goal_locs.clone() },
        }
    }
}

/// Adds a few input-dependent distractor branches (option parsing, logging
/// toggles) that enlarge the path space without affecting the bug.
fn distractor_options(f: &mut FunctionBuilder, count: u32) {
    for i in 0..count {
        let opt = f.arg(10 + i);
        let set = f.cmp(CmpOp::Eq, opt, '-' as i64);
        let on = f.new_block(&format!("opt{i}_on"));
        let off = f.new_block(&format!("opt{i}_off"));
        let done = f.new_block(&format!("opt{i}_done"));
        f.cond_br(set, on, off);
        f.switch_to(on);
        f.output(1000 + i as i64);
        f.br(done);
        f.switch_to(off);
        f.nop();
        f.br(done);
        f.switch_to(done);
    }
}

/// The paper's Listing-1 example: two threads deadlock in `CriticalSection`
/// when `mode == MOD_Y && idx == 1` and one of them is preempted right after
/// releasing `M1`.
pub fn listing1() -> Workload {
    let mut pb = ProgramBuilder::new("listing1");
    let m1 = pb.global("M1", 1);
    let m2 = pb.global("M2", 1);
    let idx = pb.global("idx", 1);
    let mode = pb.global("mode", 1);

    let critical = pb.declare("critical_section", 1);
    let mut relock_loc = None;
    let mut inner_m2_loc = None;
    pb.define(critical, |f| {
        let m1p = f.addr_global(m1);
        let m2p = f.addr_global(m2);
        f.lock(m1p);
        inner_m2_loc = Some(Loc::new(critical, f.current_block(), f.next_inst_idx()));
        f.lock(m2p);
        let modep = f.addr_global(mode);
        let idxp = f.addr_global(idx);
        let mv = f.load(modep);
        let iv = f.load(idxp);
        let mode_y = f.cmp(CmpOp::Eq, mv, 1);
        let idx_1 = f.cmp(CmpOp::Eq, iv, 1);
        let both = f.bin(BinOp::And, mode_y, idx_1);
        let relock = f.new_block("relock");
        let rest = f.new_block("rest");
        f.cond_br(both, relock, rest);
        f.switch_to(relock);
        f.unlock(m1p);
        relock_loc = Some(Loc::new(critical, relock, f.next_inst_idx()));
        f.lock(m1p);
        f.br(rest);
        f.switch_to(rest);
        f.unlock(m2p);
        f.unlock(m1p);
        f.ret_void();
    });

    pb.function("main", 0, |f| {
        let idxp = f.addr_global(idx);
        let modep = f.addr_global(mode);
        let c = f.getchar();
        let is_m = f.cmp(CmpOp::Eq, c, 'm' as i64);
        let inc = f.new_block("inc");
        let after_inc = f.new_block("after_inc");
        f.cond_br(is_m, inc, after_inc);
        f.switch_to(inc);
        let v = f.load(idxp);
        let v1 = f.add(v, 1);
        f.store(idxp, v1);
        f.br(after_inc);
        f.switch_to(after_inc);
        let e = f.getenv("mode");
        let is_y = f.cmp(CmpOp::Eq, e, 'Y' as i64);
        let yes = f.new_block("mode_y");
        let no = f.new_block("mode_z");
        let cont = f.new_block("cont");
        f.cond_br(is_y, yes, no);
        f.switch_to(yes);
        f.store(modep, 1);
        f.br(cont);
        f.switch_to(no);
        f.store(modep, 2);
        f.br(cont);
        f.switch_to(cont);
        let t1 = f.spawn(critical, 0);
        let t2 = f.spawn(critical, 0);
        f.join(t1);
        f.join(t2);
        f.ret_void();
    });
    let program = pb.finish("main");
    Workload {
        name: "listing1".into(),
        paper_reference: "Listing 1 (running example)".into(),
        kind: WorkloadKind::Hang,
        goal_locs: vec![relock_loc.unwrap(), inner_m2_loc.unwrap()],
        failing_inputs: Some(vec![((0, 0), 'm' as i64), ((0, 1), 'Y' as i64)]),
        paper_synth_time_secs: None,
        program,
    }
}

/// SQLite bug #1672: a deadlock in the custom recursive-lock implementation.
/// Two connections enter the b-tree layer; the recursive "enter" releases the
/// master mutex before taking the b-tree mutex, opening a window in which the
/// two threads acquire the locks in opposite orders.
pub fn sqlite_recursive_lock() -> Workload {
    let mut pb = ProgramBuilder::new("sqlite");
    let master = pb.global("master_mutex", 1);
    let btree = pb.global("btree_mutex", 1);
    let shared_cache = pb.global("shared_cache", 1);
    let owner = pb.global("btree_owner", 1);

    // btree_enter(conn): the buggy recursive-lock acquisition.
    let enter = pb.declare("btree_enter", 1);
    let mut inner_master_loc = None;
    pb.define(enter, |f| {
        let conn = f.param(0);
        let masterp = f.addr_global(master);
        let btreep = f.addr_global(btree);
        let ownerp = f.addr_global(owner);
        // Fast path: already the owner (recursive acquisition).
        let cur = f.load(ownerp);
        let is_owner = f.cmp(CmpOp::Eq, cur, conn);
        let fast = f.new_block("fast");
        let slow = f.new_block("slow");
        let done = f.new_block("done");
        f.cond_br(is_owner, fast, done);
        f.switch_to(fast);
        f.output(7100);
        f.br(done);
        f.switch_to(slow);
        // Slow path (never branched to directly; kept as dead distractor code
        // mirroring the original function's unreachable assertions).
        f.nop();
        f.br(done);
        f.switch_to(done);
        // Buggy ordering: take the b-tree mutex, then re-take the master
        // mutex to publish ownership.
        f.lock(btreep);
        inner_master_loc = Some(Loc::new(enter, f.current_block(), f.next_inst_idx()));
        f.lock(masterp);
        f.store(ownerp, conn);
        f.unlock(masterp);
        f.ret_void();
    });

    // btree_leave(conn).
    let leave = pb.function("btree_leave", 1, |f| {
        let btreep = f.addr_global(btree);
        let ownerp = f.addr_global(owner);
        f.store(ownerp, 0);
        f.unlock(btreep);
        f.ret_void();
    });

    // connection_worker(conn): open → (shared cache?) → enter/leave.
    let worker = pb.declare("connection_worker", 1);
    let mut inner_btree_loc = None;
    pb.define(worker, |f| {
        let conn = f.param(0);
        let masterp = f.addr_global(master);
        let btreep = f.addr_global(btree);
        let scp = f.addr_global(shared_cache);
        // sqlite3_open: registers the connection under the master mutex. With
        // shared-cache mode on, the open path also peeks at the b-tree while
        // still holding the master mutex — the opposite order to btree_enter.
        f.lock(masterp);
        let sc = f.load(scp);
        let sc_on = f.cmp(CmpOp::Eq, sc, 1);
        let peek = f.new_block("peek");
        let no_peek = f.new_block("no_peek");
        let opened = f.new_block("opened");
        f.cond_br(sc_on, peek, no_peek);
        f.switch_to(peek);
        inner_btree_loc = Some(Loc::new(worker, peek, f.next_inst_idx()));
        f.lock(btreep);
        f.output(7200);
        f.unlock(btreep);
        f.br(opened);
        f.switch_to(no_peek);
        f.nop();
        f.br(opened);
        f.switch_to(opened);
        f.unlock(masterp);
        // Run a query: enter / leave the b-tree layer.
        f.call_void(enter, vec![conn.into()]);
        f.call_void(leave, vec![conn.into()]);
        f.ret_void();
    });

    pb.function("main", 0, |f| {
        distractor_options(f, 3);
        // PRAGMA parsing: shared-cache mode is enabled when the config
        // character is 'S' and the thread-safety level read from the
        // environment is 2 (SQLITE_CONFIG_SERIALIZED in the original).
        let scp = f.addr_global(shared_cache);
        let cfg = f.getchar();
        let level = f.getenv("SQLITE_THREADSAFE");
        let is_s = f.cmp(CmpOp::Eq, cfg, 'S' as i64);
        let is_2 = f.cmp(CmpOp::Eq, level, 2);
        let both = f.bin(BinOp::And, is_s, is_2);
        let on = f.new_block("sc_on");
        let off = f.new_block("sc_off");
        let go = f.new_block("go");
        f.cond_br(both, on, off);
        f.switch_to(on);
        f.store(scp, 1);
        f.br(go);
        f.switch_to(off);
        f.store(scp, 0);
        f.br(go);
        f.switch_to(go);
        let t1 = f.spawn(worker, 1);
        let t2 = f.spawn(worker, 2);
        f.join(t1);
        f.join(t2);
        f.ret_void();
    });
    let program = pb.finish("main");
    Workload {
        name: "sqlite".into(),
        paper_reference: "SQLite 3.3.0 bug #1672 (hang in the custom recursive lock)".into(),
        kind: WorkloadKind::Hang,
        goal_locs: vec![inner_master_loc.unwrap(), inner_btree_loc.unwrap()],
        failing_inputs: Some(vec![((0, 3), 'S' as i64), ((0, 4), 2)]),
        paper_synth_time_secs: Some(150.0),
        program,
    }
}

/// HawkNL 1.6b3: `nlClose()` and `nlShutdown()` called concurrently on the
/// same socket deadlock on the library lock vs. the socket lock.
pub fn hawknl_close_shutdown() -> Workload {
    let mut pb = ProgramBuilder::new("hawknl");
    let lib_lock = pb.global("nl_lib_lock", 1);
    let sock_lock = pb.global("nl_sock_lock", 1);
    let sock_open = pb.global_init("nl_sock_open", 1, vec![1]);

    let mut close_inner = None;
    let closer = pb.declare("nl_close", 1);
    pb.define(closer, |f| {
        let libp = f.addr_global(lib_lock);
        let sockp = f.addr_global(sock_lock);
        let openp = f.addr_global(sock_open);
        // nlClose takes the socket lock, then the library lock to remove the
        // socket from the global table.
        f.lock(sockp);
        let open = f.load(openp);
        let still_open = f.cmp(CmpOp::Eq, open, 1);
        let do_close = f.new_block("do_close");
        let already = f.new_block("already");
        f.cond_br(still_open, do_close, already);
        f.switch_to(do_close);
        close_inner = Some(Loc::new(closer, do_close, f.next_inst_idx()));
        f.lock(libp);
        f.store(openp, 0);
        f.unlock(libp);
        f.unlock(sockp);
        f.ret_void();
        f.switch_to(already);
        f.unlock(sockp);
        f.ret_void();
    });

    let mut shutdown_inner = None;
    let shutdowner = pb.declare("nl_shutdown", 1);
    pb.define(shutdowner, |f| {
        let libp = f.addr_global(lib_lock);
        let sockp = f.addr_global(sock_lock);
        let openp = f.addr_global(sock_open);
        // nlShutdown takes the library lock, then closes every open socket —
        // taking each socket lock — in the opposite order.
        f.lock(libp);
        let open = f.load(openp);
        let still_open = f.cmp(CmpOp::Eq, open, 1);
        let close_all = f.new_block("close_all");
        let nothing = f.new_block("nothing");
        f.cond_br(still_open, close_all, nothing);
        f.switch_to(close_all);
        shutdown_inner = Some(Loc::new(shutdowner, close_all, f.next_inst_idx()));
        f.lock(sockp);
        f.store(openp, 0);
        f.unlock(sockp);
        f.unlock(libp);
        f.ret_void();
        f.switch_to(nothing);
        f.unlock(libp);
        f.ret_void();
    });

    pb.function("main", 0, |f| {
        distractor_options(f, 3);
        // The game tears down networking while another thread closes its
        // socket; only the UDP teardown path exhibits the inversion.
        let proto = f.getchar();
        let is_udp = f.cmp(CmpOp::Eq, proto, 'U' as i64);
        let race_path = f.new_block("race_path");
        let safe_path = f.new_block("safe_path");
        f.cond_br(is_udp, race_path, safe_path);
        f.switch_to(race_path);
        let t1 = f.spawn(closer, 0);
        let t2 = f.spawn(shutdowner, 0);
        f.join(t1);
        f.join(t2);
        f.ret_void();
        f.switch_to(safe_path);
        f.call_void(closer, vec![esd_ir::Operand::Const(0)]);
        f.call_void(shutdowner, vec![esd_ir::Operand::Const(0)]);
        f.ret_void();
    });
    let program = pb.finish("main");
    Workload {
        name: "hawknl".into(),
        paper_reference: "HawkNL 1.6b3 nlClose()/nlShutdown() deadlock".into(),
        kind: WorkloadKind::Hang,
        goal_locs: vec![close_inner.unwrap(), shutdown_inner.unwrap()],
        failing_inputs: Some(vec![((0, 3), 'U' as i64)]),
        paper_synth_time_secs: Some(122.0),
        program,
    }
}

/// ghttpd: buffer overflow in the logging path (`vsprintf` of the request
/// URL into a fixed-size buffer) while serving a `GET` request.
pub fn ghttpd_log_overflow() -> Workload {
    const LOG_BUF_WORDS: i64 = 8;
    let mut pb = ProgramBuilder::new("ghttpd");
    let mut overflow_loc = None;

    let log_request = pb.declare("log_request", 1);
    pb.define(log_request, |f| {
        let len = f.param(0);
        let buf = f.alloc(LOG_BUF_WORDS);
        let l = f.local(1);
        let ip = f.addr_local(l);
        f.store(ip, 0);
        let head = f.new_block("head");
        let body = f.new_block("body");
        let done = f.new_block("done");
        f.br(head);
        f.switch_to(head);
        let i = f.load(ip);
        let more = f.cmp(CmpOp::Lt, i, len);
        f.cond_br(more, body, done);
        f.switch_to(body);
        let ch = f.input(InputSource::Net);
        let slot = f.gep(buf, i);
        overflow_loc = Some(Loc::new(log_request, body, f.next_inst_idx()));
        f.store(slot, ch);
        let i1 = f.add(i, 1);
        f.store(ip, i1);
        f.br(head);
        f.switch_to(done);
        f.output(len);
        f.free(buf);
        f.ret_void();
    });

    pb.function("main", 0, |f| {
        distractor_options(f, 4);
        // Parse the request line: method, then URL length from the socket.
        let method = f.input(InputSource::Net);
        let is_get = f.cmp(CmpOp::Eq, method, 'G' as i64);
        let serve = f.new_block("serve");
        let reject = f.new_block("reject");
        f.cond_br(is_get, serve, reject);
        f.switch_to(serve);
        let len = f.input(InputSource::Net);
        // A defensive range check on the length's low bits — `len & 1023`
        // can never exceed the mask, so the static interval analysis proves
        // the else edge infeasible and the engine forks here without a
        // solver query (the condition stays symbolic at run time).
        let low = f.bin(BinOp::And, len, 1023);
        let sane = f.cmp(CmpOp::Le, low, 1023);
        f.diamond("sanity", sane, |t| t.nop(), |e| e.output(500));
        // The original checks the URL against MAX_REQUEST but logs it first.
        f.call_void(log_request, vec![len.into()]);
        let ok = f.cmp(CmpOp::Le, len, 256);
        let answer = f.new_block("answer");
        let too_long = f.new_block("too_long");
        f.cond_br(ok, answer, too_long);
        f.switch_to(answer);
        f.output(200);
        f.ret_void();
        f.switch_to(too_long);
        f.output(414);
        f.ret_void();
        f.switch_to(reject);
        f.output(501);
        f.ret_void();
    });
    let program = pb.finish("main");
    Workload {
        name: "ghttpd".into(),
        paper_reference: "ghttpd GET-logging buffer overflow (CVE/securityfocus 5960)".into(),
        kind: WorkloadKind::Crash,
        goal_locs: vec![overflow_loc.unwrap()],
        failing_inputs: Some(vec![
            ((0, 4), 'G' as i64),
            ((0, 5), LOG_BUF_WORDS + 3),
            ((0, 6), 'a' as i64),
            ((0, 7), 'b' as i64),
            ((0, 8), 'c' as i64),
            ((0, 9), 'd' as i64),
            ((0, 10), 'e' as i64),
            ((0, 11), 'f' as i64),
            ((0, 12), 'g' as i64),
            ((0, 13), 'h' as i64),
            ((0, 14), 'i' as i64),
        ]),
        paper_synth_time_secs: Some(7.0),
        program,
    }
}

/// `paste`: an invalid free on the error path for an empty delimiter list.
pub fn paste_invalid_free() -> Workload {
    let mut pb = ProgramBuilder::new("paste");
    let delims = pb.global_init("default_delims", 4, vec!['\t' as i64, 0, 0, 0]);
    let mut free_loc = None;
    pb.function("main", 0, |f| {
        distractor_options(f, 3);
        let serial = f.arg(0);
        let delim_arg = f.arg(1);
        let _ = f.cmp(CmpOp::Eq, serial, 's' as i64);
        // With "-d ''" the delimiter list is empty; the cleanup path then
        // frees the pointer to the (static) default delimiters.
        let empty = f.cmp(CmpOp::Eq, delim_arg, 0);
        let bad = f.new_block("cleanup_empty");
        let good = f.new_block("normal");
        f.cond_br(empty, bad, good);
        f.switch_to(bad);
        let dp = f.addr_global(delims);
        free_loc = Some(Loc::new(esd_ir::FuncId(0), bad, f.next_inst_idx()));
        f.free(dp);
        f.ret_void();
        f.switch_to(good);
        let heap = f.alloc(4);
        f.store(heap, delim_arg);
        f.free(heap);
        f.output(0);
        f.ret_void();
    });
    let program = pb.finish("main");
    Workload {
        name: "paste".into(),
        paper_reference: "coreutils paste: invalid free for some inputs".into(),
        kind: WorkloadKind::Crash,
        goal_locs: vec![free_loc.unwrap()],
        failing_inputs: Some(vec![((0, 3), 'x' as i64), ((0, 4), 0)]),
        paper_synth_time_secs: Some(25.0),
        program,
    }
}

/// Shared skeleton for the coreutils error-path segfaults (`mknod`, `mkdir`,
/// `mkfifo`, `tac`): a null dereference on an error-handling path reached
/// only for a specific combination of arguments.
fn coreutils_crash(
    name: &str,
    reference: &str,
    trigger_char: i64,
    paper_secs: f64,
    extra_distractors: u32,
) -> Workload {
    let mut pb = ProgramBuilder::new(name);
    let mut crash_loc = None;
    let main_id = pb.declare("main", 0);
    pb.define(main_id, |f| {
        distractor_options(f, extra_distractors);
        let mode_arg = f.arg(0);
        let name_arg = f.arg(1);
        // A defensive range check on the mode byte: `mode & 127` can never
        // exceed the mask, so the interval analysis decides this branch and
        // the engine skips the solver on the fork.
        let low = f.bin(BinOp::And, mode_arg, 127);
        let in_range = f.cmp(CmpOp::Le, low, 127);
        f.diamond("mode_range", in_range, |t| t.nop(), |e| e.output(2));
        // The utility validates its mode argument; the error path formats a
        // message using a context pointer that is null when the second
        // argument is missing (zero).
        let bad_mode = f.cmp(CmpOp::Eq, mode_arg, trigger_char);
        let missing = f.cmp(CmpOp::Eq, name_arg, 0);
        let both = f.bin(BinOp::And, bad_mode, missing);
        let err = f.new_block("error_path");
        let ok = f.new_block("ok_path");
        f.cond_br(both, err, ok);
        f.switch_to(err);
        let ctx = f.konst(0);
        crash_loc = Some(Loc::new(main_id, err, f.next_inst_idx()));
        let msg = f.load(ctx);
        f.output(msg);
        f.ret_void();
        f.switch_to(ok);
        f.output(0);
        f.ret_void();
    });
    let program = pb.finish("main");
    let seq_base = extra_distractors; // distractor args come first
    Workload {
        name: name.into(),
        paper_reference: reference.into(),
        kind: WorkloadKind::Crash,
        goal_locs: vec![crash_loc.unwrap()],
        failing_inputs: Some(vec![((0, seq_base), trigger_char), ((0, seq_base + 1), 0)]),
        paper_synth_time_secs: Some(paper_secs),
        program,
    }
}

/// An `ls`-like utility with four injected null-pointer dereferences, each
/// behind a different combination of command-line options — the programs the
/// paper adds so that the KC baseline finds *something* within its budget.
pub fn ls_injected(which: u32) -> Workload {
    assert!((1..=4).contains(&which));
    let mut pb = ProgramBuilder::new(&format!("ls{which}"));
    let mut crash_loc = None;
    let main_id = pb.declare("main", 0);
    pb.define(main_id, |f| {
        // Option parsing: -l -R -F -t (four flag characters read from argv).
        let flags: Vec<_> = (0..4).map(|i| f.arg(i)).collect();
        let long = f.cmp(CmpOp::Eq, flags[0], 'l' as i64);
        let recursive = f.cmp(CmpOp::Eq, flags[1], 'R' as i64);
        let classify = f.cmp(CmpOp::Eq, flags[2], 'F' as i64);
        let by_time = f.cmp(CmpOp::Eq, flags[3], 't' as i64);
        distractor_options(f, 3);
        // The injected bug fires for a specific pair of options.
        let combo = match which {
            1 => f.bin(BinOp::And, long, recursive),
            2 => f.bin(BinOp::And, long, classify),
            3 => f.bin(BinOp::And, recursive, by_time),
            _ => f.bin(BinOp::And, classify, by_time),
        };
        let bug = f.new_block("bug");
        let list = f.new_block("list");
        f.cond_br(combo, bug, list);
        f.switch_to(bug);
        let null = f.konst(0);
        crash_loc = Some(Loc::new(main_id, bug, f.next_inst_idx()));
        let v = f.load(null);
        f.output(v);
        f.ret_void();
        f.switch_to(list);
        f.output('.' as i64);
        f.ret_void();
    });
    let program = pb.finish("main");
    let failing = match which {
        1 => vec![((0, 0), 'l' as i64), ((0, 1), 'R' as i64)],
        2 => vec![((0, 0), 'l' as i64), ((0, 2), 'F' as i64)],
        3 => vec![((0, 1), 'R' as i64), ((0, 3), 't' as i64)],
        _ => vec![((0, 2), 'F' as i64), ((0, 3), 't' as i64)],
    };
    Workload {
        name: format!("ls{which}"),
        paper_reference: format!("ls with injected null-pointer dereference #{which}"),
        kind: WorkloadKind::Crash,
        goal_locs: vec![crash_loc.unwrap()],
        failing_inputs: Some(failing),
        paper_synth_time_secs: None,
        program,
    }
}

/// All Table-1 / Figure-2 workloads.
pub fn all_real_bugs() -> Vec<Workload> {
    vec![
        listing1(),
        sqlite_recursive_lock(),
        hawknl_close_shutdown(),
        ghttpd_log_overflow(),
        paste_invalid_free(),
        coreutils_crash("mknod", "coreutils mknod: error-path segfault", 'z' as i64, 20.0, 3),
        coreutils_crash("mkdir", "coreutils mkdir: error-path segfault", 'p' as i64, 15.0, 2),
        coreutils_crash("mkfifo", "coreutils mkfifo: error-path segfault", 'm' as i64, 15.0, 2),
        coreutils_crash("tac", "coreutils tac: segfault on some separators", 'r' as i64, 11.0, 1),
        ls_injected(1),
        ls_injected(2),
        ls_injected(3),
        ls_injected(4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_core::{Esd, EsdOptions};

    #[test]
    fn listing1_and_hawknl_deadlocks_are_synthesized() {
        for w in [listing1(), hawknl_close_shutdown()] {
            let esd = Esd::new(EsdOptions::builder().max_steps(2_000_000).build());
            let result = esd
                .synthesize_goal(&w.program, w.goal())
                .unwrap_or_else(|e| panic!("{}: {:?}", w.name, e));
            assert_eq!(result.execution.fault_tag, "deadlock", "{}", w.name);
        }
    }

    #[test]
    fn crash_analogs_are_synthesized() {
        for w in [
            paste_invalid_free(),
            ls_injected(1),
            coreutils_crash("mknod", "x", 'z' as i64, 1.0, 3),
        ] {
            let esd = Esd::new(EsdOptions::builder().max_steps(2_000_000).build());
            let result = esd
                .synthesize_goal(&w.program, w.goal())
                .unwrap_or_else(|e| panic!("{}: {:?}", w.name, e));
            assert_eq!(result.execution.fault_loc, Some(w.goal_locs[0]), "{}", w.name);
        }
    }

    #[test]
    fn workload_metadata_is_consistent() {
        for w in all_real_bugs() {
            match w.kind {
                WorkloadKind::Crash => assert_eq!(w.goal_locs.len(), 1, "{}", w.name),
                WorkloadKind::Hang => assert!(w.goal_locs.len() >= 2, "{}", w.name),
            }
            assert!(w.failing_inputs.is_some(), "{}", w.name);
        }
    }
}
