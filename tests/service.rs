//! End-to-end tests for the service front door: the wire must be
//! *invisible* — a job submitted over a socket synthesizes the
//! byte-identical execution file of the same spec run in-process, at any
//! executor pool size — and the backpressure contract must hold: a full
//! submit queue is a typed `Overloaded` error, never an OOM or a block.

use esd::service::{Daemon, InProcessService, ProgressUpdate, Service, ServiceError};
use esd::workloads::real_bugs::paste_invalid_free;
use esd::workloads::{generate_bpf, BpfConfig, Workload};
use esd::{EsdOptions, FrontierKind, JobExecutor, JobSpec, JobStatus, JobVerdict, RemoteClient};
use std::time::Duration;

/// The executor pool size under test (the CI matrix sets `ESD_POOL` to
/// 1, 2 and 8; the local default exercises 2 workers).
fn env_pool() -> usize {
    std::env::var("ESD_POOL").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

/// A 64-branch BPF deadlock: about 15 rounds on the proximity frontier, so
/// a 4-round slice leaves it running.
fn bpf64() -> Workload {
    generate_bpf(&BpfConfig { branches: 64, ..Default::default() })
}

/// The two e2e workloads: `bpf64` on the default proximity frontier and
/// `paste` on the random frontier.
fn requests() -> Vec<JobSpec> {
    let bpf = bpf64();
    let paste = paste_invalid_free();
    vec![
        JobSpec::new("bpf64", &bpf.program, bpf.goal())
            .options(EsdOptions::builder().max_steps(8_000_000).build()),
        JobSpec::new("paste", &paste.program, paste.goal()).options(
            EsdOptions::builder().max_steps(8_000_000).frontier(FrontierKind::Random).build(),
        ),
    ]
}

/// A service-backed executor with the parallel knob turned on: batches over
/// an `ESD_POOL`-sized pool.
fn parallel_service() -> InProcessService {
    InProcessService::new(JobExecutor::round_robin().slice_rounds(4).pool_size(env_pool()))
}

/// Baseline: the same requests through the in-process backend on a serial
/// executor (pool 1), collected as execution-file JSON.
fn in_process_baseline() -> Vec<String> {
    let mut service = InProcessService::new(JobExecutor::round_robin().slice_rounds(4));
    let tickets: Vec<_> =
        requests().into_iter().map(|r| service.submit(r).expect("baseline submit")).collect();
    service.run_until_idle();
    tickets
        .into_iter()
        .map(|t| {
            let outcome = service.take(t).expect("poll").expect("terminal");
            assert_eq!(outcome.verdict(), JobVerdict::Found, "{}", outcome.label);
            outcome.report().expect("Found carries a report").execution.to_json()
        })
        .collect()
}

/// Drives a remote client through the full lifecycle against an already
/// running daemon and returns the execution JSONs in request order.
fn run_over_wire(client: &mut RemoteClient) -> Vec<String> {
    let tickets: Vec<_> =
        requests().into_iter().map(|r| client.submit(r).expect("wire submit")).collect();
    // Stream progress for the first job on a dedicated connection while
    // polling both to completion.
    let mut subscription = client.subscribe(tickets[0]).expect("subscribe");
    let mut progress_events = 0usize;
    let mut saw_done = false;
    loop {
        for update in subscription.drain().expect("event stream stays clean") {
            match update {
                ProgressUpdate::Progress { .. } => progress_events += 1,
                ProgressUpdate::Done { status } => {
                    assert_eq!(status, JobStatus::Finished { verdict: JobVerdict::Found });
                    saw_done = true;
                }
            }
        }
        let all_done = tickets.iter().all(|t| client.poll(*t).expect("wire poll").is_terminal());
        if all_done && subscription.finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_done, "the subscription must end with Done");
    assert!(progress_events > 0, "4-round slices must stream intermediate progress");
    tickets
        .into_iter()
        .map(|t| {
            let outcome = client.take(t).expect("wire take").expect("terminal job");
            assert_eq!(outcome.verdict(), JobVerdict::Found, "{}", outcome.label);
            outcome.report().expect("report").execution.to_json()
        })
        .collect()
}

/// The tentpole e2e contract over UDS: submit → subscribe → poll → take
/// through the daemon produces byte-identical execution files to the same
/// specs run in-process on a serial executor — the wire and the pool size
/// are both unobservable in the result.
#[test]
#[cfg(unix)]
fn uds_submission_is_byte_identical_to_in_process() {
    let baseline = in_process_baseline();
    let sock = std::env::temp_dir().join(format!("esd_svc_{}.sock", std::process::id()));
    let mut daemon = Daemon::bind_uds(&sock, parallel_service()).expect("bind uds");
    let server = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut client = RemoteClient::connect_uds(&sock).expect("connect uds");
    let over_wire = run_over_wire(&mut client);
    assert_eq!(over_wire, baseline, "UDS submission must be byte-identical to in-process");
    client.shutdown_server().expect("shutdown");
    server.join().expect("daemon thread");
}

/// The same contract over TCP (loopback, OS-assigned port).
#[test]
fn tcp_submission_is_byte_identical_to_in_process() {
    let baseline = in_process_baseline();
    let mut daemon = Daemon::bind_tcp("127.0.0.1:0", parallel_service()).expect("bind tcp");
    let addr = daemon.local_addr().expect("tcp daemons have an address");
    let server = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut client = RemoteClient::connect_tcp(addr.to_string()).expect("connect tcp");
    let over_wire = run_over_wire(&mut client);
    assert_eq!(over_wire, baseline, "TCP submission must be byte-identical to in-process");
    client.shutdown_server().expect("shutdown");
    server.join().expect("daemon thread");
}

/// Backpressure, in-process: the bounded submit queue rejects the
/// (max_pending + 1)-th queued job with a typed `Overloaded` carrying the
/// backlog size, and admits again once the queue drains.
#[test]
fn submit_past_the_bounded_queue_is_a_typed_overloaded() {
    let w = bpf64();
    let mut service =
        InProcessService::new(JobExecutor::round_robin().slice_rounds(512)).max_pending(2);
    let request = || {
        JobSpec::new("queued", &w.program, w.goal())
            .options(EsdOptions::builder().max_steps(8_000_000).build())
    };
    service.submit(request()).expect("first fits the queue");
    service.submit(request()).expect("second fits the queue");
    let err = service.submit(request()).expect_err("third must be rejected");
    assert_eq!(err, ServiceError::Overloaded { retry_after_slices: 2 });
    // Drain and retry: admission control is about the queue, not a cap on
    // total jobs served.
    service.run_until_idle();
    service.submit(request()).expect("an idle service admits again");
}

/// Backpressure over the wire: the typed `Overloaded` crosses the protocol
/// unchanged — remote clients see exactly the in-process error.
#[test]
fn overloaded_crosses_the_wire_as_a_typed_error() {
    // A job the daemon cannot drain during the test: the random frontier on
    // a 256-branch BPF program needs orders of magnitude more rounds than
    // the few slices the daemon pumps between our submits, so the single
    // running slot stays occupied and the queue stays full.
    let w = generate_bpf(&BpfConfig { branches: 256, ..Default::default() });
    let service = InProcessService::new(
        // max_running(1) keeps queued jobs queued even while the daemon
        // pumps, so the rejection is deterministic.
        JobExecutor::round_robin().slice_rounds(4).max_running(1),
    )
    .max_pending(1);
    let mut daemon = Daemon::bind_tcp("127.0.0.1:0", service).expect("bind tcp");
    let addr = daemon.local_addr().expect("tcp address");
    let server = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut client = RemoteClient::connect_tcp(addr.to_string()).expect("connect");
    let expensive = || {
        JobSpec::new("slow", &w.program, w.goal()).options(
            EsdOptions::builder().max_steps(u64::MAX / 2).frontier(FrontierKind::Random).build(),
        )
    };
    let first = client.submit(expensive()).expect("first admitted");
    // Burst submissions until the typed rejection appears (the daemon may
    // admit the first into the running slot between calls).
    let mut rejected = None;
    for _ in 0..4 {
        match client.submit(expensive()) {
            Ok(_) => continue,
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    match rejected {
        Some(ServiceError::Overloaded { retry_after_slices }) => {
            assert!(retry_after_slices >= 1, "the hint names the backlog")
        }
        other => panic!("expected Overloaded over the wire, got {other:?}"),
    }
    client.cancel(first).expect("cancel");
    client.shutdown_server().expect("shutdown");
    server.join().expect("daemon thread");
}

/// A peer-supplied search deadline (`EsdOptions::deadline`) of
/// `Duration::MAX` neither panics the durable service at submit nor its
/// recovery when the journaled submit is replayed; the job still
/// synthesizes.
#[test]
fn maximal_deadlines_neither_panic_submit_nor_recovery() {
    let dir = std::env::temp_dir().join(format!("esd_svc_max_deadline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = bpf64();
    let request = JobSpec::new("forever", &w.program, w.goal())
        .options(EsdOptions::builder().max_steps(8_000_000).deadline(Duration::MAX).build());
    let executor = JobExecutor::round_robin().checkpoint_every(1000).durable_dir(&dir);
    let mut service = InProcessService::new(executor.expect("durable dir"));
    let ticket = service.submit(request).expect("a maximal deadline is accepted");
    drop(service);

    let mut recovered = JobExecutor::recover(&dir).expect("the journaled submit replays");
    recovered.run_until_idle();
    let outcome = recovered.take(esd::JobHandle::from_id(ticket.id)).expect("terminal");
    assert_eq!(outcome.verdict(), JobVerdict::Found);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unknown tickets are typed errors on both backends.
#[test]
fn unknown_tickets_are_typed_on_both_backends() {
    let mut local = InProcessService::new(JobExecutor::round_robin());
    let bogus = esd::JobTicket { id: 42 };
    assert_eq!(local.poll(bogus), Err(ServiceError::UnknownTicket { ticket: 42 }));

    let mut daemon =
        Daemon::bind_tcp("127.0.0.1:0", InProcessService::new(JobExecutor::round_robin()))
            .expect("bind tcp");
    let addr = daemon.local_addr().expect("tcp address");
    let server = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut client = RemoteClient::connect_tcp(addr.to_string()).expect("connect");
    assert_eq!(client.poll(bogus), Err(ServiceError::UnknownTicket { ticket: 42 }));
    client.shutdown_server().expect("shutdown");
    server.join().expect("daemon thread");
}

/// The in-process subscription stream: progress events while pumping, then
/// exactly one `Done` carrying the terminal status, then silence.
#[test]
fn local_subscriptions_stream_progress_then_done() {
    let w = bpf64();
    let mut service = InProcessService::new(JobExecutor::round_robin().slice_rounds(4));
    let ticket = service
        .submit(
            JobSpec::new("watched", &w.program, w.goal())
                .options(EsdOptions::builder().max_steps(8_000_000).build()),
        )
        .expect("submit");
    let mut subscription = service.subscribe(ticket).expect("subscribe");
    let mut progress = 0usize;
    let mut done = 0usize;
    while !subscription.finished() {
        service.pump(8);
        for update in subscription.drain().expect("local streams cannot fail") {
            match update {
                ProgressUpdate::Progress { event } => {
                    assert!(event.rounds > 0 && event.stats.steps > 0);
                    progress += 1;
                }
                ProgressUpdate::Done { status } => {
                    assert_eq!(status, JobStatus::Finished { verdict: JobVerdict::Found });
                    done += 1;
                }
            }
        }
    }
    assert!(progress > 0, "4-round slices must produce progress events");
    assert_eq!(done, 1, "exactly one terminal event");
    assert!(subscription.drain().expect("drain after Done").is_empty());
}

/// A recovered executor can sit behind the in-process service: the jobs it
/// already holds keep their tickets — `poll`, `subscribe` and `take` work
/// on a finished job and on a running one — and a new job submits after
/// them.
#[test]
fn recovered_executor_serves_its_old_tickets() {
    let dir = std::env::temp_dir().join(format!("esd_svc_recovered_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = bpf64();
    let request = |label: &str| {
        JobSpec::new(label, &w.program, w.goal())
            .options(EsdOptions::builder().max_steps(8_000_000).build())
    };
    let executor = JobExecutor::round_robin()
        .slice_rounds(4)
        .max_running(1)
        .checkpoint_every(1000)
        .durable_dir(&dir)
        .expect("durable dir");
    let mut service = InProcessService::new(executor);
    let finished = service.submit(request("finished")).expect("submit");
    service.run_until_idle();
    let running = service.submit(request("running")).expect("submit");
    service.pump(1);
    drop(service);

    let recovered = JobExecutor::recover(&dir).expect("the journal replays");
    let mut service = InProcessService::new(recovered);
    let found = JobStatus::Finished { verdict: JobVerdict::Found };
    assert_eq!(service.poll(finished), Ok(found.clone()));
    let status = service.poll(running).expect("old tickets poll");
    assert!(matches!(status, JobStatus::Running { slices: 1, .. }), "{status:?}");
    let fresh = service.submit(request("fresh")).expect("a recovered service admits new jobs");
    assert_eq!(fresh.id, 2, "tickets continue after the recovered jobs");
    assert_eq!(service.poll(fresh), Ok(JobStatus::Queued));
    let mut subscriptions: Vec<_> =
        [finished, running].map(|t| service.subscribe(t).expect("old tickets subscribe")).into();
    service.run_until_idle();
    for (ticket, subscription) in [finished, running].into_iter().zip(&mut subscriptions) {
        let updates = subscription.drain().expect("local streams cannot fail");
        assert!(
            matches!(updates.last(), Some(ProgressUpdate::Done { status }) if *status == found),
            "{ticket:?} streams to Done: {updates:?}"
        );
        assert!(subscription.finished());
    }
    for ticket in [finished, running, fresh] {
        assert_eq!(service.poll(ticket), Ok(found.clone()));
        let outcome = service.take(ticket).expect("take").expect("terminal");
        assert_eq!(outcome.verdict(), JobVerdict::Found, "{}", outcome.label);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
