//! Debugging as a service, over a socket: the daemon and its client.
//!
//! `examples/debug_service.rs` embeds the executor; this example splits it
//! in two. A [`Daemon`] owns an [`InProcessService`] (a cross-job parallel
//! [`JobExecutor`]: each slice batch runs on a pool of threads) and serves
//! the hand-rolled framed wire protocol on a Unix-domain socket. A
//! [`RemoteClient`] — the same [`Service`] trait, so the code below would
//! run unchanged against the embedded backend — submits two bug reports: a
//! real-bug analog (the `paste` invalid free) and a generated data race run
//! with race-directed preemptions. It streams the first job's progress
//! events live, polls both to completion, takes the outcomes, and replays
//! the winning executions deterministically.
//!
//! Run with: `cargo run --release --example debug_daemon`

use esd::playback::play;
use esd::workloads::genbug::{generate, GenConfig, InjectedBugKind};
use esd::workloads::real_bugs::paste_invalid_free;
use esd::workloads::Workload;
use esd::{
    Daemon, EsdOptions, InProcessService, JobExecutor, JobSpec, JobVerdict, ProgressUpdate,
    RemoteClient, Service,
};
use std::time::Duration;

fn main() {
    // -- Server side -------------------------------------------------------
    // An executor with a pool of 2: each batch grants up to 2 jobs a slice,
    // one thread each. The pool changes wall time only — the synthesized
    // executions are byte-identical at any size.
    let service = InProcessService::new(JobExecutor::round_robin().slice_rounds(8).pool_size(2))
        .max_pending(16);
    let sock = std::env::temp_dir().join(format!("esd_daemon_{}.sock", std::process::id()));
    let mut daemon = Daemon::bind_uds(&sock, service).expect("bind the UDS socket");
    println!("daemon listening on {}", sock.display());
    let server = std::thread::spawn(move || daemon.run().expect("daemon run loop"));

    // -- Client side -------------------------------------------------------
    let mut client = RemoteClient::connect_uds(&sock).expect("connect to the daemon");

    // Two bug reports arrive at the service: a crash and a data race.
    let paste: Workload = paste_invalid_free();
    let race: Workload = generate(&GenConfig::new(7, InjectedBugKind::DataRace)).to_workload();
    let paste_ticket = client
        .submit(
            JobSpec::new(&paste.name, &paste.program, paste.goal())
                .options(EsdOptions::builder().max_steps(8_000_000).build()),
        )
        .expect("submit the paste job");
    let race_ticket =
        client
            .submit(JobSpec::new(&race.name, &race.program, race.goal()).options(
                EsdOptions::builder().max_steps(8_000_000).with_race_detection(true).build(),
            ))
            .expect("submit the race job");
    println!(
        "submitted #{} ({}) and #{} ({})",
        paste_ticket.id, paste.name, race_ticket.id, race.name
    );

    // Stream the paste job's progress live on a dedicated connection while
    // polling both tickets to their terminal states.
    let mut subscription = client.subscribe(paste_ticket).expect("subscribe");
    loop {
        for update in subscription.drain().expect("event stream") {
            match update {
                ProgressUpdate::Progress { event } => println!(
                    "  #{} ... {} rounds, {} steps, {} live states",
                    paste_ticket.id, event.rounds, event.stats.steps, event.live_states
                ),
                ProgressUpdate::Done { status } => {
                    println!("  #{} done: {status:?}", paste_ticket.id)
                }
            }
        }
        let paste_done = client.poll(paste_ticket).expect("poll").is_terminal();
        let race_done = client.poll(race_ticket).expect("poll").is_terminal();
        if paste_done && race_done && subscription.finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Take both outcomes over the wire and replay the winners locally.
    for (workload, ticket) in [(&paste, paste_ticket), (&race, race_ticket)] {
        let outcome = client.take(ticket).expect("take").expect("terminal job");
        assert_eq!(outcome.verdict(), JobVerdict::Found, "{}", workload.name);
        let report = outcome.report().expect("Found jobs carry a report");
        let replay = play(&workload.program, &report.execution);
        assert!(replay.reproduced, "{}: the synthesized execution must replay", workload.name);
        println!(
            "#{} {}: synthesized in {} rounds, {} context switches, replays deterministically",
            ticket.id,
            workload.name,
            outcome.rounds,
            report.execution.schedule.context_switches()
        );
    }

    client.shutdown_server().expect("shut the daemon down");
    server.join().expect("daemon thread");
    println!("daemon shut down cleanly");
}
