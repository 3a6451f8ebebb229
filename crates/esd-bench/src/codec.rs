//! The documents the JSON codec is pinned and timed on: one wire `Submit`
//! per real-bug analog, a listing1 `Outcome`, and an executor snapshot
//! holding a running race-detection job.
//!
//! `tests/golden_codec.rs` pins their bytes in `tests/fixtures/`, in the
//! format [`write_frames`] writes and [`read_frames`] reads, and the
//! `codec_speed` binary reports encode and decode MB/s over them.
//! Wall-clock fields are zeroed, so every document is reproducible byte
//! for byte.

use esd_core::{
    EsdOptions, ExecutorSnapshot, JobExecutor, JobHandle, JobOutcome, JobSpec, JobStageSnapshot,
    SessionStatus,
};
use esd_service::WireRequest;
use esd_workloads::genbug::{generate, GenConfig, GenSize, InjectedBugKind};
use esd_workloads::{all_real_bugs, listing1};
use std::time::Duration;

/// One `Submit` request per real-bug analog, named after the analog, with
/// default options: the request a client sends for each bug report.
pub fn submit_requests() -> Vec<(String, WireRequest)> {
    all_real_bugs()
        .into_iter()
        .map(|w| {
            let request = JobSpec::new(w.name.clone(), &w.program, w.goal());
            (w.name, WireRequest::Submit { request })
        })
        .collect()
}

/// listing1's outcome from a plain executor: a found deadlock with its
/// execution file, walls zeroed.
pub fn listing1_outcome() -> JobOutcome {
    let w = listing1();
    let mut exec = JobExecutor::round_robin();
    let handle = exec.submit(JobSpec::new("listing1", &w.program, w.goal()));
    exec.run_until_idle();
    let mut outcome = exec.take(handle).expect("listing1 finishes");
    outcome.wall = Duration::ZERO;
    match &mut outcome.status {
        SessionStatus::Found(report) => report.elapsed = Duration::ZERO,
        _ => panic!("listing1 must be found, got {:?}", outcome.verdict()),
    }
    outcome
}

/// An executor holding one running race-detection job: the seed-19 medium
/// generated race after one 4-round slice, with lockset state in its
/// frontier.
pub fn running_race_executor() -> (JobExecutor, JobHandle) {
    let w =
        generate(&GenConfig { seed: 19, kind: InjectedBugKind::DataRace, size: GenSize::medium() })
            .to_workload();
    let options = EsdOptions::builder().max_steps(2_000_000).with_race_detection(true).build();
    let mut exec = JobExecutor::round_robin().slice_rounds(4);
    let handle = exec.submit(JobSpec::new("race", &w.program, w.goal()).options(options));
    exec.run_slice();
    (exec, handle)
}

/// `exec`'s snapshot with every running session's clock zeroed.
pub fn snapshot_without_clocks(exec: &JobExecutor) -> ExecutorSnapshot {
    let mut snapshot = exec.snapshot();
    for job in &mut snapshot.jobs {
        if let JobStageSnapshot::Running(session) = &mut job.stage {
            session.elapsed = Duration::ZERO;
        }
    }
    snapshot
}

/// The line that opens each frame of a frames file, followed by its name.
const FRAME_HEADER: &str = "=== ";

/// A frames file: each frame is a header line holding its name, then its
/// text (several lines for a pretty-printed document), then a newline.
pub fn write_frames<'a>(frames: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::new();
    for (name, text) in frames {
        out.push_str(FRAME_HEADER);
        out.push_str(name);
        out.push('\n');
        out.push_str(text);
        out.push('\n');
    }
    out
}

/// The `(name, text)` frames of a file [`write_frames`] wrote.
pub fn read_frames(file: &str) -> Vec<(String, String)> {
    let mut frames: Vec<(String, String)> = Vec::new();
    for line in file.lines() {
        match (line.strip_prefix(FRAME_HEADER), frames.last_mut()) {
            (Some(name), _) => frames.push((name.to_string(), String::new())),
            (None, Some((_, text))) => {
                if !text.is_empty() {
                    text.push('\n');
                }
                text.push_str(line);
            }
            // Text before the first header belongs to no frame.
            (None, None) => {}
        }
    }
    frames
}
