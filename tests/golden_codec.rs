//! Golden test for the bytes of the JSON codec (`shims/serde`,
//! `shims/serde_derive`, `shims/serde_json`).
//!
//! `tests/fixtures/codec_frames.txt` pins the exact text of every kind of
//! document the system writes: one wire `Submit` per real-bug analog, a
//! `Status` and a listing1 `Outcome` response, each of the four journal
//! record kinds, an executor snapshot holding a running race-detection job,
//! and one pretty-printed execution file. The codec must emit each byte for
//! byte, and decoding a pinned frame and encoding it again must give the
//! same bytes back.
//!
//! The documents come from `esd_bench::codec`, which zeroes their
//! wall-clock fields so the frames are reproducible. If the
//! encoding (or the search the frames record) changes intentionally,
//! regenerate with
//!
//! ```text
//! ESD_REGEN_GOLDEN=1 cargo test --test golden_codec
//! ```
//!
//! and give the reason for every changed frame.

use esd::core::JournalRecord;
use esd::service::WireResponse;
use esd::workloads::real_bugs::listing1;
use esd::{ExecutorSnapshot, JobSpec, JobStatus, JobVerdict, SynthesizedExecution};
use esd_bench::codec::{
    listing1_outcome, read_frames, running_race_executor, snapshot_without_clocks, submit_requests,
    write_frames,
};
use serde::{Deserialize, Serialize};
use std::time::Duration;

const FIXTURE: &str = include_str!("fixtures/codec_frames.txt");

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec_frames.txt")
}

fn regen_requested() -> bool {
    std::env::var("ESD_REGEN_GOLDEN").ok().as_deref() == Some("1")
}

/// One pinned document: its name, its text, and how to decode that text
/// and encode the result again.
struct Frame {
    name: String,
    text: String,
    reencode: fn(&str) -> Result<String, String>,
}

fn reencode<T: Serialize + Deserialize>(text: &str) -> Result<String, String> {
    let value: T = serde_json::from_str(text).map_err(|e| e.to_string())?;
    serde_json::to_string(&value).map_err(|e| e.to_string())
}

fn reencode_execution(text: &str) -> Result<String, String> {
    SynthesizedExecution::from_json(text).map(|e| e.to_json()).map_err(|e| e.to_string())
}

fn compact<T: Serialize + Deserialize>(name: impl Into<String>, value: &T) -> Frame {
    let text = serde_json::to_string(value).expect("frame serializes");
    Frame { name: name.into(), text, reencode: reencode::<T> }
}

/// Every pinned frame, in fixture order.
fn frames() -> Vec<Frame> {
    let mut frames = Vec::new();
    for (name, request) in submit_requests() {
        frames.push(compact(format!("submit {name}"), &request));
    }

    let (exec, race) = running_race_executor();
    let mut status = exec.status(race);
    let JobStatus::Running { progress, .. } = &mut status else {
        panic!("the race job must still be running after one slice, found {status:?}");
    };
    progress.elapsed = Duration::ZERO;
    frames.push(compact("status running race", &WireResponse::Status { status }));

    let outcome = listing1_outcome();
    let execution = outcome.report().expect("listing1 is found").execution.clone();
    frames.push(compact(
        "outcome listing1",
        &WireResponse::Outcome { outcome: Box::new(Some(outcome)) },
    ));

    let w = listing1();
    let spec = JobSpec::new("listing1", &w.program, w.goal());
    let records = [
        ("journal submit", JournalRecord::Submit { handle: 0, spec }),
        ("journal grant", JournalRecord::Grant { grants: vec![0, 2, 5] }),
        ("journal cancel", JournalRecord::Cancel { handle: 3 }),
        ("journal finalize", JournalRecord::Finalize { handle: 1, verdict: JobVerdict::Found }),
    ];
    for (name, record) in &records {
        frames.push(compact(*name, record));
    }

    let snapshot = snapshot_without_clocks(&exec);
    frames.push(compact::<ExecutorSnapshot>("executor snapshot running race", &snapshot));

    frames.push(Frame {
        name: "execution file listing1 (pretty)".into(),
        text: execution.to_json(),
        reencode: reencode_execution,
    });
    frames
}

/// Regenerates the fixture (only when `ESD_REGEN_GOLDEN=1`).
#[test]
fn a_regenerate_fixture_when_requested() {
    if !regen_requested() {
        return;
    }
    let frames = frames();
    let text = write_frames(frames.iter().map(|f| (f.name.as_str(), f.text.as_str())));
    std::fs::write(fixture_path(), text).expect("fixture written");
}

/// The codec emits every pinned frame byte for byte.
#[test]
fn encoding_matches_the_pinned_frames() {
    if regen_requested() {
        return;
    }
    let pinned = read_frames(FIXTURE);
    let fresh = frames();
    let names = |v: Vec<&String>| v.into_iter().cloned().collect::<Vec<_>>();
    assert_eq!(
        names(fresh.iter().map(|f| &f.name).collect()),
        names(pinned.iter().map(|(n, _)| n).collect()),
        "the fixture pins a different frame list"
    );
    for (frame, (name, text)) in fresh.iter().zip(&pinned) {
        assert!(frame.text == *text, "{name}: the encoding drifted from the pinned bytes");
    }
}

/// Decoding a pinned frame and encoding it again is the identity.
#[test]
fn decoding_then_encoding_is_the_identity() {
    if regen_requested() {
        return;
    }
    let fresh = frames();
    for (frame, (name, text)) in fresh.iter().zip(read_frames(FIXTURE)) {
        let again = (frame.reencode)(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(again == text, "{name}: decode then encode changed the bytes");
    }
}
