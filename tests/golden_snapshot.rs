//! Golden test for the durable session snapshot format
//! (`esd-core/src/snapshot.rs` + `esd-core/src/session.rs`).
//!
//! The compact JSON payload of a mid-search [`SessionSnapshot`] is checked
//! in under `tests/fixtures/`. It must keep deserializing and restoring, and
//! wrapped in the snapshot container it must keep decoding, so any change to
//! the payload — field renames, engine-state encoding, RNG state — is
//! caught here instead of silently orphaning snapshots written by earlier
//! builds.
//!
//! If the format changes *intentionally*, bump
//! [`SNAPSHOT_FORMAT_VERSION`], regenerate with
//!
//! ```text
//! ESD_REGEN_GOLDEN=1 cargo test --test golden_snapshot
//! ```
//!
//! and commit the new fixture together with the format change.

use esd::core::snapshot::{
    decode_snapshot, encode_snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION,
};
use esd::core::SessionSnapshot;
use esd::workloads::genbug::{generate, GenConfig, InjectedBugKind};
use esd::{EsdOptions, SessionStatus, SynthesisSession};
use std::time::Duration;

const FIXTURE: &str = include_str!("fixtures/session_snapshot.json");

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/session_snapshot.json")
}

fn regen_requested() -> bool {
    std::env::var("ESD_REGEN_GOLDEN").ok().as_deref() == Some("1")
}

/// The fixture recipe: the seed-2 genbug crash workload (the smoke-corpus
/// seed also pinned by `golden_genbug`) advanced 3 rounds of 32-step bursts
/// (it finds the crash in its fourth, at 115 steps), with the wall-clock
/// `elapsed` zeroed so the fixture bytes are reproducible.
fn fixture_snapshot() -> SessionSnapshot {
    let w = generate(&GenConfig::new(2, InjectedBugKind::CrashOnPath)).to_workload();
    let mut session = SynthesisSession::new(
        &w.program,
        w.goal(),
        EsdOptions::builder().max_steps(2_000_000).build(),
    );
    session.run_for(3);
    assert!(session.poll().is_running(), "the fixture pins a mid-search session");
    let mut snap = session.snapshot();
    snap.elapsed = Duration::ZERO;
    snap
}

/// Regenerates the fixture (only when `ESD_REGEN_GOLDEN=1`); run this before
/// the read-only golden tests in the same invocation.
#[test]
fn a_regenerate_fixture_when_requested() {
    if !regen_requested() {
        return;
    }
    let payload = serde_json::to_string(&fixture_snapshot()).expect("snapshot serializes");
    std::fs::write(fixture_path(), payload).expect("fixture written");
}

/// Golden determinism of the snapshot payload: re-running the fixture
/// recipe must reproduce the checked-in payload byte for byte.
#[test]
fn golden_snapshot_payload_matches_fresh_session() {
    if regen_requested() {
        return;
    }
    let fresh = serde_json::to_string(&fixture_snapshot()).expect("snapshot serializes");
    assert_eq!(
        fresh, FIXTURE,
        "the session snapshot format (or search determinism) drifted — if \
         intentional, regenerate with ESD_REGEN_GOLDEN=1 and bump \
         SNAPSHOT_FORMAT_VERSION if old snapshots can no longer be read"
    );
}

/// The checked-in snapshot, wrapped in the snapshot container, still
/// decodes and restores to a working session: the restored search runs to
/// completion and synthesizes the injected bug.
#[test]
fn golden_snapshot_restores_to_a_live_session() {
    if regen_requested() {
        return;
    }
    let file = encode_snapshot(FIXTURE);
    let payload = decode_snapshot(&file).expect("the wrapped fixture decodes");
    assert_eq!(payload, FIXTURE);
    let snap: SessionSnapshot = serde_json::from_str(payload).expect("fixture deserializes");
    let mut session = SynthesisSession::restore(&snap);
    while session.poll().is_running() {
        session.run_for(1000);
    }
    assert!(
        matches!(session.poll(), SessionStatus::Found(_)),
        "the restored session must still find the injected bug"
    );
}

/// Snapshots from a future format version fail with the typed
/// [`SnapshotError::UnknownVersion`] — never a checksum error, a decode
/// error or a panic (the version gate runs before everything else).
#[test]
fn future_format_versions_are_rejected_with_a_typed_error() {
    if regen_requested() {
        // The in-memory FIXTURE constant is stale during a regeneration run.
        return;
    }
    let mut file = encode_snapshot(FIXTURE);
    assert_eq!(file[..4], SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    file[..4].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
    // A checksum that fails as well must not mask the version.
    *file.last_mut().expect("the payload is not empty") ^= 1;
    assert_eq!(
        decode_snapshot(&file),
        Err(SnapshotError::UnknownVersion(SNAPSHOT_FORMAT_VERSION + 1)),
        "a bumped format version must be the reported error"
    );
}
