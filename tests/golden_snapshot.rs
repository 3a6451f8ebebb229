//! Golden test for the durable session snapshot format
//! (`esd-core/src/snapshot.rs` + `esd-core/src/session.rs`).
//!
//! A sealed [`SessionSnapshot`] of a mid-search session is checked in under
//! `tests/fixtures/`. It must keep unsealing, deserializing and restoring,
//! so any change to the envelope (`format_version`, checksum) or to the
//! snapshot payload — field renames, engine-state encoding, RNG state — is
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

use esd::core::snapshot::{seal, unseal, SnapshotError, SNAPSHOT_FORMAT_VERSION};
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
    let mut sealed = seal(&payload);
    sealed.push('\n');
    std::fs::write(fixture_path(), sealed).expect("fixture written");
}

/// Golden determinism of the snapshot payload: re-running the fixture
/// recipe must reproduce the checked-in payload byte for byte.
#[test]
fn golden_snapshot_payload_matches_fresh_session() {
    if regen_requested() {
        return;
    }
    let payload = unseal(FIXTURE.trim_end()).expect("fixture envelope unseals");
    let fresh = serde_json::to_string(&fixture_snapshot()).expect("snapshot serializes");
    assert_eq!(
        fresh, payload,
        "the session snapshot format (or search determinism) drifted — if \
         intentional, regenerate with ESD_REGEN_GOLDEN=1 and bump \
         SNAPSHOT_FORMAT_VERSION if old snapshots can no longer be read"
    );
}

/// The checked-in snapshot still restores to a working session: the
/// restored search runs to completion and synthesizes the injected bug.
#[test]
fn golden_snapshot_restores_to_a_live_session() {
    if regen_requested() {
        return;
    }
    let payload = unseal(FIXTURE.trim_end()).expect("fixture envelope unseals");
    let snap: SessionSnapshot = serde_json::from_str(&payload).expect("fixture deserializes");
    let mut session = SynthesisSession::restore(&snap);
    while session.poll().is_running() {
        session.run_for(1000);
    }
    assert!(
        matches!(session.poll(), SessionStatus::Found(_)),
        "the restored session must still find the injected bug"
    );
}

/// The envelope as written on disk; mirrored here so the test can bump the
/// version field without depending on the envelope's exact text rendering.
#[derive(serde::Serialize, serde::Deserialize)]
struct RawEnvelope {
    format_version: u32,
    checksum: u64,
    payload: String,
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
    let mut envelope: RawEnvelope =
        serde_json::from_str(FIXTURE.trim_end()).expect("fixture envelope parses");
    assert_eq!(envelope.format_version, SNAPSHOT_FORMAT_VERSION);
    envelope.format_version = SNAPSHOT_FORMAT_VERSION + 1;
    let bad = serde_json::to_string(&envelope).expect("envelope serializes");
    assert_eq!(
        unseal(&bad),
        Err(SnapshotError::UnknownVersion(SNAPSHOT_FORMAT_VERSION + 1)),
        "a bumped format version must be the reported error"
    );
}
