//! Versioned, checksummed snapshot envelopes — the on-disk half of durable
//! sessions.
//!
//! A snapshot file is a small JSON envelope around an opaque JSON payload:
//!
//! ```json
//! { "format_version": 1, "checksum": 1234567890, "payload": "{...}" }
//! ```
//!
//! The payload is stored as a *string* so the checksum covers its exact
//! bytes: [`seal`] computes an FNV-1a 64 hash of the payload text and
//! [`unseal`] refuses to hand the payload back unless the stored hash
//! matches and the format version is known. Every failure mode is a typed
//! [`SnapshotError`] — a corrupt or future-format snapshot is a reported
//! condition, never a panic.
//!
//! The envelope is deliberately format-agnostic: [`save_snapshot`] /
//! [`load_snapshot`] seal any serde-serializable value, and the same
//! envelope wraps the [`ExecutorSnapshot`](crate::executor::ExecutorSnapshot)
//! written by a durable [`JobExecutor`](crate::executor::JobExecutor) and
//! the golden [`SessionSnapshot`](crate::session::SessionSnapshot) fixture.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// The current snapshot envelope format version. Bump when the envelope (or
/// the canonical payload encoding) changes shape, or when the search steps
/// differently: a payload written under the old stepping rule would resume
/// along a different trajectory; so does a frontier image whose keys were
/// computed under an old proximity rule (format 16 counts every thread that
/// has not finished), or a race-detection job written when race detection
/// still stepped one instruction per selection (format 18 gives it the
/// 32-step burst), or a job written while states were still abandoned in
/// blocks that cannot reach the goal (format 20 abandons none there).
/// Removing a variant or a field a payload may hold (format 14 dropped the
/// batched frontier's image, format 15 the three per-heuristic switches of
/// the stored `EsdOptions`, format 16 `SearchStats::other_bugs_found`,
/// format 17 the breadth-first frontier's image) is a change of shape too,
/// and so is a payload that now leaves part of the state to a file beside
/// it (format 19: an executor snapshot holds only the jobs its
/// `finished.log` prefix does not, names each by handle, and records that
/// prefix's `finished_len`). [`unseal`] rejects any other version with
/// [`SnapshotError::UnknownVersion`].
pub const SNAPSHOT_FORMAT_VERSION: u32 = 20;

/// 64-bit FNV-1a over `bytes` — the dependency-free checksum used by both
/// snapshot envelopes and journal frames.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Why a snapshot could not be written or read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(String),
    /// The envelope is not valid JSON of the expected shape.
    Malformed(String),
    /// The envelope's format version is not one this build understands.
    UnknownVersion(u32),
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the envelope.
        stored: u64,
        /// The checksum of the payload actually present.
        actual: u64,
    },
    /// The payload passed the checksum but failed to decode into the
    /// requested type.
    Decode(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot envelope: {e}"),
            SnapshotError::UnknownVersion(v) => {
                write!(
                    f,
                    "unknown snapshot format version {v} (this build reads \
                     version {SNAPSHOT_FORMAT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { stored, actual } => {
                write!(f, "snapshot checksum mismatch: stored {stored:#x}, actual {actual:#x}")
            }
            SnapshotError::Decode(e) => write!(f, "snapshot payload decode error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The envelope as it appears on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Envelope {
    format_version: u32,
    checksum: u64,
    payload: String,
}

/// Wraps `payload` in a versioned, checksummed envelope (the inverse of
/// [`unseal`]).
pub fn seal(payload: &str) -> String {
    let envelope = Envelope {
        format_version: SNAPSHOT_FORMAT_VERSION,
        checksum: fnv1a64(payload.as_bytes()),
        payload: payload.to_string(),
    };
    serde_json::to_string(&envelope).expect("snapshot envelope serializes")
}

/// Verifies an envelope produced by [`seal`] and returns its payload.
pub fn unseal(text: &str) -> Result<String, SnapshotError> {
    let envelope: Envelope =
        serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
    if envelope.format_version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnknownVersion(envelope.format_version));
    }
    let actual = fnv1a64(envelope.payload.as_bytes());
    if actual != envelope.checksum {
        return Err(SnapshotError::ChecksumMismatch { stored: envelope.checksum, actual });
    }
    Ok(envelope.payload)
}

/// Serializes `value`, seals it, and writes it to `path` atomically (a
/// temporary sibling file renamed into place, so a crash mid-write never
/// leaves a half-written snapshot under the final name).
pub fn save_snapshot<T: Serialize>(path: &Path, value: &T) -> Result<(), SnapshotError> {
    let payload = serde_json::to_string(value).map_err(|e| SnapshotError::Decode(e.to_string()))?;
    let sealed = seal(&payload);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, sealed).map_err(|e| SnapshotError::Io(e.to_string()))?;
    std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))
}

/// Reads, verifies and decodes a snapshot written by [`save_snapshot`].
pub fn load_snapshot<T: Deserialize>(path: &Path) -> Result<T, SnapshotError> {
    let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    let payload = unseal(&text)?;
    serde_json::from_str(&payload).map_err(|e| SnapshotError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seal_unseal_round_trips() {
        let payload = r#"{"hello":"world"}"#;
        assert_eq!(unseal(&seal(payload)).unwrap(), payload);
    }

    #[test]
    fn unseal_rejects_unknown_versions_and_corruption() {
        let future = r#"{"format_version": 999, "checksum": 0, "payload": ""}"#;
        assert_eq!(unseal(future), Err(SnapshotError::UnknownVersion(999)));
        let corrupt = seal("hello-data").replace("hello-data", "hello-dataX");
        assert!(matches!(unseal(&corrupt), Err(SnapshotError::ChecksumMismatch { .. })));
        assert!(matches!(unseal("not json"), Err(SnapshotError::Malformed(_))));
    }
}
