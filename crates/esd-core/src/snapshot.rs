//! Versioned, checksummed snapshot files — the on-disk half of durable
//! sessions.
//!
//! A snapshot file is a format version word followed by one
//! [`crate::frame`] around the payload's compact JSON:
//!
//! ```text
//! [SNAPSHOT_FORMAT_VERSION: u32 LE] [len: u32 LE] [fnv1a64: u64 LE] [payload]
//! ```
//!
//! [`decode_snapshot`] checks the version first, then the checksum, and
//! hands the payload back only when both hold and the frame ends the file.
//! Every failure mode is a typed [`SnapshotError`] — a corrupt or
//! future-format snapshot is a reported condition, never a panic.
//!
//! The container is format-agnostic: [`save_snapshot`] / [`load_snapshot`]
//! wrap any serde-serializable value, such as the
//! [`ExecutorSnapshot`](crate::executor::ExecutorSnapshot) written by a
//! durable [`JobExecutor`](crate::executor::JobExecutor) or a
//! [`SessionSnapshot`](crate::session::SessionSnapshot).

use crate::frame::{self, FrameError, FRAME_HEADER};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// The current snapshot format version. Bump it whenever a snapshot written
/// by the previous build would read back differently or resume along a
/// different trajectory: the container or the payload changes shape (a
/// variant or field added, removed or renamed, or part of the state moved to
/// another file), or the search steps differently. [`decode_snapshot`]
/// rejects any other version with [`SnapshotError::UnknownVersion`].
pub const SNAPSHOT_FORMAT_VERSION: u32 = 21;

/// Bytes of the version word that precedes a snapshot's frame.
const VERSION_WORD: usize = 4;

/// 64-bit FNV-1a over `bytes` — the dependency-free checksum of every
/// [`crate::frame`].
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
    /// The file is not a version word followed by exactly one whole frame
    /// around UTF-8 text.
    Malformed(String),
    /// The file's format version is not one this build understands.
    UnknownVersion(u32),
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the frame.
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
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot file: {e}"),
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

/// Wraps a payload in a snapshot file's bytes: the format version word,
/// then one frame (the inverse of [`decode_snapshot`]).
pub fn encode_snapshot(payload: &str) -> Vec<u8> {
    [&SNAPSHOT_FORMAT_VERSION.to_le_bytes()[..], &frame::encode_frame(payload.as_bytes())].concat()
}

/// Verifies a snapshot file's bytes and returns its payload. The version is
/// checked before the checksum, so a future format is
/// [`SnapshotError::UnknownVersion`] whatever its frame holds; bytes that
/// are too short, end inside the frame, run past it or are not UTF-8 are
/// [`SnapshotError::Malformed`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<&str, SnapshotError> {
    let malformed = |what: &str| SnapshotError::Malformed(what.to_string());
    let Some((version, framed)) = bytes.split_first_chunk::<VERSION_WORD>() else {
        return Err(malformed("shorter than its version word"));
    };
    let version = u32::from_le_bytes(*version);
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnknownVersion(version));
    }
    let payload = match frame::decode_frame(framed, usize::MAX) {
        Ok(Some(payload)) => payload,
        Ok(None) | Err(FrameError::TooLong(_)) => {
            return Err(malformed("the file ends inside its frame"))
        }
        Err(FrameError::ChecksumMismatch { stored, actual }) => {
            return Err(SnapshotError::ChecksumMismatch { stored, actual })
        }
    };
    if FRAME_HEADER + payload.len() != framed.len() {
        return Err(malformed("bytes follow the frame"));
    }
    std::str::from_utf8(payload).map_err(|e| SnapshotError::Malformed(e.to_string()))
}

/// Serializes `value` and writes it to `path` as a snapshot file,
/// atomically (a temporary sibling file renamed into place, so a crash
/// mid-write never leaves a half-written snapshot under the final name).
pub fn save_snapshot<T: Serialize>(path: &Path, value: &T) -> Result<(), SnapshotError> {
    let payload = serde_json::to_string(value).map_err(|e| SnapshotError::Decode(e.to_string()))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, encode_snapshot(&payload))
        .map_err(|e| SnapshotError::Io(e.to_string()))?;
    std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))
}

/// Reads, verifies and decodes a snapshot written by [`save_snapshot`].
pub fn load_snapshot<T: Deserialize>(path: &Path) -> Result<T, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    serde_json::from_str(decode_snapshot(&bytes)?).map_err(|e| SnapshotError::Decode(e.to_string()))
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
    fn the_container_is_a_version_word_and_one_frame() {
        let payload = r#"{"a":1}"#;
        let bytes = encode_snapshot(payload);
        assert_eq!(bytes[..4], SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        assert_eq!(bytes[4..8], 7u32.to_le_bytes());
        assert_eq!(bytes[8..16], fnv1a64(payload.as_bytes()).to_le_bytes());
        assert_eq!(&bytes[16..], payload.as_bytes());
        assert_eq!(decode_snapshot(&bytes), Ok(payload));
    }

    #[test]
    fn decode_rejects_unknown_versions_and_corruption() {
        let mut future = encode_snapshot("hello-data");
        future[..4].copy_from_slice(&999u32.to_le_bytes());
        future[20] ^= 1;
        assert_eq!(decode_snapshot(&future), Err(SnapshotError::UnknownVersion(999)));
        let mut corrupt = encode_snapshot("hello-data");
        corrupt[20] ^= 1;
        assert!(matches!(decode_snapshot(&corrupt), Err(SnapshotError::ChecksumMismatch { .. })));
        let whole = encode_snapshot("hello-data");
        for bad in [&whole[..3], &whole[..whole.len() - 1], &[whole.as_slice(), b"x"].concat()] {
            assert!(matches!(decode_snapshot(bad), Err(SnapshotError::Malformed(_))));
        }
        let version = SNAPSHOT_FORMAT_VERSION.to_le_bytes();
        let not_utf8 = [&version[..], &frame::encode_frame(&[0xff])].concat();
        assert!(matches!(decode_snapshot(&not_utf8), Err(SnapshotError::Malformed(_))));
    }
}
