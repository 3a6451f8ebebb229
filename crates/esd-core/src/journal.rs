//! The append-only commit log of executor decisions, and crash recovery.
//!
//! A durable [`JobExecutor`] persists itself
//! as `reduce(snapshot, journal)`: a periodic [`ExecutorSnapshot`]
//! (see [`crate::snapshot`] for the envelope) plus an append-only journal of
//! every scheduling decision taken since that snapshot. Because the executor
//! is deterministic — batch planning is a pure function of the running set
//! and the rotation cursor, and the engines are deterministic in their
//! seeds — replaying the journal against
//! the restored snapshot rebuilds the exact pre-crash state.
//! [`JobExecutor::recover`] is that reduction: it loads the snapshot,
//! replays the journal and verifies every re-taken decision against it.
//!
//! ## Frame format
//!
//! Each record is one [`crate::frame`] around the record's compact JSON.
//!
//! The writer appends a whole frame and flushes before the decision it
//! records takes effect (write-ahead), so a crash can tear at most the final
//! frame. The [`scan`] reader stops at the first torn or corrupt frame and
//! reports what it found; recovery replays the longest valid prefix and
//! never panics on damaged input (pinned by the `properties` suite).
//!
//! [`ExecutorSnapshot`]: crate::executor::ExecutorSnapshot
//! [`JobExecutor`]: crate::executor::JobExecutor
//! [`JobExecutor::recover`]: crate::executor::JobExecutor::recover

use crate::executor::{JobSpec, JobVerdict};
use crate::frame::{self, FRAME_HEADER};
use crate::snapshot::SnapshotError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// One durable executor decision.
///
/// The four variants cover everything that changes executor state between
/// checkpoints; everything else (engine progress) is a deterministic
/// consequence of replaying them in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A job was submitted. Carries the whole [`JobSpec`] so recovery can
    /// resubmit it verbatim.
    Submit {
        /// The handle the executor assigned (dense submit order; replay
        /// verifies it assigns the same one).
        handle: u64,
        /// The job as submitted.
        spec: JobSpec,
    },
    /// The executor granted one batch of slices to distinct jobs (one grant
    /// per pool thread, at most), each slice the executor's slice length.
    /// Written *before* any slice runs (write-ahead); replay re-plans the
    /// batch from the restored rotation cursor and verifies the identical
    /// handle vector.
    Grant {
        /// The granted handles, in planning order.
        grants: Vec<u64>,
    },
    /// A job was cancelled.
    Cancel {
        /// The cancelled job's handle.
        handle: u64,
    },
    /// A job reached a terminal state. Purely a consistency check for
    /// replay: the finalization itself is a deterministic consequence of
    /// the preceding grant or cancellation.
    Finalize {
        /// The finished job's handle.
        handle: u64,
        /// How the job ended.
        verdict: JobVerdict,
    },
}

/// What stopped a [`scan`] before the end of the journal bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalDamage {
    /// The final frame is incomplete — a crash tore the last append.
    Torn {
        /// Byte offset of the torn frame's header.
        offset: usize,
    },
    /// A complete frame failed its checksum or did not decode — the file
    /// was corrupted at rest.
    Corrupt {
        /// Byte offset of the corrupt frame's header.
        offset: usize,
    },
}

impl fmt::Display for JournalDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalDamage::Torn { offset } => {
                write!(f, "journal torn at byte {offset}: the final frame is incomplete")
            }
            JournalDamage::Corrupt { offset } => {
                write!(f, "journal corrupt at byte {offset}: a complete frame failed its checksum")
            }
        }
    }
}

impl std::error::Error for JournalDamage {}

/// The result of [`scan`]ning journal bytes: the longest valid prefix of
/// records, how many bytes it covers, and what (if anything) stopped the
/// scan.
#[derive(Debug)]
pub struct JournalScan {
    /// Every record of the longest valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes covered by the valid prefix (a writer reopening the journal
    /// after damage can truncate to this length).
    pub valid_len: usize,
    /// `None` for a clean journal; otherwise why the scan stopped early.
    pub damage: Option<JournalDamage>,
}

/// Encodes one record as a framed byte sequence.
pub fn encode_frame(record: &JournalRecord) -> Vec<u8> {
    let payload = serde_json::to_string(record).expect("journal record serializes");
    frame::encode_frame(payload.as_bytes())
}

/// Decodes a journal byte stream into the longest valid prefix of records.
/// Never panics: torn tails and corrupt frames stop the scan and are
/// reported in [`JournalScan::damage`].
pub fn scan(bytes: &[u8]) -> JournalScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut damage = None;
    while offset < bytes.len() {
        // The journal is already in memory, so no length needs a bound: a
        // frame longer than the bytes left is a torn tail.
        let decoded = frame::decode_frame(&bytes[offset..], usize::MAX);
        let Ok(Some(payload)) = decoded else {
            damage = Some(match decoded {
                Ok(_) => JournalDamage::Torn { offset },
                Err(_) => JournalDamage::Corrupt { offset },
            });
            break;
        };
        let text = std::str::from_utf8(payload).ok();
        let Some(record) = text.and_then(|t| serde_json::from_str::<JournalRecord>(t).ok()) else {
            damage = Some(JournalDamage::Corrupt { offset });
            break;
        };
        records.push(record);
        offset += FRAME_HEADER + payload.len();
    }
    JournalScan { records, valid_len: offset, damage }
}

/// Reads and [`scan`]s a journal file. A missing file is an empty, clean
/// journal (the executor may crash before its first append).
pub fn load(path: &Path) -> Result<JournalScan, RecoveryError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(scan(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(JournalScan { records: Vec::new(), valid_len: 0, damage: None })
        }
        Err(e) => Err(RecoveryError::Io(e.to_string())),
    }
}

/// Appends framed [`JournalRecord`]s to a journal file, flushing each frame
/// so at most the in-flight frame can be lost to a crash.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JournalWriter { file: File::create(path)? })
    }

    /// Opens a journal for appending, creating it if absent.
    pub fn open_append(path: &Path) -> std::io::Result<Self> {
        Ok(JournalWriter { file: OpenOptions::new().create(true).append(true).open(path)? })
    }

    /// Appends one framed record and flushes it to the OS.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        self.file.write_all(&encode_frame(record))?;
        self.file.flush()
    }
}

/// Why a crashed executor could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The snapshot envelope failed to load or verify.
    Snapshot(SnapshotError),
    /// Reading durable state failed.
    Io(String),
    /// Replay re-planned a batch or re-took a decision differently than
    /// the journal records — the durable state is inconsistent with
    /// this build.
    Divergence(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Snapshot(e) => write!(f, "recovery snapshot error: {e}"),
            RecoveryError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoveryError::Divergence(e) => write!(f, "journal replay diverged: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<SnapshotError> for RecoveryError {
    fn from(e: SnapshotError) -> Self {
        RecoveryError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(handle: u64, other: u64) -> JournalRecord {
        JournalRecord::Grant { grants: vec![handle, other] }
    }

    #[test]
    fn scan_round_trips_clean_journals() {
        let mut bytes = Vec::new();
        for i in 0..5 {
            bytes.extend_from_slice(&encode_frame(&grant(i, 100 + i)));
        }
        let scan = scan(&bytes);
        assert!(scan.damage.is_none());
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.records.len(), 5);
        match &scan.records[3] {
            JournalRecord::Grant { grants } => assert_eq!(grants, &[3, 103]),
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn scan_stops_at_a_torn_tail() {
        let mut bytes = encode_frame(&grant(0, 1));
        let full = encode_frame(&grant(1, 2));
        let keep = bytes.len();
        bytes.extend_from_slice(&full[..full.len() - 3]);
        let scan = scan(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.damage, Some(JournalDamage::Torn { offset: keep }));
    }

    #[test]
    fn scan_stops_at_a_corrupt_frame() {
        let mut bytes = encode_frame(&grant(0, 1));
        let keep = bytes.len();
        bytes.extend_from_slice(&encode_frame(&grant(1, 2)));
        let flip = keep + FRAME_HEADER + 2;
        bytes[flip] ^= 0x40;
        let scan = scan(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.damage, Some(JournalDamage::Corrupt { offset: keep }));
    }
}
