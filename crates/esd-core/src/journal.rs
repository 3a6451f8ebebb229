//! The append-only logs of a durable executor, and crash recovery.
//!
//! A durable [`JobExecutor`] keeps three files in its durable directory,
//! each made of [`crate::frame`]s around compact JSON:
//!
//! * `finished.log` — one [`JobSnapshot`] per job whose outcome was taken,
//!   in its finished stage with no status left. Such a job can never
//!   change again, so the first checkpoint after its
//!   [`take`](crate::executor::JobExecutor::take) appends it once and no
//!   later checkpoint rewrites it.
//! * `snapshot.frame` — the [`ExecutorSnapshot`] (see [`crate::snapshot`]
//!   for the container): the scheduler fields and every job *not* in the
//!   log, that is the queued, running and untaken finished ones. Its
//!   `finished_len` names the byte length of `finished.log` it pairs with.
//! * `journal-<epoch>.log` — every scheduling decision taken since that
//!   snapshot, one [`JournalRecord`] each.
//!
//! The executor is `reduce(finished log ⊕ snapshot, journal)`. Because it
//! is deterministic — batch planning is a pure function of the running set
//! and the rotation cursor, and the engines are deterministic in their
//! seeds — replaying the journal against the restored jobs rebuilds the
//! exact pre-crash state. [`JobExecutor::recover`] is that reduction: it
//! reads exactly the first `finished_len` bytes of the log, restores the
//! snapshot's jobs beside them, replays the journal and verifies every
//! re-taken decision against it.
//!
//! A checkpoint therefore costs O(live jobs + jobs taken since the last
//! checkpoint), not O(every job ever submitted): the snapshot holds only
//! the live jobs, and the log grows by one frame per finished job.
//!
//! ## One log type
//!
//! The journal and `finished.log` are both a `FramedLog`: the file and the
//! byte length of its valid records. Every append writes whole frames at
//! that length and flushes them; the journal's are written before the
//! decision they record takes effect (write-ahead), so a crash can tear at
//! most the final frame. Opening a log [`scan`]s it and truncates, in
//! place, whatever follows the prefix it trusts. Only that prefix differs:
//! the journal trusts its longest valid prefix and drops a torn or corrupt
//! tail, while `finished.log` trusts exactly the `finished_len` bytes the
//! snapshot pairs with and drops the frames a checkpoint appended before it
//! crashed short of renaming its snapshot; damage inside those bytes is a
//! [`RecoveryError::Divergence`]. Recovery never panics on damaged input
//! (pinned by the `properties` suite).
//!
//! [`ExecutorSnapshot`]: crate::executor::ExecutorSnapshot
//! [`JobSnapshot`]: crate::executor::JobSnapshot
//! [`JobExecutor`]: crate::executor::JobExecutor
//! [`JobExecutor::recover`]: crate::executor::JobExecutor::recover

use crate::executor::{JobSpec, JobVerdict};
use crate::frame::{self, FRAME_HEADER};
use crate::snapshot::SnapshotError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
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

/// Encodes one record (a [`JournalRecord`], or a `finished.log` job) as a
/// framed byte sequence.
pub fn encode_frame<R: Serialize>(record: &R) -> Vec<u8> {
    let payload = serde_json::to_string(record).expect("log records serialize");
    frame::encode_frame(payload.as_bytes())
}

/// Decodes a journal byte stream into the longest valid prefix of records.
/// Never panics: torn tails and corrupt frames stop the scan and are
/// reported in [`JournalScan::damage`].
pub fn scan(bytes: &[u8]) -> JournalScan {
    let (records, valid_len, damage) = scan_records(bytes);
    JournalScan { records, valid_len, damage }
}

/// The longest valid prefix of framed `R` records in `bytes`: the records,
/// the bytes they cover, and what stopped the scan early, if anything.
fn scan_records<R: Deserialize>(bytes: &[u8]) -> (Vec<R>, usize, Option<JournalDamage>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut damage = None;
    while offset < bytes.len() {
        // The bytes are already in memory, so no length needs a bound: a
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
        let Some(record) = text.and_then(|t| serde_json::from_str::<R>(t).ok()) else {
            damage = Some(JournalDamage::Corrupt { offset });
            break;
        };
        records.push(record);
        offset += FRAME_HEADER + payload.len();
    }
    (records, offset, damage)
}

/// An append-only file of framed records: the journal and `finished.log`
/// alike (see the module docs). It holds the file and the byte length of
/// its valid records, and appends at that length, so bytes a failed append
/// left behind are overwritten by the next one and never read.
#[derive(Debug)]
pub(crate) struct FramedLog {
    file: File,
    len: u64,
}

impl FramedLog {
    /// Creates (truncating) an empty log at `path`.
    pub(crate) fn create(path: &Path) -> std::io::Result<Self> {
        Ok(FramedLog { file: File::create(path)?, len: 0 })
    }

    /// Opens the log at `path`, creating it if absent, and returns it with
    /// the records of the prefix it trusts; whatever follows that prefix is
    /// truncated in place. With `paired_len` `None` (the journal) that
    /// prefix is the longest valid one, and a torn or corrupt tail goes.
    /// With `Some(len)` (`finished.log`) it is exactly the first `len`
    /// bytes, the ones a snapshot pairs with: bytes past them go, and a
    /// prefix that is short, torn or corrupt is a
    /// [`RecoveryError::Divergence`] that leaves the file as it is.
    pub(crate) fn open<R: Deserialize>(
        path: &Path,
        paired_len: Option<u64>,
    ) -> Result<(Self, Vec<R>), RecoveryError> {
        let io = |e: std::io::Error| RecoveryError::Io(format!("{}: {e}", path.display()));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        let trusted = match paired_len {
            None => &bytes[..],
            Some(len) => {
                usize::try_from(len).ok().and_then(|n| bytes.get(..n)).ok_or_else(|| {
                    RecoveryError::Divergence(format!(
                        "the snapshot pairs with {len} bytes of {}, which holds {}",
                        path.display(),
                        bytes.len()
                    ))
                })?
            }
        };
        let (records, valid_len, damage) = scan_records(trusted);
        if let (Some(len), Some(damage)) = (paired_len, damage) {
            return Err(RecoveryError::Divergence(format!(
                "{} within the {valid_len} of {len} bytes the snapshot pairs with: {damage}",
                path.display()
            )));
        }
        if bytes.len() > valid_len {
            file.set_len(valid_len as u64).map_err(io)?;
        }
        Ok((FramedLog { file, len: valid_len as u64 }, records))
    }

    /// Bytes of the records appended so far: for `finished.log`, the
    /// `finished_len` a snapshot taken now pairs with.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Appends `records`, one frame each, in one write at the end of the
    /// records appended so far, and flushes it to the OS. On error the
    /// log's [`len`](FramedLog::len) is unchanged.
    pub(crate) fn append<R: Serialize>(&mut self, records: &[R]) -> std::io::Result<()> {
        let bytes = records.iter().map(encode_frame).collect::<Vec<_>>().concat();
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(&bytes)?;
        self.file.flush()?;
        self.len += bytes.len() as u64;
        Ok(())
    }
}

/// Why a crashed executor could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The snapshot file failed to load or verify.
    Snapshot(SnapshotError),
    /// Reading durable state failed.
    Io(String),
    /// Replay re-planned a batch or re-took a decision differently than
    /// the journal records, or the durable files disagree with each other
    /// (a damaged finished-log prefix, a logged job that is not a taken
    /// finished one, a job missing from both the log and the snapshot) —
    /// the durable state is inconsistent with itself or with this build.
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
