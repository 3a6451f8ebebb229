//! The frame shared by every durable file (the journal, `finished.log`, the
//! snapshot) and the service wire protocol:
//! `[len: u32 LE] [checksum: u64 LE = FNV-1a(payload)] [payload]`.

use crate::snapshot::fnv1a64;

/// Bytes of frame header preceding each payload (length + checksum).
pub const FRAME_HEADER: usize = 4 + 8;

/// Why the bytes at the start of a slice are not a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix, carried here, exceeds the reader's bound.
    TooLong(usize),
    /// The payload does not hash to the stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the frame's header.
        stored: u64,
        /// The checksum of the payload actually present.
        actual: u64,
    },
}

/// Wraps a payload in a `[len][fnv1a64][payload]` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads the frame at the start of `bytes`: `Ok(Some(payload))` for a whole
/// frame whose payload matches its checksum, `Ok(None)` when `bytes` end
/// before the frame does. Never panics; a length prefix beyond `max_len` is
/// rejected before the payload is waited for.
pub fn decode_frame(bytes: &[u8], max_len: usize) -> Result<Option<&[u8]>, FrameError> {
    let Some((header, rest)) = bytes.split_first_chunk::<FRAME_HEADER>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > max_len {
        return Err(FrameError::TooLong(len));
    }
    let Some(payload) = rest.get(..len) else {
        return Ok(None);
    };
    let stored = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    let actual = fnv1a64(payload);
    if actual != stored {
        return Err(FrameError::ChecksumMismatch { stored, actual });
    }
    Ok(Some(payload))
}
