//! The hand-rolled wire protocol: length+checksum framing around compact
//! JSON payloads.
//!
//! Frames are the journal's frames (see `esd_core::frame`): `[len: u32
//! LE][checksum: u64 LE = FNV-1a(payload)][payload]`. Decoding is *total*
//! — torn frames wait for more bytes, bit-flipped frames and oversized
//! length prefixes are typed [`ServiceError`]s, never panics — which is
//! what the wire-protocol property tests pin.
//!
//! Payloads are the [`WireRequest`] / [`WireResponse`] enums, one frame per
//! message, encoded with the same vendored serde the rest of the system
//! uses (the environment is offline; there is no tonic and no crates.io
//! serde_json). Payload decoding is total too, checksum or not: the
//! parser refuses nesting deeper than `serde_json::MAX_DEPTH` without
//! recursing, so a hostile payload is a typed [`ServiceError::Protocol`].

use crate::api::ProgressUpdate;
use crate::error::ServiceError;
use esd_core::frame::decode_frame;
pub use esd_core::frame::{encode_frame, FRAME_HEADER};
use esd_core::{JobOutcome, JobSpec, JobStatus};

/// Upper bound on a frame's payload length. A length prefix beyond this is
/// treated as corruption — the decoder must never allocate unbounded
/// buffers on garbage input.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Everything a client asks of a daemon. One request per frame; the daemon
/// answers each with exactly one [`WireResponse`] frame on the same
/// connection.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum WireRequest {
    /// [`crate::Service::submit`].
    Submit {
        /// The job to run.
        request: JobSpec,
    },
    /// [`crate::Service::poll`].
    Poll {
        /// The ticket id.
        ticket: u64,
    },
    /// [`crate::Service::cancel`].
    Cancel {
        /// The ticket id.
        ticket: u64,
    },
    /// [`crate::Service::take`].
    Take {
        /// The ticket id.
        ticket: u64,
    },
    /// [`crate::Service::subscribe`]: turns this connection into a
    /// dedicated event stream for the job.
    Subscribe {
        /// The ticket id.
        ticket: u64,
    },
    /// Asks the daemon to finish streaming, close connections and return
    /// from its accept loop.
    Shutdown,
}

/// Everything a daemon says to a client.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum WireResponse {
    /// Answer to [`WireRequest::Submit`].
    Ticket {
        /// The assigned ticket id.
        ticket: u64,
    },
    /// Answer to [`WireRequest::Poll`] — the same [`JobStatus`] enum the
    /// executor returns in-process.
    Status {
        /// The job's status.
        status: JobStatus,
    },
    /// Answer to [`WireRequest::Cancel`].
    Cancelled {
        /// Whether the job was still queued or running.
        cancelled: bool,
    },
    /// Answer to [`WireRequest::Take`].
    Outcome {
        /// The extracted outcome, if the job was terminal and untaken.
        outcome: Box<Option<JobOutcome>>,
    },
    /// Answer to [`WireRequest::Subscribe`]; event frames follow.
    Subscribed,
    /// One element of a subscription stream (only on subscribed
    /// connections).
    Event {
        /// The update.
        update: ProgressUpdate,
    },
    /// Answer to any request that failed; the typed error crosses the wire
    /// unchanged.
    Error {
        /// What went wrong.
        error: ServiceError,
    },
    /// Answer to [`WireRequest::Shutdown`].
    Bye,
}

/// Encodes a request as one frame.
pub fn encode_request(request: &WireRequest) -> Vec<u8> {
    encode_frame(serde_json::to_string(request).expect("wire requests serialize").as_bytes())
}

/// Encodes a response as one frame.
pub fn encode_response(response: &WireResponse) -> Vec<u8> {
    encode_frame(serde_json::to_string(response).expect("wire responses serialize").as_bytes())
}

/// Decodes a frame payload as a [`WireRequest`].
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, ServiceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ServiceError::protocol(format!("request payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| ServiceError::protocol(format!("request payload does not decode: {e:?}")))
}

/// Decodes a frame payload as a [`WireResponse`].
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, ServiceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ServiceError::protocol(format!("response payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| ServiceError::protocol(format!("response payload does not decode: {e:?}")))
}

/// An incremental frame decoder over a byte stream.
///
/// [`feed`](Self::feed) appends whatever the socket produced;
/// [`next_frame`](Self::next_frame) yields complete, checksum-verified
/// payloads. A partial frame simply waits for more bytes (the stream
/// analogue of the journal's *torn tail*); a checksum mismatch or an insane
/// length prefix is a typed [`ServiceError::Protocol`] (the analogue of
/// *corrupt*), after which the stream cannot be resynchronized and the
/// connection should be dropped.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    pos: usize,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, `Ok(None)` if more bytes are
    /// needed, or a typed error on corruption.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ServiceError> {
        let decoded = decode_frame(&self.buf[self.pos..], MAX_FRAME_LEN)
            .map_err(|e| ServiceError::protocol(format!("frame rejected: {e:?}")))?;
        let Some(payload) = decoded.map(<[u8]>::to_vec) else {
            return Ok(None);
        };
        self.pos += FRAME_HEADER + payload.len();
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_an_incremental_decoder() {
        let payloads: Vec<&[u8]> = vec![b"", b"x", b"hello wire", &[0xff; 300]];
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&encode_frame(p));
        }
        // Feed one byte at a time: torn prefixes must yield Ok(None).
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for b in bytes {
            decoder.feed(&[b]);
            while let Some(frame) = decoder.next_frame().expect("clean stream") {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, payloads);
    }

    #[test]
    fn bit_flips_are_typed_errors_not_panics() {
        let clean = encode_frame(b"a payload worth protecting");
        for i in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[i] ^= 0x40;
            let mut decoder = FrameDecoder::new();
            decoder.feed(&damaged);
            // Every single-bit flip either fails typed or (length-prefix
            // flips that enlarge the frame) waits for bytes that never
            // arrive — no decode may panic and none may return the
            // original payload unnoticed.
            match decoder.next_frame() {
                Err(ServiceError::Protocol { .. }) => {}
                Ok(None) => {}
                Ok(Some(frame)) => {
                    assert_ne!(frame, clean[FRAME_HEADER..].to_vec(), "corruption went unnoticed")
                }
                Err(other) => panic!("unexpected error kind {other:?}"),
            }
        }
    }

    /// A search deadline ([`EsdOptions::deadline`](esd_core::EsdOptions))
    /// whose nanosecond carry overflows the seconds is a typed protocol
    /// error, not a decoder panic; the largest representable duration still
    /// decodes.
    #[test]
    fn overflowing_deadlines_are_typed_errors_not_panics() {
        let mut pb = esd_ir::ProgramBuilder::new("wire_deadline");
        pb.function("main", 0, |f| f.ret_void());
        let program = pb.finish("main");
        let goal = esd_symex::GoalSpec::Deadlock { thread_locs: Vec::new() };
        let options = esd_core::EsdOptions {
            deadline: Some(std::time::Duration::from_secs(1)),
            ..Default::default()
        };
        let request = JobSpec::new("job", &program, goal).options(options);
        let text = serde_json::to_string(&WireRequest::Submit { request }).expect("serializes");
        let deadline = r#""deadline":[1,0]"#;
        assert!(text.contains(deadline), "{text}");
        let frame = |d: &str| text.replace(deadline, &format!(r#""deadline":{d}"#));
        let overflowing = frame("[18446744073709551615,1000000000]");
        assert!(matches!(
            decode_request(overflowing.as_bytes()),
            Err(ServiceError::Protocol { .. })
        ));
        let max = frame("[18446744073709551615,999999999]");
        assert!(matches!(decode_request(max.as_bytes()), Ok(WireRequest::Submit { .. })));
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocating() {
        let mut frame = encode_frame(b"ok");
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame);
        assert!(matches!(decoder.next_frame(), Err(ServiceError::Protocol { .. })));
    }
}
