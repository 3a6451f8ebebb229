//! Debugging as a service: the single front door over the cross-job
//! parallel executor.
//!
//! The paper's usage model is a *service* — developers ship a bug report,
//! the synthesizer finds an execution. This crate is that front door:
//!
//! * [`Service`] — the transport-agnostic trait: [`Service::submit`] an
//!   [`esd_core::JobSpec`] — the executor's one job description — for a
//!   [`JobTicket`], [`Service::poll`] the unified
//!   [`esd_core::JobStatus`], [`Service::cancel`], [`Service::take`] the
//!   outcome, and [`Service::subscribe`] a stream of [`ProgressUpdate`]s.
//! * [`InProcessService`] — the embedded backend: a
//!   [`esd_core::JobExecutor`] plus admission control (a bounded submit
//!   queue whose overflow is the typed [`ServiceError::Overloaded`], never
//!   an unbounded buffer).
//! * [`wire`] — the hand-rolled protocol: length+FNV-1a-checksum frames
//!   around compact JSON messages, the same framing discipline as the
//!   executor's durable journal. Total decoding: torn frames wait, corrupt
//!   frames are typed errors, nothing panics.
//! * [`Daemon`] / [`RemoteClient`] — the protocol's two ends over TCP or
//!   Unix-domain sockets; the client implements [`Service`] so callers
//!   cannot tell remote from embedded.
//!
//! The determinism contract extends across the wire: a job's synthesized
//! execution file is byte-identical whether submitted in-process or over a
//! socket, at any executor pool size — see `tests/service.rs`.

// Documentation enforcement (see ARCHITECTURE.md, "Documentation policy"):
// every public item must carry rustdoc.
#![deny(missing_docs)]

pub mod api;
pub mod client;
pub mod daemon;
pub mod error;
pub mod inprocess;
mod net;
pub mod wire;

pub use api::{JobTicket, ProgressUpdate, Service, Subscription};
pub use client::RemoteClient;
pub use daemon::Daemon;
pub use error::ServiceError;
/// The service-side name of [`esd_core::JobSpec`], kept for callers that
/// submit under it.
pub use esd_core::JobSpec as JobRequest;
pub use inprocess::{InProcessService, DEFAULT_MAX_PENDING};
pub use wire::{WireRequest, WireResponse};
