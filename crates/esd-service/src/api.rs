//! The transport-agnostic service surface: [`JobSpec`] in,
//! [`JobTicket`] out, one [`JobStatus`] everywhere.
//!
//! The [`Service`] trait is implemented by the in-process backend
//! ([`crate::InProcessService`], a thin wrapper over
//! [`esd_core::JobExecutor`]) and by the wire client
//! ([`crate::RemoteClient`], which speaks the framed protocol of
//! [`crate::wire`] to a [`crate::Daemon`]). Client code written against the
//! trait cannot tell the two apart — the determinism tests pin that the
//! synthesized execution files are byte-identical either way.

use crate::error::ServiceError;
use esd_core::{JobOutcome, JobSpec, JobStatus, ProgressEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The service's receipt for a submitted job; every other [`Service`] call
/// takes one. Tickets are dense per-service indices (the in-process backend
/// reuses them as [`esd_core::JobHandle`] values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct JobTicket {
    /// The service-assigned job id.
    pub id: u64,
}

/// One element of a [`Subscription`] stream.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum ProgressUpdate {
    /// The job advanced by a slice; the engine's progress snapshot.
    Progress {
        /// The job's session progress after the slice.
        event: ProgressEvent,
    },
    /// The job reached a terminal state; always the stream's last element.
    Done {
        /// The terminal [`JobStatus`].
        status: JobStatus,
    },
}

/// The front door to the debugging service (the paper's usage model:
/// developers ship a bug report, the synthesizer finds an execution).
///
/// All methods take `&mut self`: backends either mutate an executor or a
/// connection. Errors are always typed [`ServiceError`]s — in particular,
/// submitting past the backend's admission bound returns
/// [`ServiceError::Overloaded`] instead of buffering without limit.
pub trait Service {
    /// Submits a job, subject to admission control. Job observers are not
    /// part of a [`JobSpec`]; [`Service::subscribe`] streams stand in for
    /// them across a process boundary.
    fn submit(&mut self, spec: JobSpec) -> Result<JobTicket, ServiceError>;

    /// The job's current [`JobStatus`] — the same enum the executor and the
    /// wire protocol use.
    fn poll(&mut self, ticket: JobTicket) -> Result<JobStatus, ServiceError>;

    /// Cancels a job; `true` if it was still queued or running.
    fn cancel(&mut self, ticket: JobTicket) -> Result<bool, ServiceError>;

    /// Extracts the terminal [`JobOutcome`] (with the synthesized
    /// execution). `None` until the job is terminal, and again after the
    /// outcome has been taken.
    fn take(&mut self, ticket: JobTicket) -> Result<Option<JobOutcome>, ServiceError>;

    /// Opens a progress stream for the job: [`ProgressUpdate::Progress`]
    /// per dispatched slice, then exactly one [`ProgressUpdate::Done`].
    fn subscribe(&mut self, ticket: JobTicket) -> Result<Subscription, ServiceError>;
}

/// A per-job event feed shared between the executor-side observer (writer)
/// and subscriptions / the daemon streamer (readers). Bounded: the oldest
/// [`ProgressUpdate::Progress`] entries are dropped once
/// [`EVENT_BUFFER_CAP`] is reached, `Done` is never dropped.
pub(crate) type EventFeed = Arc<Mutex<VecDeque<ProgressUpdate>>>;

/// Progress entries buffered per job before the oldest are dropped.
pub(crate) const EVENT_BUFFER_CAP: usize = 256;

/// A progress stream opened by [`Service::subscribe`].
///
/// Subscriptions are pull-based and non-blocking: [`drain`](Self::drain)
/// returns every update available right now. For the in-process backend new
/// updates appear when the executor is pumped; for the wire client they
/// appear as the daemon streams event frames on the subscription's
/// dedicated connection.
pub struct Subscription {
    pub(crate) inner: SubscriptionInner,
    pub(crate) finished: bool,
}

pub(crate) enum SubscriptionInner {
    /// Shares the in-process backend's per-job feed.
    Local(EventFeed),
    /// Reads event frames from a dedicated daemon connection.
    Remote(crate::client::EventStream),
}

impl Subscription {
    /// Every update available right now, in order. After the stream's
    /// [`ProgressUpdate::Done`] has been returned, always empty.
    pub fn drain(&mut self) -> Result<Vec<ProgressUpdate>, ServiceError> {
        if self.finished {
            return Ok(Vec::new());
        }
        let updates = match &mut self.inner {
            SubscriptionInner::Local(feed) => {
                feed.lock().expect("event feed poisoned").drain(..).collect()
            }
            SubscriptionInner::Remote(stream) => stream.drain()?,
        };
        if updates.iter().any(|u| matches!(u, ProgressUpdate::Done { .. })) {
            self.finished = true;
        }
        Ok(updates)
    }

    /// True once the stream's terminal [`ProgressUpdate::Done`] has been
    /// drained.
    pub fn finished(&self) -> bool {
        self.finished
    }
}
