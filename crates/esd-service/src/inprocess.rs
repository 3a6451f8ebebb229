//! The in-process backend: a [`Service`] that owns a [`JobExecutor`].
//!
//! This is both the backend library users embed directly and the engine
//! room of the [`crate::Daemon`] — the daemon is nothing but this service
//! plus the wire. Admission control is enforced *in front of* the
//! executor's own `max_running` cap: at most
//! [`max_pending`](InProcessService::max_pending) jobs may sit in the
//! queued state; further submissions get a typed
//! [`ServiceError::Overloaded`] with a drain estimate, so a traffic spike
//! can neither exhaust memory nor block the submitter.

use crate::api::{
    EventFeed, JobTicket, ProgressUpdate, Service, Subscription, SubscriptionInner,
    EVENT_BUFFER_CAP,
};
use crate::error::ServiceError;
use esd_core::{
    JobExecutor, JobHandle, JobOutcome, JobSpec, JobStatus, JobVerdict, Observer, ProgressEvent,
    SessionStatus,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Pushes each job's progress into its [`EventFeed`], bounded.
struct FeedObserver(EventFeed);

impl Observer for FeedObserver {
    fn on_progress(&mut self, event: &ProgressEvent) {
        let mut feed = self.0.lock().expect("event feed poisoned");
        if feed.len() >= EVENT_BUFFER_CAP {
            feed.pop_front();
        }
        feed.push_back(ProgressUpdate::Progress { event: event.clone() });
    }

    fn on_finish(&mut self, status: &SessionStatus) {
        // The job-level JobStatus the stream promises as its last element.
        let status = JobStatus::Finished { verdict: JobVerdict::of(status) };
        self.0.lock().expect("event feed poisoned").push_back(ProgressUpdate::Done { status });
    }
}

/// A new event feed for a job: a finished job's feed holds its `Done` at
/// once; any other job's is filled by a [`FeedObserver`] attached to it.
fn attach_feed(executor: &mut JobExecutor, handle: JobHandle) -> EventFeed {
    let feed: EventFeed = Arc::new(Mutex::new(VecDeque::new()));
    match executor.status(handle) {
        status @ JobStatus::Finished { .. } => {
            feed.lock().expect("event feed poisoned").push_back(ProgressUpdate::Done { status })
        }
        _ => executor.observe(handle, Box::new(FeedObserver(feed.clone()))),
    }
    feed
}

/// The in-process [`Service`] backend wrapping a [`JobExecutor`].
pub struct InProcessService {
    executor: JobExecutor,
    max_pending: usize,
    /// One feed per submitted job, indexed by ticket id.
    feeds: Vec<EventFeed>,
}

/// Default bound on the submit queue.
pub const DEFAULT_MAX_PENDING: usize = 64;

impl InProcessService {
    /// Wraps an executor with the default submit-queue bound. Jobs the
    /// executor already holds — a recovered executor's, say — keep their
    /// handle ids as tickets and get event feeds like new submissions.
    pub fn new(mut executor: JobExecutor) -> Self {
        let feeds = (0..executor.stats().submitted)
            .map(|id| attach_feed(&mut executor, JobHandle::from_id(id)))
            .collect();
        InProcessService { executor, max_pending: DEFAULT_MAX_PENDING, feeds }
    }

    /// Sets the admission bound: the maximum number of jobs allowed to wait
    /// in the queued state (clamped to at least 1). Submissions beyond it
    /// are rejected with [`ServiceError::Overloaded`].
    pub fn max_pending(mut self, n: usize) -> Self {
        self.max_pending = n.max(1);
        self
    }

    /// Drives the executor by up to `slices` slice batches; returns how
    /// many actually ran. In-process users pump explicitly; the daemon
    /// pumps between I/O turns.
    pub fn pump(&mut self, slices: u64) -> u64 {
        let mut ran = 0;
        while ran < slices && self.executor.run_slice() {
            ran += 1;
        }
        ran
    }

    /// Pumps until the executor is idle.
    pub fn run_until_idle(&mut self) {
        self.executor.run_until_idle();
    }

    /// True while any job is queued or running.
    pub fn has_work(&self) -> bool {
        self.executor.has_work()
    }

    /// Read access to the wrapped executor (statistics, snapshots).
    pub fn executor(&self) -> &JobExecutor {
        &self.executor
    }

    /// Drains the job's buffered updates (the daemon's event streamer).
    pub(crate) fn drain_updates(&mut self, ticket: u64) -> Vec<ProgressUpdate> {
        match self.feeds.get(ticket as usize) {
            Some(feed) => feed.lock().expect("event feed poisoned").drain(..).collect(),
            None => Vec::new(),
        }
    }

    fn handle(&self, ticket: JobTicket) -> Result<JobHandle, ServiceError> {
        if (ticket.id as usize) < self.feeds.len() {
            Ok(JobHandle::from_id(ticket.id))
        } else {
            Err(ServiceError::UnknownTicket { ticket: ticket.id })
        }
    }
}

impl Service for InProcessService {
    fn submit(&mut self, spec: JobSpec) -> Result<JobTicket, ServiceError> {
        let queued = self.executor.queued();
        if queued >= self.max_pending {
            // The backlog that must drain before a retry can be admitted:
            // every queued job needs at least one slice to start, so the
            // queue length is the floor of the wait.
            return Err(ServiceError::Overloaded { retry_after_slices: queued as u64 });
        }
        let handle = self.executor.submit(spec);
        debug_assert_eq!(handle.id() as usize, self.feeds.len());
        let feed = attach_feed(&mut self.executor, handle);
        self.feeds.push(feed);
        Ok(JobTicket { id: handle.id() })
    }

    fn poll(&mut self, ticket: JobTicket) -> Result<JobStatus, ServiceError> {
        let handle = self.handle(ticket)?;
        Ok(self.executor.status(handle))
    }

    fn cancel(&mut self, ticket: JobTicket) -> Result<bool, ServiceError> {
        let handle = self.handle(ticket)?;
        Ok(self.executor.cancel(handle))
    }

    fn take(&mut self, ticket: JobTicket) -> Result<Option<JobOutcome>, ServiceError> {
        let handle = self.handle(ticket)?;
        Ok(self.executor.take(handle))
    }

    fn subscribe(&mut self, ticket: JobTicket) -> Result<Subscription, ServiceError> {
        let handle = self.handle(ticket)?;
        let feed = self.feeds[handle.id() as usize].clone();
        Ok(Subscription { inner: SubscriptionInner::Local(feed), finished: false })
    }
}
