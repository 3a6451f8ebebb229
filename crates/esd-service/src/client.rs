//! The wire client: a [`Service`] implementation speaking the framed
//! protocol to a [`crate::Daemon`].
//!
//! Calls are strict request/response on one blocking connection;
//! [`Service::subscribe`] opens a *second* connection dedicated to the
//! event stream (switched to non-blocking), so progress frames never
//! interleave with responses.

use crate::api::{JobTicket, ProgressUpdate, Service, Subscription, SubscriptionInner};
use crate::error::ServiceError;
use crate::net::{read_available, write_frame, Stream};
use crate::wire::{decode_response, encode_request, FrameDecoder, WireRequest, WireResponse};
use esd_core::{JobOutcome, JobSpec, JobStatus};
use std::io::Read;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// How the client reaches the daemon (kept to open subscription
/// connections).
#[derive(Clone)]
enum Peer {
    Tcp(String),
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Peer {
    fn connect(&self) -> Result<Stream, ServiceError> {
        let stream = match self {
            Peer::Tcp(addr) => {
                Stream::Tcp(TcpStream::connect(addr.as_str()).map_err(ServiceError::transport)?)
            }
            #[cfg(unix)]
            Peer::Uds(path) => {
                Stream::Uds(UnixStream::connect(path).map_err(ServiceError::transport)?)
            }
        };
        stream.tune();
        Ok(stream)
    }
}

/// A remote [`Service`] over TCP or UDS.
pub struct RemoteClient {
    stream: Stream,
    decoder: FrameDecoder,
    peer: Peer,
}

impl RemoteClient {
    /// Connects over TCP (`host:port`).
    pub fn connect_tcp(addr: impl Into<String>) -> Result<Self, ServiceError> {
        let peer = Peer::Tcp(addr.into());
        Ok(RemoteClient { stream: peer.connect()?, decoder: FrameDecoder::new(), peer })
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self, ServiceError> {
        let peer = Peer::Uds(path.as_ref().to_path_buf());
        Ok(RemoteClient { stream: peer.connect()?, decoder: FrameDecoder::new(), peer })
    }

    /// One blocking request/response round-trip.
    fn call(&mut self, request: &WireRequest) -> Result<WireResponse, ServiceError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        let payload = read_frame_blocking(&mut self.stream, &mut self.decoder)?;
        let response = decode_response(&payload)?;
        if let WireResponse::Error { error } = response {
            return Err(error);
        }
        Ok(response)
    }

    /// Asks the daemon to shut down; consumes the client (the connection
    /// is useless afterwards).
    pub fn shutdown_server(mut self) -> Result<(), ServiceError> {
        match self.call(&WireRequest::Shutdown)? {
            WireResponse::Bye => Ok(()),
            other => Err(unexpected("Bye", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &WireResponse) -> ServiceError {
    ServiceError::protocol(format!("expected {wanted} response, got {got:?}"))
}

/// Blocking read of one complete frame.
fn read_frame_blocking(
    stream: &mut Stream,
    decoder: &mut FrameDecoder,
) -> Result<Vec<u8>, ServiceError> {
    loop {
        if let Some(payload) = decoder.next_frame()? {
            return Ok(payload);
        }
        let mut buf = [0u8; 16 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => return Err(ServiceError::Disconnected),
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServiceError::transport(e)),
        }
    }
}

impl Service for RemoteClient {
    fn submit(&mut self, spec: JobSpec) -> Result<JobTicket, ServiceError> {
        match self.call(&WireRequest::Submit { request: spec })? {
            WireResponse::Ticket { ticket } => Ok(JobTicket { id: ticket }),
            other => Err(unexpected("Ticket", &other)),
        }
    }

    fn poll(&mut self, ticket: JobTicket) -> Result<JobStatus, ServiceError> {
        match self.call(&WireRequest::Poll { ticket: ticket.id })? {
            WireResponse::Status { status } => Ok(status),
            other => Err(unexpected("Status", &other)),
        }
    }

    fn cancel(&mut self, ticket: JobTicket) -> Result<bool, ServiceError> {
        match self.call(&WireRequest::Cancel { ticket: ticket.id })? {
            WireResponse::Cancelled { cancelled } => Ok(cancelled),
            other => Err(unexpected("Cancelled", &other)),
        }
    }

    fn take(&mut self, ticket: JobTicket) -> Result<Option<JobOutcome>, ServiceError> {
        match self.call(&WireRequest::Take { ticket: ticket.id })? {
            WireResponse::Outcome { outcome } => Ok(*outcome),
            other => Err(unexpected("Outcome", &other)),
        }
    }

    fn subscribe(&mut self, ticket: JobTicket) -> Result<Subscription, ServiceError> {
        // Dedicated connection: the daemon turns it into an event stream.
        let mut stream = self.peer.connect()?;
        let mut decoder = FrameDecoder::new();
        write_frame(&mut stream, &encode_request(&WireRequest::Subscribe { ticket: ticket.id }))?;
        let payload = read_frame_blocking(&mut stream, &mut decoder)?;
        match decode_response(&payload)? {
            WireResponse::Subscribed => {}
            WireResponse::Error { error } => return Err(error),
            other => return Err(unexpected("Subscribed", &other)),
        }
        stream.set_nonblocking(true).map_err(ServiceError::transport)?;
        Ok(Subscription {
            inner: SubscriptionInner::Remote(EventStream { stream, decoder, eof: false }),
            finished: false,
        })
    }
}

/// The receiving half of a remote subscription: a non-blocking connection
/// the daemon pushes `Event` frames onto.
pub(crate) struct EventStream {
    stream: Stream,
    decoder: FrameDecoder,
    eof: bool,
}

impl EventStream {
    /// Every update the daemon has streamed so far (non-blocking).
    pub(crate) fn drain(&mut self) -> Result<Vec<ProgressUpdate>, ServiceError> {
        if !self.eof {
            self.eof = read_available(&mut self.stream, &mut self.decoder)?;
        }
        let mut updates = Vec::new();
        while let Some(payload) = self.decoder.next_frame()? {
            match decode_response(&payload)? {
                WireResponse::Event { update } => updates.push(update),
                WireResponse::Error { error } => return Err(error),
                other => return Err(unexpected("Event", &other)),
            }
        }
        Ok(updates)
    }
}
