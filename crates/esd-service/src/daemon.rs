//! The debugging daemon: an [`InProcessService`] behind a socket.
//!
//! One thread does everything, deterministically interleaved: accept new
//! connections, decode request frames, answer them, pump the executor a
//! bounded number of slice batches, stream subscription events. There are
//! no per-connection threads and no async runtime — connections are
//! non-blocking and the loop multiplexes them, the same single-coordinator
//! shape as the executor itself. Because jobs share nothing and the
//! executor's merge order is fixed, serving a job over the wire cannot
//! change what it synthesizes; the e2e tests pin byte-identical execution
//! files against in-process submission.

use crate::api::{ProgressUpdate, Service};
use crate::error::ServiceError;
use crate::inprocess::InProcessService;
use crate::net::{read_available, write_frame, Stream};
use crate::wire::{decode_request, encode_response, FrameDecoder, WireRequest, WireResponse};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::time::Duration;

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

/// One accepted connection: its stream, its incremental frame decoder, and
/// — once it issued `Subscribe` — the ticket it streams events for.
struct Conn {
    stream: Stream,
    decoder: FrameDecoder,
    /// `Some(ticket)` after this connection subscribed; it then receives
    /// `Event` frames and no further requests are expected on it.
    streaming: Option<u64>,
    /// The subscription's terminal `Done` event has been sent.
    stream_done: bool,
    /// Connection is dead and will be dropped at the end of the turn.
    closed: bool,
}

/// Slice batches pumped per loop turn while jobs are runnable: more favors
/// throughput, fewer request latency.
const PUMP_PER_TURN: u64 = 4;

/// A daemon serving one [`InProcessService`] over TCP or UDS.
pub struct Daemon {
    listener: Listener,
    service: InProcessService,
    conns: Vec<Conn>,
    shutdown: bool,
}

impl Daemon {
    /// Binds a TCP daemon (use port 0 for an OS-assigned port, then
    /// [`local_addr`](Self::local_addr)).
    pub fn bind_tcp(addr: &str, service: InProcessService) -> Result<Self, ServiceError> {
        let listener = TcpListener::bind(addr).map_err(ServiceError::transport)?;
        listener.set_nonblocking(true).map_err(ServiceError::transport)?;
        Ok(Daemon::with_listener(Listener::Tcp(listener), service))
    }

    /// Binds a Unix-domain daemon at `path` (removed on drop).
    #[cfg(unix)]
    pub fn bind_uds(
        path: impl AsRef<Path>,
        service: InProcessService,
    ) -> Result<Self, ServiceError> {
        let path = path.as_ref().to_path_buf();
        // A stale socket file from a crashed daemon blocks bind; remove it.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).map_err(ServiceError::transport)?;
        listener.set_nonblocking(true).map_err(ServiceError::transport)?;
        Ok(Daemon::with_listener(Listener::Uds(listener, path), service))
    }

    fn with_listener(listener: Listener, service: InProcessService) -> Self {
        Daemon { listener, service, conns: Vec::new(), shutdown: false }
    }

    /// The TCP daemon's bound address.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Uds(..) => None,
        }
    }

    /// Serves until a client sends [`WireRequest::Shutdown`]. The shutdown
    /// turn still flushes every subscription stream that can finish
    /// immediately, then drops all connections.
    pub fn run(&mut self) -> Result<(), ServiceError> {
        while !self.shutdown {
            let worked = self.turn()?;
            if !worked {
                // Nothing accepted, read, pumped or streamed: idle.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// One multiplexer turn; `true` if any work happened.
    fn turn(&mut self) -> Result<bool, ServiceError> {
        let mut worked = self.accept_pending();
        worked |= self.serve_requests();
        if self.service.has_work() {
            worked |= self.service.pump(PUMP_PER_TURN) > 0;
        }
        worked |= self.stream_events();
        self.conns.retain(|c| !c.closed);
        Ok(worked)
    }

    fn accept_pending(&mut self) -> bool {
        let mut accepted = false;
        loop {
            let stream = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => Stream::Tcp(s),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                },
                #[cfg(unix)]
                Listener::Uds(l, _) => match l.accept() {
                    Ok((s, _)) => Stream::Uds(s),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                },
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.tune();
            self.conns.push(Conn {
                stream,
                decoder: FrameDecoder::new(),
                streaming: None,
                stream_done: false,
                closed: false,
            });
            accepted = true;
        }
        accepted
    }

    /// Reads and answers every complete request frame on every connection.
    fn serve_requests(&mut self) -> bool {
        let mut worked = false;
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.closed || conn.streaming.is_some() {
                continue;
            }
            let eof = match read_available(&mut conn.stream, &mut conn.decoder) {
                Ok(eof) => eof,
                Err(_) => {
                    conn.closed = true;
                    continue;
                }
            };
            loop {
                let conn = &mut self.conns[i];
                let payload = match conn.decoder.next_frame() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(error) => {
                        // Corrupt frame: the stream cannot be resynchronized.
                        // Tell the peer why, then drop the connection.
                        let _ = write_frame(
                            &mut conn.stream,
                            &encode_response(&WireResponse::Error { error }),
                        );
                        conn.closed = true;
                        break;
                    }
                };
                worked = true;
                let response = match decode_request(&payload) {
                    Ok(request) => self.handle(i, request),
                    Err(error) => WireResponse::Error { error },
                };
                let conn = &mut self.conns[i];
                if write_frame(&mut conn.stream, &encode_response(&response)).is_err() {
                    conn.closed = true;
                    break;
                }
            }
            let conn = &mut self.conns[i];
            if eof && conn.streaming.is_none() {
                conn.closed = true;
            }
        }
        worked
    }

    fn handle(&mut self, conn_idx: usize, request: WireRequest) -> WireResponse {
        match request {
            WireRequest::Submit { request } => match self.service.submit(request) {
                Ok(ticket) => WireResponse::Ticket { ticket: ticket.id },
                Err(error) => WireResponse::Error { error },
            },
            WireRequest::Poll { ticket } => {
                match self.service.poll(crate::api::JobTicket { id: ticket }) {
                    Ok(status) => WireResponse::Status { status },
                    Err(error) => WireResponse::Error { error },
                }
            }
            WireRequest::Cancel { ticket } => {
                match self.service.cancel(crate::api::JobTicket { id: ticket }) {
                    Ok(cancelled) => WireResponse::Cancelled { cancelled },
                    Err(error) => WireResponse::Error { error },
                }
            }
            WireRequest::Take { ticket } => {
                match self.service.take(crate::api::JobTicket { id: ticket }) {
                    Ok(outcome) => WireResponse::Outcome { outcome: Box::new(outcome) },
                    Err(error) => WireResponse::Error { error },
                }
            }
            WireRequest::Subscribe { ticket } => {
                match self.service.poll(crate::api::JobTicket { id: ticket }) {
                    Ok(_) => {
                        self.conns[conn_idx].streaming = Some(ticket);
                        WireResponse::Subscribed
                    }
                    Err(error) => WireResponse::Error { error },
                }
            }
            WireRequest::Shutdown => {
                self.shutdown = true;
                WireResponse::Bye
            }
        }
    }

    /// Forwards buffered progress to subscribed connections; synthesizes
    /// the terminal `Done` event from the job's status if the stream is
    /// still open when the job turns terminal.
    fn stream_events(&mut self) -> bool {
        let mut worked = false;
        for conn in &mut self.conns {
            let Some(ticket) = conn.streaming else { continue };
            if conn.closed || conn.stream_done {
                continue;
            }
            let mut updates = self.service.drain_updates(ticket);
            let drained_done = updates.iter().any(|u| matches!(u, ProgressUpdate::Done { .. }));
            if !drained_done {
                if let Ok(status) = self.service.poll(crate::api::JobTicket { id: ticket }) {
                    if status.is_terminal() {
                        // Subscribed after the observer's Done was consumed
                        // (or the job had no observer event): close the
                        // stream from the authoritative status.
                        updates.push(ProgressUpdate::Done { status });
                    }
                }
            }
            for update in updates {
                let done = matches!(update, ProgressUpdate::Done { .. });
                worked = true;
                if write_frame(&mut conn.stream, &encode_response(&WireResponse::Event { update }))
                    .is_err()
                {
                    conn.closed = true;
                    break;
                }
                if done {
                    conn.stream_done = true;
                    break;
                }
            }
        }
        worked
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Uds(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
    }
}
