//! The TCP front end: accepts connections, enforces the `hello`
//! handshake, and translates protocol requests into [`Service`] calls.
//!
//! Each connection gets its own thread (connections are few and mostly
//! idle or streaming; a thread per connection keeps the code free of any
//! event-loop dependency). The accept loop blocks in `accept`, so a new
//! connection is served the moment it arrives; a shutdown — from
//! [`Daemon::stop`] or the `shutdown` verb — wakes it with one loopback
//! connection of its own.
//!
//! Every socket runs with `TCP_NODELAY` and every line goes out in one
//! write ([`write_line`]): the protocol is request/response, and a small
//! segment held back for a delayed ACK would stall each exchange.

use std::io::{BufRead, BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use icvbe_instrument::chaos::SocketFault;

use crate::protocol::{
    error_line, hello_line, parse_request, queue_full_line, submitted_line, write_line,
    ProtocolError, Request, PROTOCOL_VERSION,
};
use crate::service::{Service, ServiceConfig, SubmitError};

/// A running daemon: the service plus its TCP accept loop.
#[derive(Debug)]
pub struct Daemon {
    service: Arc<Service>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// Socket bind errors and [`Service::start`] I/O errors.
    pub fn start(config: ServiceConfig, addr: &str) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let service = Arc::new(Service::start(config)?);
        let accept_service = Arc::clone(&service);
        let accept = std::thread::spawn(move || {
            // Connection ordinal: the key of per-connection chaos verdicts.
            let mut conn: u64 = 0;
            while let Ok((socket, _)) = listener.accept() {
                // A shutdown's wake-up connection, or a client that raced
                // it: either way the daemon is closing.
                if accept_service.is_shutdown() {
                    break;
                }
                conn += 1;
                let op = conn;
                let conn_service = Arc::clone(&accept_service);
                std::thread::spawn(move || handle_connection(&conn_service, socket, op, local));
            }
        });
        Ok(Daemon {
            service,
            addr: local,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this daemon (tests poke counters through it).
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Blocks until a `shutdown` request stops the daemon, then joins the
    /// accept loop and the scheduler (final checkpoints written).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.service.join();
    }

    /// Stops the daemon from the host process (equivalent to a client
    /// `shutdown`) and waits for it.
    pub fn stop(self) {
        self.service.request_shutdown();
        wake_accept(self.addr);
        self.wait();
    }
}

/// Wakes an accept loop blocked on the listener at `addr` with one
/// throwaway connection; the loop then sees the shutdown flag and exits.
/// A wildcard bind address is reached through the loopback interface.
fn wake_accept(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(5));
}

/// Outcome of one bounded request-line read.
enum LineRead {
    /// A complete line (decoded lossily: binary garbage still parses into
    /// a string and earns a typed `bad_request`, never a panic).
    Line(String),
    /// Clean EOF or an unrecoverable socket error.
    Closed,
    /// The socket read timeout fired (stalled client).
    TimedOut,
    /// The line exceeded the request-size cap before any newline.
    TooLarge,
}

/// Reads one `\n`-terminated request line without ever buffering more
/// than `cap + 1` bytes: a client streaming an endless line exhausts the
/// cap, not the daemon's memory.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, cap: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    match reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut buf)
    {
        Ok(0) => LineRead::Closed,
        Ok(_) => {
            if buf.last() != Some(&b'\n') && buf.len() > cap {
                return LineRead::TooLarge;
            }
            LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            LineRead::TimedOut
        }
        Err(_) => LineRead::Closed,
    }
}

/// Runs one connection to completion. The protocol is half-duplex:
/// request, then response(s) — a streaming submit or `results` attach
/// occupies the connection until the job's terminal event.
///
/// Hardened I/O: read/write timeouts shed stalled clients, request lines
/// are length-capped, and the connection-keyed chaos plan can stall or
/// reset the socket up front to exercise exactly those paths.
fn handle_connection(service: &Arc<Service>, socket: TcpStream, conn: u64, listener: SocketAddr) {
    // Socket options apply to the shared underlying socket, so setting
    // them once here covers the cloned read half too.
    let _ = socket.set_nodelay(true);
    if let Some(timeout) = service.io_timeout() {
        let _ = socket.set_read_timeout(Some(timeout));
        let _ = socket.set_write_timeout(Some(timeout));
    }
    match service.chaos_socket_fault(conn) {
        SocketFault::None => {}
        SocketFault::Stall { millis } => std::thread::sleep(Duration::from_millis(millis)),
        // Drop without a byte: the client sees an abrupt close, exactly
        // like a daemon crashing between accept and response.
        SocketFault::Reset => return,
    }
    let Ok(read_half) = socket.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut socket = socket;
    let cap = service.max_request_bytes();

    // Handshake: the first request must be a `hello` with this build's
    // protocol version; anything else is a typed rejection.
    let line = match read_bounded_line(&mut reader, cap) {
        LineRead::Line(line) => line,
        LineRead::Closed => return,
        LineRead::TimedOut => {
            service.note_io_timeout();
            return;
        }
        LineRead::TooLarge => {
            service.note_oversized();
            let err = ProtocolError {
                kind: "request_too_large",
                detail: format!("request line exceeds {cap} bytes"),
            };
            let _ = write_line(&mut socket, &error_line(&err));
            return;
        }
    };
    match parse_request(line.trim_end()) {
        Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
            if write_line(&mut socket, &hello_line()).is_err() {
                return;
            }
        }
        Ok(Request::Hello { version }) => {
            let err = ProtocolError {
                kind: "unsupported_version",
                detail: format!(
                    "client speaks protocol {version}, server speaks {PROTOCOL_VERSION}"
                ),
            };
            let _ = write_line(&mut socket, &error_line(&err));
            return;
        }
        Ok(_) => {
            let err = ProtocolError {
                kind: "bad_request",
                detail: "connection must open with a hello".to_string(),
            };
            let _ = write_line(&mut socket, &error_line(&err));
            return;
        }
        Err(e) => {
            let _ = write_line(&mut socket, &error_line(&e));
            return;
        }
    }

    loop {
        let line = match read_bounded_line(&mut reader, cap) {
            LineRead::Line(line) => line,
            LineRead::Closed => return,
            LineRead::TimedOut => {
                service.note_io_timeout();
                return;
            }
            LineRead::TooLarge => {
                service.note_oversized();
                let err = ProtocolError {
                    kind: "request_too_large",
                    detail: format!("request line exceeds {cap} bytes"),
                };
                let _ = write_line(&mut socket, &error_line(&err));
                return;
            }
        };
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let request = match parse_request(trimmed) {
            Ok(r) => r,
            Err(e) => {
                if write_line(&mut socket, &error_line(&e)).is_err() {
                    return;
                }
                continue;
            }
        };
        if !dispatch(service, &mut socket, request, listener) {
            return;
        }
    }
}

/// Handles one parsed request; returns `false` when the connection should
/// close. `listener` is the daemon's own address, which a `shutdown`
/// connects to so the blocked accept loop wakes and exits.
fn dispatch(
    service: &Arc<Service>,
    socket: &mut TcpStream,
    request: Request,
    listener: SocketAddr,
) -> bool {
    match request {
        Request::Hello { .. } => write_line(socket, &hello_line()).is_ok(),
        Request::Status => write_line(socket, &service.status_json()).is_ok(),
        Request::Submit {
            tenant,
            label,
            stream,
            spec,
        } => match service.submit(&tenant, &label, *spec) {
            Ok(ticket) => {
                if write_line(socket, &submitted_line(ticket.job, ticket.queued)).is_err() {
                    return false;
                }
                if stream {
                    return pump_events(service, socket, ticket.job);
                }
                true
            }
            Err(SubmitError::QueueFull { retry_after_ms }) => {
                write_line(socket, &queue_full_line(retry_after_ms)).is_ok()
            }
        },
        Request::Results { job, label, tenant } => {
            let resolved = job.or_else(|| {
                label
                    .as_deref()
                    .and_then(|l| service.find_job(tenant.as_deref(), l))
            });
            match resolved {
                Some(id) => pump_events(service, socket, id),
                None => {
                    let err = ProtocolError {
                        kind: "unknown_job",
                        detail: "no such job".to_string(),
                    };
                    write_line(socket, &error_line(&err)).is_ok()
                }
            }
        }
        Request::Cancel { job } => {
            if service.cancel(job) {
                write_line(
                    socket,
                    &format!("{{\"ok\":true,\"type\":\"cancelling\",\"job\":{job}}}"),
                )
                .is_ok()
            } else {
                let err = ProtocolError {
                    kind: "unknown_job",
                    detail: "no such live job".to_string(),
                };
                write_line(socket, &error_line(&err)).is_ok()
            }
        }
        Request::Shutdown => {
            let _ = write_line(socket, "{\"ok\":true,\"type\":\"shutdown\"}");
            service.request_shutdown();
            wake_accept(listener);
            false
        }
    }
}

/// Streams a job's events (history replay + live) to the socket until the
/// terminal event or a client disconnect.
fn pump_events(service: &Arc<Service>, socket: &mut TcpStream, job: u64) -> bool {
    let Some(rx) = service.subscribe(job) else {
        let err = ProtocolError {
            kind: "unknown_job",
            detail: "no such job".to_string(),
        };
        return write_line(socket, &error_line(&err)).is_ok();
    };
    for event in rx {
        let terminal = !event.contains("\"type\":\"die\"");
        if write_line(socket, &event).is_err() {
            return false;
        }
        if terminal {
            return true;
        }
    }
    // Channel closed without a terminal event: the service shut down
    // mid-job (state was checkpointed). Tell the client explicitly.
    let err = ProtocolError {
        kind: "bad_request",
        detail: "service shut down before the job finished; resubmit or reattach after restart"
            .to_string(),
    };
    let _ = write_line(socket, &error_line(&err));
    false
}
