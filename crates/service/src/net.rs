//! The server side of `twl-wire/v1`, and the connection-robustness
//! helpers every TCP daemon in the workspace shares (`twl-serviced`,
//! `twl-coordinator`, `twl-blockd`).
//!
//! [`serve`] is the one `twl-wire/v1` connection loop. A daemon plugs
//! in a [`WireHandler`] for what differs between daemons; the loop owns
//! the contract they all keep:
//!
//! * a frame or decode error (oversized, truncated, non-UTF-8,
//!   non-JSON, unknown `type`) earns a best-effort `error` frame and
//!   closes *that connection only*;
//! * so does a `hello` in another protocol version;
//! * a well-formed request the daemon does not serve gets a shared
//!   "`<type>` is not served by `<daemon>`" error and the connection
//!   stays open;
//! * `shutdown` is answered before the accept loop is woken, so `run()`
//!   cannot return before the reply is out.
//!
//! Three hazards recur in any accept-loop server, whatever its wire
//! format:
//!
//! * **Nagle plus delayed ACK** — a request/response protocol whose
//!   messages are small leaves each one waiting for the peer's delayed
//!   ACK (~40 ms) unless `TCP_NODELAY` is set. [`prepare_stream`] sets
//!   it on every socket, accepted or dialed.
//! * **Half-open peers** — a client that stalls mid-request (or never
//!   sends one) would pin a connection thread forever. The fix is a
//!   per-connection read deadline: [`prepare_stream`] arms it and
//!   [`is_idle_timeout`] recognizes its expiry, which surfaces as
//!   `WouldBlock` or `TimedOut` depending on the platform.
//! * **Hostile length prefixes** — a frame header declaring a huge
//!   payload must be refused *before* the payload buffer is allocated,
//!   or a single bogus header forces an arbitrary allocation.
//!   [`guard_frame_len`] is that check, shared by the `twl-wire/v1`
//!   JSON framing and the NBD request reader.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use twl_telemetry::counter;
use twl_telemetry::json::Json;

use crate::framing::{read_frame, write_frame, FrameError};
use crate::queue::JobQueue;
use crate::wire::{Request, Response, PROTOCOL};

/// What one daemon adds to the shared [`serve`] loop. The loop answers
/// `hello`, `metrics` and `shutdown` through the hooks below and hands
/// every other request to [`WireHandler::respond`].
pub trait WireHandler: Send + Sync + 'static {
    /// The daemon's name in error messages (`twl-serviced`, ...).
    fn name(&self) -> &'static str;

    /// The `run_cell` parallelism advertised in `hello_ok`.
    fn slots(&self) -> Option<u64> {
        None
    }

    /// Answers a request other than `hello`, `metrics` or `shutdown`;
    /// `None` means the daemon does not serve it.
    fn respond(&self, request: Request) -> Option<Reply<'_>>;

    /// The Prometheus page a `metrics` request returns.
    fn metrics(&self) -> String;

    /// Runs the shutdown side effects and returns the reply. The loop
    /// writes it, then wakes the accept loop, which then sees
    /// [`WireHandler::shutting_down`].
    fn shutdown(&self) -> Response;

    /// Whether the accept loop should stop.
    fn shutting_down(&self) -> bool;
}

/// A [`WireHandler::respond`] answer.
pub enum Reply<'a> {
    /// One response frame.
    Frame(Response),
    /// The events and final frame of one job in `queue`.
    Stream(&'a JobQueue, u64),
}

/// Serves `twl-wire/v1` on `listener` until `handler` reports shutting
/// down: one thread per connection, each prepared with the `idle` read
/// deadline.
///
/// # Errors
///
/// Propagates the failure to query the listener's address.
pub fn serve<H: WireHandler>(
    listener: &TcpListener,
    idle: Option<Duration>,
    handler: &Arc<H>,
) -> io::Result<()> {
    let wake = listener.local_addr()?;
    for stream in listener.incoming() {
        if handler.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        counter!("twl.wire.connections").inc();
        // Best effort: a socket that keeps the OS defaults still serves.
        let _ = prepare_stream(&stream, idle);
        let handler = Arc::clone(handler);
        thread::spawn(move || serve_connection(&stream, handler.as_ref(), wake));
    }
    Ok(())
}

/// Writes one response. One too large for a frame goes out as an
/// `error` frame naming its size instead, so the peer learns why and
/// the connection keeps serving.
fn send(mut stream: &TcpStream, response: &Response) -> io::Result<()> {
    let frame = response.to_json();
    match write_frame(&mut stream, &frame) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let kind = frame.get("type").and_then(Json::as_str).unwrap_or("reply");
            write_frame(
                &mut stream,
                &error(format!("{kind} not sent: {e}")).to_json(),
            )
        }
        sent => sent,
    }
}

fn error(message: String) -> Response {
    Response::Error { message }
}

/// Serves one connection until it closes, violates the protocol, or
/// sits idle past the deadline.
fn serve_connection(stream: &TcpStream, handler: &impl WireHandler, wake: SocketAddr) {
    let mut reader = stream;
    loop {
        let request = match read_frame(&mut reader) {
            Ok(frame) => Request::from_json(&frame).map_err(|e| format!("bad request: {e}")),
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(e)) => {
                if is_idle_timeout(&e) {
                    counter!("twl.wire.idle_timeouts").inc();
                    let _ = send(
                        stream,
                        &error("idle timeout: closing connection".to_owned()),
                    );
                }
                return;
            }
            Err(e) => Err(format!("protocol error: {e}")),
        };
        let response = match request {
            Err(message) => {
                counter!("twl.wire.protocol_errors").inc();
                let _ = send(stream, &error(message));
                return;
            }
            Ok(Request::Hello { proto }) if proto == PROTOCOL => Response::HelloOk {
                proto,
                slots: handler.slots(),
            },
            Ok(Request::Hello { proto }) => {
                counter!("twl.wire.protocol_errors").inc();
                let daemon = handler.name();
                let message = format!(
                    "protocol version mismatch: {daemon} speaks {PROTOCOL}, client spoke {proto}"
                );
                let _ = send(stream, &error(message));
                return;
            }
            Ok(Request::Metrics) => Response::MetricsOk {
                text: handler.metrics(),
            },
            Ok(Request::Shutdown) => {
                let _ = send(stream, &handler.shutdown());
                // Reply first: once woken, the accept loop may return.
                let _ = TcpStream::connect(wake);
                return;
            }
            Ok(request) => {
                let kind = request.type_name();
                match handler.respond(request) {
                    Some(Reply::Frame(response)) => response,
                    Some(Reply::Stream(queue, job_id)) => {
                        if stream_job(stream, queue, job_id).is_err() {
                            return;
                        }
                        continue;
                    }
                    None => error(format!("{kind} is not served by {}", handler.name())),
                }
            }
        };
        if send(stream, &response).is_err() {
            return;
        }
    }
}

/// Streams one job's events and final frame.
fn stream_job(stream: &TcpStream, queue: &JobQueue, job_id: u64) -> io::Result<()> {
    let mut cursor = 0;
    loop {
        let Some((events, next_cursor, done)) = queue.next_events(job_id, cursor) else {
            return send(stream, &error(format!("unknown job {job_id}")));
        };
        cursor = next_cursor;
        for event in events {
            send(stream, &Response::Event { job_id, event })?;
        }
        if let Some(finished) = done {
            let final_frame = match finished.result {
                Some(result) => Response::JobResult { job_id, result },
                None => Response::JobFailed {
                    job_id,
                    error: finished
                        .error
                        .unwrap_or_else(|| finished.status.label().to_owned()),
                },
            };
            return send(stream, &final_frame);
        }
    }
}

/// The idle deadline `ms` milliseconds buys; `None` when disabled (0).
#[must_use]
pub fn idle_deadline(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Readies a connection for request/response traffic: sets
/// `TCP_NODELAY` and arms the read deadline (`None` leaves reads
/// unbounded). Every `twl-wire/v1` and NBD socket goes through here,
/// accepted and dialed alike.
///
/// # Errors
///
/// Propagates the OS refusing an option. Daemons ignore it: a socket
/// that keeps the OS defaults is slower or reaped later, but it still
/// serves.
pub fn prepare_stream(stream: &TcpStream, idle: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(idle)
}

/// Whether an I/O error is a read-timeout expiry (the idle-connection
/// deadline) rather than a real transport failure.
#[must_use]
pub fn is_idle_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Validates a frame's declared payload length against a protocol
/// ceiling, *before* any allocation. Returns the length as a `usize`
/// on success and the offending length on refusal.
///
/// # Errors
///
/// Returns `Err(len)` when the declared length exceeds `max`.
pub fn guard_frame_len(len: u64, max: usize) -> Result<usize, usize> {
    let as_usize = usize::try_from(len).map_err(|_| usize::MAX)?;
    if as_usize > max {
        return Err(as_usize);
    }
    Ok(as_usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_none_when_disabled() {
        assert_eq!(idle_deadline(0), None);
        assert_eq!(idle_deadline(250), Some(Duration::from_millis(250)));
    }

    #[test]
    fn prepared_streams_skip_nagle_and_carry_the_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        for (stream, idle) in [(&dialed, None), (&accepted, idle_deadline(250))] {
            prepare_stream(stream, idle).unwrap();
            assert!(stream.nodelay().unwrap());
            // The kernel rounds a deadline up to its clock tick.
            let armed = stream.read_timeout().unwrap();
            assert_eq!(armed.is_some(), idle.is_some());
            assert!(armed >= idle, "deadline {armed:?} is shorter than {idle:?}");
        }
    }

    #[test]
    fn timeout_kinds_are_recognized() {
        assert!(is_idle_timeout(&io::Error::from(io::ErrorKind::WouldBlock)));
        assert!(is_idle_timeout(&io::Error::from(io::ErrorKind::TimedOut)));
        assert!(!is_idle_timeout(&io::Error::from(
            io::ErrorKind::ConnectionReset
        )));
    }

    #[test]
    fn frame_guard_accepts_up_to_the_ceiling() {
        assert_eq!(guard_frame_len(0, 16), Ok(0));
        assert_eq!(guard_frame_len(16, 16), Ok(16));
        assert_eq!(guard_frame_len(17, 16), Err(17));
        assert_eq!(guard_frame_len(u64::MAX, 16), Err(usize::MAX));
    }
}
