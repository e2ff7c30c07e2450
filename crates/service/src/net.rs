//! Connection-robustness helpers shared by every TCP daemon in the
//! workspace (`twl-serviced`, `twl-coordinator`, `twl-blockd`).
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
use std::net::TcpStream;
use std::time::Duration;

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
