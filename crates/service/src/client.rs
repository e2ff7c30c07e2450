//! The `twl-wire/v1` client used by `twl-ctl`, the fleet coordinator,
//! and the integration tests.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime};

use twl_telemetry::json::Json;

use crate::framing::{read_frame, write_frame, FrameError};
use crate::job::JobSpec;
use crate::net::prepare_stream;
use crate::wire::{JobEvent, JobSnapshot, Request, Response, PROTOCOL};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or talk to the daemon.
    Io(io::Error),
    /// The daemon's frame could not be read.
    Frame(FrameError),
    /// The daemon answered with the wrong frame type.
    Protocol(String),
    /// The daemon reported an error.
    Remote(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Frame(e) => write!(f, "bad frame from daemon: {e}"),
            Self::Protocol(m) => write!(f, "unexpected response: {m}"),
            Self::Remote(m) => write!(f, "daemon error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

/// Ceiling on one backoff sleep; past this the window stops doubling.
pub const BACKOFF_CAP_MS: u64 = 30_000;

/// A non-zero seed for the backoff jitter, decorrelated across
/// processes by mixing the clock with the process id.
fn jitter_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0x9e37_79b9, |d| d.subsec_nanos());
    (u64::from(nanos) << 17) ^ u64::from(std::process::id()) | 1
}

/// The sleep before retry `attempt` (0-based): never below the
/// server's `retry-after` hint, jittered uniformly up to an
/// exponentially growing ceiling (`hint * 2^attempt`, capped at
/// [`BACKOFF_CAP_MS`]) via a xorshift step of `seed`.
fn backoff_delay(attempt: u32, retry_after_ms: u64, seed: &mut u64) -> Duration {
    let hint = retry_after_ms.clamp(1, BACKOFF_CAP_MS);
    let ceiling = hint
        .saturating_mul(1u64 << attempt.min(16))
        .min(BACKOFF_CAP_MS)
        .max(hint);
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    Duration::from_millis(hint + *seed % (ceiling - hint + 1))
}

/// What a submit produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// The job was queued under this id.
    Accepted(u64),
    /// Backpressure: try again after the hint.
    Rejected {
        /// Why the job was refused.
        reason: String,
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
}

/// What one `run_cell` dispatch produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell ran; here is its encoded report and write count.
    Done {
        /// The encoded cell report.
        report: Json,
        /// Device writes the cell absorbed.
        device_writes: u64,
    },
    /// Every cell slot on the daemon is busy; try again later.
    Saturated {
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
}

/// A connected, handshaken client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    slots: Option<u64>,
}

impl Client {
    /// Connects and performs the `hello` handshake.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, a protocol-version mismatch, or a
    /// non-handshake reply.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with_timeouts(addr, None, None)
    }

    /// Connects with explicit connect and read deadlines, so a client
    /// survives a dead coordinator or worker instead of hanging. A
    /// `None` timeout blocks indefinitely (the pre-fleet behaviour).
    ///
    /// # Errors
    ///
    /// Fails on connection errors (including a connect-timeout expiry),
    /// a protocol-version mismatch, or a non-handshake reply.
    pub fn connect_with_timeouts(
        addr: &str,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let stream = match connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                // connect_timeout needs a resolved SocketAddr; try each
                // resolution until one answers within the deadline.
                let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved");
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, limit) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = e,
                    }
                }
                connected.ok_or(last)?
            }
        };
        prepare_stream(&stream, read_timeout)?;
        let mut client = Self {
            stream,
            slots: None,
        };
        client.send(&Request::Hello {
            proto: PROTOCOL.to_owned(),
        })?;
        match client.recv()? {
            Response::HelloOk { slots, .. } => {
                client.slots = slots;
                Ok(client)
            }
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// The `run_cell` parallelism the daemon advertised in its
    /// handshake; `None` from daemons that predate the fleet protocol.
    #[must_use]
    pub fn slots(&self) -> Option<u64> {
        self.slots
    }

    /// Replaces the read deadline mid-session — e.g. disable it before
    /// a long [`Client::wait`] stream, or tighten it around a
    /// `run_cell` lease.
    ///
    /// # Errors
    ///
    /// Propagates the OS failure.
    pub fn set_read_timeout(&self, read_timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(read_timeout)?;
        Ok(())
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &request.to_json())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let frame = read_frame(&mut self.stream)?;
        Response::from_json(&frame).map_err(ClientError::Protocol)
    }

    /// Submits a job; backpressure comes back as
    /// [`SubmitOutcome::Rejected`], not an error.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, an invalid spec, or an unexpected
    /// reply.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<SubmitOutcome, ClientError> {
        self.send(&Request::Submit { spec: spec.clone() })?;
        match self.recv()? {
            Response::Submitted { job_id } => Ok(SubmitOutcome::Accepted(job_id)),
            Response::Rejected {
                reason,
                retry_after_ms,
            } => Ok(SubmitOutcome::Rejected {
                reason,
                retry_after_ms,
            }),
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Submits with bounded retries under backpressure, sleeping a
    /// jittered exponential backoff between attempts: the floor of each
    /// wait is the daemon's `retry-after` hint, the window doubles per
    /// attempt up to [`BACKOFF_CAP_MS`], and the actual sleep lands
    /// uniformly in the upper half of the window so a herd of rejected
    /// clients does not retry in lockstep.
    ///
    /// # Errors
    ///
    /// Fails like [`Client::submit`], or with [`ClientError::Remote`]
    /// once `max_attempts` rejections have been absorbed.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        max_attempts: u32,
    ) -> Result<u64, ClientError> {
        let mut last_reason = String::new();
        let mut jitter = jitter_seed();
        for attempt in 0..max_attempts.max(1) {
            match self.submit(spec)? {
                SubmitOutcome::Accepted(job_id) => return Ok(job_id),
                SubmitOutcome::Rejected {
                    reason,
                    retry_after_ms,
                } => {
                    last_reason = reason;
                    std::thread::sleep(backoff_delay(attempt, retry_after_ms, &mut jitter));
                }
            }
        }
        Err(ClientError::Remote(format!(
            "submit still rejected after {max_attempts} attempts: {last_reason}"
        )))
    }

    /// Dispatches exactly one matrix cell to the daemon and waits for
    /// its report — the fleet coordinator's worker call. Saturation
    /// (`rejected`) is an outcome, not an error; a read-timeout expiry
    /// surfaces as [`ClientError::Frame`] so the caller can treat the
    /// lease as broken.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, an invalid spec or cell index, or an
    /// unexpected reply.
    pub fn run_cell(&mut self, spec: &JobSpec, cell: u64) -> Result<CellOutcome, ClientError> {
        self.send(&Request::RunCell {
            spec: spec.clone(),
            cell,
        })?;
        match self.recv()? {
            Response::CellOk {
                cell: done,
                report,
                device_writes,
            } => {
                if done == cell {
                    Ok(CellOutcome::Done {
                        report,
                        device_writes,
                    })
                } else {
                    Err(ClientError::Protocol(format!(
                        "asked for cell {cell}, daemon ran cell {done}"
                    )))
                }
            }
            Response::Rejected { retry_after_ms, .. } => {
                Ok(CellOutcome::Saturated { retry_after_ms })
            }
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Registers a worker daemon with the coordinator this client is
    /// connected to; returns the registered address and the worker's
    /// advertised slot count.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a daemon that is not a coordinator,
    /// or an unexpected reply.
    pub fn register_worker(&mut self, addr: &str) -> Result<(String, u64), ClientError> {
        self.send(&Request::RegisterWorker {
            addr: addr.to_owned(),
        })?;
        match self.recv()? {
            Response::WorkerOk { addr, slots } => Ok((addr, slots)),
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Snapshots one job (or all jobs).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected reply.
    pub fn status(&mut self, job_id: Option<u64>) -> Result<Vec<JobSnapshot>, ClientError> {
        self.send(&Request::Status { job_id })?;
        match self.recv()? {
            Response::StatusOk { jobs } => Ok(jobs),
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Streams a job to completion, feeding each progress event to
    /// `on_event`, and returns the result document.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, an unknown job, or with
    /// [`ClientError::Remote`] when the job failed or was cancelled.
    pub fn wait(
        &mut self,
        job_id: u64,
        mut on_event: impl FnMut(&JobEvent),
    ) -> Result<Json, ClientError> {
        self.send(&Request::Stream { job_id })?;
        loop {
            match self.recv()? {
                Response::Event { event, .. } => on_event(&event),
                Response::JobResult { result, .. } => return Ok(result),
                Response::JobFailed { error, .. } => return Err(ClientError::Remote(error)),
                Response::Error { message } => return Err(ClientError::Remote(message)),
                other => return Err(ClientError::Protocol(format!("{other:?}"))),
            }
        }
    }

    /// Fetches the daemon's Prometheus text-format metrics page
    /// (registry counters/gauges/histograms plus per-job progress
    /// gauges).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected reply.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Metrics)?;
        match self.recv()? {
            Response::MetricsOk { text } => Ok(text),
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Asks the daemon to cancel a job; `false` means it had already
    /// finished.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, an unknown job, or an unexpected
    /// reply.
    pub fn cancel(&mut self, job_id: u64) -> Result<bool, ClientError> {
        self.send(&Request::Cancel { job_id })?;
        match self.recv()? {
            Response::CancelOk { cancelled, .. } => Ok(cancelled),
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShutdownOk => Ok(()),
            Response::Error { message } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_never_undercuts_the_hint_and_caps_out() {
        let mut seed = 0xdead_beefu64;
        for attempt in 0..24 {
            let hint = 500u64;
            let ceiling = hint
                .saturating_mul(1u64 << attempt.min(16))
                .min(BACKOFF_CAP_MS);
            let ms = u64::try_from(backoff_delay(attempt, hint, &mut seed).as_millis()).unwrap();
            assert!(ms >= hint, "attempt {attempt}: {ms}ms under the hint");
            assert!(
                ms <= ceiling.max(hint),
                "attempt {attempt}: {ms}ms over the {ceiling}ms ceiling"
            );
        }
    }

    #[test]
    fn backoff_jitter_actually_varies() {
        let mut seed = jitter_seed();
        let samples: Vec<u64> = (0..32)
            .map(|_| u64::try_from(backoff_delay(4, 100, &mut seed).as_millis()).unwrap())
            .collect();
        assert!(
            samples.windows(2).any(|w| w[0] != w[1]),
            "32 identical jittered delays: {samples:?}"
        );
    }

    #[test]
    fn zero_hint_still_sleeps_a_positive_bounded_time() {
        let mut seed = 7;
        let d = backoff_delay(0, 0, &mut seed);
        assert!(d >= Duration::from_millis(1));
        assert!(d <= Duration::from_millis(BACKOFF_CAP_MS));
    }
}
