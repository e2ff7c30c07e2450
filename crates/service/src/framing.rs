//! Length-prefixed JSON framing for the `twl-wire` protocol.
//!
//! Every frame on the wire is a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 encoded compact JSON. The
//! length prefix makes message boundaries explicit, so a reader can
//! tell a cleanly closed connection ([`FrameError::Closed`]) from one
//! that died mid-frame ([`FrameError::Truncated`]), and can refuse an
//! absurd length ([`FrameError::Oversized`]) *before* allocating or
//! reading the payload.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::fmt;
use std::io::{self, Read, Write};

use twl_telemetry::json::Json;

use crate::net::guard_frame_len;

/// Hard ceiling on a single frame's payload (4 MiB). Large matrix
/// results stay well under this; anything bigger is a protocol error.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The connection ended mid-header or mid-payload.
    Truncated,
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared payload length.
        len: usize,
    },
    /// The payload is not valid UTF-8.
    Utf8,
    /// The payload is not valid JSON.
    Json(String),
    /// An I/O error other than EOF.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Truncated => write!(f, "connection closed mid-frame"),
            Self::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                )
            }
            Self::Utf8 => write!(f, "frame payload is not UTF-8"),
            Self::Json(e) => write!(f, "frame payload is not JSON: {e}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame and flushes the stream.
///
/// Header and payload leave in a single `write_all`: on a TCP socket,
/// two small writes per frame meet Nagle's algorithm on one side and
/// the peer's delayed ACK on the other, which stalls every request by
/// ~40 ms (see also [`crate::net::prepare_stream`]).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer. A frame whose
/// payload exceeds [`MAX_FRAME_BYTES`] is an [`io::ErrorKind::InvalidData`]
/// error wrapping [`FrameError::Oversized`], and nothing is written.
pub fn write_frame(w: &mut impl Write, frame: &Json) -> io::Result<()> {
    let payload = frame.to_compact();
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|_| bytes.len() <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::Oversized { len: bytes.len() },
            )
        })?;
    let mut wire = Vec::with_capacity(4 + bytes.len());
    wire.extend_from_slice(&len.to_be_bytes());
    wire.extend_from_slice(bytes);
    w.write_all(&wire)?;
    w.flush()
}

/// Reads until `buf` is full or EOF; returns the number of bytes read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads one frame.
///
/// # Errors
///
/// Returns [`FrameError::Closed`] on clean EOF before any header byte,
/// and the other variants for truncated, oversized, or malformed
/// payloads. The oversized check happens before the payload is read, so
/// a hostile length prefix cannot force a large allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Json, FrameError> {
    let mut header = [0u8; 4];
    match fill(r, &mut header) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) if n < header.len() => return Err(FrameError::Truncated),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = guard_frame_len(u64::from(u32::from_be_bytes(header)), MAX_FRAME_BYTES)
        .map_err(|len| FrameError::Oversized { len })?;
    let mut payload = vec![0u8; len];
    match fill(r, &mut payload) {
        Ok(n) if n < len => return Err(FrameError::Truncated),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    let text = String::from_utf8(payload).map_err(|_| FrameError::Utf8)?;
    Json::parse(&text).map_err(FrameError::Json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_telemetry::json::{int, str};

    #[test]
    fn frames_round_trip() {
        let frame = Json::obj([("type", str("hello")), ("n", int(7))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, frame);
    }

    /// Counts `write` calls: a frame that leaves in more than one
    /// meets Nagle's algorithm and the peer's delayed ACK on TCP.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_of_header_and_payload() {
        let mut w = CountingWriter::default();
        for (i, frame) in [
            Json::obj([]),
            Json::obj([("type", str("status")), ("job_id", int(7))]),
            str(&"é".repeat(70_000)),
        ]
        .iter()
        .enumerate()
        {
            let before = w.bytes.len();
            write_frame(&mut w, frame).unwrap();
            assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
            let payload = frame.to_compact();
            let len = u32::try_from(payload.len()).unwrap();
            assert_eq!(
                w.bytes[before..],
                [&len.to_be_bytes()[..], payload.as_bytes()].concat()[..]
            );
        }
    }

    /// A real 28-cell `degradation_matrix` result — the largest frame
    /// the fleet sends — survives framing and parsing byte for byte.
    #[test]
    fn degradation_matrix_result_round_trips_byte_for_byte() {
        use crate::job::{encode_result, JobKind, JobSpec};
        use twl_attacks::AttackKind;
        use twl_faults::FaultConfig;
        use twl_lifetime::{SchemeKind, SimLimits};
        use twl_pcm::PcmConfig;

        let spec = JobSpec {
            kind: JobKind::DegradationMatrix,
            pcm: PcmConfig::scaled(128, 500, 21),
            limits: SimLimits::default(),
            schemes: SchemeKind::ALL.iter().map(|&k| k.into()).collect(),
            attacks: AttackKind::ALL.iter().map(|&a| a.into()).collect(),
            benchmarks: vec![],
            fault: Some(FaultConfig {
                seed: 21,
                ..FaultConfig::default()
            }),
        };
        assert_eq!(spec.cell_count(), 28);
        let result = encode_result(spec.kind, (0..28).map(|i| spec.run_cell(i).0).collect());
        let text = result.to_compact();
        let mut buf = Vec::new();
        write_frame(&mut buf, &result).unwrap();
        assert_eq!(&buf[4..], text.as_bytes());
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, result);
        assert_eq!(back.to_compact(), text);
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn partial_header_is_truncated() {
        let partial: &[u8] = &[0, 0];
        assert!(matches!(
            read_frame(&mut { partial }),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn partial_payload_is_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj([("type", str("hello"))])).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_reading() {
        let mut buf = Vec::new();
        let len = u32::try_from(MAX_FRAME_BYTES + 1).unwrap();
        buf.extend_from_slice(&len.to_be_bytes());
        // No payload follows — the length check alone must reject it.
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_outgoing_frame_is_an_error_and_writes_nothing() {
        let frame = str(&"x".repeat(MAX_FRAME_BYTES));
        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let len = MAX_FRAME_BYTES + 2;
        assert_eq!(
            err.to_string(),
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
        );
        assert_eq!((w.writes, w.bytes.len()), (0, 0));
    }

    #[test]
    fn non_utf8_and_non_json_are_distinguished() {
        let mut bad_utf8 = Vec::new();
        bad_utf8.extend_from_slice(&2u32.to_be_bytes());
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            read_frame(&mut bad_utf8.as_slice()),
            Err(FrameError::Utf8)
        ));

        let mut bad_json = Vec::new();
        bad_json.extend_from_slice(&3u32.to_be_bytes());
        bad_json.extend_from_slice(b"{{{");
        assert!(matches!(
            read_frame(&mut bad_json.as_slice()),
            Err(FrameError::Json(_))
        ));
    }
}
