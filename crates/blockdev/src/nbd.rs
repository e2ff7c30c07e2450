//! The NBD wire subset `twl-blockd` speaks: the newstyle-fixed
//! handshake and the simple-reply transmission phase.
//!
//! Implemented from the protocol document shipped with nbd (the
//! `doc/proto.md` of the reference implementation):
//!
//! * **Handshake (newstyle-fixed):** server greets with `NBDMAGIC`,
//!   `IHAVEOPT`, and 16-bit handshake flags; the client answers with
//!   32-bit client flags and then haggles options. `twl-blockd` serves
//!   `NBD_OPT_EXPORT_NAME` (enter transmission) and `NBD_OPT_ABORT`
//!   (acknowledged close); every other option gets
//!   `NBD_REP_ERR_UNSUP`, which is exactly what lets fixed-newstyle
//!   clients (including the kernel's `nbd-client`) fall back to
//!   `EXPORT_NAME`.
//! * **Transmission:** 28-byte requests (`READ`/`WRITE`/`FLUSH`/
//!   `TRIM`/`DISC`), 16-byte simple replies carrying POSIX errno
//!   values. Structured replies are not offered.
//!
//! Robustness contract (shared with the `twl-wire` framing): a bad
//! magic, truncated header, or oversized declared payload is a
//! protocol error that costs that connection only — and the oversized
//! check runs *before* the payload buffer is allocated, via the same
//! [`twl_service::net::guard_frame_len`] guard the JSON daemons use.

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

use twl_service::net::guard_frame_len;

/// `"NBDMAGIC"`, the first 8 bytes a server sends.
pub const NBDMAGIC: u64 = 0x4e42_444d_4147_4943;
/// `"IHAVEOPT"`, the newstyle handshake magic and option-request magic.
pub const IHAVEOPT: u64 = 0x4948_4156_454f_5054;
/// Magic leading every option reply.
pub const OPT_REPLY_MAGIC: u64 = 0x0003_e889_0455_65a9;
/// Magic leading every transmission request.
pub const REQUEST_MAGIC: u32 = 0x2560_9513;
/// Magic leading every simple reply.
pub const SIMPLE_REPLY_MAGIC: u32 = 0x6744_6698;

/// Handshake flag: the server speaks fixed newstyle.
pub const FLAG_FIXED_NEWSTYLE: u16 = 1 << 0;
/// Handshake flag: the server can omit the 124 zero bytes after
/// `EXPORT_NAME`.
pub const FLAG_NO_ZEROES: u16 = 1 << 1;

/// Option: enter transmission on the named export.
pub const OPT_EXPORT_NAME: u32 = 1;
/// Option: abort the handshake cleanly.
pub const OPT_ABORT: u32 = 2;
/// Option reply: acknowledged.
pub const REP_ACK: u32 = 1;
/// Option reply: option not supported (fixed-newstyle fallback driver).
pub const REP_ERR_UNSUP: u32 = (1 << 31) | 1;

/// Transmission flag: this field is valid (always set).
pub const TFLAG_HAS_FLAGS: u16 = 1 << 0;
/// Transmission flag: the export serves `FLUSH`.
pub const TFLAG_SEND_FLUSH: u16 = 1 << 2;
/// Transmission flag: the export serves `TRIM`.
pub const TFLAG_SEND_TRIM: u16 = 1 << 5;

/// Command: read `len` bytes at `offset`.
pub const CMD_READ: u16 = 0;
/// Command: write the `len`-byte payload at `offset`.
pub const CMD_WRITE: u16 = 1;
/// Command: disconnect (no reply).
pub const CMD_DISC: u16 = 2;
/// Command: flush to stable storage.
pub const CMD_FLUSH: u16 = 3;
/// Command: discard a range.
pub const CMD_TRIM: u16 = 4;

/// Reply error: I/O error.
pub const EIO: u32 = 5;
/// Reply error: invalid request (bad range, unknown command).
pub const EINVAL: u32 = 22;
/// Reply error: no space — the wear pipeline's spare pool is exhausted
/// (graceful-degradation end of life).
pub const ENOSPC: u32 = 28;

/// Ceiling on a request's declared payload/read length (32 MiB, the
/// conventional NBD maximum). Checked before any allocation.
pub const MAX_IO_BYTES: usize = 32 * 1024 * 1024;

/// Why an NBD exchange failed.
#[derive(Debug)]
pub enum NbdError {
    /// The peer closed the connection at a message boundary.
    Closed,
    /// The peer violated the protocol (bad magic, oversized length,
    /// handshake mismatch). Costs the connection.
    Protocol(String),
    /// The server answered a request with a non-zero errno.
    Server {
        /// The POSIX errno from the simple reply.
        errno: u32,
    },
    /// A transport error.
    Io(io::Error),
}

impl fmt::Display for NbdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
            Self::Server { errno } => write!(f, "server error {errno}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for NbdError {}

impl From<io::Error> for NbdError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Self::Closed
        } else {
            Self::Io(e)
        }
    }
}

pub(crate) fn read_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_be_bytes(b))
}

pub(crate) fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_be_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_be_bytes(b))
}

/// One transmission-phase request, payload included for `WRITE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Command flags (none are honored by this subset).
    pub flags: u16,
    /// The command (`CMD_*`).
    pub cmd: u16,
    /// The client's correlation handle, echoed in the reply.
    pub handle: u64,
    /// Byte offset into the export.
    pub offset: u64,
    /// Byte length of the operation.
    pub len: u32,
    /// The payload (`WRITE` only; empty otherwise).
    pub data: Vec<u8>,
}

/// Reads one transmission request.
///
/// # Errors
///
/// [`NbdError::Closed`] on EOF at the request boundary,
/// [`NbdError::Protocol`] on a bad magic or a `WRITE` declaring more
/// than [`MAX_IO_BYTES`] (refused before allocating the payload), and
/// [`NbdError::Io`] on transport failures.
pub fn read_request(r: &mut impl Read) -> Result<Request, NbdError> {
    let mut magic = [0u8; 4];
    let n = r.read(&mut magic)?;
    if n == 0 {
        return Err(NbdError::Closed);
    }
    r.read_exact(magic.get_mut(n..).unwrap_or_default())
        .map_err(|_| NbdError::Protocol("truncated request header".into()))?;
    if u32::from_be_bytes(magic) != REQUEST_MAGIC {
        return Err(NbdError::Protocol(format!(
            "bad request magic {:#010x}",
            u32::from_be_bytes(magic)
        )));
    }
    let flags = read_u16(r)?;
    let cmd = read_u16(r)?;
    let handle = read_u64(r)?;
    let offset = read_u64(r)?;
    let len = read_u32(r)?;
    let mut data = Vec::new();
    if cmd == CMD_WRITE {
        let payload = guard_frame_len(u64::from(len), MAX_IO_BYTES)
            .map_err(|len| NbdError::Protocol(format!("write payload of {len} bytes refused")))?;
        data = vec![0u8; payload];
        r.read_exact(&mut data)
            .map_err(|_| NbdError::Protocol("truncated write payload".into()))?;
    }
    Ok(Request {
        flags,
        cmd,
        handle,
        offset,
        len,
        data,
    })
}

/// Writes one simple reply; `data` rides along only on a successful
/// `READ`.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_simple_reply(
    w: &mut impl Write,
    handle: u64,
    errno: u32,
    data: &[u8],
) -> io::Result<()> {
    w.write_all(&SIMPLE_REPLY_MAGIC.to_be_bytes())?;
    w.write_all(&errno.to_be_bytes())?;
    w.write_all(&handle.to_be_bytes())?;
    if errno == 0 && !data.is_empty() {
        w.write_all(data)?;
    }
    w.flush()
}

/// Serves the newstyle-fixed handshake on a fresh connection: greeting,
/// client flags, then the option haggle. Returns `true` when the client
/// entered transmission via `EXPORT_NAME` (any name is served — the
/// daemon exposes a single export) and `false` on a clean `ABORT`.
///
/// # Errors
///
/// [`NbdError::Protocol`] on a bad option magic or an oversized option
/// payload (checked before allocation); transport errors pass through.
pub fn server_handshake(
    stream: &mut (impl Read + Write),
    export_bytes: u64,
) -> Result<bool, NbdError> {
    stream.write_all(&NBDMAGIC.to_be_bytes())?;
    stream.write_all(&IHAVEOPT.to_be_bytes())?;
    stream.write_all(&(FLAG_FIXED_NEWSTYLE | FLAG_NO_ZEROES).to_be_bytes())?;
    stream.flush()?;
    let client_flags = read_u32(stream)?;
    let no_zeroes = client_flags & u32::from(FLAG_NO_ZEROES) != 0;
    loop {
        let magic = read_u64(stream)?;
        if magic != IHAVEOPT {
            return Err(NbdError::Protocol(format!(
                "bad option magic {magic:#018x}"
            )));
        }
        let option = read_u32(stream)?;
        let len = read_u32(stream)?;
        // Option payloads are names and tiny structs; anything past the
        // frame ceiling is hostile. Refused before allocation.
        let len = guard_frame_len(u64::from(len), twl_service::MAX_FRAME_BYTES)
            .map_err(|len| NbdError::Protocol(format!("option payload of {len} bytes refused")))?;
        let mut payload = vec![0u8; len];
        stream
            .read_exact(&mut payload)
            .map_err(|_| NbdError::Protocol("truncated option payload".into()))?;
        match option {
            OPT_EXPORT_NAME => {
                // Any export name is served; the daemon has one export.
                stream.write_all(&export_bytes.to_be_bytes())?;
                stream.write_all(
                    &(TFLAG_HAS_FLAGS | TFLAG_SEND_FLUSH | TFLAG_SEND_TRIM).to_be_bytes(),
                )?;
                if !no_zeroes {
                    stream.write_all(&[0u8; 124])?;
                }
                stream.flush()?;
                return Ok(true);
            }
            OPT_ABORT => {
                write_option_reply(stream, option, REP_ACK)?;
                return Ok(false);
            }
            _ => write_option_reply(stream, option, REP_ERR_UNSUP)?,
        }
    }
}

/// Writes an option reply with an empty payload, the only kind sent.
fn write_option_reply(w: &mut impl Write, option: u32, reply: u32) -> io::Result<()> {
    w.write_all(&OPT_REPLY_MAGIC.to_be_bytes())?;
    w.write_all(&option.to_be_bytes())?;
    w.write_all(&reply.to_be_bytes())?;
    w.write_all(&0u32.to_be_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_codec_round_trips_a_write() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&CMD_WRITE.to_be_bytes());
        bytes.extend_from_slice(&7u64.to_be_bytes());
        bytes.extend_from_slice(&4096u64.to_be_bytes());
        bytes.extend_from_slice(&4u32.to_be_bytes());
        bytes.extend_from_slice(b"data");
        let req = read_request(&mut bytes.as_slice()).unwrap();
        assert_eq!(req.cmd, CMD_WRITE);
        assert_eq!(req.handle, 7);
        assert_eq!(req.offset, 4096);
        assert_eq!(req.data, b"data");
    }

    #[test]
    fn bad_magic_is_a_protocol_error() {
        let bytes = 0xdead_beefu32.to_be_bytes();
        assert!(matches!(
            read_request(&mut bytes.as_slice()),
            Err(NbdError::Protocol(_))
        ));
    }

    #[test]
    fn eof_at_the_boundary_is_closed() {
        assert!(matches!(
            read_request(&mut [].as_slice()),
            Err(NbdError::Closed)
        ));
    }

    #[test]
    fn oversized_write_is_refused_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&CMD_WRITE.to_be_bytes());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&0u64.to_be_bytes());
        let len = u32::try_from(MAX_IO_BYTES + 1).unwrap();
        bytes.extend_from_slice(&len.to_be_bytes());
        // No payload follows — the length alone must reject it.
        assert!(matches!(
            read_request(&mut bytes.as_slice()),
            Err(NbdError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_read_length_is_allowed_at_the_codec() {
        // READ carries no payload, so the codec accepts any declared
        // length; the server bounds it against the export instead.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&CMD_READ.to_be_bytes());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_request(&mut bytes.as_slice()).is_ok());
    }
}
