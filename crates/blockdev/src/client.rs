//! An in-process NBD client, plus the deterministic mixed-traffic
//! driver the integration tests and the CI smoke job share.
//!
//! The client speaks exactly the subset [`crate::nbd`] serves:
//! newstyle-fixed handshake with `NO_ZEROES`, `EXPORT_NAME` to enter
//! transmission, then synchronous request/simple-reply exchanges.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use twl_rng::{SimRng, Xoshiro256StarStar};

use crate::nbd::{
    self, read_u16, read_u32, read_u64, NbdError, CMD_DISC, CMD_FLUSH, CMD_READ, CMD_TRIM,
    CMD_WRITE,
};

/// A synchronous NBD client over one TCP connection.
pub struct NbdClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    export_bytes: u64,
    transmission_flags: u16,
    next_handle: u64,
}

impl NbdClient {
    /// Connects and completes the newstyle-fixed handshake, entering
    /// transmission on the server's (single) export.
    ///
    /// # Errors
    ///
    /// [`NbdError::Protocol`] when the peer is not a fixed-newstyle NBD
    /// server; transport errors pass through.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NbdError> {
        let stream = TcpStream::connect(addr).map_err(NbdError::Io)?;
        let _ = twl_service::prepare_stream(&stream, None);
        let reader_half = stream.try_clone().map_err(NbdError::Io)?;
        let mut reader = BufReader::new(reader_half);
        let mut writer = BufWriter::new(stream);
        if read_u64(&mut reader)? != nbd::NBDMAGIC {
            return Err(NbdError::Protocol("bad server magic".into()));
        }
        if read_u64(&mut reader)? != nbd::IHAVEOPT {
            return Err(NbdError::Protocol("server is not newstyle".into()));
        }
        let handshake_flags = read_u16(&mut reader)?;
        if handshake_flags & nbd::FLAG_FIXED_NEWSTYLE == 0 {
            return Err(NbdError::Protocol("server is not fixed-newstyle".into()));
        }
        let no_zeroes = handshake_flags & nbd::FLAG_NO_ZEROES != 0;
        let client_flags = u32::from(nbd::FLAG_FIXED_NEWSTYLE)
            | if no_zeroes {
                u32::from(nbd::FLAG_NO_ZEROES)
            } else {
                0
            };
        writer
            .write_all(&client_flags.to_be_bytes())
            .map_err(NbdError::Io)?;
        // EXPORT_NAME with the default (empty) export enters
        // transmission directly; there is no option reply to parse.
        writer
            .write_all(&nbd::IHAVEOPT.to_be_bytes())
            .map_err(NbdError::Io)?;
        writer
            .write_all(&nbd::OPT_EXPORT_NAME.to_be_bytes())
            .map_err(NbdError::Io)?;
        writer
            .write_all(&0u32.to_be_bytes())
            .map_err(NbdError::Io)?;
        writer.flush().map_err(NbdError::Io)?;
        let export_bytes = read_u64(&mut reader)?;
        let transmission_flags = read_u16(&mut reader)?;
        if !no_zeroes {
            let mut pad = [0u8; 124];
            reader.read_exact(&mut pad).map_err(NbdError::from)?;
        }
        Ok(Self {
            reader,
            writer,
            export_bytes,
            transmission_flags,
            next_handle: 1,
        })
    }

    /// The export size the server announced.
    #[must_use]
    pub fn export_bytes(&self) -> u64 {
        self.export_bytes
    }

    /// The transmission flags the server announced.
    #[must_use]
    pub fn transmission_flags(&self) -> u16 {
        self.transmission_flags
    }

    fn request(
        &mut self,
        cmd: u16,
        offset: u64,
        len: u32,
        payload: &[u8],
    ) -> Result<u64, NbdError> {
        let handle = self.next_handle;
        self.next_handle += 1;
        let w = &mut self.writer;
        w.write_all(&nbd::REQUEST_MAGIC.to_be_bytes())
            .map_err(NbdError::Io)?;
        w.write_all(&0u16.to_be_bytes()).map_err(NbdError::Io)?;
        w.write_all(&cmd.to_be_bytes()).map_err(NbdError::Io)?;
        w.write_all(&handle.to_be_bytes()).map_err(NbdError::Io)?;
        w.write_all(&offset.to_be_bytes()).map_err(NbdError::Io)?;
        w.write_all(&len.to_be_bytes()).map_err(NbdError::Io)?;
        w.write_all(payload).map_err(NbdError::Io)?;
        w.flush().map_err(NbdError::Io)?;
        Ok(handle)
    }

    fn reply(&mut self, handle: u64, read_len: usize) -> Result<Vec<u8>, NbdError> {
        if read_u32(&mut self.reader)? != nbd::SIMPLE_REPLY_MAGIC {
            return Err(NbdError::Protocol("bad reply magic".into()));
        }
        let errno = read_u32(&mut self.reader)?;
        let got = read_u64(&mut self.reader)?;
        if got != handle {
            return Err(NbdError::Protocol(format!(
                "reply handle {got} for request {handle}"
            )));
        }
        if errno != 0 {
            return Err(NbdError::Server { errno });
        }
        let mut data = vec![0u8; read_len];
        self.reader.read_exact(&mut data).map_err(NbdError::from)?;
        Ok(data)
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`NbdError::Server`] carries the server's errno; protocol and
    /// transport errors pass through.
    pub fn read(&mut self, offset: u64, len: u32) -> Result<Vec<u8>, NbdError> {
        let handle = self.request(CMD_READ, offset, len, &[])?;
        self.reply(handle, len as usize)
    }

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// As [`NbdClient::read`]; `ENOSPC` means the simulated device hit
    /// end of life.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), NbdError> {
        let len = u32::try_from(data.len())
            .map_err(|_| NbdError::Protocol("write longer than u32".into()))?;
        let handle = self.request(CMD_WRITE, offset, len, data)?;
        self.reply(handle, 0).map(|_| ())
    }

    /// Discards a range (reads back as zeroes).
    ///
    /// # Errors
    ///
    /// As [`NbdClient::read`].
    pub fn trim(&mut self, offset: u64, len: u32) -> Result<(), NbdError> {
        let handle = self.request(CMD_TRIM, offset, len, &[])?;
        self.reply(handle, 0).map(|_| ())
    }

    /// Flushes the export to stable storage (persists the daemon's
    /// state dir, when it has one).
    ///
    /// # Errors
    ///
    /// As [`NbdClient::read`].
    pub fn flush(&mut self) -> Result<(), NbdError> {
        let handle = self.request(CMD_FLUSH, 0, 0, &[])?;
        self.reply(handle, 0).map(|_| ())
    }

    /// Sends `DISC` and drops the connection. `DISC` has no reply.
    ///
    /// # Errors
    ///
    /// Transport errors on the final send.
    pub fn disconnect(mut self) -> Result<(), NbdError> {
        self.request(CMD_DISC, 0, 0, &[])?;
        Ok(())
    }
}

/// What a [`drive_mixed`] run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Writes acknowledged by the server.
    pub writes: u64,
    /// Reads served.
    pub reads: u64,
    /// Trims served.
    pub trims: u64,
    /// Flushes served.
    pub flushes: u64,
    /// Writes refused with `ENOSPC` (end of life).
    pub enospc: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
}

/// Drives `ops` operations of deterministic mixed traffic — roughly
/// 50 % writes, 30 % reads, 10 % trims, 10 % flushes, all 512-aligned —
/// through the client. The stream is a pure function of `seed` and the
/// export size, which is what lets the CI smoke job and the tests
/// re-derive the expected wear state by replaying the daemon's capture.
///
/// `ENOSPC` on a write is counted, not fatal: wearing the device out
/// mid-drive is a legitimate outcome for small exports.
///
/// # Errors
///
/// Any non-`ENOSPC` server error, or a protocol/transport failure.
pub fn drive_mixed(client: &mut NbdClient, ops: u64, seed: u64) -> Result<DriveReport, NbdError> {
    const ALIGN: u64 = 512;
    let slots = client.export_bytes() / ALIGN;
    assert!(slots >= 8, "export too small to drive");
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let mut report = DriveReport::default();
    for _ in 0..ops {
        let kind = rng.next_bounded(10);
        let slot = rng.next_bounded(slots);
        let max_len = (slots - slot).min(8);
        let len = (rng.next_bounded(max_len) + 1) * ALIGN;
        let offset = slot * ALIGN;
        match kind {
            0..=4 => {
                let mut data = vec![0u8; usize::try_from(len).expect("small io")];
                for chunk in data.chunks_mut(8) {
                    let word = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
                match client.write(offset, &data) {
                    Ok(()) => {
                        report.writes += 1;
                        report.bytes_written += len;
                    }
                    Err(NbdError::Server { errno }) if errno == nbd::ENOSPC => {
                        report.enospc += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
            5..=7 => {
                client.read(offset, u32::try_from(len).expect("small io"))?;
                report.reads += 1;
            }
            8 => {
                client.trim(offset, u32::try_from(len).expect("small io"))?;
                report.trims += 1;
            }
            _ => {
                client.flush()?;
                report.flushes += 1;
            }
        }
    }
    Ok(report)
}
