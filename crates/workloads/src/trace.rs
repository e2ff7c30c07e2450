//! Memory-command stream types and a binary trace codec.

use std::io::{self, Read, Write};
use twl_pcm::LogicalPageAddr;

/// A memory operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A page read (does not wear PCM).
    Read,
    /// A page write.
    Write,
}

/// One command of a memory trace: the `(op, LA)` pair of the paper's
/// attack model (data payloads are irrelevant to wear and timing and are
/// not modelled).
///
/// # Examples
///
/// ```
/// use twl_pcm::LogicalPageAddr;
/// use twl_workloads::{MemCmd, MemOp};
///
/// let cmd = MemCmd::write(LogicalPageAddr::new(4));
/// assert_eq!(cmd.op, MemOp::Write);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemCmd {
    /// Operation kind.
    pub op: MemOp,
    /// Target logical page.
    pub la: LogicalPageAddr,
}

impl MemCmd {
    /// A write command.
    #[must_use]
    pub fn write(la: LogicalPageAddr) -> Self {
        Self {
            op: MemOp::Write,
            la,
        }
    }

    /// A read command.
    #[must_use]
    pub fn read(la: LogicalPageAddr) -> Self {
        Self {
            op: MemOp::Read,
            la,
        }
    }

    /// Whether this command wears the device.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.op == MemOp::Write
    }
}

/// Serializes a trace as a compact binary stream (1 op byte + 8 LE
/// address bytes per command).
///
/// A mutable reference works as a writer too, per the std `Write`
/// blanket impls.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut writer: W, trace: &[MemCmd]) -> io::Result<()> {
    for cmd in trace {
        let op = match cmd.op {
            MemOp::Read => 0u8,
            MemOp::Write => 1u8,
        };
        writer.write_all(&[op])?;
        writer.write_all(&cmd.la.index().to_le_bytes())?;
    }
    Ok(())
}

/// Deserializes a trace written by [`write_trace`]. A mutable reference
/// works as a reader too.
///
/// Each 9-byte record takes two reads from `reader`, so wrap a file in a
/// [`std::io::BufReader`]: unbuffered, every record costs two system
/// calls.
///
/// # Errors
///
/// Returns an error on I/O failure, a truncated record, or an unknown
/// op byte.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<Vec<MemCmd>> {
    let mut trace = Vec::new();
    let mut op_buf = [0u8; 1];
    loop {
        match reader.read_exact(&mut op_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let mut addr_buf = [0u8; 8];
        reader.read_exact(&mut addr_buf)?;
        let la = LogicalPageAddr::new(u64::from_le_bytes(addr_buf));
        let op = match op_buf[0] {
            0 => MemOp::Read,
            1 => MemOp::Write,
            b => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown op byte {b}"),
                ))
            }
        };
        trace.push(MemCmd { op, la });
    }
    Ok(trace)
}

/// Incremental writer for the binary trace format: appends one command
/// at a time and counts what it wrote, so a long-lived capture (the
/// `twl-blockd` block-write stream) streams to its sink without
/// buffering the whole trace.
///
/// The byte stream is identical to one [`write_trace`] call over the
/// same commands — a capture file is readable by [`read_trace`] at any
/// flush point.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a sink; nothing is written until the first append.
    pub fn new(inner: W) -> Self {
        Self { inner, written: 0 }
    }

    /// Appends one command.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn append(&mut self, cmd: MemCmd) -> io::Result<()> {
        write_trace(&mut self.inner, std::slice::from_ref(&cmd))?;
        self.written += 1;
        Ok(())
    }

    /// Commands appended so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Unwraps the sink (without flushing).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_writer_matches_the_one_shot_codec() {
        let trace = vec![
            MemCmd::write(LogicalPageAddr::new(3)),
            MemCmd::read(LogicalPageAddr::new(9)),
            MemCmd::write(LogicalPageAddr::new(3)),
        ];
        let mut one_shot = Vec::new();
        write_trace(&mut one_shot, &trace).unwrap();
        let mut streamed = TraceWriter::new(Vec::new());
        for &cmd in &trace {
            streamed.append(cmd).unwrap();
        }
        assert_eq!(streamed.written(), 3);
        assert_eq!(streamed.into_inner(), one_shot);
    }

    #[test]
    fn codec_roundtrip() {
        let trace = vec![
            MemCmd::write(LogicalPageAddr::new(0)),
            MemCmd::read(LogicalPageAddr::new(u64::MAX)),
            MemCmd::write(LogicalPageAddr::new(12345)),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(buf.len(), 3 * 9);
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn truncated_record_is_an_error() {
        let trace = vec![MemCmd::write(LogicalPageAddr::new(7))];
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.truncate(5);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn unknown_op_is_an_error() {
        let buf = [9u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let back = read_trace([].as_slice()).unwrap();
        assert!(back.is_empty());
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The binary codec round-trips arbitrary traces exactly.
        #[test]
        fn codec_roundtrips_arbitrary_traces(
            cmds in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..200),
        ) {
            let trace: Vec<MemCmd> = cmds
                .iter()
                .map(|&(w, la)| {
                    let la = LogicalPageAddr::new(la);
                    if w { MemCmd::write(la) } else { MemCmd::read(la) }
                })
                .collect();
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).expect("in-memory write");
            prop_assert_eq!(buf.len(), trace.len() * 9);
            let back = read_trace(buf.as_slice()).expect("valid bytes");
            prop_assert_eq!(back, trace);
        }
    }
}
