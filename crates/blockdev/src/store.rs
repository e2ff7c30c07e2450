//! The block data store: a RAM-backed byte device with atomic on-disk
//! snapshot/restore.
//!
//! The store holds the *data* a filesystem sees through the NBD export;
//! the wear pipeline ([`crate::gateway`]) is a shadow of it and never
//! moves stored bytes — scheme remaps shuffle physical wear, not
//! logical content. Snapshots are whole-image files written through a
//! temp-file-plus-rename, so a crash mid-persist leaves the previous
//! snapshot intact.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// An out-of-range access against the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// Requested start offset.
    pub offset: u64,
    /// Requested length in bytes.
    pub len: u64,
    /// The store's size.
    pub size: u64,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "range [{}, {}) escapes the {}-byte store",
            self.offset,
            self.offset.saturating_add(self.len),
            self.size
        )
    }
}

impl std::error::Error for OutOfRange {}

/// A fixed-size byte store backing one NBD export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStore {
    bytes: Vec<u8>,
}

impl BlockStore {
    /// A zero-filled store of `len` bytes.
    #[must_use]
    pub fn zeroed(len: u64) -> Self {
        Self {
            bytes: vec![0; usize::try_from(len).expect("store fits in memory")],
        }
    }

    /// The store size in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the store is zero-sized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn check(&self, offset: u64, len: u64) -> Result<std::ops::Range<usize>, OutOfRange> {
        let end = offset.checked_add(len).filter(|&e| e <= self.len());
        match end {
            Some(end) => Ok(offset as usize..end as usize),
            None => Err(OutOfRange {
                offset,
                len,
                size: self.len(),
            }),
        }
    }

    /// Fills `out` from the store at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] when the range escapes the store.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), OutOfRange> {
        let range = self.check(offset, out.len() as u64)?;
        out.copy_from_slice(&self.bytes[range]);
        Ok(())
    }

    /// Writes `data` into the store at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] when the range escapes the store.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), OutOfRange> {
        let range = self.check(offset, data.len() as u64)?;
        self.bytes[range].copy_from_slice(data);
        Ok(())
    }

    /// Discards (zero-fills) a range — the TRIM semantics the export
    /// advertises: trimmed blocks read back as zeroes.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] when the range escapes the store.
    pub fn trim(&mut self, offset: u64, len: u64) -> Result<(), OutOfRange> {
        let range = self.check(offset, len)?;
        self.bytes[range].fill(0);
        Ok(())
    }

    /// Persists the whole image atomically through
    /// [`twl_service::write_atomic`]: written to a temp file beside
    /// `path`, then renamed over it. Rename atomicity means a crashed
    /// *daemon* always leaves either the previous or the new snapshot;
    /// there is deliberately no fsync — power-loss durability is not a
    /// goal for a simulation device, and FLUSH runs on the request
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on failure `path` still holds the
    /// previous snapshot (or nothing).
    pub fn persist(&self, path: &Path) -> io::Result<()> {
        twl_service::write_atomic(path, &self.bytes)
    }

    /// Restores a snapshot written by [`BlockStore::persist`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or when the image size does not match
    /// `expected_len` (a snapshot from a different geometry).
    pub fn load(path: &Path, expected_len: u64) -> io::Result<Self> {
        let bytes = fs::read(path)?;
        if bytes.len() as u64 != expected_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot {} holds {} bytes, geometry expects {expected_len}",
                    path.display(),
                    bytes.len()
                ),
            ));
        }
        Ok(Self { bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_writes_and_trims() {
        let mut store = BlockStore::zeroed(1024);
        store.write(512, &[7u8; 256]).unwrap();
        let mut buf = [0u8; 256];
        store.read(512, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 256]);
        store.trim(512, 128).unwrap();
        store.read(512, &mut buf).unwrap();
        assert_eq!(&buf[..128], &[0u8; 128]);
        assert_eq!(&buf[128..], &[7u8; 128]);
    }

    #[test]
    fn out_of_range_access_is_rejected() {
        let mut store = BlockStore::zeroed(100);
        assert!(store.write(90, &[0u8; 11]).is_err());
        assert!(store.read(101, &mut []).is_err());
        assert!(store.trim(u64::MAX, 2).is_err(), "offset+len overflow");
        store.write(90, &[1u8; 10]).unwrap();
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("twl-store-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.img");
        let mut store = BlockStore::zeroed(4096);
        store.write(17, b"hello block device").unwrap();
        store.persist(&path).unwrap();
        let back = BlockStore::load(&path, 4096).unwrap();
        assert_eq!(back, store);
        assert!(BlockStore::load(&path, 8192).is_err(), "size mismatch");
        let _ = fs::remove_dir_all(&dir);
    }
}
