//! Block→page mapping: how byte-addressed NBD traffic lands on the
//! page-addressed wear pipeline.
//!
//! The export is `data_pages × bytes_per_page` bytes. A block write
//! covering byte range `[offset, offset+len)` wears every page the
//! range touches — one logical page write per touched page, because a
//! PCM page is the remap/wear granularity and a sub-page store still
//! rewrites the whole page (the write-amplification the paper's
//! schemes are built around). Reads and trims wear nothing.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::ops::Range;

/// The export geometry: page-granular wear over a byte-addressed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGeometry {
    /// Bytes per simulated PCM page (the wear granularity).
    pub bytes_per_page: u64,
    /// Pages in the scheme-addressable data region.
    pub data_pages: u64,
}

impl BlockGeometry {
    /// The export size in bytes.
    #[must_use]
    pub fn export_bytes(&self) -> u64 {
        self.bytes_per_page * self.data_pages
    }

    /// Whether a byte range stays inside the export.
    #[must_use]
    pub fn contains(&self, offset: u64, len: u64) -> bool {
        offset
            .checked_add(len)
            .is_some_and(|end| end <= self.export_bytes())
    }

    /// The logical pages a byte range touches (empty for `len == 0`).
    ///
    /// Callers validate the range with [`BlockGeometry::contains`]
    /// first; the returned range is clamped to the device regardless.
    #[must_use]
    pub fn pages_touched(&self, offset: u64, len: u64) -> Range<u64> {
        if len == 0 {
            return 0..0;
        }
        let first = (offset / self.bytes_per_page).min(self.data_pages);
        let last = offset
            .saturating_add(len - 1)
            .checked_div(self.bytes_per_page)
            .unwrap_or(0)
            .min(self.data_pages.saturating_sub(1));
        first..last + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: BlockGeometry = BlockGeometry {
        bytes_per_page: 4096,
        data_pages: 64,
    };

    #[test]
    fn aligned_ranges_touch_exactly_their_pages() {
        assert_eq!(G.pages_touched(0, 4096), 0..1);
        assert_eq!(G.pages_touched(4096, 8192), 1..3);
        assert_eq!(G.pages_touched(0, 0), 0..0);
    }

    #[test]
    fn sub_page_and_straddling_ranges_round_out() {
        assert_eq!(G.pages_touched(10, 1), 0..1, "one byte wears its page");
        assert_eq!(G.pages_touched(4095, 2), 0..2, "straddle wears both");
        assert_eq!(
            G.pages_touched(8191, 4098),
            1..4,
            "last byte lands on page 3"
        );
        assert_eq!(G.pages_touched(8191, 4097), 1..3);
    }

    #[test]
    fn bounds_checking() {
        assert!(G.contains(0, G.export_bytes()));
        assert!(!G.contains(1, G.export_bytes()));
        assert!(!G.contains(u64::MAX, 1), "offset overflow");
        assert_eq!(G.export_bytes(), 64 * 4096);
    }
}
