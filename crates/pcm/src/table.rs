//! Page-indexed tables backed by transparent huge pages.
//!
//! At the paper's 8,388,608 pages every per-page table is 8–134 MB, and
//! a random write touches several of them at unrelated offsets. With
//! 4 KiB pages each of those touches is a TLB miss on top of the cache
//! miss, and under nested paging (a simulator running in a VM) a TLB
//! miss walks two sets of page tables. A 2 MiB page covers 512 times as
//! much of a table per TLB entry.
//!
//! The helpers here build plain `Vec<T>`s: they reserve the storage,
//! ask the kernel (`madvise(MADV_HUGEPAGE)`) to back the 2 MiB-aligned
//! interior of that reservation with huge pages before any of it is
//! touched, and only then fill it. The hint never changes contents, so
//! results do not depend on whether the kernel honours it. Tables
//! smaller than a huge page, and targets other than Linux on x86_64 or
//! aarch64, get the same vector without the hint.

/// Size of one transparent huge page (x86_64 and aarch64 with 4 KiB
/// base pages).
const HUGE_PAGE: usize = 2 << 20;

/// An empty vector with room for `n` elements, whose storage is marked
/// for huge pages before anything is written to it.
#[must_use]
pub fn with_capacity<T>(n: usize) -> Vec<T> {
    let mut table = Vec::with_capacity(n);
    advise_huge_pages(&mut table);
    table
}

/// `vec![value; n]`, built on huge-page-advised storage.
///
/// # Examples
///
/// ```
/// assert_eq!(twl_pcm::table::filled(3, 7u64), vec![7, 7, 7]);
/// ```
#[must_use]
pub fn filled<T: Clone>(n: usize, value: T) -> Vec<T> {
    let mut table = with_capacity(n);
    table.resize(n, value);
    table
}

/// `iter.collect::<Vec<_>>()` for an iterator of (about) `n` items,
/// built on huge-page-advised storage. Items past `n` still land; the
/// vector then grows as any other would.
///
/// # Examples
///
/// ```
/// assert_eq!(twl_pcm::table::collected(4, 0..4u32), vec![0, 1, 2, 3]);
/// ```
#[must_use]
pub fn collected<T>(n: usize, iter: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut table = with_capacity(n);
    table.extend(iter);
    table
}

/// Empties `table` for a refill of up to `n` entries: it keeps its
/// storage when that has room, and otherwise moves to a fresh
/// [`with_capacity`] reservation.
pub fn reset<T>(table: &mut Vec<T>, n: usize) {
    if table.capacity() < n {
        *table = with_capacity(n);
    } else {
        table.clear();
    }
}

/// The 2 MiB-aligned `(offset, len)` interior, in bytes, of the
/// `bytes`-long allocation starting at address `addr`; `None` when it
/// holds no whole huge page.
fn huge_interior(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(bytes)? & !(HUGE_PAGE - 1);
    (end > start).then(|| (start - addr, end - start))
}

/// Marks the whole huge pages inside `table`'s reserved storage with
/// `MADV_HUGEPAGE`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
fn advise_huge_pages<T>(table: &mut Vec<T>) {
    use std::ffi::{c_int, c_void};

    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    /// `MADV_HUGEPAGE` in the x86_64 and aarch64 Linux ABIs.
    const MADV_HUGEPAGE: c_int = 14;

    let base = table.as_mut_ptr().cast::<u8>();
    let bytes = table.capacity() * std::mem::size_of::<T>();
    let Some((offset, len)) = huge_interior(base.addr(), bytes) else {
        return;
    };
    // SAFETY: `offset..offset + len` lies inside the live allocation
    // `table` reserved (`huge_interior` only shrinks the range), and
    // `MADV_HUGEPAGE` only changes how the kernel backs those pages,
    // never their contents. The result is ignored: a kernel without
    // THP, or in mode `never`, refuses the hint and the table stays on
    // base pages.
    unsafe {
        madvise(base.wrapping_add(offset).cast(), len, MADV_HUGEPAGE);
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages<T>(_: &mut Vec<T>) {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Element counts below, at and above one huge page of `u64`s, with
    /// ends that do not fall on a huge-page boundary.
    const SIZES: [usize; 6] = [
        0,
        1,
        HUGE_PAGE / 8 - 3,
        HUGE_PAGE / 8 + 5,
        3 * HUGE_PAGE / 8 + 1,
        5 * HUGE_PAGE / 8 - 7,
    ];

    #[test]
    fn filled_equals_vec_macro() {
        for n in SIZES {
            assert_eq!(filled(n, 0xABu64), vec![0xABu64; n], "n = {n}");
            assert_eq!(filled(n, 0u64), vec![0u64; n], "n = {n}");
            assert_eq!(filled(n, true), vec![true; n], "n = {n}");
        }
    }

    #[test]
    fn collected_equals_collect() {
        for n in SIZES {
            let expected: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            let got = collected(n, (0..n as u64).map(|i| i * 3 + 1));
            assert_eq!(got.len(), n);
            assert_eq!(got, expected, "n = {n}");
        }
    }

    #[test]
    fn collected_accepts_a_wrong_size_hint() {
        assert_eq!(collected(2, 0..5u32), vec![0, 1, 2, 3, 4]);
        assert_eq!(collected(HUGE_PAGE, 0..3u8), vec![0, 1, 2]);
    }

    #[test]
    fn reset_empties_and_makes_room() {
        let mut t = vec![1u32, 2, 3];
        let kept = t.as_ptr();
        reset(&mut t, 2);
        assert!(t.is_empty());
        assert_eq!(t.as_ptr(), kept);
        reset(&mut t, HUGE_PAGE);
        assert!(t.is_empty() && t.capacity() >= HUGE_PAGE);
        t.extend(0..5);
        assert_eq!(t, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn interior_is_the_whole_huge_pages_inside() {
        let h = HUGE_PAGE;
        assert_eq!(huge_interior(16, h), None);
        assert_eq!(huge_interior(16, 2 * h), Some((h - 16, h)));
        assert_eq!(huge_interior(h, h), Some((0, h)));
        assert_eq!(huge_interior(h + 1, 3 * h + 7), Some((h - 1, 2 * h)));
        assert_eq!(huge_interior(0, 0), None);
        assert_eq!(huge_interior(usize::MAX - 5, 4), None);
    }

    /// A 16 MiB table's mapping is eligible for huge pages whenever the
    /// host's THP mode allows it (anything but `never`).
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn large_table_mapping_is_thp_eligible() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if !mode.contains('[') || mode.contains("[never]") {
            eprintln!("skipped: transparent huge pages unavailable (mode {mode:?})");
            return;
        }
        let table = filled(16 << 20, 1u8);
        let addr = table.as_ptr().addr() + table.len() / 2;
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read smaps");
        let mut in_mapping = false;
        let mut eligible = None;
        for line in smaps.lines() {
            let range = line.split_whitespace().next().unwrap_or("");
            if let Some((lo, hi)) = range.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    in_mapping = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if in_mapping {
                if let Some(v) = line.strip_prefix("THPeligible:") {
                    eligible = Some(v.trim().to_owned());
                }
            }
        }
        assert_eq!(eligible.as_deref(), Some("1"), "mode {mode:?}");
        drop(table);
    }
}
