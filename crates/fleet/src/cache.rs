//! The persistent content-addressed cell cache.
//!
//! One JSON file per cell report, named by its [`CellKey`], sharded
//! into 256 two-hex-character subdirectories. Writes are atomic (tmp
//! file + rename into place), reads verify an embedded SHA-256 of the
//! report payload, and the whole store is LRU-evicted down to a byte
//! budget — so the cache can sit on the same disk for months and at
//! worst *miss*, never replay a torn or corrupted report.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use twl_telemetry::json::{int, str, Json};
use twl_telemetry::{counter, gauge};

use crate::cellkey::CellKey;
use crate::sha256::sha256_hex;

/// The on-disk entry schema; bumped together with breaking layout
/// changes so old daemons never misread new entries.
pub const ENTRY_SCHEMA: &str = "twl-cellcache/v1";

/// One cached report, as handed back by [`CellCache::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// The encoded cell report (`f64`s round-trip bit-exactly).
    pub report: Json,
    /// Device writes the original execution absorbed.
    pub device_writes: u64,
}

#[derive(Debug)]
struct IndexEntry {
    bytes: u64,
    /// Monotonic use tick; smallest is the LRU victim.
    last_used: u64,
}

#[derive(Debug)]
struct Index {
    entries: HashMap<CellKey, IndexEntry>,
    total_bytes: u64,
    tick: u64,
}

/// A size-bounded, content-addressed store of cell reports.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    max_bytes: u64,
    index: Mutex<Index>,
}

impl CellCache {
    /// Opens (creating if needed) a cache rooted at `dir`, holding at
    /// most `max_bytes` of entry files; existing entries are indexed by
    /// scanning the shard directories, seeding the LRU order from file
    /// modification times.
    ///
    /// # Errors
    ///
    /// Propagates directory creation and scan failures.
    pub fn open(dir: &Path, max_bytes: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut entries = HashMap::new();
        let mut total_bytes = 0u64;
        let mut mtimes: Vec<(CellKey, u64, std::time::SystemTime)> = Vec::new();
        for shard in fs::read_dir(dir)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for file in fs::read_dir(shard.path())? {
                let file = file?;
                let name = file.file_name();
                let Some(key) = name
                    .to_str()
                    .and_then(|n| n.strip_suffix(".json"))
                    .and_then(|n| CellKey::parse(n).ok())
                else {
                    continue;
                };
                let meta = file.metadata()?;
                mtimes.push((
                    key,
                    meta.len(),
                    meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH),
                ));
            }
        }
        // Oldest files get the smallest ticks, so pre-existing entries
        // evict in rough age order until they are used again.
        mtimes.sort_by_key(|(_, _, modified)| *modified);
        let mut tick = 0u64;
        for (key, bytes, _) in mtimes {
            tick += 1;
            total_bytes += bytes;
            entries.insert(
                key,
                IndexEntry {
                    bytes,
                    last_used: tick,
                },
            );
        }
        let cache = Self {
            dir: dir.to_path_buf(),
            max_bytes: max_bytes.max(1),
            index: Mutex::new(Index {
                entries,
                total_bytes,
                tick,
            }),
        };
        cache.publish_size();
        Ok(cache)
    }

    fn entry_path(&self, key: &CellKey) -> PathBuf {
        self.dir
            .join(&key.as_str()[..2])
            .join(format!("{key}.json"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Index> {
        self.index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn publish_size(&self) {
        let index = self.lock();
        gauge!("twl.fleet.cache.bytes").set(i64::try_from(index.total_bytes).unwrap_or(i64::MAX));
        gauge!("twl.fleet.cache.entries")
            .set(i64::try_from(index.entries.len()).unwrap_or(i64::MAX));
    }

    /// Looks `key` up, verifying integrity on the way: the entry must
    /// parse, carry the right schema and key, and its report payload
    /// must match the embedded SHA-256. Anything less is deleted and
    /// reported as a miss — a corrupt cache degrades to re-simulation,
    /// never to wrong results.
    #[must_use]
    pub fn get(&self, key: &CellKey) -> Option<CachedCell> {
        {
            let mut index = self.lock();
            if index.entries.contains_key(key) {
                index.tick += 1;
                let tick = index.tick;
                index.entries.get_mut(key).expect("entry exists").last_used = tick;
            } else {
                counter!("twl.fleet.cache.misses").inc();
                return None;
            }
        }
        match self.read_verified(key) {
            Ok(cell) => {
                counter!("twl.fleet.cache.hits").inc();
                Some(cell)
            }
            Err(why) => {
                counter!("twl.fleet.cache.corrupt").inc();
                counter!("twl.fleet.cache.misses").inc();
                eprintln!("twl-fleet: evicting corrupt cache entry {key}: {why}");
                self.remove(key);
                None
            }
        }
    }

    fn read_verified(&self, key: &CellKey) -> Result<CachedCell, String> {
        let text = fs::read_to_string(self.entry_path(key)).map_err(|e| e.to_string())?;
        let doc = Json::parse(&text)?;
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing `{name}`"))
        };
        if field("schema")? != ENTRY_SCHEMA {
            return Err(format!(
                "schema `{}` is not {ENTRY_SCHEMA}",
                field("schema")?
            ));
        }
        if field("key")? != key.as_str() {
            return Err("entry key does not match its file name".into());
        }
        let report = doc.get("report").ok_or("missing `report`")?.clone();
        let device_writes = doc
            .get("device_writes")
            .and_then(Json::as_u64)
            .ok_or("missing `device_writes`")?;
        let checksum = sha256_hex(report.to_compact().as_bytes());
        if checksum != field("sha256")? {
            return Err("report checksum mismatch".into());
        }
        Ok(CachedCell {
            report,
            device_writes,
        })
    }

    /// Stores a report under `key` atomically, then evicts LRU entries
    /// until the store fits the byte budget again.
    ///
    /// Concurrent puts of one key (two running jobs that share a cell)
    /// each land a whole entry; the last one wins.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the store is never left with a
    /// partially written entry (see [`twl_service::write_atomic`]).
    pub fn put(&self, key: &CellKey, cell: &CachedCell) -> io::Result<()> {
        let doc = Json::obj([
            ("schema", str(ENTRY_SCHEMA)),
            ("key", str(key.as_str())),
            ("report", cell.report.clone()),
            ("device_writes", int(cell.device_writes)),
            (
                "sha256",
                str(&sha256_hex(cell.report.to_compact().as_bytes())),
            ),
        ]);
        let text = doc.to_compact();
        let path = self.entry_path(key);
        fs::create_dir_all(path.parent().expect("entry path has a shard parent"))?;
        twl_service::write_atomic(&path, text.as_bytes())?;

        let bytes = text.len() as u64;
        let victims: Vec<CellKey> = {
            let mut index = self.lock();
            index.tick += 1;
            let tick = index.tick;
            if let Some(old) = index.entries.insert(
                key.clone(),
                IndexEntry {
                    bytes,
                    last_used: tick,
                },
            ) {
                index.total_bytes = index.total_bytes.saturating_sub(old.bytes);
            }
            index.total_bytes += bytes;
            counter!("twl.fleet.cache.stores").inc();

            // Evict strictly-least-recently-used entries until the
            // budget holds; the entry just written is the most recent,
            // so it survives unless it alone exceeds the budget.
            let mut victims = Vec::new();
            while index.total_bytes > self.max_bytes && index.entries.len() > 1 {
                let victim = index
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty index");
                let entry = index.entries.remove(&victim).expect("victim exists");
                index.total_bytes = index.total_bytes.saturating_sub(entry.bytes);
                victims.push(victim);
            }
            victims
        };
        for victim in victims {
            counter!("twl.fleet.cache.evictions").inc();
            let _ = fs::remove_file(self.entry_path(&victim));
        }
        self.publish_size();
        Ok(())
    }

    fn remove(&self, key: &CellKey) {
        let mut index = self.lock();
        if let Some(entry) = index.entries.remove(key) {
            index.total_bytes = index.total_bytes.saturating_sub(entry.bytes);
        }
        drop(index);
        let _ = fs::remove_file(self.entry_path(key));
        self.publish_size();
    }

    /// Entries currently indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of entry files currently indexed.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.lock().total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_telemetry::json::num;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("twl-fleet-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(byte: u8) -> CellKey {
        CellKey::parse(&crate::sha256::sha256_hex(&[byte])).unwrap()
    }

    fn cell(years: f64) -> CachedCell {
        CachedCell {
            report: Json::obj([("scheme", str("TWL_swp")), ("years", num(years))]),
            device_writes: 123_456,
        }
    }

    #[test]
    fn put_then_get_round_trips_bit_exactly() {
        let dir = scratch("roundtrip");
        let cache = CellCache::open(&dir, 1 << 20).unwrap();
        let stored = cell(4.256_789_012_345_679);
        cache.put(&key(1), &stored).unwrap();
        let loaded = cache.get(&key(1)).expect("hit");
        assert_eq!(loaded, stored);
        assert_eq!(
            loaded.report.to_compact(),
            stored.report.to_compact(),
            "report bytes drifted through the cache"
        );
        assert!(cache.get(&key(2)).is_none(), "unknown key must miss");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entries_survive_reopen() {
        let dir = scratch("reopen");
        {
            let cache = CellCache::open(&dir, 1 << 20).unwrap();
            cache.put(&key(1), &cell(1.0)).unwrap();
            cache.put(&key(2), &cell(2.0)).unwrap();
        }
        let cache = CellCache::open(&dir, 1 << 20).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)).expect("hit after reopen"), cell(1.0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let dir = scratch("evict");
        let one_entry = {
            // Measure one entry's size, then budget for roughly two.
            let cache = CellCache::open(&dir, 1 << 20).unwrap();
            cache.put(&key(0), &cell(0.0)).unwrap();
            cache.total_bytes()
        };
        fs::remove_dir_all(&dir).ok();

        let cache = CellCache::open(&dir, one_entry * 2 + 1).unwrap();
        cache.put(&key(1), &cell(1.0)).unwrap();
        cache.put(&key(2), &cell(2.0)).unwrap();
        // Touch 1 so 2 becomes the LRU victim when 3 arrives.
        assert!(cache.get(&key(1)).is_some());
        cache.put(&key(3), &cell(3.0)).unwrap();
        assert!(cache.total_bytes() <= one_entry * 2 + 1, "budget exceeded");
        assert!(cache.get(&key(2)).is_none(), "LRU entry survived");
        assert!(cache.get(&key(1)).is_some(), "recently used entry evicted");
        assert!(cache.get(&key(3)).is_some(), "newest entry evicted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_miss_and_are_deleted() {
        let dir = scratch("corrupt");
        let cache = CellCache::open(&dir, 1 << 20).unwrap();

        // Flipped report bytes: checksum catches it.
        cache.put(&key(1), &cell(1.0)).unwrap();
        let path = cache.entry_path(&key(1));
        let tampered = fs::read_to_string(&path).unwrap().replace("1.0", "9.9");
        fs::write(&path, tampered).unwrap();
        assert!(cache.get(&key(1)).is_none(), "tampered entry served");
        assert!(!path.exists(), "tampered entry not deleted");

        // Truncated file: parse failure, same treatment.
        cache.put(&key(2), &cell(2.0)).unwrap();
        let path = cache.entry_path(&key(2));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.get(&key(2)).is_none(), "truncated entry served");

        // Entry stored under the wrong name: key check catches it.
        cache.put(&key(3), &cell(3.0)).unwrap();
        let misfiled = cache.entry_path(&key(4));
        fs::create_dir_all(misfiled.parent().unwrap()).unwrap();
        fs::rename(cache.entry_path(&key(3)), &misfiled).unwrap();
        let reopened = CellCache::open(&dir, 1 << 20).unwrap();
        assert!(reopened.get(&key(4)).is_none(), "misfiled entry served");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_of_one_key_all_succeed() {
        // Running jobs that share a cell each store it; every put must
        // land whole however the writes interleave.
        let dir = scratch("same-key");
        let cache = CellCache::open(&dir, 1 << 30).unwrap();
        let big = CachedCell {
            report: Json::Arr((0..20_000).map(int).collect()),
            device_writes: 1,
        };
        let barrier = std::sync::Barrier::new(4);
        let failures: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .filter(|_| {
                                barrier.wait();
                                cache.put(&key(1), &big).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "same-key puts failed");
        assert_eq!(cache.get(&key(1)).expect("hit"), big);
        fs::remove_dir_all(&dir).ok();
    }
}
