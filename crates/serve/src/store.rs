//! The content-addressed result cache.
//!
//! [`ResultCache`] maps [`CellKey`]s to [`CellRecord`]s through two
//! layers: an in-memory index of parsed records (shared by every worker
//! thread — the structure is `Sync`) and a persisted directory so warm
//! sweeps survive process restarts:
//!
//! ```text
//! <cache-dir>/fuse-cache-v1/<2-hex shard>/<32-hex digest>.cell
//! ```
//!
//! The version segment means a future layout change starts an empty
//! cache instead of misreading the old one. Writes go through a
//! temp-file + rename so a crash mid-write leaves no half-entry behind.
//! Every write gets its own temp name (process id plus a process-wide
//! counter), so writers sharing one directory — `serve` next to
//! `sweep --cache-dir`, or two handles in one process — never truncate
//! each other's temp file.
//!
//! # Safety properties
//!
//! * **No stale hits.** A lookup only hits when the entry's embedded
//!   canonical key text equals the probe's — digest collisions and
//!   hand-edited files degrade to misses.
//! * **No panics on corrupt entries.** Any file that fails to parse (bad
//!   checksum, truncation, wrong version) is *quarantined*: renamed to
//!   `<digest>.cell.corrupt` next to its shard, dropped from the index
//!   and counted, so one flipped bit never takes the service down.
//! * **Bounded bytes.** An optional byte budget evicts
//!   least-recently-used entries (falling back to file mtime order for
//!   entries not touched since open) on insert; `gc` applies the same
//!   policy on demand.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::key::CellKey;
use crate::record::CellRecord;

/// Directory-layout version segment.
pub const LAYOUT_DIR: &str = "fuse-cache-v1";

/// Distinguishes the temp files of concurrent inserts within a process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
struct Entry {
    bytes: u64,
    /// Monotone recency stamp (higher = more recent). Seeded from mtime
    /// order at open so restarts keep an approximate LRU order.
    last_use: u64,
    /// Parsed record plus the canonical key text it answers, populated
    /// lazily on first hit after open. The text rides along so even the
    /// in-memory fast path compares it — a digest collision must miss
    /// regardless of which layer answers.
    loaded: Option<(Arc<CellRecord>, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    quarantined: u64,
}

/// Counters and sizes at one point in time (`fusesim cache stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Live entries.
    pub entries: u64,
    /// Total persisted bytes of live entries.
    pub bytes: u64,
    /// Lookups answered from the cache since open.
    pub hits: u64,
    /// Lookups that missed since open.
    pub misses: u64,
    /// Records inserted since open.
    pub inserts: u64,
    /// Entries evicted by the byte budget since open.
    pub evictions: u64,
    /// Entries quarantined as corrupt since open.
    pub quarantined: u64,
}

impl CacheStatsSnapshot {
    /// Hit rate since open; 0 for no traffic.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// One entry's verdict from [`ResultCache::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Entry re-parsed and re-digested clean.
    Ok {
        /// Digest of the entry.
        digest: String,
    },
    /// Entry failed and was quarantined.
    Corrupt {
        /// Digest (from the file name) of the quarantined entry.
        digest: String,
        /// What was wrong.
        reason: String,
    },
}

/// A content-addressed, persisted, byte-bounded result cache.
///
/// Cheap to share: wrap in an [`Arc`] and clone across sweep workers and
/// server threads.
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    max_bytes: Option<u64>,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `dir` with an optional
    /// byte budget. Scans the layout directory to build the index;
    /// entries are parsed lazily on first use.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or scanning the directory.
    pub fn open(dir: &Path, max_bytes: Option<u64>) -> std::io::Result<ResultCache> {
        let root = dir.join(LAYOUT_DIR);
        std::fs::create_dir_all(&root)?;
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        for shard in std::fs::read_dir(&root)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(shard.path())? {
                let f = f?;
                let name = f.file_name();
                let name = name.to_string_lossy();
                let Some(digest) = name.strip_suffix(".cell") else {
                    continue; // quarantined or foreign files stay put
                };
                let meta = f.metadata()?;
                found.push((
                    digest.to_string(),
                    meta.len(),
                    meta.modified().unwrap_or(std::time::UNIX_EPOCH),
                ));
            }
        }
        // Oldest first, so recency stamps reconstruct the LRU order.
        found.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut inner = Inner::default();
        for (digest, bytes, _) in found {
            inner.clock += 1;
            inner.bytes += bytes;
            inner.entries.insert(
                digest,
                Entry {
                    bytes,
                    last_use: inner.clock,
                    loaded: None,
                },
            );
        }
        Ok(ResultCache {
            root,
            max_bytes,
            inner: Mutex::new(inner),
        })
    }

    fn path_of(&self, digest: &str) -> PathBuf {
        self.root.join(&digest[..2]).join(format!("{digest}.cell"))
    }

    /// Looks `key` up. `Some` only when a persisted entry exists, parses
    /// clean **and** embeds exactly `key.text`; every other outcome
    /// (absent, corrupt → quarantined, collision) is a counted miss.
    pub fn get(&self, key: &CellKey) -> Option<Arc<CellRecord>> {
        let mut inner = self.inner.lock().expect("cache lock");
        if !inner.entries.contains_key(&key.hex) {
            inner.misses += 1;
            return None;
        }
        // Fast path: already parsed this run.
        if let Some((rec, text)) = inner.entries.get(&key.hex).and_then(|e| e.loaded.clone()) {
            if text != key.text {
                inner.misses += 1;
                return None; // digest collision: different question
            }
            inner.clock += 1;
            let clock = inner.clock;
            let e = inner.entries.get_mut(&key.hex).expect("entry exists");
            e.last_use = clock;
            inner.hits += 1;
            return Some(rec);
        }
        // Slow path: load from disk, verify, memoize.
        let path = self.path_of(&key.hex);
        let outcome = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| CellRecord::parse(&text));
        match outcome {
            Ok((record, _hex, key_text)) if key_text == key.text => {
                let rec = Arc::new(record);
                inner.clock += 1;
                let clock = inner.clock;
                let e = inner.entries.get_mut(&key.hex).expect("entry exists");
                e.loaded = Some((rec.clone(), key_text));
                e.last_use = clock;
                inner.hits += 1;
                Some(rec)
            }
            Ok(_) => {
                // Digest collision (or tampered key text): the stored
                // result answers a different question. Treat as a miss;
                // the insert after re-simulation overwrites the entry.
                inner.misses += 1;
                None
            }
            Err(_) => {
                self.quarantine_locked(&mut inner, &key.hex);
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) `record` under `key`, persisting it and
    /// applying the byte budget.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from persisting the entry; the in-memory
    /// index is only updated on success.
    pub fn insert(&self, key: &CellKey, record: CellRecord) -> std::io::Result<Arc<CellRecord>> {
        let text = record.serialize(key);
        let bytes = text.len() as u64;
        let path = self.path_of(&key.hex);
        std::fs::create_dir_all(path.parent().expect("entry has a shard dir"))?;
        // Unique per write, and not ending in `.cell`, so `open` skips it.
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, &path)?;

        let rec = Arc::new(record);
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.remove(&key.hex) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        inner.inserts += 1;
        inner.entries.insert(
            key.hex.clone(),
            Entry {
                bytes,
                last_use: clock,
                loaded: Some((rec.clone(), key.text.clone())),
            },
        );
        if let Some(budget) = self.max_bytes {
            self.evict_to_locked(&mut inner, budget, Some(&key.hex));
        }
        Ok(rec)
    }

    /// Removes the entry for `digest` (file and index). Returns whether
    /// an entry existed — the `fusesim cache rm` invalidation primitive
    /// behind incremental-sweep experiments.
    pub fn remove(&self, digest: &str) -> bool {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.entries.remove(digest) {
            Some(e) => {
                inner.bytes -= e.bytes;
                let _ = std::fs::remove_file(self.path_of(digest));
                true
            }
            None => false,
        }
    }

    /// Digests of all live entries, unordered.
    pub fn digests(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("cache lock");
        inner.entries.keys().cloned().collect()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        let inner = self.inner.lock().expect("cache lock");
        CacheStatsSnapshot {
            entries: inner.entries.len() as u64,
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            evictions: inner.evictions,
            quarantined: inner.quarantined,
        }
    }

    /// Re-reads and re-digests every entry; corrupt ones are quarantined.
    /// Returns one outcome per entry, sorted by digest.
    pub fn verify(&self) -> Vec<VerifyOutcome> {
        let digests = {
            let inner = self.inner.lock().expect("cache lock");
            let mut d: Vec<String> = inner.entries.keys().cloned().collect();
            d.sort();
            d
        };
        let mut out = Vec::with_capacity(digests.len());
        for digest in digests {
            let path = self.path_of(&digest);
            let verdict = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| CellRecord::parse(&text))
                .and_then(|(_, hex, key_text)| {
                    if hex != digest {
                        Err(format!("entry claims key {hex}"))
                    } else if crate::key::digest_hex(&key_text) != digest {
                        Err("key text does not re-digest to the file name".to_string())
                    } else {
                        Ok(())
                    }
                });
            match verdict {
                Ok(()) => out.push(VerifyOutcome::Ok { digest }),
                Err(reason) => {
                    let mut inner = self.inner.lock().expect("cache lock");
                    self.quarantine_locked(&mut inner, &digest);
                    out.push(VerifyOutcome::Corrupt { digest, reason });
                }
            }
        }
        out
    }

    /// Evicts least-recently-used entries until at most `max_bytes`
    /// persisted bytes remain. Returns the number of entries evicted.
    pub fn gc(&self, max_bytes: u64) -> u64 {
        let mut inner = self.inner.lock().expect("cache lock");
        let before = inner.evictions;
        self.evict_to_locked(&mut inner, max_bytes, None);
        inner.evictions - before
    }

    fn evict_to_locked(&self, inner: &mut Inner, budget: u64, keep: Option<&str>) {
        while inner.bytes > budget {
            let victim = inner
                .entries
                .iter()
                .filter(|(d, _)| Some(d.as_str()) != keep)
                .min_by_key(|(d, e)| (e.last_use, d.as_str().to_string()))
                .map(|(d, _)| d.clone());
            let Some(digest) = victim else { break };
            if let Some(e) = inner.entries.remove(&digest) {
                inner.bytes -= e.bytes;
                inner.evictions += 1;
                let _ = std::fs::remove_file(self.path_of(&digest));
            }
        }
    }

    fn quarantine_locked(&self, inner: &mut Inner, digest: &str) {
        if let Some(e) = inner.entries.remove(digest) {
            inner.bytes -= e.bytes;
        }
        inner.quarantined += 1;
        let path = self.path_of(digest);
        let _ = std::fs::rename(&path, path.with_extension("cell.corrupt"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{CellKey, KeyParts, L1Column};
    use fuse_core::config::L1Preset;
    use fuse_gpu::config::GpuConfig;

    fn key_for(ops: usize) -> CellKey {
        let w = fuse_workloads::by_name("ATAX").unwrap();
        let gpu = GpuConfig::gtx480();
        let l1 = L1Preset::DyFuse.config();
        CellKey::derive(&KeyParts {
            workload: &w,
            l1: L1Column::Preset {
                name: "Dy-FUSE",
                config: Some(&l1),
            },
            gpu: &gpu,
            ops_per_warp: ops,
            max_cycles: 1000,
            skip: true,
            active_set: true,
        })
    }

    fn record_for(cycles: u64) -> CellRecord {
        let mut r = CellRecord {
            workload: "ATAX".to_string(),
            config: "Dy-FUSE".to_string(),
            ..CellRecord::default()
        };
        r.sim.cycles = cycles;
        r
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fuse_store_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn miss_insert_hit_and_persistence() {
        let dir = tmp_dir("basic");
        let cache = ResultCache::open(&dir, None).unwrap();
        let key = key_for(100);
        assert!(cache.get(&key).is_none());
        cache.insert(&key, record_for(42)).unwrap();
        let rec = cache.get(&key).expect("hit after insert");
        assert_eq!(rec.sim.cycles, 42);

        // A second process (fresh open) sees the same entry.
        let cache2 = ResultCache::open(&dir, None).unwrap();
        let rec2 = cache2.get(&key).expect("persisted hit");
        assert_eq!(rec2.sim.cycles, 42);
        let s = cache2.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_text_mismatch_is_a_miss_not_a_wrong_result() {
        let dir = tmp_dir("collide");
        let cache = ResultCache::open(&dir, None).unwrap();
        let key = key_for(100);
        cache.insert(&key, record_for(42)).unwrap();
        // Forge a probe with the same digest but different text — as a
        // hash collision would present.
        let forged = CellKey {
            hex: key.hex.clone(),
            text: format!("{}forged\n", key.text),
        };
        assert!(cache.get(&forged).is_none(), "collision must miss");
        assert!(cache.get(&key).is_some(), "original still hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_fatal() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::open(&dir, None).unwrap();
        let key = key_for(100);
        cache.insert(&key, record_for(42)).unwrap();
        drop(cache);

        // Scribble over the persisted entry.
        let path = dir
            .join(LAYOUT_DIR)
            .join(key.shard_prefix())
            .join(format!("{}.cell", key.hex));
        std::fs::write(&path, "garbage").unwrap();

        let cache = ResultCache::open(&dir, None).unwrap();
        assert!(cache.get(&key).is_none(), "corrupt entry must miss");
        assert_eq!(cache.stats().quarantined, 1);
        assert!(
            path.with_extension("cell.corrupt").exists(),
            "evidence preserved for post-mortem"
        );
        assert!(!path.exists());
        // The slot is reusable.
        cache.insert(&key, record_for(7)).unwrap();
        assert_eq!(cache.get(&key).unwrap().sim.cycles, 7);
        drop(cache);

        // Bytes that are not UTF-8 fail `read_to_string` before any
        // parsing: the same quarantine and miss, not an error or a panic.
        std::fs::write(&path, [0xff, 0xfe, b'\n', 0x80]).unwrap();
        let cache = ResultCache::open(&dir, None).unwrap();
        assert!(cache.get(&key).is_none(), "non-UTF-8 entry must miss");
        assert_eq!(cache.stats().quarantined, 1);
        assert!(path.with_extension("cell.corrupt").exists());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_inserts_of_one_digest_all_succeed() {
        // Two handles on one directory stand in for two processes (say
        // `serve` and `sweep --cache-dir`) finishing the same cell. With
        // a shared temp name, one writer can truncate or rename away the
        // other's file and fail its insert.
        let dir = tmp_dir("race");
        let key = key_for(100);
        let caches = [
            ResultCache::open(&dir, None).unwrap(),
            ResultCache::open(&dir, None).unwrap(),
        ];
        let start = std::sync::Barrier::new(caches.len());
        let failures: usize = std::thread::scope(|s| {
            let workers: Vec<_> = caches
                .iter()
                .enumerate()
                .map(|(i, cache)| {
                    let (key, start) = (&key, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..500)
                            .filter(|&n| {
                                cache.insert(key, record_for(i as u64 * 1000 + n)).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "inserts of one digest collided");
        let files: Vec<_> = std::fs::read_dir(dir.join(LAYOUT_DIR).join(key.shard_prefix()))
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            files,
            vec![format!("{}.cell", key.hex)],
            "no temp file left"
        );
        let reopened = ResultCache::open(&dir, None).unwrap();
        assert!(reopened.get(&key).is_some(), "the survivor parses clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_and_quarantines() {
        let dir = tmp_dir("verify");
        let cache = ResultCache::open(&dir, None).unwrap();
        let a = key_for(100);
        let b = key_for(200);
        cache.insert(&a, record_for(1)).unwrap();
        cache.insert(&b, record_for(2)).unwrap();
        let path = dir
            .join(LAYOUT_DIR)
            .join(b.shard_prefix())
            .join(format!("{}.cell", b.hex));
        std::fs::write(&path, "zap").unwrap();
        let outcomes = cache.verify();
        assert_eq!(outcomes.len(), 2);
        let corrupt: Vec<_> = outcomes
            .iter()
            .filter(|o| matches!(o, VerifyOutcome::Corrupt { .. }))
            .collect();
        assert_eq!(corrupt.len(), 1);
        assert_eq!(cache.stats().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let dir = tmp_dir("lru");
        let cache = ResultCache::open(&dir, None).unwrap();
        let keys: Vec<CellKey> = (1..=4).map(|i| key_for(i * 100)).collect();
        for (i, k) in keys.iter().enumerate() {
            cache.insert(k, record_for(i as u64)).unwrap();
        }
        let per_entry = cache.stats().bytes / 4;
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&keys[0]).is_some());
        let evicted = cache.gc(per_entry * 3 + per_entry / 2);
        assert_eq!(evicted, 1);
        assert!(cache.get(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.get(&keys[0]).is_some(), "recently-used survived");
        assert!(cache.get(&keys[2]).is_some() && cache.get(&keys[3]).is_some());

        // gc to zero clears everything.
        assert_eq!(cache.gc(0), 3);
        assert_eq!(cache.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_budget_never_evicts_the_fresh_entry() {
        let dir = tmp_dir("budget");
        // Budget below one entry: the freshly-inserted entry must
        // survive (evicting it would livelock a sweep).
        let cache = ResultCache::open(&dir, Some(10)).unwrap();
        let key = key_for(100);
        cache.insert(&key, record_for(1)).unwrap();
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.stats().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_invalidates_one_cell() {
        let dir = tmp_dir("rm");
        let cache = ResultCache::open(&dir, None).unwrap();
        let a = key_for(100);
        let b = key_for(200);
        cache.insert(&a, record_for(1)).unwrap();
        cache.insert(&b, record_for(2)).unwrap();
        assert!(cache.remove(&a.hex));
        assert!(!cache.remove(&a.hex), "second remove is a no-op");
        assert!(cache.get(&a).is_none());
        assert!(cache.get(&b).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
