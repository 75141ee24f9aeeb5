//! The content-addressed artifact store: an in-memory LRU tier of
//! typed artifacts (`Arc<dyn Any>` under 128-bit content keys) with an
//! optional on-disk tier for byte artifacts.
//!
//! * **Hits are byte-identical to cold runs by construction** — a hit
//!   returns the same immutable `Arc` the cold run produced, and every
//!   derivation downstream of it is deterministic (the workspace's
//!   determinism contract).
//! * **Eviction is LRU** over an approximate byte size, bounded by the
//!   server's `--cache-bytes`. Typed artifacts are dropped on
//!   eviction; byte artifacts (rendered response payloads) are spilled
//!   to the disk tier when one is configured, so a long-running server
//!   keeps warm responses beyond its memory budget.
//! * **Counters** (`serve.cache.{hit,miss,evict}`) go both to local
//!   atomics (always, for response envelopes) and to `secflow-obs`
//!   when a session is armed.
//! * **One build per key**: [`ArtifactCache::get_or_try`] marks a
//!   missed key in flight, and a second caller of that key waits for
//!   the first build instead of starting its own.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use secflow_obs as obs;

use crate::hash::ContentHash;

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    seq: u64,
}

struct Inner {
    map: HashMap<ContentHash, Entry>,
    /// LRU order: recency sequence → key. `BTreeMap` gives O(log n)
    /// oldest-first eviction without an intrusive list.
    order: BTreeMap<u64, ContentHash>,
    total: usize,
    next_seq: u64,
    /// Keys a [`ArtifactCache::get_or_try`] builder is building.
    in_flight: HashSet<ContentHash>,
}

/// Point-in-time cache statistics for response envelopes and the
/// `stats` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evicts: u64,
    /// Live in-memory entries.
    pub entries: usize,
    /// Approximate bytes held in memory.
    pub bytes: usize,
}

/// The in-memory + on-disk artifact store.
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    /// Signalled whenever a key leaves `in_flight`.
    built: Condvar,
    capacity: usize,
    disk_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicts: AtomicU64,
}

impl ArtifactCache {
    /// A cache bounded at `capacity` approximate bytes, spilling byte
    /// artifacts into `disk_dir` (created on first use) when set.
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                total: 0,
                next_seq: 0,
                in_flight: HashSet::new(),
            }),
            built: Condvar::new(),
            capacity,
            disk_dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicts: AtomicU64::new(0),
        }
    }

    fn disk_path(&self, key: ContentHash) -> Option<PathBuf> {
        self.disk_dir.as_ref().map(|d| d.join(format!("{key}.bin")))
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        obs::add(obs::Counter::ServeCacheHits, 1);
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::add(obs::Counter::ServeCacheMisses, 1);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a typed artifact, refreshing its recency on a hit.
    /// A present entry of the wrong type counts as a miss (it cannot
    /// happen under stage-tagged keys, but must not panic).
    pub fn get<T: Any + Send + Sync>(&self, key: ContentHash) -> Option<Arc<T>> {
        let found = Self::lookup(&mut self.lock(), key);
        match found {
            Some(_) => self.record_hit(),
            None => self.record_miss(),
        }
        found
    }

    /// The typed entry under `key`, refreshing its recency if present;
    /// records nothing.
    fn lookup<T: Any + Send + Sync>(inner: &mut Inner, key: ContentHash) -> Option<Arc<T>> {
        let v = Arc::downcast::<T>(Arc::clone(&inner.map.get(&key)?.value)).ok()?;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        // The entry is still present — the lock is held since the
        // lookup above — but a hit without the recency refresh is still
        // correct, so avoid unwrapping.
        if let Some(e) = inner.map.get_mut(&key) {
            let old = std::mem::replace(&mut e.seq, seq);
            inner.order.remove(&old);
            inner.order.insert(seq, key);
        }
        Some(v)
    }

    /// Inserts a typed artifact with an approximate byte size and
    /// evicts LRU entries until the store fits the budget again. An
    /// artifact larger than the whole budget is still served to the
    /// current caller but not retained.
    pub fn put<T: Any + Send + Sync>(&self, key: ContentHash, value: Arc<T>, bytes: usize) {
        if bytes > self.capacity {
            return;
        }
        let mut spilled: Vec<(ContentHash, Arc<dyn Any + Send + Sync>)> = Vec::new();
        {
            let mut inner = self.lock();
            let seq = inner.next_seq;
            inner.next_seq += 1;
            if let Some(old) = inner.map.insert(
                key,
                Entry {
                    value,
                    bytes,
                    seq,
                },
            ) {
                inner.order.remove(&old.seq);
                inner.total -= old.bytes;
            }
            inner.order.insert(seq, key);
            inner.total += bytes;
            while inner.total > self.capacity {
                // `order` mirrors `map`, so a victim always exists
                // while `total` is positive; the fallbacks below keep
                // the loop panic-free and terminating regardless
                // (each iteration shrinks `order`).
                let Some((&oldest, &victim)) = inner.order.iter().next() else {
                    break;
                };
                inner.order.remove(&oldest);
                let Some(entry) = inner.map.remove(&victim) else {
                    continue;
                };
                inner.total -= entry.bytes;
                self.evicts.fetch_add(1, Ordering::Relaxed);
                obs::add(obs::Counter::ServeCacheEvicts, 1);
                if self.disk_dir.is_some() && entry.value.is::<Vec<u8>>() {
                    spilled.push((victim, entry.value));
                }
            }
        }
        // Spill evicted byte artifacts outside the lock.
        for (k, v) in spilled {
            if let (Some(path), Some(data)) = (self.disk_path(k), v.downcast_ref::<Vec<u8>>()) {
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let _ = std::fs::write(&path, data);
            }
        }
    }

    /// `get` or build-and-`put`: the staged-pipeline primitive. A miss
    /// marks `key` in flight and builds outside the lock; a caller that
    /// finds the key in flight waits for that build and then looks
    /// again, so concurrent misses of one key build it once. If the
    /// build fails or unwinds, the key leaves flight and one waiter
    /// builds instead.
    ///
    /// A builder may call `get_or_try` for other keys. Every such
    /// nesting must follow one global order of key kinds (serve's is
    /// statistics → Map → Backend → Program, and a key never nests
    /// itself), so that no two builders wait on each other.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; nothing is cached on failure.
    pub fn get_or_try<T, E, B, S>(
        &self,
        key: ContentHash,
        build: B,
        size_of: S,
    ) -> Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
        B: FnOnce() -> Result<T, E>,
        S: FnOnce(&T) -> usize,
    {
        let mut inner = self.lock();
        loop {
            if let Some(v) = Self::lookup(&mut inner, key) {
                drop(inner);
                self.record_hit();
                return Ok(v);
            }
            if inner.in_flight.insert(key) {
                break;
            }
            inner = self.built.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        drop(inner);
        self.record_miss();
        // Releases the key and wakes its waiters however the build ends.
        let _in_flight = InFlight { cache: self, key };
        let built = Arc::new(build()?);
        let bytes = size_of(&built);
        self.put(key, Arc::clone(&built), bytes);
        Ok(built)
    }

    /// Looks up a byte artifact: memory first, then the disk tier.
    /// A disk hit is promoted back into memory.
    pub fn get_bytes(&self, key: ContentHash) -> Option<Arc<Vec<u8>>> {
        if let Some(v) = self.get::<Vec<u8>>(key) {
            return Some(v);
        }
        let path = self.disk_path(key)?;
        let data = std::fs::read(&path).ok()?;
        // The memory-tier miss above stays counted; the disk restore
        // is recorded as a hit of its own, so a disk round-trip shows
        // up as miss+hit while a pure cold lookup is miss-only.
        self.record_hit();
        let arc = Arc::new(data);
        let bytes = arc.len();
        self.put(key, Arc::clone(&arc), bytes);
        Some(arc)
    }

    /// Stores a byte artifact in memory (and eventually on disk via
    /// LRU spill).
    pub fn put_bytes(&self, key: ContentHash, data: Arc<Vec<u8>>) {
        let bytes = data.len();
        self.put(key, data, bytes);
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicts: self.evicts.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.total,
        }
    }
}

/// A key being built by [`ArtifactCache::get_or_try`]: dropping it
/// takes the key out of flight and wakes the callers waiting for it.
struct InFlight<'a> {
    cache: &'a ArtifactCache,
    key: ContentHash,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.cache.lock().in_flight.remove(&self.key);
        self.cache.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> ContentHash {
        ContentHash(n, !n)
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = ArtifactCache::new(1 << 20, None);
        let v = Arc::new(vec![1u8, 2, 3]);
        cache.put(key(1), Arc::clone(&v), 3);
        let got = cache.get::<Vec<u8>>(key(1)).unwrap();
        assert!(Arc::ptr_eq(&got, &v));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
    }

    #[test]
    fn wrong_type_is_a_miss_not_a_panic() {
        let cache = ArtifactCache::new(1 << 20, None);
        cache.put(key(2), Arc::new(42u64), 8);
        assert!(cache.get::<String>(key(2)).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_first_and_recency_protects() {
        let cache = ArtifactCache::new(30, None);
        cache.put(key(1), Arc::new(vec![0u8; 10]), 10);
        cache.put(key(2), Arc::new(vec![0u8; 10]), 10);
        cache.put(key(3), Arc::new(vec![0u8; 10]), 10);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get::<Vec<u8>>(key(1)).is_some());
        cache.put(key(4), Arc::new(vec![0u8; 10]), 10);
        assert!(cache.get::<Vec<u8>>(key(2)).is_none(), "victim survived");
        assert!(cache.get::<Vec<u8>>(key(1)).is_some());
        assert!(cache.get::<Vec<u8>>(key(3)).is_some());
        assert!(cache.get::<Vec<u8>>(key(4)).is_some());
        let s = cache.stats();
        assert_eq!(s.evicts, 1);
        assert_eq!(s.entries, 3);
        assert_eq!(s.bytes, 30);
    }

    #[test]
    fn oversized_artifact_is_not_retained() {
        let cache = ArtifactCache::new(10, None);
        cache.put(key(9), Arc::new(vec![0u8; 100]), 100);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn get_or_try_builds_once_then_hits() {
        let cache = ArtifactCache::new(1 << 20, None);
        let mut builds = 0;
        for _ in 0..3 {
            let v: Arc<u64> = cache
                .get_or_try(key(7), || -> Result<u64, ()> {
                    builds += 1;
                    Ok(99)
                }, |_| 8)
                .unwrap();
            assert_eq!(*v, 99);
        }
        assert_eq!(builds, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    type Built = Result<Arc<u64>, &'static str>;

    /// Runs `first` on a second thread and `second` here once `first`'s
    /// builder is running, so that `second` finds the key in flight or
    /// built. The first builder holds the key 50 ms after the barrier;
    /// the outcome does not depend on it, but without in-flight keys
    /// it makes the second caller build too.
    fn race(
        cache: &ArtifactCache,
        first: impl FnOnce() -> Result<u64, &'static str> + Send,
        second: impl FnOnce() -> Result<u64, &'static str>,
    ) -> (std::thread::Result<Built>, Built) {
        let building = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                cache.get_or_try(
                    key(5),
                    || {
                        building.wait();
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        first()
                    },
                    |_| 8,
                )
            });
            building.wait();
            let second = cache.get_or_try(key(5), second, |_| 8);
            (t.join(), second)
        })
    }

    #[test]
    fn concurrent_misses_of_one_key_build_once() {
        let cache = ArtifactCache::new(1 << 20, None);
        let builds = AtomicU64::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok(5)
        };
        let (first, second) = race(&cache, build, build);
        let first = first.expect("no panic").expect("built");
        assert!(Arc::ptr_eq(&first, &second.expect("waited and hit")));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn a_failed_or_unwound_build_hands_the_key_to_a_waiter() {
        for panics in [false, true] {
            let cache = ArtifactCache::new(1 << 20, None);
            let first = move || {
                assert!(!panics, "builder unwinds");
                Err("builder fails")
            };
            let (first, second) = race(&cache, first, || Ok(7));
            match first {
                Ok(r) => assert_eq!(r, Err("builder fails")),
                Err(_) => assert!(panics),
            }
            assert_eq!(*second.expect("the waiter builds"), 7);
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
        }
    }

    #[test]
    fn disk_tier_spills_and_restores_bytes() {
        let dir = std::env::temp_dir().join(format!(
            "secflow_serve_cache_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(16, Some(dir.clone()));
        cache.put_bytes(key(1), Arc::new(b"payload-one!".to_vec())); // 12 bytes
        cache.put_bytes(key(2), Arc::new(b"payload-two!".to_vec())); // evicts 1 → disk
        assert_eq!(cache.stats().evicts, 1);
        let restored = cache.get_bytes(key(1)).expect("disk tier restore");
        assert_eq!(restored.as_slice(), b"payload-one!");
        // The restore displaced entry 2 from memory; it spilled too.
        let two = cache.get_bytes(key(2)).expect("second spill restore");
        assert_eq!(two.as_slice(), b"payload-two!");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
