//! Per-node base-page cache for the restore read path.
//!
//! Dedup-start latency is dominated by base-page fetches (§4.2, Fig 8),
//! and the read set is highly skewed: dozens of pages patch against the
//! same hot base page (runtime pages of one base sandbox). The distinct
//! read set removes the duplicates *within* one restore; this cache
//! removes them *across* restores on the same node: the first restore
//! pays the RDMA transfer, repeats are served from local memory.
//!
//! An entry is a key and an LRU sequence number: the bytes are in the
//! base's pinned image, which restores read (and verify) them from. The
//! cache still charges the **paper-scale** copy a real node would hold —
//! `PAGE_SIZE * mem_scale` per entry — to node memory like any other
//! resident state. Eviction is LRU over a monotonic sequence number,
//! which keeps replacement decisions bit-deterministic across runs.

use crate::ids::SandboxId;
use medes_obs::Obs;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Cumulative cache statistics (paper-scale byte counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by LRU replacement (capacity or trim pressure).
    pub evictions: u64,
    /// Entries dropped because their base sandbox died.
    pub invalidations: u64,
    /// Paper-scale bytes served from cache instead of the fabric.
    pub bytes_saved: u64,
}

/// One cached base page.
#[derive(Debug)]
struct CacheEntry {
    seq: u64,
    /// Held only by entries [`BasePageCache::insert`] made.
    bytes: Option<Box<[u8]>>,
}

/// A per-node LRU cache of base pages, keyed by
/// `(base sandbox, base page index)`.
#[derive(Debug)]
pub struct BasePageCache {
    capacity_paper_bytes: usize,
    page_paper_bytes: usize,
    entries: HashMap<(SandboxId, u32), CacheEntry>,
    /// LRU order: smallest sequence number is the coldest entry.
    lru: BTreeMap<u64, (SandboxId, u32)>,
    next_seq: u64,
    used_paper_bytes: usize,
    stats: CacheStats,
    obs: Arc<Obs>,
}

impl BasePageCache {
    /// Creates a cache with the given paper-scale capacity. Each entry
    /// is charged `PAGE_SIZE * mem_scale` paper bytes. A capacity of
    /// zero (or smaller than one page) never stores anything.
    pub fn new(capacity_paper_bytes: usize, mem_scale: usize) -> Self {
        Self::with_obs(capacity_paper_bytes, mem_scale, Obs::disabled())
    }

    /// Like [`BasePageCache::new`] but mirroring the hit, miss,
    /// eviction and bytes-saved counters into `medes.restore.cache.*`;
    /// caches sharing one `obs` add into the same counters.
    pub fn with_obs(capacity_paper_bytes: usize, mem_scale: usize, obs: Arc<Obs>) -> Self {
        BasePageCache {
            capacity_paper_bytes,
            page_paper_bytes: medes_mem::PAGE_SIZE * mem_scale.max(1),
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            next_seq: 0,
            used_paper_bytes: 0,
            stats: CacheStats::default(),
            obs,
        }
    }

    /// Paper-scale bytes currently held (what the platform charges to
    /// node memory).
    pub fn used_paper_bytes(&self) -> usize {
        self.used_paper_bytes
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The base sandboxes the cached pages belong to, one item per page.
    pub fn cached_sandboxes(&self) -> impl Iterator<Item = SandboxId> + '_ {
        self.entries.keys().map(|&(sandbox, _)| sandbox)
    }

    /// Probes for a base page. A hit refreshes the entry's LRU
    /// position; both outcomes are counted. Nothing is copied: read a
    /// hit's bytes with [`BasePageCache::get`].
    pub fn hit(&mut self, sandbox: SandboxId, page: u32) -> bool {
        let key = (sandbox, page);
        let Some(entry) = self.entries.get_mut(&key) else {
            self.stats.misses += 1;
            self.obs.incr("medes.restore.cache.misses");
            return false;
        };
        self.lru.remove(&entry.seq);
        entry.seq = self.next_seq;
        self.lru.insert(self.next_seq, key);
        self.next_seq += 1;
        self.stats.hits += 1;
        self.stats.bytes_saved += self.page_paper_bytes as u64;
        self.obs.incr("medes.restore.cache.hits");
        self.obs.counter_add(
            "medes.restore.cache.bytes_saved",
            self.page_paper_bytes as u64,
        );
        true
    }

    /// The bytes [`BasePageCache::insert`] copied for `(sandbox, page)`,
    /// borrowed (no LRU or stats side effects); `None` for a recorded key.
    pub fn get(&self, sandbox: SandboxId, page: u32) -> Option<&[u8]> {
        self.entries.get(&(sandbox, page))?.bytes.as_deref()
    }

    /// [`BasePageCache::hit`], returning a copy of the hit's bytes. Kept
    /// only for the repository benchmark's page-cache probe.
    pub fn lookup(&mut self, sandbox: SandboxId, page: u32) -> Option<Vec<u8>> {
        self.hit(sandbox, page)
            .then(|| self.get(sandbox, page).map(<[u8]>::to_vec))
            .flatten()
    }

    /// Records a freshly fetched base page by its key, evicting LRU
    /// entries to stay within capacity. A page that cannot fit is skipped.
    pub fn record(&mut self, sandbox: SandboxId, page: u32) {
        self.put((sandbox, page), None);
    }

    /// [`BasePageCache::record`] plus a copy of `bytes` for `get`. Kept
    /// only for the repository benchmark's page-cache probe.
    pub fn insert(&mut self, sandbox: SandboxId, page: u32, bytes: &[u8]) {
        self.put((sandbox, page), Some(bytes.into()));
    }

    fn put(&mut self, key: (SandboxId, u32), bytes: Option<Box<[u8]>>) {
        if self.page_paper_bytes > self.capacity_paper_bytes {
            return;
        }
        if let Some(entry) = self.entries.get_mut(&key) {
            // Refresh in place: same page (base images are immutable),
            // newer LRU position.
            self.lru.remove(&entry.seq);
            entry.seq = self.next_seq;
            self.lru.insert(self.next_seq, key);
            self.next_seq += 1;
            return;
        }
        while self.used_paper_bytes + self.page_paper_bytes > self.capacity_paper_bytes {
            self.evict_coldest();
        }
        let seq = self.next_seq;
        self.entries.insert(key, CacheEntry { seq, bytes });
        self.lru.insert(seq, key);
        self.next_seq += 1;
        self.used_paper_bytes += self.page_paper_bytes;
    }

    /// Drops every page of `sandbox` (its base died with a purge or a
    /// node crash: dead pages must never be served). Returns the number
    /// of entries removed.
    pub fn invalidate_sandbox(&mut self, sandbox: SandboxId) -> usize {
        let victims: Vec<(SandboxId, u32)> = self
            .entries
            .keys()
            .filter(|(sb, _)| *sb == sandbox)
            .copied()
            .collect();
        for key in &victims {
            let entry = self.entries.remove(key).expect("victim exists");
            self.lru.remove(&entry.seq);
            self.used_paper_bytes -= self.page_paper_bytes;
        }
        let n = victims.len();
        if n > 0 {
            self.stats.invalidations += n as u64;
            if self.obs.enabled() {
                self.obs
                    .counter_add("medes.restore.cache.invalidations", n as u64);
            }
        }
        n
    }

    /// Evicts LRU entries until at least `paper_bytes` have been freed
    /// (or the cache is empty). Used by the platform to shed cache
    /// memory under node pressure before it starts purging sandboxes.
    /// Returns the paper-scale bytes actually freed.
    pub fn trim(&mut self, paper_bytes: usize) -> usize {
        let before = self.used_paper_bytes;
        while before - self.used_paper_bytes < paper_bytes && !self.entries.is_empty() {
            self.evict_coldest();
        }
        before - self.used_paper_bytes
    }

    /// Drops everything (the hosting node crashed).
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.lru.clear();
        self.used_paper_bytes = 0;
        n
    }

    fn evict_coldest(&mut self) {
        let Some((&seq, &key)) = self.lru.iter().next() else {
            return;
        };
        self.lru.remove(&seq);
        self.entries.remove(&key);
        self.used_paper_bytes -= self.page_paper_bytes;
        self.stats.evictions += 1;
        if self.obs.enabled() {
            self.obs.incr("medes.restore.cache.evictions");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_mem::PAGE_SIZE;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    /// A cache that fits exactly `n` pages at scale 1.
    fn cache(n: usize) -> BasePageCache {
        BasePageCache::new(n * PAGE_SIZE, 1)
    }

    #[test]
    fn hit_returns_inserted_bytes() {
        let mut c = cache(4);
        c.insert(SandboxId(1), 7, &page(0xAB));
        assert_eq!(c.lookup(SandboxId(1), 7), Some(page(0xAB)));
        assert_eq!(c.lookup(SandboxId(1), 8), None);
        // The hit test and the borrowed read split the same lookup.
        assert!(c.hit(SandboxId(1), 7));
        assert_eq!(c.get(SandboxId(1), 7), Some(&page(0xAB)[..]));
        assert_eq!(c.get(SandboxId(1), 8), None, "get never counts");
        // A recorded key hits and is charged, but holds no bytes.
        c.record(SandboxId(2), 7);
        assert_eq!(c.get(SandboxId(2), 7), None);
        assert!(c.hit(SandboxId(2), 7));
        assert_eq!(c.used_paper_bytes(), 2 * PAGE_SIZE);
        assert_eq!(c.stats().hits, 3);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().bytes_saved, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let mut c = cache(2);
        c.insert(SandboxId(1), 0, &page(1));
        c.insert(SandboxId(1), 1, &page(2));
        // Touch page 0 so page 1 becomes the coldest.
        assert!(c.lookup(SandboxId(1), 0).is_some());
        c.insert(SandboxId(1), 2, &page(3));
        assert!(c.get(SandboxId(1), 0).is_some());
        assert!(c.get(SandboxId(1), 1).is_none(), "coldest entry must go");
        assert!(c.get(SandboxId(1), 2).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.used_paper_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = cache(0);
        c.insert(SandboxId(1), 0, &page(1));
        assert!(c.is_empty());
        assert_eq!(c.used_paper_bytes(), 0);
        assert_eq!(c.lookup(SandboxId(1), 0), None);
    }

    #[test]
    fn paper_scale_charging() {
        let scale = 64;
        let mut c = BasePageCache::new(3 * PAGE_SIZE * scale, scale);
        c.insert(SandboxId(2), 0, &page(9));
        assert_eq!(c.used_paper_bytes(), PAGE_SIZE * scale);
        assert!(c.lookup(SandboxId(2), 0).is_some());
        assert_eq!(c.stats().bytes_saved, (PAGE_SIZE * scale) as u64);
    }

    #[test]
    fn invalidation_removes_only_that_sandbox() {
        let mut c = cache(8);
        c.insert(SandboxId(1), 0, &page(1));
        c.insert(SandboxId(1), 1, &page(2));
        c.insert(SandboxId(2), 0, &page(3));
        assert_eq!(c.invalidate_sandbox(SandboxId(1)), 2);
        assert!(c.get(SandboxId(1), 0).is_none());
        assert!(c.get(SandboxId(1), 1).is_none());
        assert!(c.get(SandboxId(2), 0).is_some());
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.used_paper_bytes(), PAGE_SIZE);
        // Idempotent on a sandbox with nothing cached.
        assert_eq!(c.invalidate_sandbox(SandboxId(1)), 0);
    }

    #[test]
    fn trim_frees_lru_entries() {
        let mut c = cache(4);
        for p in 0..4 {
            c.insert(SandboxId(1), p, &page(p as u8));
        }
        let freed = c.trim(2 * PAGE_SIZE);
        assert_eq!(freed, 2 * PAGE_SIZE);
        assert_eq!(c.len(), 2);
        // The two oldest inserts (pages 0 and 1) were the victims.
        assert!(c.get(SandboxId(1), 0).is_none());
        assert!(c.get(SandboxId(1), 1).is_none());
        assert!(c.get(SandboxId(1), 2).is_some());
        assert!(c.get(SandboxId(1), 3).is_some());
        // Trimming more than is held empties the cache and reports what
        // was actually freed.
        assert_eq!(c.trim(100 * PAGE_SIZE), 2 * PAGE_SIZE);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_resets_usage_but_keeps_stats() {
        let mut c = cache(4);
        c.insert(SandboxId(1), 0, &page(1));
        assert!(c.lookup(SandboxId(1), 0).is_some());
        assert_eq!(c.clear(), 1);
        assert!(c.is_empty());
        assert_eq!(c.used_paper_bytes(), 0);
        assert_eq!(c.stats().hits, 1, "stats survive a crash-clear");
    }

    /// Two nodes' caches share one `Obs`: the exported bytes saved is
    /// what both saved, not whichever hit last.
    #[test]
    fn bytes_saved_sums_over_caches_sharing_an_obs() {
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let mut a = BasePageCache::with_obs(4 * PAGE_SIZE, 1, Arc::clone(&obs));
        let mut b = BasePageCache::with_obs(4 * PAGE_SIZE, 1, Arc::clone(&obs));
        a.insert(SandboxId(1), 0, &page(1));
        b.insert(SandboxId(2), 0, &page(2));
        for _ in 0..3 {
            assert!(a.hit(SandboxId(1), 0));
        }
        assert!(b.lookup(SandboxId(2), 0).is_some());
        assert!(!b.hit(SandboxId(1), 0), "a's page is not b's");
        let saved = a.stats().bytes_saved + b.stats().bytes_saved;
        assert_eq!(saved, 4 * PAGE_SIZE as u64);
        assert_eq!(obs.counter("medes.restore.cache.bytes_saved"), saved);
        assert_eq!(obs.counter("medes.restore.cache.hits"), 4);
        assert_eq!(obs.counter("medes.restore.cache.misses"), 1);
    }

    #[test]
    fn replacement_order_is_deterministic() {
        // Two caches fed the same operation sequence hold the same keys.
        let ops = |c: &mut BasePageCache| {
            for i in 0..16u32 {
                c.insert(SandboxId(u64::from(i % 5)), i, &page(i as u8));
                if i % 3 == 0 {
                    let _ = c.lookup(SandboxId(u64::from(i % 5)), i / 2);
                }
            }
        };
        let mut a = cache(6);
        let mut b = cache(6);
        ops(&mut a);
        ops(&mut b);
        let mut keys_a: Vec<_> = a.entries.keys().copied().collect();
        let mut keys_b: Vec<_> = b.entries.keys().copied().collect();
        keys_a.sort_unstable();
        keys_b.sort_unstable();
        assert_eq!(keys_a, keys_b);
        assert_eq!(a.stats(), b.stats());
    }
}
