//! `vectorq::cache` — a bounded LRU cache of decompressed pages for the
//! query service.
//!
//! The store decides what reaches it (DESIGN.md §12): every page of
//! codec-byte storage (gpzip, gorilla, …), which has no compressed-domain
//! route, and ALP and raw pages only when the whole decoded column fits.
//! A larger ALP column is summed straight from its bytes: queries that scan
//! it through an LRU evict every page before it is read again.
//!
//! The cache holds `Arc<Vec<f64>>` pages so concurrent queries share one
//! decoded copy without lifetime gymnastics: a query that hits keeps its
//! `Arc` alive for exactly as long as it scans, even if the page is evicted
//! mid-scan. Two independent ceilings bound the cache — an entry count and a
//! hard byte budget — and it **degrades instead of growing**: a page that
//! cannot be admitted (budget zero, or the page alone exceeds the budget) is
//! counted as a bypass and the query streams from its private buffer. The
//! byte ceiling is enforced on every insert (evicting least-recently-used
//! pages first), so `bytes_peak` can never exceed `max_bytes` — the service
//! test suite asserts exactly that under concurrent load.
//!
//! All counters are relaxed atomics: they are observability, not
//! synchronization. The map itself sits behind one `Mutex`, which is cheap at
//! page granularity (one lock round-trip per ~100k-row page, not per value).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use fastlanes::VECTOR_SIZE;

/// Sizing knobs for the service's page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached pages. `0` disables caching entirely (every
    /// lookup is a bypass).
    pub max_entries: usize,
    /// Rows per cache page. Rounded up to a whole number of 1024-value
    /// vectors; pages are the unit of decode, quarantine, and parallelism.
    pub page_size_rows: usize,
    /// Hard memory ceiling for cached payloads, in bytes. Inserts evict
    /// least-recently-used pages until the new page fits; a page larger than
    /// the whole budget is bypassed, never admitted.
    pub max_bytes: usize,
}

impl CacheConfig {
    /// Defaults matching the paper's row-group geometry: 100-vector pages,
    /// 256 entries, a 64 MiB byte ceiling.
    pub fn default_config() -> Self {
        Self { max_entries: 256, page_size_rows: 100 * VECTOR_SIZE, max_bytes: 64 << 20 }
    }

    /// Rows per page, normalized to at least one whole vector.
    pub fn rows_per_page(&self) -> usize {
        let rows = self.page_size_rows.max(1);
        rows.div_ceil(VECTOR_SIZE) * VECTOR_SIZE
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// Point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a cached page.
    pub hits: u64,
    /// Lookups that found nothing cached.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Pages that could not be admitted (cache disabled or page larger than
    /// the byte budget) — the query streamed without caching.
    pub bypasses: u64,
    /// Pages currently resident.
    pub entries: usize,
    /// Payload bytes currently resident.
    pub bytes: usize,
    /// High-water mark of resident payload bytes.
    pub bytes_peak: usize,
}

struct Slot {
    values: Arc<Vec<f64>>,
    bytes: usize,
    tick: u64,
}

struct Inner {
    /// page index → resident slot.
    map: HashMap<usize, Slot>,
    /// LRU order: monotone tick → page index. Ticks are unique, so this is a
    /// total order; the first entry is the coldest page.
    lru: BTreeMap<u64, usize>,
    next_tick: u64,
    bytes: usize,
    bytes_peak: usize,
}

/// Bounded, shared LRU cache of decompressed pages. See the module docs for
/// the degrade-don't-grow contract.
pub struct PageCache {
    max_entries: usize,
    max_bytes: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

impl PageCache {
    /// Builds an empty cache with the given ceilings.
    pub fn new(config: &CacheConfig) -> Self {
        Self {
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                next_tick: 0,
                bytes: 0,
                bytes_peak: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// Never block on a poisoned lock: the critical sections below cannot
    /// panic, but a defensive service layer does not let a poisoned mutex
    /// take the whole store down with it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up page `page`, refreshing its recency on a hit.
    pub fn get(&self, page: usize) -> Option<Arc<Vec<f64>>> {
        let mut inner = self.lock();
        let tick = inner.next_tick;
        inner.next_tick += 1;
        if let Some(slot) = inner.map.get_mut(&page) {
            let old = slot.tick;
            slot.tick = tick;
            let values = Arc::clone(&slot.values);
            inner.lru.remove(&old);
            inner.lru.insert(tick, page);
            drop(inner);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(values)
        } else {
            drop(inner);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Tries to admit `values` as page `page`, evicting cold pages until both
    /// ceilings hold. Returns `false` (a bypass) when the page cannot be
    /// admitted at any eviction cost; the caller keeps streaming from its own
    /// buffer. Inserting a page that is already resident refreshes it.
    pub fn insert(&self, page: usize, values: Arc<Vec<f64>>) -> bool {
        let bytes = values.len().saturating_mul(core::mem::size_of::<f64>());
        if self.max_entries == 0 || bytes > self.max_bytes {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut inner = self.lock();
        let tick = inner.next_tick;
        inner.next_tick += 1;
        if let Some(old) = inner.map.remove(&page) {
            inner.lru.remove(&old.tick);
            inner.bytes -= old.bytes;
        }
        // Evict coldest-first until the new page fits under both ceilings.
        let mut evicted = 0u64;
        while inner.map.len() >= self.max_entries
            || inner.bytes.saturating_add(bytes) > self.max_bytes
        {
            match inner.lru.pop_first() {
                Some((_, cold)) => {
                    if let Some(slot) = inner.map.remove(&cold) {
                        inner.bytes -= slot.bytes;
                    }
                    evicted += 1;
                }
                None => break,
            }
        }
        inner.map.insert(page, Slot { values, bytes, tick });
        inner.lru.insert(tick, page);
        inner.bytes += bytes;
        inner.bytes_peak = inner.bytes_peak.max(inner.bytes);
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        true
    }

    /// Drops page `page` if resident (used when a page is quarantined: a
    /// cached copy of a page later found bad must not outlive the verdict).
    pub fn invalidate(&self, page: usize) {
        let mut inner = self.lock();
        if let Some(slot) = inner.map.remove(&page) {
            inner.lru.remove(&slot.tick);
            inner.bytes -= slot.bytes;
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            bytes_peak: inner.bytes_peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: usize) -> Arc<Vec<f64>> {
        Arc::new(vec![1.0; n])
    }

    fn cache(max_entries: usize, max_bytes: usize) -> PageCache {
        PageCache::new(&CacheConfig { max_entries, page_size_rows: VECTOR_SIZE, max_bytes })
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let c = cache(4, 1 << 20);
        assert!(c.get(0).is_none());
        assert!(c.insert(0, page(8)));
        assert!(c.get(0).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn entry_ceiling_evicts_least_recently_used() {
        let c = cache(2, 1 << 20);
        c.insert(0, page(4));
        c.insert(1, page(4));
        c.get(0); // page 1 is now coldest
        c.insert(2, page(4));
        assert!(c.get(0).is_some());
        assert!(c.get(1).is_none(), "coldest page should have been evicted");
        assert!(c.get(2).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn byte_ceiling_is_never_exceeded() {
        // 100 f64 = 800 bytes per page; ceiling fits two pages.
        let c = cache(64, 1700);
        for p in 0..10 {
            c.insert(p, page(100));
            let s = c.stats();
            assert!(s.bytes <= 1700, "resident {} > ceiling", s.bytes);
        }
        let s = c.stats();
        assert!(s.bytes_peak <= 1700);
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 8);
    }

    #[test]
    fn oversized_pages_bypass_instead_of_evicting_the_world() {
        let c = cache(8, 800);
        c.insert(0, page(50));
        assert!(!c.insert(1, page(200)), "1600-byte page cannot fit an 800-byte budget");
        let s = c.stats();
        assert_eq!(s.bypasses, 1);
        assert_eq!(s.entries, 1, "resident pages must survive a bypass");
    }

    #[test]
    fn zero_entry_cache_bypasses_everything() {
        let c = cache(0, 1 << 20);
        assert!(!c.insert(0, page(4)));
        assert!(c.get(0).is_none());
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn invalidate_drops_the_page_and_its_bytes() {
        let c = cache(4, 1 << 20);
        c.insert(0, page(100));
        c.invalidate(0);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert!(c.get(0).is_none());
    }

    #[test]
    fn reinserting_a_resident_page_refreshes_it() {
        let c = cache(2, 1 << 20);
        c.insert(0, page(4));
        c.insert(1, page(4));
        c.insert(0, page(6)); // refresh: page 1 is now coldest
        c.insert(2, page(4));
        assert!(c.get(0).is_some());
        assert!(c.get(1).is_none());
        assert_eq!(c.get(0).map(|v| v.len()), Some(6));
    }

    #[test]
    fn page_rows_normalize_to_whole_vectors() {
        let cfg = CacheConfig { max_entries: 1, page_size_rows: 1500, max_bytes: 1 };
        assert_eq!(cfg.rows_per_page(), 2 * VECTOR_SIZE);
        assert_eq!(CacheConfig { page_size_rows: 0, ..cfg }.rows_per_page(), VECTOR_SIZE);
    }
}
