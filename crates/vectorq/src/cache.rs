//! `vectorq::cache` — the query service's resident page set: decoded pages
//! kept for every later query, filled while a byte budget has room and never
//! evicted (DESIGN.md §12).
//!
//! Every query is a band scan in page order, so an LRU smaller than the
//! column evicts each page before the next scan reads it again, and one the
//! column fits never evicts: an eviction policy buys nothing here. The set
//! has one slot per page. A miss claims its slot only while an entry count
//! and a byte budget, both atomics, have room — before it decodes, so
//! `bytes_peak` never exceeds `max_bytes` and no page is admitted twice,
//! however many workers miss at once. Clearing a slot on quarantine or
//! unquarantine ([`PageCache::invalidate`]) returns its bytes and is the only
//! removal. A hit locks only its own slot, to clone the page's `Arc`; the
//! counters are relaxed atomics (each slot's mutex publishes its page).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fastlanes::VECTOR_SIZE;

/// Sizing knobs for the service's resident page set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of resident pages. `0` disables the set: a store built
    /// with it never consults it.
    pub max_entries: usize,
    /// Rows per page. Rounded up to a whole number of 1024-value vectors;
    /// pages are the unit of decode, residency, quarantine, and parallelism.
    pub page_size_rows: usize,
    /// Hard memory ceiling for resident payloads, in bytes. A miss is
    /// admitted only while its page still fits; nothing is evicted to make
    /// room.
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

/// Point-in-time snapshot of the set's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident page.
    pub hits: u64,
    /// Lookups that found no resident page.
    pub misses: u64,
    /// Always 0: the set never evicts. Kept only because `benchmark/` reads
    /// it.
    pub evictions: u64,
    /// Misses that found no room (a ceiling reached, or no slot for the page
    /// id): the page was served without being admitted.
    pub bypasses: u64,
    /// Pages currently resident.
    pub entries: usize,
    /// Payload bytes currently resident.
    pub bytes: usize,
    /// High-water mark of resident payload bytes.
    pub bytes_peak: usize,
}

/// One page's place in the set, behind its own lock.
struct Slot(Mutex<State>);

enum State {
    Free,
    /// Being decoded by the worker that claimed these bytes for it.
    Claimed(usize),
    Resident(Arc<Vec<f64>>),
}

impl Slot {
    /// Never block on a poisoned lock: no critical section here can panic,
    /// and a poisoned slot must not take the whole store down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Bounded, shared, never-evicting set of decoded pages. See the module docs.
pub struct PageCache {
    max_entries: usize,
    max_bytes: usize,
    slots: Box<[Slot]>,
    entries: AtomicUsize,
    bytes: AtomicUsize,
    bytes_peak: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
}

impl PageCache {
    /// An empty set with the given ceilings and a slot for each page id below
    /// `max_entries`.
    pub fn new(config: &CacheConfig) -> Self {
        Self::with_slots(config, config.max_entries)
    }

    /// An empty set with the given ceilings and one slot per page of a
    /// `pages`-page store.
    pub(crate) fn with_slots(config: &CacheConfig, pages: usize) -> Self {
        Self {
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            slots: (0..pages).map(|_| Slot(Mutex::new(State::Free))).collect(),
            entries: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            bytes_peak: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// Looks up page `page`; an id with no slot is a miss.
    pub fn get(&self, page: usize) -> Option<Arc<Vec<f64>>> {
        let hit = match self.slots.get(page).map(Slot::lock).as_deref() {
            Some(State::Resident(values)) => Some(Arc::clone(values)),
            _ => None,
        };
        (if hit.is_some() { &self.hits } else { &self.misses }).fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Admits `values` as page `page` if its slot is free and both ceilings
    /// have room. `false` when it is not admitted: the page is already
    /// resident (nothing is replaced), or there is no room (a bypass).
    pub fn insert(&self, page: usize, values: Arc<Vec<f64>>) -> bool {
        self.claim(page, values.len()) && self.fill(page, values)
    }

    /// Claims page `page`'s free slot, and the budget for `rows` values, for
    /// a page about to be decoded; [`PageCache::fill`] ends the claim. A page
    /// whose decode fails or panics is quarantined instead, which clears the
    /// claim. `false` when the page is resident or claimed already, or —
    /// counted as a bypass — when there is no room.
    pub(crate) fn claim(&self, page: usize, rows: usize) -> bool {
        let bytes = rows.saturating_mul(size_of::<f64>());
        if let Some(slot) = self.slots.get(page) {
            let mut state = slot.lock();
            if !matches!(*state, State::Free) {
                return false;
            }
            if self.reserve(bytes) {
                *state = State::Claimed(bytes);
                return true;
            }
        }
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Makes `values` the resident copy of claimed page `page`. A page of
    /// another size than claimed frees the claim instead; a slot invalidated
    /// since the claim stays free. Returns whether the page became resident.
    pub(crate) fn fill(&self, page: usize, values: Arc<Vec<f64>>) -> bool {
        let Some(slot) = self.slots.get(page) else { return false };
        let mut state = slot.lock();
        let State::Claimed(bytes) = *state else { return false };
        if values.len().saturating_mul(size_of::<f64>()) != bytes {
            *state = State::Free;
            self.release(bytes);
            return false;
        }
        *state = State::Resident(values);
        true
    }

    /// Takes one entry and `bytes` from the ceilings, or nothing if either
    /// would be crossed.
    fn reserve(&self, bytes: usize) -> bool {
        let take = |used: &AtomicUsize, n: usize, ceiling: usize| {
            let room = |u: usize| u.checked_add(n).filter(|&total| total <= ceiling);
            used.fetch_update(Ordering::Relaxed, Ordering::Relaxed, room).ok()
        };
        if take(&self.entries, 1, self.max_entries).is_none() {
            return false;
        }
        let Some(used) = take(&self.bytes, bytes, self.max_bytes) else {
            self.entries.fetch_sub(1, Ordering::Relaxed);
            return false;
        };
        self.bytes_peak.fetch_max(used + bytes, Ordering::Relaxed);
        true
    }

    fn release(&self, bytes: usize) {
        self.entries.fetch_sub(1, Ordering::Relaxed);
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Clears page `page`'s slot — resident or claimed — and returns its
    /// bytes to the budget: a resident copy must not outlive a quarantine
    /// verdict, and a failed page's claim ends here.
    pub fn invalidate(&self, page: usize) {
        let Some(slot) = self.slots.get(page) else { return };
        match std::mem::replace(&mut *slot.lock(), State::Free) {
            State::Free => {}
            State::Claimed(bytes) => self.release(bytes),
            State::Resident(values) => self.release(values.len() * size_of::<f64>()),
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            bypasses: self.bypasses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            bytes_peak: self.bytes_peak.load(Ordering::Relaxed),
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
        PageCache::with_slots(
            &CacheConfig { max_entries, page_size_rows: VECTOR_SIZE, max_bytes },
            16,
        )
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
    fn the_set_fills_until_full_and_never_evicts() {
        let c = cache(2, 1 << 20);
        assert!(c.insert(0, page(4)));
        assert!(c.insert(1, page(4)));
        assert!(!c.insert(2, page(4)), "a full set refuses instead of evicting");
        assert!(c.get(0).is_some() && c.get(1).is_some());
        assert!(c.get(2).is_none());
        let s = c.stats();
        assert_eq!((s.entries, s.bypasses, s.evictions), (2, 1, 0));
    }

    #[test]
    fn byte_ceiling_is_never_exceeded() {
        // 100 f64 = 800 bytes per page; ceiling fits two pages.
        let c = cache(64, 1700);
        for p in 0..10 {
            assert_eq!(c.insert(p, page(100)), p < 2);
            assert!(c.stats().bytes <= 1700);
        }
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.bytes_peak), (2, 1600, 1600));
        assert_eq!((s.bypasses, s.evictions), (8, 0));
    }

    #[test]
    fn oversized_pages_bypass_and_resident_pages_stay() {
        let c = cache(8, 800);
        c.insert(0, page(50));
        assert!(!c.insert(1, page(200)), "1600-byte page cannot fit an 800-byte budget");
        let s = c.stats();
        assert_eq!(s.bypasses, 1);
        assert_eq!(s.entries, 1, "resident pages must survive a bypass");
    }

    #[test]
    fn zero_entry_cache_bypasses_everything() {
        let c = PageCache::new(&CacheConfig { max_entries: 0, ..CacheConfig::default_config() });
        assert!(!c.insert(0, page(4)));
        assert!(c.get(0).is_none());
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn page_ids_without_a_slot_miss_and_are_refused() {
        let c = PageCache::new(&CacheConfig { max_entries: 2, ..CacheConfig::default_config() });
        assert!(c.insert(1, page(4)));
        assert!(!c.insert(2, page(4)));
        assert!(c.get(2).is_none() && c.get(usize::MAX).is_none());
        let s = c.stats();
        assert_eq!((s.misses, s.bypasses, s.entries), (2, 1, 1));
    }

    #[test]
    fn invalidate_returns_the_bytes_for_another_page() {
        let c = cache(1, 1 << 20);
        c.insert(0, page(100));
        assert!(!c.insert(1, page(100)));
        c.invalidate(0);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert!(c.get(0).is_none());
        assert!(c.insert(1, page(100)), "the freed room admits the next miss");
    }

    #[test]
    fn a_resident_page_is_never_admitted_twice() {
        let c = cache(4, 1 << 20);
        assert!(c.insert(0, page(4)));
        assert!(!c.insert(0, page(6)), "the resident copy stays");
        assert_eq!(c.get(0).map(|v| v.len()), Some(4));
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.bypasses), (1, 32, 0));
    }

    #[test]
    fn a_failed_or_missized_claim_frees_its_slot_and_budget() {
        let c = cache(1, 1 << 20);
        assert!(c.claim(0, 100));
        assert!(!c.claim(0, 100), "one claim per slot");
        assert!(!c.claim(1, 100), "the claim holds the only entry");
        c.invalidate(0); // the decode failed: the page is quarantined
        assert!(!c.fill(0, page(100)), "an invalidated claim fills nothing");
        assert!(c.get(0).is_none());
        assert_eq!((c.stats().entries, c.stats().bytes), (0, 0));
        assert!(c.claim(0, 100));
        assert!(!c.fill(0, page(99)), "a page of another size is not admitted");
        assert_eq!((c.stats().entries, c.stats().bytes), (0, 0));
        assert!(c.claim(0, 100) && c.fill(0, page(100)));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn page_rows_normalize_to_whole_vectors() {
        let cfg = CacheConfig { max_entries: 1, page_size_rows: 1500, max_bytes: 1 };
        assert_eq!(cfg.rows_per_page(), 2 * VECTOR_SIZE);
        assert_eq!(CacheConfig { page_size_rows: 0, ..cfg }.rows_per_page(), VECTOR_SIZE);
    }
}
