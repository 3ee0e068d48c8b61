//! `vectorq::cache` — one cell per page: the query service's resident page
//! set and its quarantine verdicts (DESIGN.md §12).
//!
//! Each page of a store owns one cell, a mutex around the page's whole state:
//! `Free`, `Claimed` by the worker decoding it into residency, `Resident`, or
//! `Quarantined` with the verdict that condemned it. A verdict and a resident
//! payload are one value, so they cannot disagree, and there is no order of
//! publication between fields to get right. The cell is reached only through
//! the constant-time transitions below, each of which locks, transitions and
//! unlocks; no guard leaves this module, and it calls no decoder, so no lock
//! is ever held across a page decode or sum.
//!
//! Residency is a set, not an LRU: every query is a band scan in page order,
//! so an LRU smaller than the column evicts each page before the next scan
//! reads it again, and one the column fits never evicts. A miss claims its
//! cell only while an entry count and a byte budget, both atomics, have room
//! — before it decodes, so `bytes_peak` never exceeds `max_bytes` and no page
//! is admitted twice, however many workers miss at once. Quarantine returns a
//! page's bytes and is the only removal. A store built with `max_entries: 0`
//! still has its cells, for quarantine; its lookups admit and count nothing.
//! The counters are relaxed atomics: no data is published through them.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fastlanes::VECTOR_SIZE;

use crate::service::LossReason;

/// Sizing knobs for the service's resident page set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of resident pages. `0` admits nothing: a store built
    /// with it keeps its pages' cells for quarantine and counts no lookup.
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
    /// Misses that found no room (a ceiling reached, or no cell for the page
    /// id): the page was served without being admitted.
    pub bypasses: u64,
    /// Pages currently resident.
    pub entries: usize,
    /// Payload bytes currently resident.
    pub bytes: usize,
    /// High-water mark of resident payload bytes.
    pub bytes_peak: usize,
}

/// One page's whole state: its residency and its quarantine verdict.
enum State {
    Free,
    /// Being decoded by the worker that claimed these bytes for it.
    Claimed(usize),
    Resident(Arc<Vec<f64>>),
    /// The first verdict observed; the page holds no bytes.
    Quarantined(LossReason),
}

/// What a page's cell told a query about to serve it.
pub(crate) enum Lookup {
    /// The page carries a verdict: skip it without touching its payload.
    Quarantined,
    /// The resident copy, to scan where it sits.
    Hit(Arc<Vec<f64>>),
    /// The caller claimed the page: decode it, then [`PageCache::fill`] it.
    Claimed,
    /// Serve the page without residency: no room, claimed by another worker,
    /// or not to be read at all.
    Bypass,
}

/// One cell per page, holding residency and quarantine. See the module docs.
pub struct PageCache {
    max_entries: usize,
    max_bytes: usize,
    cells: Box<[Mutex<State>]>,
    entries: AtomicUsize,
    bytes: AtomicUsize,
    bytes_peak: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
}

impl PageCache {
    /// An empty set with the given ceilings and a cell for each page id below
    /// `max_entries`.
    pub fn new(config: &CacheConfig) -> Self {
        Self::with_slots(config, config.max_entries)
    }

    /// An empty set with the given ceilings and one cell per page of a
    /// `pages`-page store.
    pub(crate) fn with_slots(config: &CacheConfig, pages: usize) -> Self {
        Self {
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            cells: (0..pages).map(|_| Mutex::new(State::Free)).collect(),
            entries: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            bytes_peak: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// Locks page `page`'s cell. Never blocks on a poisoned lock: no critical
    /// section here can panic, and a poisoned cell must not take the whole
    /// store down with it.
    fn cell(&self, page: usize) -> Option<MutexGuard<'_, State>> {
        self.cells.get(page).map(|cell| cell.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Looks up page `page`; an id with no cell is a miss.
    pub fn get(&self, page: usize) -> Option<Arc<Vec<f64>>> {
        let hit = match self.cell(page).as_deref() {
            Some(State::Resident(values)) => Some(Arc::clone(values)),
            _ => None,
        };
        (if hit.is_some() { &self.hits } else { &self.misses }).fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Admits `values` as page `page` if its cell is free and both ceilings
    /// have room. `false` when it is not admitted: the page is already
    /// resident (nothing is replaced), or there is no room (a bypass).
    pub fn insert(&self, page: usize, values: Arc<Vec<f64>>) -> bool {
        self.claim(page, values.len()) && self.fill(page, values)
    }

    /// A query's one look at page `page`, about to serve its `rows` values.
    /// A quarantined page says so whatever `read` is. Otherwise, when the
    /// query will not read the page (its zones prune it, or an injected
    /// fault fires first) or the set admits nothing (`max_entries: 0`), the
    /// answer is an uncounted [`Lookup::Bypass`]; when it will, the lookup
    /// counts a hit, or a miss that claims the page while there is room.
    pub(crate) fn lookup(&self, page: usize, rows: usize, read: bool) -> Lookup {
        let Some(mut state) = self.cell(page) else { return Lookup::Bypass };
        match &*state {
            State::Quarantined(_) => Lookup::Quarantined,
            _ if !read || self.max_entries == 0 => Lookup::Bypass,
            State::Resident(values) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Arc::clone(values))
            }
            State::Free | State::Claimed(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // A page another worker claimed is served without residency.
                let free = matches!(*state, State::Free);
                if free && self.admit(&mut state, rows) {
                    Lookup::Claimed
                } else {
                    Lookup::Bypass
                }
            }
        }
    }

    /// Claims page `page`'s free cell, and the budget for `rows` values, for
    /// a page about to be decoded; [`PageCache::fill`] or a quarantine ends
    /// the claim. `false` when the page is not free, or — counted as a
    /// bypass — when there is no room or no cell.
    pub(crate) fn claim(&self, page: usize, rows: usize) -> bool {
        let Some(mut state) = self.cell(page) else {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        matches!(*state, State::Free) && self.admit(&mut state, rows)
    }

    /// Claims `state` and the budget for `rows` values, or counts a bypass.
    fn admit(&self, state: &mut State, rows: usize) -> bool {
        let bytes = rows.saturating_mul(size_of::<f64>());
        if self.reserve(bytes) {
            *state = State::Claimed(bytes);
            return true;
        }
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        false
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

    /// Makes `values` the resident copy of claimed page `page`. A page of
    /// another size than claimed frees the claim instead; a page quarantined
    /// since the claim stays so. Returns whether the page became resident.
    pub(crate) fn fill(&self, page: usize, values: Arc<Vec<f64>>) -> bool {
        let Some(mut state) = self.cell(page) else { return false };
        let State::Claimed(bytes) = *state else { return false };
        if values.len().saturating_mul(size_of::<f64>()) != bytes {
            self.release(std::mem::replace(&mut *state, State::Free));
            return false;
        }
        *state = State::Resident(values);
        true
    }

    /// Condemns page `page` with `reason` unless it already carries a verdict
    /// (the first one stands). A resident copy or a claim ends here and its
    /// bytes return to the budget.
    pub(crate) fn quarantine(&self, page: usize, reason: LossReason) {
        let Some(mut state) = self.cell(page) else { return };
        if !matches!(*state, State::Quarantined(_)) {
            self.release(std::mem::replace(&mut *state, State::Quarantined(reason)));
        }
    }

    /// Lifts page `page`'s verdict, after a scrub pass re-verified that it
    /// decodes cleanly: the next query reads it fresh.
    pub(crate) fn unquarantine(&self, page: usize) {
        let Some(mut state) = self.cell(page) else { return };
        if matches!(*state, State::Quarantined(_)) {
            *state = State::Free;
        }
    }

    /// The verdict page `page` carries, if it is quarantined.
    pub(crate) fn reason(&self, page: usize) -> Option<LossReason> {
        match &*self.cell(page)? {
            State::Quarantined(reason) => Some(reason.clone()),
            _ => None,
        }
    }

    /// Pages currently quarantined, sorted.
    pub(crate) fn quarantined_pages(&self) -> Vec<usize> {
        let quarantined =
            |&page: &usize| matches!(self.cell(page).as_deref(), Some(State::Quarantined(_)));
        (0..self.cells.len()).filter(quarantined).collect()
    }

    /// Returns the entry and bytes a cell's former state held to the budget.
    fn release(&self, old: State) {
        let bytes = match old {
            State::Claimed(bytes) => bytes,
            State::Resident(values) => values.len() * size_of::<f64>(),
            State::Free | State::Quarantined(_) => return,
        };
        self.entries.fetch_sub(1, Ordering::Relaxed);
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
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

    impl PageCache {
        /// Ends page `page`'s residency or claim, as a quarantine does,
        /// without condemning it.
        fn invalidate(&self, page: usize) {
            let Some(mut state) = self.cell(page) else { return };
            if !matches!(*state, State::Quarantined(_)) {
                self.release(std::mem::replace(&mut *state, State::Free));
            }
        }
    }

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
