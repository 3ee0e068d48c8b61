//! `vectorq::service` — a concurrent query service over one shared,
//! immutable [`Column`], built to degrade instead of dying (DESIGN.md §12).
//!
//! The moving parts, and the failure each one absorbs:
//!
//! * **[`Store`]** — the column plus per-page quarantine flags and a bounded,
//!   never-evicting resident page set ([`PageCache`]). Pages are the unit of
//!   decode, residency, quarantine, and parallelism (one page = one morsel).
//!   A missed page becomes resident while the set has room; the pages that
//!   do not fit are summed from the stored bytes.
//! * **Admission control** — at most `max_concurrent` queries run and at most
//!   `max_queued` wait; the next caller gets a typed
//!   [`ServiceError::Overloaded`] with a retry hint derived from recent query
//!   durations, instead of an unbounded queue.
//! * **Deadlines** — each query carries a [`CancelToken`]; workers check it
//!   at every morsel boundary, so an expired deadline abandons unclaimed
//!   pages and returns [`ServiceError::DeadlineExceeded`] without ever
//!   interrupting a kernel mid-decode.
//! * **Quarantine-and-continue** — a page that fails decode, or poisons a
//!   worker with a panic (contained by [`run_morsels_governed`]'s seam), is
//!   quarantined in the store; the query returns a **partial result** with a
//!   [`LossReport`] naming the lost pages, and every later query skips them
//!   without re-decoding.
//!
//! Results are deterministic. A query's sum has one fold order: each page
//! folds the canonical sums of its vectors ([`alp::decode`]) in vector order
//! from `+0.0`, and the page partials are reduced in page order on the
//! caller's thread — so a query over an unpoisoned store returns
//! bit-identical sums at every thread count, residency and route. (It is
//! the *service's* order: [`Column::sum_where`] folds all vector sums into
//! one running total, a different association that agrees to rounding, not
//! to the bit, once a column spans several pages.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use alp::io::{fault_seed, splitmix64};
use alp::par::{resolve_threads, run_morsels_governed, CancelToken};
use alp_core::Scratch;
use fastlanes::VECTOR_SIZE;

use crate::cache::{CacheConfig, CacheStats, PageCache};
use crate::scrub::{ScrubOptions, ScrubReport};
use crate::{Column, FilteredSum};

// ---------------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------------

/// Why the service refused or abandoned a query. Queries never panic and are
/// never silently dropped — every refusal is one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The run and wait queues are both full. Retry after roughly
    /// `retry_after_hint` (an exponentially-weighted average of recent query
    /// durations — the expected time for a slot to free up).
    Overloaded {
        /// Suggested client back-off before retrying.
        retry_after_hint: Duration,
    },
    /// The query's deadline expired — while queued, or mid-run at a morsel
    /// boundary. Work already done (including quarantine verdicts) is kept.
    DeadlineExceeded {
        /// Time spent before the service gave up.
        elapsed: Duration,
    },
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Overloaded { retry_after_hint } => {
                write!(f, "service overloaded; retry after ~{retry_after_hint:?}")
            }
            Self::DeadlineExceeded { elapsed } => {
                write!(f, "query deadline exceeded after {elapsed:?}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why a page's rows are missing from a query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LossReason {
    /// The page was already quarantined by an earlier query; it was skipped
    /// without touching its payload.
    Quarantined,
    /// Decoding the page's payload failed with a typed error.
    Decode(String),
    /// The page panicked a worker; the panic was contained at the morsel
    /// boundary and the page quarantined.
    Poisoned(String),
}

impl core::fmt::Display for LossReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Quarantined => write!(f, "previously quarantined"),
            Self::Decode(e) => write!(f, "decode failed: {e}"),
            Self::Poisoned(e) => write!(f, "worker poisoned: {e}"),
        }
    }
}

/// One page missing from a query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageLoss {
    /// Page index within the store.
    pub page: usize,
    /// Rows the page would have contributed.
    pub rows: usize,
    /// Why the page is missing.
    pub reason: LossReason,
}

/// Which pages a query could not serve. An empty report means the result is
/// complete; a non-empty one means the result is a partial over the healthy
/// pages — the paper-faithful aggregate minus `rows_lost()` rows.
///
/// The report also carries the store's cumulative scrub history (DESIGN.md
/// §16), so a caller watching results transition partial→complete can see
/// the repairs that drove the transition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LossReport {
    /// Lost pages, sorted by page index.
    pub pages: Vec<PageLoss>,
    /// Quarantined pages re-verified by scrub passes over the store's
    /// lifetime, snapshotted when the query completed.
    pub scrub_checked: u64,
    /// Pages un-quarantined by scrub passes over the store's lifetime.
    pub scrub_repaired: u64,
}

impl LossReport {
    /// Whether every page was served.
    pub fn is_complete(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total rows missing from the result.
    pub fn rows_lost(&self) -> usize {
        self.pages.iter().map(|p| p.rows).sum()
    }
}

/// A completed (possibly partial) query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The aggregate over every healthy page.
    pub value: FilteredSum,
    /// Pages summed from the stored bytes — the fused
    /// unpack→FOR→patch→predicate→aggregate path on ALP, an in-place sum on
    /// raw values — taken by pages that are not resident and found no room
    /// in the resident set (never when [`QueryOptions::no_fused`] is set).
    pub pages_fused: usize,
    /// Pages scanned from decoded values: resident pages, pages decoded to
    /// become resident, and pages decoded into the worker's buffer
    /// (`no_fused`).
    pub pages_materialized: usize,
    /// Pages that could not be served; empty for a complete result.
    pub loss: LossReport,
    /// Wall-clock time inside the service (queueing included).
    pub elapsed: Duration,
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// What an injected page fault does to the touching query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoisonKind {
    /// Panic inside the worker (contained at the morsel boundary).
    Panic,
    /// Fail with a typed decode error.
    Corrupt,
}

/// Deterministic bad-page injection for the robustness suites: a pure
/// function of `(seed, page)` through the same [`splitmix64`] mixer as the
/// I/O fault layer, so a seed reproduces the exact same poisoned pages on
/// every run and thread count. Seed `0` injects nothing (production).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonPlan {
    seed: u64,
}

impl PoisonPlan {
    /// No injection — every page is healthy.
    pub fn none() -> Self {
        Self { seed: 0 }
    }

    /// Poisons a deterministic ~25% of pages derived from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self { seed }
    }

    /// Seeds from `ALP_FAULT_SEED` (no injection when unset), mirroring the
    /// I/O fault layer's environment contract.
    pub fn from_env() -> Self {
        Self::seeded(fault_seed(0))
    }

    /// Whether `page` is poisoned under this plan — public so tests can
    /// compute the expected quarantine set for any seed.
    pub fn poisons(&self, page: usize) -> bool {
        self.decide(page).is_some()
    }

    fn decide(&self, page: usize) -> Option<PoisonKind> {
        if self.seed == 0 {
            return None;
        }
        let r = splitmix64(self.seed ^ (page as u64).wrapping_add(1));
        if !r.is_multiple_of(4) {
            return None;
        }
        Some(if (r >> 8) & 1 == 0 { PoisonKind::Panic } else { PoisonKind::Corrupt })
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// A shared, immutable column prepared for concurrent service: page
/// geometry, quarantine flags, the resident page set, and (in the fault
/// suites) a poison plan. `Store` is `Sync`; queries borrow it concurrently.
pub struct Store {
    column: Column,
    rows: usize,
    vectors: usize,
    vectors_per_page: usize,
    pages: usize,
    /// One flag per page; set when the page fails decode or poisons a
    /// worker, cleared only by a scrub pass that re-verified the page
    /// decodes cleanly (see [`Store::unquarantine`]).
    quarantined: Vec<AtomicBool>,
    /// First-observed quarantine reason per page, for reporting.
    reasons: Mutex<BTreeMap<usize, LossReason>>,
    /// The resident page set, one slot per page; `None` for a zero-entry
    /// configuration, which is never consulted.
    cache: Option<PageCache>,
    poison: PoisonPlan,
    /// When set, the injected fault plan stops firing — models the faulty
    /// medium having been repaired out-of-band (e.g. the backing file
    /// rewritten through the parity repair path), so scrub recovery is
    /// deterministic in the fault suites. Production stores (seed 0) never
    /// poison and are unaffected.
    healed: AtomicBool,
    /// Cumulative quarantined pages re-verified by scrub passes.
    scrub_checked: AtomicU64,
    /// Cumulative pages un-quarantined by scrub passes.
    scrub_repaired: AtomicU64,
}

impl Store {
    /// Wraps `column` for service with the given cache sizing.
    pub fn new(column: Column, cache: CacheConfig) -> Self {
        Self::with_poison(column, cache, PoisonPlan::none())
    }

    /// Like [`Store::new`] with deterministic bad-page injection — the
    /// robustness suites' entry point.
    pub fn with_poison(column: Column, cache: CacheConfig, poison: PoisonPlan) -> Self {
        let rows = column.len();
        let vectors = column.zone_maps().len();
        let vectors_per_page = (cache.rows_per_page() / VECTOR_SIZE).max(1);
        let pages = vectors.div_ceil(vectors_per_page);
        let quarantined = (0..pages).map(|_| AtomicBool::new(false)).collect();
        Self {
            column,
            rows,
            vectors,
            vectors_per_page,
            pages,
            quarantined,
            reasons: Mutex::new(BTreeMap::new()),
            cache: (cache.max_entries > 0).then(|| PageCache::with_slots(&cache, pages)),
            poison,
            healed: AtomicBool::new(false),
            scrub_checked: AtomicU64::new(0),
            scrub_repaired: AtomicU64::new(0),
        }
    }

    /// The wrapped column.
    pub fn column(&self) -> &Column {
        &self.column
    }

    /// Number of cache/quarantine pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Rows covered by page `page` (the last page may be short).
    pub fn page_rows(&self, page: usize) -> usize {
        let per_page = self.vectors_per_page * VECTOR_SIZE;
        let start = page.saturating_mul(per_page).min(self.rows);
        let end = start.saturating_add(per_page).min(self.rows);
        end - start
    }

    /// Pages currently quarantined, sorted.
    pub fn quarantined_pages(&self) -> Vec<usize> {
        // Acquire pairs with the Release store in `quarantine`: a flag seen
        // true guarantees the page's `LossReason` is already recorded.
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, q)| q.load(Ordering::Acquire))
            .map(|(p, _)| p)
            .collect()
    }

    /// Snapshot of the resident page set's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map_or_else(CacheStats::default, PageCache::stats)
    }

    fn is_quarantined(&self, page: usize) -> bool {
        // Acquire pairs with the Release store in `quarantine` (see there).
        self.quarantined.get(page).map(|q| q.load(Ordering::Acquire)).unwrap_or(false)
    }

    /// Marks `page` bad: later queries skip it without touching its payload,
    /// and its resident slot is cleared (a verdict outlives the resident
    /// copy).
    fn quarantine(&self, page: usize, reason: LossReason) {
        // Publication order matters: the `LossReason` is recorded and the
        // slot cleared *before* the flag flips, and the flag store is
        // `Release` paired with the `Acquire` loads in `is_quarantined` /
        // `quarantined_pages` / `loss_reason` — so any query that observes
        // the flag and skips the page is guaranteed to find the reason (and
        // never a stale resident payload) behind it.
        {
            let mut reasons = match self.reasons.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            reasons.entry(page).or_insert(reason);
        }
        if let Some(cache) = &self.cache {
            cache.invalidate(page);
        }
        if let Some(q) = self.quarantined.get(page) {
            q.store(true, Ordering::Release);
        }
    }

    /// The recorded verdict for a quarantined page, if any. The Acquire load
    /// pairs with `quarantine`'s Release store, so a `Some` flag implies the
    /// reason lookup cannot race with its insertion.
    pub fn loss_reason(&self, page: usize) -> Option<LossReason> {
        if !self.is_quarantined(page) {
            return None;
        }
        let reasons = match self.reasons.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        reasons.get(&page).cloned()
    }

    /// Clears `page`'s quarantine after a scrub pass re-verified it decodes
    /// cleanly (the scrubber is the only caller — queries never clear flags).
    ///
    /// Inverse publication order of [`Store::quarantine`]: the stale verdict
    /// is removed and the resident slot cleared *before* the flag clears, and
    /// the flag store is `Release` paired with the same `Acquire` loads — so
    /// a query that observes the flag low decodes the page fresh and never
    /// finds a leftover reason (or payload) behind a healthy flag.
    pub(crate) fn unquarantine(&self, page: usize) {
        {
            let mut reasons = match self.reasons.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            reasons.remove(&page);
        }
        if let Some(cache) = &self.cache {
            cache.invalidate(page);
        }
        if let Some(q) = self.quarantined.get(page) {
            q.store(false, Ordering::Release);
        }
    }

    /// Stops the injected fault plan from firing: models the faulty medium
    /// having been repaired out-of-band (e.g. the backing file rewritten
    /// through the parity repair path), so a following scrub pass observes
    /// recovery deterministically. Idempotent; a no-op on production stores.
    pub fn heal_poison(&self) {
        self.healed.store(true, Ordering::Release);
    }

    /// Fires the seeded plan's fault for `page`, if any and unless the store
    /// has been healed: a panic (which the governed runner's containment
    /// seam absorbs, for queries and scrub passes alike) or a typed decode
    /// error.
    fn injected_fault(&self, page: usize) -> Result<(), LossReason> {
        if self.healed.load(Ordering::Acquire) {
            return Ok(());
        }
        match self.poison.decide(page) {
            // Deliberate fault injection: the panic the governed runner's
            // containment seam exists to absorb, enabled only by a nonzero
            // poison seed.
            Some(PoisonKind::Panic) => panic!("injected page poison (page {page})"),
            Some(PoisonKind::Corrupt) => {
                Err(LossReason::Decode(format!("injected corruption (page {page})")))
            }
            None => Ok(()),
        }
    }

    /// Re-verifies that `page` decodes cleanly end to end — the scrubber's
    /// probe. Walks every vector through the same fallible storage walker
    /// queries use, never the resident copy (a verdict must come from the
    /// payload, not a stale copy).
    pub(crate) fn verify_page(&self, page: usize, ctx: &mut PageCtx) -> Result<(), LossReason> {
        self.injected_fault(page)?;
        let (v0, v1) = self.page_vectors(page);
        self.column
            .try_walk(v0..v1, &mut ctx.scratch, |_| {})
            .map_err(|e| LossReason::Decode(e.to_string()))
    }

    /// Test-only quarantine entry so the scrub suite can seed damage without
    /// running a full query first.
    #[cfg(test)]
    pub(crate) fn quarantine_for_test(&self, page: usize) {
        self.quarantine(page, LossReason::Decode(format!("seeded by test (page {page})")));
    }

    /// Accumulates one scrub pass's counters.
    pub(crate) fn note_scrub(&self, checked: u64, repaired: u64) {
        self.scrub_checked.fetch_add(checked, Ordering::Relaxed);
        self.scrub_repaired.fetch_add(repaired, Ordering::Relaxed);
    }

    /// Cumulative `(pages checked, pages repaired)` across every scrub pass.
    pub fn scrub_totals(&self) -> (u64, u64) {
        (self.scrub_checked.load(Ordering::Relaxed), self.scrub_repaired.load(Ordering::Relaxed))
    }

    /// Global vector range `[v0, v1)` covered by page `page`.
    fn page_vectors(&self, page: usize) -> (usize, usize) {
        let v0 = page.saturating_mul(self.vectors_per_page).min(self.vectors);
        let v1 = v0.saturating_add(self.vectors_per_page).min(self.vectors);
        (v0, v1)
    }

    /// Scans a page's decoded values with zone-map pruning per vector. Each
    /// vector's canonical sum folds in vector order, so the partial is
    /// bit-identical whether the values were resident, freshly decoded or —
    /// never decoded at all — summed by the compressed-domain route or
    /// answered from their zone maps.
    fn scan_page_values(
        &self,
        values: &[f64],
        v0: usize,
        v1: usize,
        lo: f64,
        hi: f64,
    ) -> FilteredSum {
        let mut part = FilteredSum::zero();
        let zones = self.column.zone_maps();
        let mut offset = 0usize;
        for v in v0..v1 {
            let len = self.column.vector_len(v);
            let (Some(zone), Some(slice)) = (zones.get(v), values.get(offset..offset + len)) else {
                break;
            };
            if zone.overlaps(lo, hi) {
                part.vectors_scanned += 1;
                part.add_values(slice, zone, lo, hi);
            } else {
                part.vectors_skipped += 1;
            }
            offset += len;
        }
        part
    }

    /// One morsel of a query: serve page `page`. Runs on a worker inside the
    /// governed runner, so an injected [`PoisonKind::Panic`] unwinds into the
    /// containment seam. Zone maps prune at two levels — a fully-disjoint page
    /// is never touched at all, and disjoint vectors inside a served page are
    /// skipped.
    ///
    /// A resident page is scanned where it sits. A miss claims the page's
    /// slot while the resident set has room, decodes the page into a buffer
    /// of its own, scans it and leaves it resident. A miss that finds no room
    /// materializes nothing for the set: the page is summed straight from the
    /// stored bytes ([`Column::try_sum_where_in`]), or under `no_fused` (that
    /// route's reference) decoded into the worker's reused buffer and scanned
    /// there. Every route folds bit-identically.
    fn execute_page(
        &self,
        page: usize,
        lo: f64,
        hi: f64,
        no_fused: bool,
        ctx: &mut PageCtx,
    ) -> PageOutcome {
        if self.is_quarantined(page) {
            return PageOutcome::Skipped(LossReason::Quarantined);
        }
        let (v0, v1) = self.page_vectors(page);
        let zones = self.column.zone_maps();
        let overlapping =
            zones.get(v0..v1).map(|zs| zs.iter().any(|z| z.overlaps(lo, hi))).unwrap_or(false);
        if !overlapping {
            // A pruned page is never touched, so a poisoned-but-pruned page
            // cannot hurt this query (it will hurt the first query that
            // actually reads it).
            return PageOutcome::Pruned(v1 - v0);
        }
        if let Err(reason) = self.injected_fault(page) {
            return PageOutcome::Skipped(reason);
        }
        let cache = self.cache.as_ref();
        if let Some(values) = cache.and_then(|c| c.get(page)) {
            let part = self.scan_page_values(&values, v0, v1, lo, hi);
            return PageOutcome::Scanned { part, fused: false };
        }
        let rows = self.page_rows(page);
        let claimed = cache.filter(|c| c.claim(page, rows));
        if claimed.is_none() && !no_fused {
            return match self.column.try_sum_where_in(v0..v1, lo, hi, &mut ctx.scratch) {
                Ok(part) => PageOutcome::Scanned { part, fused: true },
                Err(e) => PageOutcome::Skipped(LossReason::Decode(e.to_string())),
            };
        }
        let mut own = Vec::new();
        let values = if claimed.is_some() { &mut own } else { &mut ctx.page_buf };
        values.clear();
        values.reserve_exact(rows);
        let decoded =
            self.column.try_walk(v0..v1, &mut ctx.scratch, |live| values.extend_from_slice(live));
        if let Err(e) = decoded {
            // The page is quarantined, which also ends its claim.
            return PageOutcome::Skipped(LossReason::Decode(e.to_string()));
        }
        let part = self.scan_page_values(values, v0, v1, lo, hi);
        if let Some(cache) = claimed {
            cache.fill(page, Arc::new(own));
        }
        PageOutcome::Scanned { part, fused: false }
    }
}

/// Per-worker query scratch: the walker's vector buffer plus the page
/// assembly buffer, built once per worker and reused across every page it
/// claims. Shared with the
/// scrubber ([`crate::scrub`]), whose workers re-verify pages through the
/// same walker.
pub(crate) struct PageCtx {
    scratch: Scratch,
    page_buf: Vec<f64>,
}

impl PageCtx {
    pub(crate) fn new() -> Self {
        Self { scratch: Scratch::new(), page_buf: Vec::new() }
    }
}

/// What one page morsel produced.
enum PageOutcome {
    /// Healthy page, scanned (possibly with some vectors zone-pruned);
    /// `fused` records whether the scan ran in the compressed domain.
    Scanned {
        /// The page's partial aggregate.
        part: FilteredSum,
        /// True for a compressed-domain (fused) scan, false for a scan of a
        /// materialized buffer.
        fused: bool,
    },
    /// Whole page zone-pruned without touching its payload (vector count).
    Pruned(usize),
    /// Page unavailable: quarantined earlier, or failed decode just now.
    Skipped(LossReason),
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Service sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Queries allowed to run simultaneously.
    pub max_concurrent: usize,
    /// Queries allowed to wait for a slot; the next one is refused with
    /// [`ServiceError::Overloaded`].
    pub max_queued: usize,
    /// Worker threads per query (`0` = resolve from `ALP_THREADS` / the
    /// machine, like every other parallel entry point).
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { max_concurrent: 4, max_queued: 16, threads: 0 }
    }
}

struct GateState {
    active: usize,
    waiting: usize,
}

struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_concurrent: usize,
    max_queued: usize,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// An admitted query slot; releasing it (on drop) wakes one queued query.
/// Obtained from [`Service::admit`] — tests hold permits to drive the gate
/// into deterministic overload.
pub struct QueryPermit<'a> {
    gate: &'a Gate,
}

impl Drop for QueryPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        st.active = st.active.saturating_sub(1);
        drop(st);
        self.gate.cv.notify_one();
    }
}

/// Per-query knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Give up (typed [`ServiceError::DeadlineExceeded`], never a hang) after
    /// this long — covering queue time and run time.
    pub deadline: Option<Duration>,
    /// Worker threads for this query; defaults to the service's setting.
    pub threads: Option<usize>,
    /// Disable the fused compressed-domain scan path: a page that would run
    /// it is decoded into the worker's reused buffer and scanned there
    /// instead (the CLI's `--no-fused` reference route). Residency is
    /// unchanged: resident pages still hit, and a miss with room still
    /// becomes resident. Results are bit-identical either way — this only
    /// trades performance.
    pub no_fused: bool,
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

/// The concurrent query front door over one shared [`Store`].
pub struct Service {
    store: Arc<Store>,
    gate: Gate,
    threads: usize,
    /// EWMA of recent query durations in nanoseconds (0 = no data yet);
    /// feeds `Overloaded::retry_after_hint`.
    ewma_nanos: AtomicU64,
}

impl Service {
    /// Builds a service over `store`.
    pub fn new(store: Arc<Store>, config: ServiceConfig) -> Self {
        Self {
            store,
            gate: Gate {
                state: Mutex::new(GateState { active: 0, waiting: 0 }),
                cv: Condvar::new(),
                max_concurrent: config.max_concurrent.max(1),
                max_queued: config.max_queued,
            },
            threads: config.threads,
            ewma_nanos: AtomicU64::new(0),
        }
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Claims a query slot without running anything — the admission primitive
    /// behind every query, public so tests can hold slots and observe a
    /// deterministic [`ServiceError::Overloaded`].
    pub fn admit(&self) -> Result<QueryPermit<'_>, ServiceError> {
        self.admit_until(None, Instant::now())
    }

    /// `SELECT sum(x), count(x) WHERE lo <= x <= hi` over every healthy page.
    ///
    /// Returns a complete result when no page is lost; a **partial** result
    /// with a non-empty [`LossReport`] when pages are quarantined, failed to
    /// decode, or poisoned a worker; or a typed [`ServiceError`] when the
    /// query was refused (overload) or abandoned (deadline). Never panics.
    pub fn sum_where(
        &self,
        lo: f64,
        hi: f64,
        opts: &QueryOptions,
    ) -> Result<QueryResult, ServiceError> {
        let started = Instant::now();
        let deadline_at = opts.deadline.and_then(|d| started.checked_add(d));
        let _permit = self.admit_until(deadline_at, started)?;
        let token = match deadline_at {
            Some(at) => {
                let now = Instant::now();
                if at <= now {
                    return Err(ServiceError::DeadlineExceeded { elapsed: started.elapsed() });
                }
                CancelToken::with_deadline(at - now)
            }
            None => CancelToken::new(),
        };
        let threads = match opts.threads.unwrap_or(self.threads) {
            0 => resolve_threads(None),
            t => t,
        };
        let store = &*self.store;
        let no_fused = opts.no_fused;
        let run =
            run_morsels_governed(threads, store.pages(), &token, PageCtx::new, |ctx, page| {
                store.execute_page(page, lo, hi, no_fused, ctx)
            });
        // Quarantine verdicts survive even an abandoned run: a page that
        // poisoned a worker must not get a second chance to do it again.
        let mut loss: Vec<PageLoss> = Vec::new();
        for f in &run.failures {
            store.quarantine(f.morsel, LossReason::Poisoned(f.message.clone()));
            loss.push(PageLoss {
                page: f.morsel,
                rows: store.page_rows(f.morsel),
                reason: LossReason::Poisoned(f.message.clone()),
            });
        }
        let mut value = FilteredSum::zero();
        let mut pages_fused = 0usize;
        let mut pages_materialized = 0usize;
        for (page, outcome) in run.completed {
            match outcome {
                PageOutcome::Scanned { part: p, fused } => {
                    // `completed` is sorted by page, so this reduction order —
                    // and therefore the floating-point sum — is independent of
                    // thread count and worker timing.
                    value.merge(&p);
                    if fused {
                        pages_fused += 1;
                    } else {
                        pages_materialized += 1;
                    }
                }
                PageOutcome::Pruned(vectors) => value.vectors_skipped += vectors,
                PageOutcome::Skipped(reason) => {
                    if !matches!(reason, LossReason::Quarantined) {
                        store.quarantine(page, reason.clone());
                    }
                    loss.push(PageLoss { page, rows: store.page_rows(page), reason });
                }
            }
        }
        let elapsed = started.elapsed();
        self.note_duration(elapsed);
        if run.cancelled {
            return Err(ServiceError::DeadlineExceeded { elapsed });
        }
        loss.sort_by_key(|p| p.page);
        let (scrub_checked, scrub_repaired) = store.scrub_totals();
        Ok(QueryResult {
            value,
            pages_fused,
            pages_materialized,
            loss: LossReport { pages: loss, scrub_checked, scrub_repaired },
            elapsed,
        })
    }

    /// One background-scrubber pass (DESIGN.md §16): re-verifies every
    /// quarantined page through the same fallible decode path queries use and
    /// un-quarantines the pages that decode cleanly again, so later queries
    /// serve them with full results. Deadline-governed like a query — the
    /// token is checked at every morsel boundary, and an expired deadline
    /// leaves the remaining pages for the next pass. Scrubbing bypasses the
    /// admission gate (it is maintenance, not query load) and never panics.
    pub fn scrub_once(&self, opts: &ScrubOptions) -> ScrubReport {
        let token = match opts.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let threads = match opts.threads.unwrap_or(self.threads) {
            0 => resolve_threads(None),
            t => t,
        };
        crate::scrub::scrub_store(&self.store, threads, &token)
    }

    /// Snapshot of the store's resident-set counters (for the benchmark).
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache_stats()
    }

    fn admit_until(
        &self,
        deadline: Option<Instant>,
        started: Instant,
    ) -> Result<QueryPermit<'_>, ServiceError> {
        let gate = &self.gate;
        let mut st = gate.lock();
        if st.active < gate.max_concurrent {
            st.active += 1;
            return Ok(QueryPermit { gate });
        }
        if st.waiting >= gate.max_queued {
            drop(st);
            return Err(ServiceError::Overloaded { retry_after_hint: self.retry_hint() });
        }
        st.waiting += 1;
        loop {
            st = match deadline {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        st.waiting -= 1;
                        drop(st);
                        return Err(ServiceError::DeadlineExceeded { elapsed: started.elapsed() });
                    }
                    match gate.cv.wait_timeout(st, at - now) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
                None => match gate.cv.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                },
            };
            if st.active < gate.max_concurrent {
                st.waiting -= 1;
                st.active += 1;
                return Ok(QueryPermit { gate });
            }
        }
    }

    fn note_duration(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // One atomic step: a separate load/store pair would let a concurrent
        // completion's update vanish between the two halves (lost update).
        let _ = self.ewma_nanos.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
            Some(if old == 0 { nanos } else { old - old / 8 + nanos / 8 })
        });
    }

    fn retry_hint(&self) -> Duration {
        match self.ewma_nanos.load(Ordering::Relaxed) {
            0 => Duration::from_millis(1),
            nanos => Duration::from_nanos(nanos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Format;

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 5000) as f64) / 100.0).collect()
    }

    fn store(n: usize) -> Arc<Store> {
        store_as(n, Format::alp())
    }

    fn store_as(n: usize, format: Format) -> Arc<Store> {
        let column = Column::from_f64(&sample(n), format);
        Arc::new(Store::new(column, CacheConfig::default_config()))
    }

    fn reference(data: &[f64], lo: f64, hi: f64) -> (f64, usize) {
        let matching = data.iter().filter(|x| **x >= lo && **x <= hi);
        (matching.clone().sum(), matching.count())
    }

    #[test]
    fn a_healthy_query_is_complete_and_matches_the_column_path() {
        let data = sample(250_000);
        let column = Column::from_f64(&data, Format::alp());
        let direct = column.sum_where(10.0, 20.0);
        let svc = Service::new(
            Arc::new(Store::new(column, CacheConfig::default_config())),
            ServiceConfig::default(),
        );
        let r = svc.sum_where(10.0, 20.0, &QueryOptions::default()).unwrap();
        assert!(r.loss.is_complete());
        assert_eq!(r.value.matches, direct.matches);
        assert_eq!(r.value.sum.to_bits(), direct.sum.to_bits());
    }

    #[test]
    fn repeated_queries_hit_the_cache_with_identical_results() {
        let svc = Service::new(store(300_000), ServiceConfig::default());
        let opts = QueryOptions { threads: Some(1), ..QueryOptions::default() };
        let first = svc.sum_where(5.0, 45.0, &opts).unwrap();
        let stats_cold = svc.cache_stats();
        let second = svc.sum_where(5.0, 45.0, &opts).unwrap();
        let stats_warm = svc.cache_stats();
        assert_eq!(first.value.sum.to_bits(), second.value.sum.to_bits());
        assert!(stats_cold.misses > 0);
        assert!(stats_warm.hits >= stats_cold.misses, "second pass should be all hits");
    }

    #[test]
    fn held_permits_drive_the_gate_into_typed_overload() {
        let svc = Service::new(
            store(VECTOR_SIZE * 4),
            ServiceConfig { max_concurrent: 1, max_queued: 0, threads: 1 },
        );
        let held = svc.admit().unwrap();
        let err = svc.sum_where(0.0, 1.0, &QueryOptions::default()).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { .. }));
        drop(held);
        assert!(svc.sum_where(0.0, 1.0, &QueryOptions::default()).is_ok());
    }

    #[test]
    fn a_queued_query_times_out_with_deadline_exceeded() {
        let svc = Service::new(
            store(VECTOR_SIZE * 4),
            ServiceConfig { max_concurrent: 1, max_queued: 4, threads: 1 },
        );
        let _held = svc.admit().unwrap();
        let opts =
            QueryOptions { deadline: Some(Duration::from_millis(20)), ..QueryOptions::default() };
        let err = svc.sum_where(0.0, 1.0, &opts).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
    }

    #[test]
    fn an_expired_deadline_cancels_instead_of_hanging() {
        let svc = Service::new(store(500_000), ServiceConfig::default());
        let opts = QueryOptions { deadline: Some(Duration::ZERO), ..QueryOptions::default() };
        let err = svc.sum_where(f64::NEG_INFINITY, f64::INFINITY, &opts).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
    }

    #[test]
    fn poisoned_pages_quarantine_and_yield_partial_results() {
        let data = sample(800_000);
        let column = Column::from_f64(&data, Format::alp());
        let poison = PoisonPlan::seeded(1);
        let store = Arc::new(Store::with_poison(column, CacheConfig::default_config(), poison));
        let expected_bad: Vec<usize> = (0..store.pages()).filter(|p| poison.poisons(*p)).collect();
        assert!(!expected_bad.is_empty(), "seed 1 must poison at least one page for this test");
        let svc = Service::new(store, ServiceConfig::default());

        let r = svc.sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default()).unwrap();
        let lost: Vec<usize> = r.loss.pages.iter().map(|p| p.page).collect();
        assert_eq!(lost, expected_bad, "exactly the poisoned pages are lost");
        assert_eq!(svc.store().quarantined_pages(), expected_bad);
        let lost_rows: usize = expected_bad.iter().map(|p| svc.store().page_rows(*p)).sum();
        assert_eq!(r.loss.rows_lost(), lost_rows);
        let (_, full_matches) = reference(&data, f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(r.value.matches, full_matches - lost_rows);

        // The second query skips quarantined pages without re-decoding them:
        // same partial, but every loss is now `Quarantined`.
        let r2 = svc.sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default()).unwrap();
        assert_eq!(r2.value.sum.to_bits(), r.value.sum.to_bits());
        assert!(r2.loss.pages.iter().all(|p| p.reason == LossReason::Quarantined));
    }

    #[test]
    fn empty_columns_serve_empty_results() {
        let column = Column::from_f64(&[], Format::alp());
        let svc = Service::new(
            Arc::new(Store::new(column, CacheConfig::default_config())),
            ServiceConfig::default(),
        );
        let r = svc.sum_where(0.0, 1.0, &QueryOptions::default()).unwrap();
        assert!(r.loss.is_complete());
        assert_eq!(r.value.matches, 0);
    }

    #[test]
    fn concurrent_completion_notes_are_never_lost() {
        // `note_duration` must be one atomic step. The decay applied by a
        // zero-duration note, f(v) = v - v/8, is the same pure function for
        // every caller, and `fetch_update` serializes the applications — so
        // after seeding a large EWMA and hammering T threads × K notes, the
        // value must land *exactly* where T·K serial applications land. The
        // pre-fix load-then-store version drops updates under contention
        // (two threads read the same `old`), which leaves the value strictly
        // higher because fewer decays were applied.
        let svc = Service::new(store(VECTOR_SIZE), ServiceConfig::default());
        const SEED_NANOS: u64 = 1 << 50;
        const THREADS: usize = 4;
        const NOTES: usize = 40;
        svc.note_duration(Duration::from_nanos(SEED_NANOS));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..NOTES {
                        svc.note_duration(Duration::ZERO);
                    }
                });
            }
        });
        let mut expect = SEED_NANOS;
        for _ in 0..THREADS * NOTES {
            expect -= expect / 8;
        }
        // (7/8)^160 · 2^50 ≈ 6·10^5 — far above the point where v/8 rounds
        // to zero, so every one of the 160 decays changes the value and any
        // lost update is observable.
        assert!(expect > 8);
        assert_eq!(svc.ewma_nanos.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn misses_without_room_scan_fused_and_match_the_materializing_path() {
        let data = sample(400_000);
        let opts = QueryOptions { no_fused: true, ..QueryOptions::default() };
        // A zero-entry set, and one that holds half of the column's 4 pages.
        let zero_entry = CacheConfig { max_entries: 0, ..CacheConfig::default_config() };
        for (cache, resident) in
            [(zero_entry, 0), (CacheConfig { max_entries: 2, ..zero_entry }, 2)]
        {
            let column = Column::from_f64(&data, Format::alp());
            let svc = Service::new(Arc::new(Store::new(column, cache)), ServiceConfig::default());
            let fused = svc.sum_where(5.0, 45.0, &QueryOptions::default()).unwrap();
            let routes = (fused.pages_fused, fused.pages_materialized);
            assert_eq!(routes, (4 - resident, resident), "the pages that do not fit run fused");
            let mat = svc.sum_where(5.0, 45.0, &opts).unwrap();
            assert_eq!((mat.pages_fused, mat.pages_materialized), (0, 4), "--no-fused");
            assert_eq!(fused.value.sum.to_bits(), mat.value.sum.to_bits());
            assert_eq!(fused.value, mat.value, "all counters agree across paths");
            let stats = svc.cache_stats();
            assert_eq!((stats.entries, stats.hits), (resident, resident as u64));
            if resident == 0 {
                assert_eq!(stats, CacheStats::default(), "a zero-entry set is never consulted");
            }
        }
    }

    #[test]
    fn admitting_misses_still_materialize_and_warm_the_cache() {
        // The whole column fits the default set, so every page of either
        // storage becomes resident.
        for format in [Format::alp(), Format::Uncompressed] {
            let svc = Service::new(store_as(300_000, format), ServiceConfig::default());
            let first = svc.sum_where(5.0, 45.0, &QueryOptions::default()).unwrap();
            assert_eq!(first.pages_fused, 0, "{format:?}: admitting misses materialize");
            assert!(first.pages_materialized > 0);
            let second = svc.sum_where(5.0, 45.0, &QueryOptions::default()).unwrap();
            assert_eq!(svc.cache_stats().hits, second.pages_materialized as u64, "{format:?}");
            assert_eq!(first.value.sum.to_bits(), second.value.sum.to_bits());
        }
    }

    #[test]
    fn validity_counts_agree_across_scan_paths() {
        let mut data = sample(200_000);
        for i in (0..data.len()).step_by(97) {
            data[i] = f64::NAN;
        }
        let column = Column::from_f64(&data, Format::alp());
        let bypass = CacheConfig { max_entries: 0, ..CacheConfig::default_config() };
        let svc = Service::new(Arc::new(Store::new(column, bypass)), ServiceConfig::default());
        let (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
        let fused = svc.sum_where(lo, hi, &QueryOptions::default()).unwrap();
        let mat = svc
            .sum_where(lo, hi, &QueryOptions { no_fused: true, ..QueryOptions::default() })
            .unwrap();
        assert!(fused.pages_fused > 0);
        assert_eq!((fused.value.valid, fused.value.invalid), (mat.value.valid, mat.value.invalid));
        let nans = data.iter().filter(|x| x.is_nan()).count();
        // Every vector has a NaN (97 < 1024), so nothing is pruned and the
        // scanned-validity counts cover the whole column.
        assert_eq!(fused.value.invalid, nans);
        assert_eq!(fused.value.valid, data.len() - nans);
    }

    #[test]
    fn quarantine_flags_publish_their_loss_reason() {
        // `quarantine` records the reason *before* the Release store that
        // flips the flag, and `loss_reason` reads the flag with Acquire — so
        // a flag observed true always has a reason behind it.
        let data = sample(800_000);
        let column = Column::from_f64(&data, Format::alp());
        let store = Arc::new(Store::with_poison(
            column,
            CacheConfig::default_config(),
            PoisonPlan::seeded(1),
        ));
        let svc = Service::new(Arc::clone(&store), ServiceConfig::default());
        svc.sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default()).unwrap();
        let bad = store.quarantined_pages();
        assert!(!bad.is_empty());
        for &page in &bad {
            assert!(
                store.loss_reason(page).is_some(),
                "quarantined page {page} must expose the verdict that condemned it"
            );
        }
        let healthy = (0..store.pages()).find(|p| !store.is_quarantined(*p)).unwrap();
        assert_eq!(store.loss_reason(healthy), None);

        // Quarantining a resident page clears its slot and returns its bytes
        // before the flag is up.
        let resident = store.cache_stats();
        assert_eq!(resident.entries, store.pages() - bad.len(), "every healthy page fit");
        store.quarantine_for_test(healthy);
        let after = store.cache_stats();
        assert_eq!(after.entries, resident.entries - 1);
        assert_eq!(after.bytes, resident.bytes - store.page_rows(healthy) * 8);
        let r = svc.sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default()).unwrap();
        assert!(r.loss.pages.iter().any(|p| p.page == healthy));
    }

    #[test]
    fn scrub_heals_transient_faults_and_restores_complete_results() {
        let data = sample(800_000);
        let poison = PoisonPlan::seeded(1);
        let store = Arc::new(Store::with_poison(
            Column::from_f64(&data, Format::alp()),
            CacheConfig::default_config(),
            poison,
        ));
        let svc = Service::new(Arc::clone(&store), ServiceConfig::default());
        let all = QueryOptions::default();

        let partial = svc.sum_where(f64::NEG_INFINITY, f64::INFINITY, &all).unwrap();
        assert!(!partial.loss.is_complete());
        let bad = store.quarantined_pages();
        assert!(!bad.is_empty());

        // The fault persists: a scrub pass re-checks every page, repairs
        // nothing, and leaves the quarantine set untouched.
        let stuck = svc.scrub_once(&ScrubOptions::default());
        assert_eq!(stuck.pages_checked, bad.len());
        assert_eq!(stuck.pages_repaired, 0);
        assert_eq!(stuck.pages_still_bad, bad.len());
        assert_eq!(store.quarantined_pages(), bad);

        // Repair the medium; the next pass un-quarantines everything.
        store.heal_poison();
        let healed = svc.scrub_once(&ScrubOptions::default());
        assert_eq!(healed.pages_repaired, bad.len());
        assert_eq!(healed.pages_still_bad, 0);
        assert!(store.quarantined_pages().is_empty());

        // Results transition partial → complete, bit-identical to a store
        // that was never poisoned, and the report carries the scrub history.
        let complete = svc.sum_where(f64::NEG_INFINITY, f64::INFINITY, &all).unwrap();
        assert!(complete.loss.is_complete());
        let clean = Service::new(
            Arc::new(Store::new(
                Column::from_f64(&data, Format::alp()),
                CacheConfig::default_config(),
            )),
            ServiceConfig::default(),
        );
        let reference = clean.sum_where(f64::NEG_INFINITY, f64::INFINITY, &all).unwrap();
        assert_eq!(complete.value.sum.to_bits(), reference.value.sum.to_bits());
        assert_eq!(complete.value.matches, reference.value.matches);
        assert_eq!(complete.loss.scrub_checked, 2 * bad.len() as u64);
        assert_eq!(complete.loss.scrub_repaired, bad.len() as u64);
    }

    #[test]
    fn production_stores_inject_nothing() {
        assert!(!PoisonPlan::none().poisons(0));
        assert!(PoisonPlan::from_env().seed == fault_seed(0));
        // A seeded plan is a pure function of (seed, page).
        let a: Vec<bool> = (0..64).map(|p| PoisonPlan::seeded(7).poisons(p)).collect();
        let b: Vec<bool> = (0..64).map(|p| PoisonPlan::seeded(7).poisons(p)).collect();
        assert_eq!(a, b);
    }
}
