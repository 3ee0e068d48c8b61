//! `vectorq::scrub` — the background scrubber (DESIGN.md §16).
//!
//! Quarantine contains damage; the scrubber is the path back. A scrub pass
//! walks the store's quarantined pages on the shared morsel scheduler
//! ([`alp::par::run_morsels_governed`]), re-decodes each one through the
//! same fallible path queries use, and atomically un-quarantines the pages
//! that decode cleanly again — so a fault that was transient, or has since
//! been repaired out-of-band (e.g. by rewriting the backing file through the
//! parity repair path), stops costing rows. Pages that still fail keep their
//! original verdict; a panic during re-verification is contained at the
//! morsel boundary exactly like a query-time panic.
//!
//! A page's verdict and residency are one cell ([`crate::cache`]), and
//! un-quarantining is one transition of it (quarantined → free), so queries
//! racing a scrub pass observe each page either quarantined with its reason
//! or healthy — results transition partial → complete and never regress.
//!
//! Scrub passes are deadline-governed: the [`CancelToken`] is consulted at
//! every morsel boundary, so an expired deadline leaves unchecked pages for
//! the next pass instead of blocking queries behind maintenance.

use std::time::Duration;

use alp::par::{run_morsels_governed, CancelToken};

use crate::service::{PageCtx, Store};

/// Knobs for one scrub pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrubOptions {
    /// Give up after this long; pages not yet checked stay quarantined and
    /// are picked up by the next pass.
    pub deadline: Option<Duration>,
    /// Worker threads for the pass; defaults to the service's setting.
    pub threads: Option<usize>,
}

/// What one scrub pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Quarantined pages re-verified this pass.
    pub pages_checked: usize,
    /// Pages that decoded cleanly and were un-quarantined.
    pub pages_repaired: usize,
    /// Pages that failed re-verification and stay quarantined.
    pub pages_still_bad: usize,
    /// Whether the pass was abandoned at a morsel boundary (deadline or
    /// explicit cancel); unchecked pages stay quarantined.
    pub cancelled: bool,
}

impl ScrubReport {
    /// Whether the store held no quarantined pages when the pass started.
    pub fn nothing_to_do(&self) -> bool {
        self.pages_checked == 0 && !self.cancelled
    }
}

/// Runs one scrub pass over `store`'s quarantined pages on up to `threads`
/// morsel-claiming workers (one page = one morsel). Counters accumulate on
/// the store, so [`crate::service::LossReport`]s carry the scrub history.
pub fn scrub_store(store: &Store, threads: usize, token: &CancelToken) -> ScrubReport {
    let bad = store.quarantined_pages();
    if bad.is_empty() {
        return ScrubReport::default();
    }
    let run = run_morsels_governed(threads.max(1), bad.len(), token, PageCtx::new, |ctx, i| {
        let Some(&page) = bad.get(i) else { return false };
        match store.verify_page(page, ctx) {
            Ok(()) => {
                store.cells.unquarantine(page);
                true
            }
            // The page is still bad; its first-observed verdict stands.
            Err(_) => false,
        }
    });
    let repaired = run.completed.iter().filter(|(_, clean)| *clean).count();
    // A panicked verification counts as checked-and-still-bad: the governed
    // runner contained it and the page never left quarantine.
    let checked = run.completed.len() + run.failures.len();
    store.note_scrub(checked as u64, repaired as u64);
    ScrubReport {
        pages_checked: checked,
        pages_repaired: repaired,
        pages_still_bad: checked - repaired,
        cancelled: run.cancelled,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cache::CacheConfig;
    use crate::service::PoisonPlan;
    use crate::{Column, Format};

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 5000) as f64) / 100.0).collect()
    }

    fn poisoned_store(seed: u64) -> (Arc<Store>, Vec<usize>) {
        let column = Column::from_f64(&sample(800_000), Format::alp());
        let poison = PoisonPlan::seeded(seed);
        let store = Arc::new(Store::with_poison(column, CacheConfig::default_config(), poison));
        let bad: Vec<usize> = (0..store.pages()).filter(|p| poison.poisons(*p)).collect();
        (store, bad)
    }

    #[test]
    fn a_clean_store_has_nothing_to_scrub() {
        let column = Column::from_f64(&sample(100_000), Format::alp());
        let store = Store::new(column, CacheConfig::default_config());
        let report = scrub_store(&store, 4, &CancelToken::new());
        assert!(report.nothing_to_do());
        assert_eq!(report, ScrubReport::default());
        assert_eq!(store.scrub_totals(), (0, 0));
    }

    #[test]
    fn persistent_faults_stay_quarantined_through_a_scrub() {
        let (store, expected_bad) = poisoned_store(1);
        assert!(!expected_bad.is_empty());
        for &p in &expected_bad {
            store.quarantine_for_test(p);
        }
        // Not healed: every page still fires its injected fault — including
        // the panic kind, which the governed runner must contain.
        for threads in [1, 4] {
            let report = scrub_store(&store, threads, &CancelToken::new());
            assert_eq!(report.pages_checked, expected_bad.len());
            assert_eq!(report.pages_repaired, 0);
            assert_eq!(report.pages_still_bad, expected_bad.len());
            assert!(!report.cancelled);
            assert_eq!(store.quarantined_pages(), expected_bad);
        }
    }

    #[test]
    fn healed_faults_are_unquarantined_with_reason_and_cache_cleared() {
        let (store, expected_bad) = poisoned_store(1);
        for &p in &expected_bad {
            store.quarantine_for_test(p);
            assert!(store.loss_reason(p).is_some());
        }
        store.heal_poison();
        let report = scrub_store(&store, 4, &CancelToken::new());
        assert_eq!(report.pages_checked, expected_bad.len());
        assert_eq!(report.pages_repaired, expected_bad.len());
        assert_eq!(report.pages_still_bad, 0);
        assert!(store.quarantined_pages().is_empty());
        for &p in &expected_bad {
            assert_eq!(store.loss_reason(p), None, "page {p} must not keep a stale verdict");
        }
        assert_eq!(store.scrub_totals(), (expected_bad.len() as u64, expected_bad.len() as u64));
    }

    #[test]
    fn an_expired_deadline_abandons_the_pass_without_repairing() {
        let (store, expected_bad) = poisoned_store(1);
        for &p in &expected_bad {
            store.quarantine_for_test(p);
        }
        store.heal_poison();
        let token = CancelToken::new();
        token.cancel();
        let report = scrub_store(&store, 2, &token);
        assert!(report.cancelled);
        assert_eq!(report.pages_checked, 0);
        assert_eq!(store.quarantined_pages(), expected_bad, "unchecked pages stay quarantined");
    }
}
