//! Concurrent stress suite for `vectorq::service` (DESIGN.md §12): many OS
//! threads hammering one shared [`Store`] must produce results byte-identical
//! to serial execution, admit each page to the resident set at most once
//! within its hard memory ceiling, surface overload and deadlines as typed
//! errors, and — under `ALP_FAULT_SEED` injection — quarantine exactly the
//! poisoned pages while every healthy page keeps being served. Zero panics
//! escape: a panicking page is contained at the morsel boundary and the query
//! degrades to a partial.
//!
//! The fault variants derive their poison plan from `ALP_FAULT_SEED`
//! (defaulting to seed 1), so CI can sweep seeds without recompiling.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use alp::io::fault_seed;
use fastlanes::VECTOR_SIZE;
use vectorq::cache::CacheConfig;
use vectorq::service::{
    LossReason, PoisonPlan, QueryOptions, Service, ServiceConfig, ServiceError, Store,
};
use vectorq::{Column, Format};

/// Deterministic scheme-mixed data: decimal-ish values with occasional
/// high-precision outliers, no RNG required.
fn dataset(n: usize) -> Vec<f64> {
    (0..n)
        .map(
            |i| {
                if i % 777 == 776 {
                    (i as f64).sqrt() * 1e-6
                } else {
                    ((i % 9173) as f64) / 100.0
                }
            },
        )
        .collect()
}

/// Payload bytes of one full page under [`tight_cache`].
const PAGE_BYTES: usize = 10 * VECTOR_SIZE * 8;

/// Small pages (10 vectors) so a modest column spans dozens of pages, and a
/// deliberately tight resident set that fills after six of them.
fn tight_cache() -> CacheConfig {
    CacheConfig { max_entries: 8, page_size_rows: 10 * VECTOR_SIZE, max_bytes: 6 * PAGE_BYTES }
}

/// The mixed query workload: selective, broad, empty, and unbounded ranges.
const PREDICATES: &[(f64, f64)] = &[
    (10.0, 20.0),
    (0.0, 91.73),
    (500.0, 400.0), // empty range
    (f64::NEG_INFINITY, f64::INFINITY),
    (90.0, 90.0),
];

/// The 51-page column is larger than the 6-page budget: under load the set
/// fills with six pages, which later queries hit, and every other page is
/// summed from the stored bytes.
#[test]
fn concurrent_mixed_queries_are_byte_identical_to_serial() {
    let data = dataset(50 * 10 * VECTOR_SIZE + 700);
    let store = Arc::new(Store::new(Column::from_f64(&data, Format::alp()), tight_cache()));
    let service = Service::new(
        Arc::clone(&store),
        ServiceConfig { max_concurrent: 8, max_queued: 64, threads: 2 },
    );

    // Serial reference on an identical but separate store (its own cache).
    let ref_store = Arc::new(Store::new(Column::from_f64(&data, Format::alp()), tight_cache()));
    let ref_service =
        Service::new(ref_store, ServiceConfig { threads: 1, ..ServiceConfig::default() });
    let serial: Vec<_> = PREDICATES
        .iter()
        .map(|(lo, hi)| ref_service.sum_where(*lo, *hi, &QueryOptions::default()).unwrap())
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..8usize {
            let service = &service;
            let serial = &serial;
            scope.spawn(move || {
                // Each worker runs the whole mix, rotated so different
                // predicates overlap in time across workers.
                for round in 0..3 {
                    for k in 0..PREDICATES.len() {
                        let idx = (k + worker + round) % PREDICATES.len();
                        let (lo, hi) = PREDICATES[idx];
                        let got = service.sum_where(lo, hi, &QueryOptions::default()).unwrap();
                        let want = &serial[idx];
                        assert!(got.loss.is_complete());
                        assert_eq!(got.value.matches, want.value.matches);
                        assert_eq!(
                            got.value.sum.to_bits(),
                            want.value.sum.to_bits(),
                            "predicate {idx} diverged from serial"
                        );
                    }
                }
            });
        }
    });

    // The set filled to its budget, each page admitted once, and the
    // ceiling held under all that pressure.
    let stats = store.cache_stats();
    assert_eq!(stats.entries, 6, "six full pages fit the budget");
    assert_eq!(stats.bytes, stats.entries * PAGE_BYTES);
    assert!(stats.bytes_peak <= tight_cache().max_bytes, "{stats:?}");
    assert!(stats.hits > 0, "later queries hit the resident pages");
    assert_eq!(stats.evictions, 0);
}

#[test]
fn thread_count_and_cache_state_never_change_query_bits() {
    let data = dataset(30 * 10 * VECTOR_SIZE);
    let store = Arc::new(Store::new(Column::from_f64(&data, Format::alp()), tight_cache()));
    let service = Service::new(store, ServiceConfig::default());
    for (lo, hi) in PREDICATES {
        let mut bits = None;
        for threads in [1, 2, 7] {
            let opts = QueryOptions { threads: Some(threads), ..QueryOptions::default() };
            let r = service.sum_where(*lo, *hi, &opts).unwrap();
            let b = (r.value.sum.to_bits(), r.value.matches);
            match bits {
                None => bits = Some(b),
                Some(prev) => assert_eq!(prev, b, "t={threads} lo={lo} hi={hi}"),
            }
        }
    }
}

#[test]
fn fault_injected_store_quarantines_and_degrades_without_panicking() {
    // CI sweeps ALP_FAULT_SEED; default to 1 locally.
    let seed = fault_seed(1);
    let poison = PoisonPlan::seeded(seed);
    let data = dataset(40 * 10 * VECTOR_SIZE);
    // Half of the 40 pages fit the resident set.
    let half = CacheConfig { max_entries: 40, max_bytes: 20 * PAGE_BYTES, ..tight_cache() };
    let store = Arc::new(Store::with_poison(Column::from_f64(&data, Format::alp()), half, poison));
    let expected_bad: Vec<usize> = (0..store.pages()).filter(|p| poison.poisons(*p)).collect();
    assert!(
        !expected_bad.is_empty(),
        "seed {seed} poisoned no pages in {} — pick a different seed",
        store.pages()
    );
    let lost_rows: usize = expected_bad.iter().map(|p| store.page_rows(*p)).sum();
    let service = Service::new(
        Arc::clone(&store),
        ServiceConfig { max_concurrent: 8, max_queued: 64, threads: 2 },
    );

    // Eight workers × full-range queries, leaving a barrier together so they
    // all miss the same pages at once, racing to fill the resident set and
    // to discover the bad pages. Every query must return Ok (a partial,
    // never a panic or a poisoned-lock hang), and every loss report must
    // name exactly the poisoned pages.
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let service = &service;
            let expected_bad = &expected_bad;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..3 {
                    let r = service
                        .sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default())
                        .unwrap();
                    let lost: Vec<usize> = r.loss.pages.iter().map(|p| p.page).collect();
                    assert_eq!(&lost, expected_bad);
                    assert_eq!(r.loss.rows_lost(), lost_rows);
                    assert_eq!(r.value.matches, service.store().column().len() - lost_rows);
                }
            });
        }
    });

    assert_eq!(store.quarantined_pages(), expected_bad);
    // The race filled the set to its budget without overshooting it.
    let raced = store.cache_stats();
    let healthy = store.pages() - expected_bad.len();
    assert_eq!(raced.entries, healthy.min(20));
    assert_eq!(raced.bytes, raced.entries * PAGE_BYTES);
    assert!(raced.bytes_peak <= half.max_bytes, "{raced:?}");

    // After the dust settles, a fresh query skips the quarantined pages
    // without re-decoding them: every loss reason is now `Quarantined`. It
    // hits every resident page — so no page was admitted twice, and no
    // resident slot sits behind a quarantine flag (`Store::quarantine` clears
    // the slot before it publishes the flag) — and sums the rest from the
    // bytes.
    let r = service.sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default()).unwrap();
    assert!(r.loss.pages.iter().all(|p| p.reason == LossReason::Quarantined));
    assert_eq!(r.loss.rows_lost(), lost_rows);
    let warm = store.cache_stats();
    assert_eq!(warm.hits - raced.hits, raced.entries as u64);
    assert_eq!(r.pages_materialized, raced.entries);
    assert_eq!(r.pages_fused, healthy - raced.entries);
    assert_eq!(warm.misses - raced.misses, (healthy - raced.entries) as u64);
    assert_eq!(warm.bypasses - raced.bypasses, warm.misses - raced.misses);
}

#[test]
fn overload_is_a_typed_refusal_never_a_panic_or_hang() {
    let data = dataset(20 * 10 * VECTOR_SIZE);
    let store = Arc::new(Store::new(Column::from_f64(&data, Format::alp()), tight_cache()));
    let service =
        Service::new(store, ServiceConfig { max_concurrent: 1, max_queued: 0, threads: 1 });

    // Deterministic overload: with the only slot held and no queue, the
    // next query is refused immediately with a retry hint.
    let held = service.admit().unwrap();
    let err = service.sum_where(0.0, 1.0, &QueryOptions::default()).unwrap_err();
    assert!(
        matches!(err, ServiceError::Overloaded { retry_after_hint } if retry_after_hint > Duration::ZERO)
    );
    drop(held);
    assert!(service.sum_where(0.0, 1.0, &QueryOptions::default()).is_ok());

    // A queued query (queue room available) completes once the slot frees —
    // bounded waiting, not refusal, and never a hang.
    let roomy = Service::new(
        Arc::new(Store::new(Column::from_f64(&data, Format::alp()), tight_cache())),
        ServiceConfig { max_concurrent: 1, max_queued: 4, threads: 1 },
    );
    let held = roomy.admit().unwrap();
    let queued = std::thread::scope(|scope| {
        let handle = scope.spawn(|| roomy.sum_where(0.0, 1.0, &QueryOptions::default()));
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        handle.join().expect("queued query must not panic")
    });
    assert!(queued.is_ok(), "queued query should complete once the slot frees");

    // Under a free-for-all on the zero-queue service, every outcome is Ok or
    // a typed refusal — nothing panics, nothing hangs.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let service = &service;
            scope.spawn(move || {
                for _ in 0..5 {
                    match service.sum_where(10.0, 30.0, &QueryOptions::default()) {
                        Ok(r) => assert!(r.loss.is_complete()),
                        Err(ServiceError::Overloaded { .. }) => {}
                        Err(other) => panic!("unexpected refusal: {other}"),
                    }
                }
            });
        }
    });
}

#[test]
fn deadlines_abandon_work_at_morsel_boundaries() {
    let data = dataset(40 * 10 * VECTOR_SIZE);
    let store = Arc::new(Store::new(Column::from_f64(&data, Format::alp()), tight_cache()));
    let service = Service::new(Arc::clone(&store), ServiceConfig::default());
    let opts = QueryOptions { deadline: Some(Duration::ZERO), ..QueryOptions::default() };
    let err = service.sum_where(f64::NEG_INFINITY, f64::INFINITY, &opts).unwrap_err();
    assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
    // The abandoned query left the store healthy: a follow-up without a
    // deadline is complete and correct.
    let r = service.sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default()).unwrap();
    assert!(r.loss.is_complete());
    assert_eq!(r.value.matches, data.len());
}
