//! Fused-scan equivalence: `ColumnCodec::try_scan_fused` must be
//! **bit-identical** to materialize-then-scan for every registry codec —
//! same sums (the canonical sum, bit for bit), same match counts, same min/max,
//! same validity bitmap — and the query service's fused cache-bypass path
//! must match its materializing path at every thread count.
//!
//! The adversarial inputs are the ones that distinguish a correct fused
//! kernel from a plausible one: exception-heavy vectors (mid-stream patching
//! order), NaN-dense and all-NaN pages (validity bitmaps, min/max
//! emptiness), ragged tails (partial final vector), and ±0 ties.

use std::sync::Arc;

use alp_core::{ColumnCodec, Registry, ScanAgg, ScanPredicate, ScanResult, Scratch};
use fastlanes::VECTOR_SIZE;
use proptest::collection::vec;
use proptest::prelude::*;
use vectorq::cache::CacheConfig;
use vectorq::service::{QueryOptions, Service, ServiceConfig, Store};
use vectorq::{Column, Format};

/// Decimal-flavored doubles (ALP's target data — packs without exceptions).
fn decimal_f64() -> impl Strategy<Value = f64> {
    (any::<i32>(), 0u32..8).prop_map(|(d, p)| d as f64 / 10f64.powi(p as i32))
}

/// Arbitrary bit patterns: exception-heavy for ALP, NaN payloads included.
fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Mostly decimals with exceptions and NaNs sprinkled in.
fn mixed_f64() -> impl Strategy<Value = f64> {
    let nan = any::<u8>().prop_map(|_| f64::NAN);
    prop_oneof![5 => decimal_f64(), 2 => any_f64(), 1 => nan]
}

/// The reference path: materialize through `try_decompress_into`, then fold
/// the shared `scan_values` contract over the buffer.
fn materialize_then_scan(
    codec: &'static dyn ColumnCodec,
    bytes: &[u8],
    count: usize,
    pred: ScanPredicate,
    agg: ScanAgg,
) -> ScanResult {
    let mut floats = Vec::new();
    codec
        .try_decompress_into(bytes, count, &mut floats, &mut Scratch::new())
        .expect("decoding bytes this test compressed");
    let mut r = ScanResult::new();
    alp_core::scan_values(&floats, pred, agg, &mut r);
    r
}

fn assert_scan_results_identical(fused: &ScanResult, reference: &ScanResult, label: &str) {
    assert_eq!(
        fused.sum.to_bits(),
        reference.sum.to_bits(),
        "{label}: sums must be bit-identical (fused {} vs {})",
        fused.sum,
        reference.sum
    );
    assert_eq!(fused.matches, reference.matches, "{label}: match counts");
    assert_eq!(fused.min.map(f64::to_bits), reference.min.map(f64::to_bits), "{label}: min");
    assert_eq!(fused.max.map(f64::to_bits), reference.max.map(f64::to_bits), "{label}: max");
    assert_eq!(fused.validity, reference.validity, "{label}: validity bitmap");
}

/// Asserts fused == materialized for every serializable registry codec, over
/// both aggregate modes and the given predicate.
fn check_all_codecs(data: &[f64], lo: f64, hi: f64) {
    let pred = ScanPredicate { lo, hi };
    for &codec in Registry::all() {
        if codec.caps().ratio_only {
            continue; // no byte serialization — nothing to scan
        }
        let mut bytes = Vec::new();
        let mut scratch = Scratch::new();
        codec
            .try_compress_into(data, &mut bytes, &mut scratch)
            .expect("compressing in-memory test data");
        for agg in [ScanAgg::SumCount, ScanAgg::All] {
            let fused = codec
                .try_scan_fused(&bytes, data.len(), pred, agg, &mut scratch)
                .expect("scanning bytes this test compressed");
            let reference = materialize_then_scan(codec, &bytes, data.len(), pred, agg);
            assert_scan_results_identical(
                &fused,
                &reference,
                &format!("{} (agg {agg:?}, n={})", codec.id(), data.len()),
            );
        }
    }
}

/// Builds data where every 1024-value vector carries many ALP exceptions:
/// decimals interleaved with full-precision noise.
fn exception_heavy(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                // Full-precision mantissa — an ALP exception almost surely.
                f64::from_bits(
                    0x3FF0_0000_0000_0000 | (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            } else {
                (i % 5000) as f64 / 100.0
            }
        })
        .collect()
}

#[test]
fn fused_scan_matches_materialized_on_exception_heavy_vectors() {
    let data = exception_heavy(10 * VECTOR_SIZE + 137);
    check_all_codecs(&data, 1.0, 40.0);
    check_all_codecs(&data, f64::NEG_INFINITY, f64::INFINITY);
}

#[test]
fn fused_scan_matches_materialized_on_nan_dense_and_all_nan_pages() {
    let mut data: Vec<f64> = (0..4 * VECTOR_SIZE).map(|i| (i % 997) as f64 / 10.0).collect();
    for i in (0..data.len()).step_by(2) {
        data[i] = f64::NAN; // NaN-dense: every other value
    }
    for v in data.iter_mut().take(VECTOR_SIZE) {
        *v = f64::NAN; // first page entirely NaN
    }
    check_all_codecs(&data, 0.0, 50.0);
    // All-NaN column: min/max must be None on both paths, never ±inf.
    let all_nan = vec![f64::NAN; 2 * VECTOR_SIZE + 100];
    check_all_codecs(&all_nan, f64::NEG_INFINITY, f64::INFINITY);
}

#[test]
fn fused_scan_matches_materialized_on_ragged_tails() {
    for n in [1, 63, 64, 65, VECTOR_SIZE - 1, VECTOR_SIZE + 1, 3 * VECTOR_SIZE + 777] {
        let data: Vec<f64> = (0..n).map(|i| (i % 313) as f64 / 4.0).collect();
        check_all_codecs(&data, 10.0, 60.0);
    }
}

#[test]
fn fused_scan_handles_signed_zero_ties() {
    // -0.0 == 0.0 but the bit patterns differ; the tie rule (keep the earlier
    // value) must agree between the fused kernels and the reference fold.
    let mut data = vec![0.0f64; 2 * VECTOR_SIZE];
    for (i, v) in data.iter_mut().enumerate() {
        *v = if i % 2 == 0 { -0.0 } else { 0.0 };
    }
    check_all_codecs(&data, -1.0, 1.0);
}

#[test]
fn every_codec_claiming_fused_scan_agrees_with_the_default_path() {
    // The capability flag is load-bearing: a codec claiming `fused_scan` runs
    // a real kernel here, and it must land on exactly the default's result.
    let data = exception_heavy(5 * VECTOR_SIZE + 19);
    let claimed: Vec<&str> =
        Registry::all().iter().filter(|c| c.caps().fused_scan).map(|c| c.id()).collect();
    assert!(claimed.contains(&"alp"), "alp must expose its fused kernel, found {claimed:?}");
    check_all_codecs(&data, 5.0, 45.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_scan_is_bit_identical_for_arbitrary_data(
        data in vec(mixed_f64(), 0..4000),
        lo in decimal_f64(),
        width in 0.0f64..1e6,
    ) {
        check_all_codecs(&data, lo, lo + width);
    }

    #[test]
    fn fused_scan_is_bit_identical_for_pure_noise(data in vec(any_f64(), 1..3000)) {
        check_all_codecs(&data, f64::NEG_INFINITY, f64::INFINITY);
    }
}

// ---------------------------------------------------------------------------
// Service-level equivalence: fused bypass path vs materializing path
// ---------------------------------------------------------------------------

fn service_data() -> Vec<f64> {
    let mut data = exception_heavy(600_000);
    for i in (0..data.len()).step_by(211) {
        data[i] = f64::NAN;
    }
    data
}

#[test]
fn service_fused_and_materializing_paths_agree_at_every_thread_count() {
    let data = service_data();
    // max_entries = 0: every miss is a predicted bypass, so the default
    // options take the fused path on every overlapping page.
    let bypass = CacheConfig { max_entries: 0, ..CacheConfig::default_config() };
    let column = Column::from_f64(&data, Format::alp());
    let service = Service::new(Arc::new(Store::new(column, bypass)), ServiceConfig::default());
    for (lo, hi) in [(5.0, 45.0), (f64::NEG_INFINITY, f64::INFINITY), (1e18, 2e18)] {
        let mut seen: Option<(u64, usize, usize, usize)> = None;
        for threads in [1usize, 2, 7] {
            let fused = service
                .sum_where(lo, hi, &QueryOptions { threads: Some(threads), ..Default::default() })
                .unwrap();
            let mat = service
                .sum_where(
                    lo,
                    hi,
                    &QueryOptions { threads: Some(threads), no_fused: true, ..Default::default() },
                )
                .unwrap();
            assert_eq!(mat.pages_fused, 0, "no_fused must force materialization");
            assert_eq!(
                fused.value.sum.to_bits(),
                mat.value.sum.to_bits(),
                "paths must agree bit-for-bit at {threads} threads over [{lo}, {hi}]"
            );
            assert_eq!(fused.value, mat.value, "all counters agree at {threads} threads");
            // And across thread counts: the tuple must never move.
            let key = (
                fused.value.sum.to_bits(),
                fused.value.matches,
                fused.value.valid,
                fused.value.invalid,
            );
            match seen {
                None => seen = Some(key),
                Some(first) => assert_eq!(first, key, "thread count changed the result"),
            }
        }
    }
}

#[test]
fn service_fused_path_reports_validity_counts() {
    let data = service_data();
    let nans = data.iter().filter(|x| x.is_nan()).count();
    let bypass = CacheConfig { max_entries: 0, ..CacheConfig::default_config() };
    let column = Column::from_f64(&data, Format::alp());
    let service = Service::new(Arc::new(Store::new(column, bypass)), ServiceConfig::default());
    let r = service.sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default()).unwrap();
    assert!(r.pages_fused > 0, "bypass misses must run fused");
    // NaNs land in every vector (stride 211 < 1024), so nothing is pruned
    // and the scanned validity covers the whole column.
    assert_eq!(r.value.invalid, nans);
    assert_eq!(r.value.valid, data.len() - nans);
}
