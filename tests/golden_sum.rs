//! Pins the canonical sum's bits (DESIGN.md §14). Every other suite compares
//! one route with another, so a reassociation applied to all of them at once
//! would pass as "equal on both sides"; these constants would not. CI runs
//! this file a second time under `-C target-cpu=x86-64-v3`: the bits are a
//! function of value position, never of the build's vector width.
//!
//! If a change *means* to redefine the sum, rewrite DESIGN.md §14 and the
//! value-at-a-time reference in `tests/kernel_differential.rs` first, then
//! take the new constants from this test's failure message.

use std::sync::Arc;

use alp_core::scan::{scan_values, ScanAgg, ScanPredicate, ScanResult};
use alp_core::Scratch;
use fastlanes::VECTOR_SIZE;
use vectorq::cache::CacheConfig;
use vectorq::service::{QueryOptions, Service, ServiceConfig, Store};
use vectorq::{Column, Format};

/// One pinned band: `(lo, hi)`, exact match count, the bits of the column
/// fold (vector sums in vector order — `scan_values`, `Column::sum_where`)
/// and of the service fold (vector sums per 10-vector page, page partials in
/// page order — DESIGN.md §12), how many scanned vectors lay inside the band
/// and took the predicate-free route, and a digest of every vector's own sum
/// bits. The digest is the sensitive one: a changed block tree moves a
/// 130 000-value total by far less than its last bit most of the time, but
/// it cannot leave 131 vector sums all unchanged.
struct Golden {
    band: (f64, f64),
    matches: usize,
    column_bits: u64,
    service_bits: u64,
    vectors_all_in: usize,
    vector_digest: u64,
}

const GOLDEN: [Golden; 3] = [
    // Inside the decimal walk: 47 of 131 vectors scanned, 23 predicate-free.
    Golden {
        band: (93.36, 93.375),
        matches: 37620,
        column_bits: 0x414a_cc45_a3e9_0ff7,
        service_bits: 0x414a_cc45_a3e9_0ff9,
        vectors_all_in: 23,
        vector_digest: 0x28dd_25ed_435e_2fb0,
    },
    // Inside the real doubles (ALP_rd): every vector straddles the band.
    Golden {
        band: (-0.5, 0.75),
        matches: 16447,
        column_bits: 0x409e_cb52_e36f_04ae,
        service_bits: 0x409e_cb52_e36f_04ae,
        vectors_all_in: 0,
        vector_digest: 0x7b05_1a14_c85b_c902,
    },
    // Unbounded: every vector predicate-free.
    Golden {
        band: (f64::NEG_INFINITY, f64::INFINITY),
        matches: 133441,
        column_bits: 0x4162_3eae_dd6a_eb08,
        service_bits: 0x4162_3eae_dd6a_eb0a,
        vectors_all_in: 131,
        vector_digest: 0x2ffe_d0d5_473e_037c,
    },
];

/// One ALP row-group of a 5-decimal random walk, then 30 vectors and a tail
/// of full-precision reals (an ALP_rd row-group): no generator here calls
/// into libm, so the column is the same bits on every platform.
fn column() -> Vec<f64> {
    let mut data = datagen::generate("Air-Pressure", 100 * VECTOR_SIZE, 16);
    data.extend(datagen::generate("POI-lat", 30 * VECTOR_SIZE + 321, 16));
    data
}

#[test]
fn canonical_sum_bits_are_pinned() {
    let data = column();
    let cache = CacheConfig { max_entries: 0, page_size_rows: 10 * VECTOR_SIZE, max_bytes: 0 };
    let formats = [Format::Uncompressed, Format::alp()];
    let columns = formats.map(|format| Column::from_f64(&data, format));
    let services = formats.map(|format| {
        let store = Store::new(Column::from_f64(&data, format), cache);
        Service::new(Arc::new(store), ServiceConfig::default())
    });
    for golden in GOLDEN {
        let (lo, hi) = golden.band;
        let mut oracle = ScanResult::new();
        scan_values(&data, ScanPredicate { lo, hi }, ScanAgg::SumCount, &mut oracle);
        assert_eq!(
            (oracle.matches, oracle.sum.to_bits()),
            (golden.matches, golden.column_bits),
            "scan_values over [{lo}, {hi}]: {:#018x}",
            oracle.sum.to_bits()
        );
        for (format, column) in formats.iter().zip(&columns) {
            let got = column.sum_where(lo, hi);
            assert_eq!(
                (got.matches, got.sum.to_bits(), got.vectors_all_in),
                (golden.matches, golden.column_bits, golden.vectors_all_in),
                "{} sum_where over [{lo}, {hi}]",
                format.name()
            );
            let mut scratch = Scratch::new();
            let digest = (0..column.zone_maps().len()).fold(0u64, |digest, v| {
                let scan = column.try_scan_vector_fused(v, lo, hi, &mut scratch);
                let sum = scan.expect("in range").expect("a fused storage").sum;
                digest.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sum.to_bits()
            });
            assert_eq!(
                digest,
                golden.vector_digest,
                "{} per-vector sums over [{lo}, {hi}]: {digest:#018x}",
                format.name()
            );
        }
        for service in &services {
            for no_fused in [false, true] {
                let opts = QueryOptions { no_fused, threads: Some(2), ..QueryOptions::default() };
                let got = service.sum_where(lo, hi, &opts).expect("an idle service admits").value;
                assert_eq!(
                    (got.matches, got.sum.to_bits(), got.vectors_all_in),
                    (golden.matches, golden.service_bits, golden.vectors_all_in),
                    "service (no_fused: {no_fused}) over [{lo}, {hi}]: {:#018x}",
                    got.sum.to_bits()
                );
            }
        }
    }
}
