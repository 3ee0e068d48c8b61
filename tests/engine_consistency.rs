//! Integration: the vectorized engine must produce identical query answers
//! over every storage format and at every parallelism level.

use vectorq::{Column, Format};

/// Every storage format the engine supports: raw plus every registered,
/// serializable codec.
fn all_formats() -> Vec<Format> {
    let mut f = vec![Format::Uncompressed];
    f.extend(alp_core::Registry::all().iter().filter_map(|c| Format::by_id(c.id())));
    f
}

#[test]
fn sums_agree_across_formats_on_diverse_datasets() {
    for name in ["City-Temp", "Gov/26", "Blockchain", "POI-lat", "CMS/9"] {
        let data = datagen::generate(name, 150_000, 5);
        let reference: f64 = data.iter().sum();
        for fmt in all_formats() {
            let col = Column::from_f64(&data, fmt);
            let got = col.sum();
            let tolerance = reference.abs().max(1.0) * 1e-9;
            assert!(
                (got - reference).abs() <= tolerance,
                "{name} via {}: {got} vs {reference}",
                fmt.name()
            );
        }
    }
}

#[test]
fn scan_counts_are_exact() {
    let data = datagen::generate("Stocks-DE", 123_457, 5); // deliberately odd length
    for fmt in all_formats() {
        let col = Column::from_f64(&data, fmt);
        assert_eq!(col.scan(), data.len(), "{}", fmt.name());
    }
}

#[test]
fn parallelism_does_not_change_answers() {
    let data = datagen::generate("Food-prices", 400_000, 5);
    let col = Column::from_f64(&data, Format::alp());
    let serial = col.sum();
    for threads in [2, 3, 4, 8] {
        let parallel = col.par_sum(threads);
        assert!(
            (serial - parallel).abs() <= serial.abs() * 1e-9,
            "threads {threads}: {parallel} vs {serial}"
        );
        assert_eq!(col.par_scan(threads), data.len());
    }
}

#[test]
fn compressed_footprints_rank_sensibly_on_decimals() {
    // On a classic decimal dataset ALP must compress, and must beat the
    // XOR codecs clearly (the paper's Table 4 shape).
    let data = datagen::generate("City-Temp", 300_000, 5);
    let raw = Column::from_f64(&data, Format::Uncompressed).compressed_bytes();
    let alp = Column::from_f64(&data, Format::alp()).compressed_bytes();
    let gorilla = Column::from_f64(&data, Format::by_id("gorilla").unwrap()).compressed_bytes();
    assert!(alp * 3 < raw, "ALP {alp} vs raw {raw}");
    assert!(alp < gorilla, "ALP {alp} vs Gorilla {gorilla}");
}

/// Storage × operator: every way of asking "which rows fall in `lo..=hi`, and
/// what do they add up to" — over every storage shape (raw, ALP, per-vector
/// codec bytes, block-granular codec bytes), every service route (cached,
/// compressed-domain, materialize-and-drop) and every thread count — gives
/// the bits `alp_core::scan::scan_values` gives over the plain values.
#[test]
fn every_operator_matches_the_scan_oracle_bit_for_bit_on_every_storage() {
    use alp_core::scan::{scan_values, ScanAgg, ScanPredicate, ScanResult};
    use std::sync::Arc;
    use vectorq::cache::CacheConfig;
    use vectorq::service::{QueryOptions, Service, ServiceConfig, Store};
    use vectorq::table::{Aggregate, Table};

    // Multiples of 0.25, so every partial sum is exact and the answer cannot
    // depend on how vectors are grouped into pages; one full block-granular
    // block plus a ragged second one whose last vector is short.
    let n = vectorq::ROWGROUP_VALUES + 3 * alp::VECTOR_SIZE + 700;
    let mut data: Vec<f64> = (0..n).map(|i| ((i * 7919) % 4001) as f64 * 0.25 - 500.0).collect();
    data[5] = f64::from_bits(0x7ff8_0000_0000_1234); // NaN payloads
    data[2 * alp::VECTOR_SIZE + 17] = f64::from_bits(0xfff8_dead_beef_0001);
    data[9] = 0.0;
    data[10] = -0.0;
    data[alp::VECTOR_SIZE + 1] = f64::INFINITY;
    data[vectorq::ROWGROUP_VALUES + 40] = f64::NEG_INFINITY;
    data[n - 3] = f64::MIN_POSITIVE / 2.0; // subnormal, in the ragged tail
    for x in &mut data[7 * alp::VECTOR_SIZE..8 * alp::VECTOR_SIZE] {
        *x = f64::NAN; // an all-NaN vector: zone-pruned by every predicate
    }

    let bands = [
        (f64::NEG_INFINITY, f64::INFINITY),
        (0.0, f64::INFINITY),
        (-0.0, 0.0),
        (-100.25, 37.5),
        (0.0, 1e-300),
        (1e6, 2e6),
    ];
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let mut whole = ScanResult::new();
    let everything = ScanPredicate { lo: f64::NEG_INFINITY, hi: f64::INFINITY };
    scan_values(&data, everything, ScanAgg::All, &mut whole);

    let oracle = |lo: f64, hi: f64| {
        let mut r = ScanResult::new();
        scan_values(&data, ScanPredicate { lo, hi }, ScanAgg::All, &mut r);
        r
    };
    for fmt in all_formats() {
        let name = fmt.name();
        let col = Column::from_f64(&data, fmt);
        assert_eq!(bits(col.try_aggregate(Aggregate::Min)), bits(whole.min), "{name}");
        assert_eq!(bits(col.try_aggregate(Aggregate::Max)), bits(whole.max), "{name}");
        assert_eq!(col.try_aggregate(Aggregate::Count), Some(n as f64), "{name}");
        let table =
            Table::from_columns(vec![("filter", data.clone(), fmt), ("target", data.clone(), fmt)])
                .unwrap();
        for (lo, hi) in bands {
            let label = format!("{name} [{lo}, {hi}]");
            let want = oracle(lo, hi);
            let rows: Vec<u64> =
                (0..n).filter(|&i| data[i] >= lo && data[i] <= hi).map(|i| i as u64).collect();
            assert_eq!(rows.len(), want.matches);

            let direct = col.sum_where(lo, hi);
            assert_eq!(direct.sum.to_bits(), want.sum.to_bits(), "{label}");
            assert_eq!(direct.matches, want.matches, "{label}");
            assert_eq!(col.filter_indices(lo, hi), rows, "{label}");

            let agg = |a| table.aggregate_where("target", a, "filter", lo, hi).unwrap();
            assert_eq!(agg(Aggregate::Sum).value.to_bits(), want.sum.to_bits(), "{label}");
            assert_eq!(agg(Aggregate::Count).matches, want.matches, "{label}");
            let undefined = Some(f64::NAN.to_bits());
            let min = bits(Some(agg(Aggregate::Min).value));
            assert_eq!(min, bits(want.min).or(undefined), "{label}");
            let max = bits(Some(agg(Aggregate::Max).value));
            assert_eq!(max, bits(want.max).or(undefined), "{label}");
        }

        for threads in [1, 2, 7] {
            let service = |cache| {
                let column = Column::from_f64_parallel(&data, fmt, threads);
                Service::new(Arc::new(Store::new(column, cache)), ServiceConfig::default())
            };
            let zero_entry = CacheConfig { max_entries: 0, ..CacheConfig::default_config() };
            let (cached, uncached) = (service(CacheConfig::default_config()), service(zero_entry));
            let fused = QueryOptions { threads: Some(threads), ..QueryOptions::default() };
            let no_fused = QueryOptions { no_fused: true, ..fused };
            // `cached` twice: the first query fills the cache, the second hits it.
            let routes =
                [(&cached, fused), (&cached, fused), (&uncached, fused), (&uncached, no_fused)];
            for (lo, hi) in bands {
                let want = oracle(lo, hi);
                for (route, (svc, opts)) in routes.into_iter().enumerate() {
                    let label = format!("{name} t={threads} [{lo}, {hi}] route {route}");
                    let r = svc.sum_where(lo, hi, &opts).expect("admitted");
                    assert!(r.loss.is_complete(), "{label}");
                    assert_eq!(r.value.sum.to_bits(), want.sum.to_bits(), "{label}");
                    assert_eq!(r.value.matches, want.matches, "{label}");
                }
            }
        }
    }
}
