//! The vectorized engine answers identically over every storage format and
//! at every parallelism level — names the test floor pins, each one a slice
//! of the differential driver's aggregate axis (`tests/differential.rs` runs
//! all of it; DESIGN.md §17).

mod driver;

use driver::*;
use vectorq::{Column, Format};

#[test]
fn sums_agree_across_formats_on_diverse_datasets() {
    for name in ["City-Temp", "Gov/26", "Blockchain", "POI-lat", "CMS/9"] {
        for format in formats() {
            assert_aggregates(&dataset(name, 1024 + 333).values, false, format, name);
        }
    }
}

#[test]
fn scan_counts_are_exact() {
    let odd = dataset::<f64>("Stocks-DE", 12_457);
    for format in formats() {
        assert_eq!(
            Column::from_f64(&odd.values, format).scan(),
            odd.values.len(),
            "{}",
            format.name()
        );
    }
}

#[test]
fn parallelism_does_not_change_answers() {
    assert_aggregates(&dataset("Food-prices", 10_000).values, false, Format::alp(), "Food-prices");
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

/// One format per storage shape — raw, ALP, per-vector codec bytes,
/// block-granular codec bytes — on the column that holds every bit-pattern
/// class and crosses the shape's own block boundary (the driver sweeps all
/// eleven formats).
#[test]
fn every_operator_matches_the_scan_oracle_bit_for_bit_on_every_storage() {
    let shapes = ["patas", "gpzip-fast"].map(|id| Format::by_id(id).expect("registered"));
    for format in [Format::Uncompressed, Format::alp()].into_iter().chain(shapes) {
        assert_aggregates(&exact_column(format), true, format, "every class at chosen places");
    }
}
