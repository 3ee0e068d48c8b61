//! The vectorized engine answers identically over every storage format — a
//! name the test floor pins, a slice of the differential driver's aggregate
//! axis (`tests/differential.rs` runs all of it; DESIGN.md §17) — and ALP's
//! footprint ranks as the paper's Table 4 does.

mod driver;

use driver::*;
use vectorq::{Column, Format};

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
