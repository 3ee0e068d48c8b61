//! ALP's footprint bound on every synthetic dataset. The lossless slices
//! this suite used to hold run in the differential driver's table
//! (`tests/differential.rs`; DESIGN.md §17 maps each to its axis).

mod driver;

use driver::*;

#[test]
fn alp_never_expands_catastrophically() {
    // Even on the worst inputs (real doubles) ALP_rd keeps the footprint close
    // to the raw 64 bits + small headers.
    for input in datasets::<f64>(20_000) {
        let bits = alp::Compressor::new().compress(&input.values).bits_per_value();
        assert!(bits < 68.0, "{}: {bits:.1} bits/value", input.name);
    }
}
