//! Every scheme is bit-exact lossless on every synthetic dataset — names the
//! test floor pins, each one a slice of the differential driver's table
//! (`tests/differential.rs` runs all of it; DESIGN.md §17).

mod driver;

use driver::*;

/// Values per dataset: two 2-vector row-groups and a ragged third.
const N: usize = 4 * 1024 + 333;

lossless_tests! {
    every_codec_roundtrips_every_dataset: f64, codecs(), datasets(N);
}

#[test]
fn alp_never_expands_catastrophically() {
    // Even on the worst inputs (real doubles) ALP_rd keeps the footprint close
    // to the raw 64 bits + small headers.
    for input in datasets::<f64>(20_000) {
        let bits = alp::Compressor::new().compress(&input.values).bits_per_value();
        assert!(bits < 68.0, "{}: {bits:.1} bits/value", input.name);
    }
}
