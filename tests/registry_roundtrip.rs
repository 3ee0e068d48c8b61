//! Registry-wide measurement over the columns that break codecs in practice —
//! a name the test floor pins. The roundtrips themselves are the differential
//! driver's `lossless_through_every_registry_codec_at_both_widths`
//! (`tests/differential.rs`; DESIGN.md §17).

mod driver;

use driver::*;

/// Every bit-pattern class and every vector-straddling length.
fn edge_columns<F: Float>() -> Vec<Input<F>> {
    let mut inputs = bit_patterns();
    inputs.extend(vector_lengths());
    inputs
}

#[test]
fn every_ratio_codec_measures_every_edge_column() {
    // Codecs that cannot serialize must still *measure* the edge columns:
    // `verified_compressed_bits` roundtrips internally and checks bit
    // equality, so ratio-only schemes get the same guarantee.
    let mut scratch = alp_core::Scratch::new();
    for input in edge_columns::<f64>().iter().filter(|input| !input.values.is_empty()) {
        for codec in alp_core::Registry::all() {
            let bits = codec
                .verified_compressed_bits(&input.values, &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {}: measure failed: {e}", codec.id(), input.name));
            assert!(bits > 0, "{}: {}: zero-size claim", codec.id(), input.name);
        }
    }
}
