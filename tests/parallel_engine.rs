//! Thread count is invisible in what the engine writes and reads (DESIGN.md
//! §10) — names the test floor pins, each one a slice of the differential
//! driver's table (`tests/differential.rs` runs all of it; DESIGN.md §17).

mod driver;

use driver::*;

/// Decimals, decimals with noise and noise, each several chunks and a ragged
/// tail; and every bit pattern amid decimals.
fn mixed_columns() -> Vec<Input<f64>> {
    let mut inputs = arbitrary(3, 9000);
    inputs.extend(bit_patterns().pop());
    inputs
}

/// ALP's native row-group compressor (not the chunked registry path):
/// serialized bytes and sampler statistics, partial tail row-group included.
#[test]
fn native_alp_rowgroup_compression_is_byte_identical_serialized() {
    let mut inputs = mixed_columns();
    inputs.extend(rowgroup_lengths().pop());
    same_bytes(&alp_writers()[..2], &inputs);
    lossless::<f64>(&[alp_column()], &inputs);
}

#[test]
fn native_alp_parallel_handles_empty_and_length_one() {
    let shortest = &vector_lengths::<f64>()[..2];
    lossless(&[alp_column(), alp_bytes(false)], shortest);
    same_bytes(&alp_writers()[..2], shortest);
}
