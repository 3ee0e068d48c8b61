//! Adversarial bytes against the serialized column format: never a panic,
//! never an unbounded allocation — names the test floor pins, each one a
//! slice of the differential driver's mutation loop (`tests/differential.rs`
//! runs all of it; DESIGN.md §17) under its own seed; `corruption::corpus`
//! holds the truncations, single and multiple flips and garbage the names
//! speak of.

mod driver;

use driver::*;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// The four written layouts of a short column (the driver mutates a longer).
fn layouts<F: Float>() -> [Layout; 4] {
    written_layouts(&mutation_column::<F>(2))
}

#[test]
fn lying_length_header_is_rejected() {
    let [mut plain, ..] = layouts::<f64>();
    // len lives at offset 5..13 (after magic + bits byte).
    plain.pristine[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        alp::format::from_bytes::<f64>(&plain.pristine),
        Err(alp::format::FormatError::Corrupt(_))
    ));
}

#[test]
fn every_truncation_point_fails_cleanly() {
    let [plain, ..] = layouts::<f64>();
    for cut in (0..plain.pristine.len()).step_by(97) {
        // An error or, for a prefix that ends on a boundary, a shorter valid
        // column; the gauge is the driver's.
        let (_, _, largest) = common::gauge(|| {
            alp::format::from_bytes::<f64>(&plain.pristine[..cut]).map(|column| column.decompress())
        });
        assert!(largest <= plain.ceiling, "cut at {cut}: one request of {largest} bytes");
    }
}

#[test]
fn random_single_byte_corruptions_never_panic() {
    assert_total(&layouts::<f32>()[0], seed() ^ 0x51);
}

#[test]
fn random_garbage_never_panics() {
    assert_total(&layouts::<f64>()[1], seed() ^ 0x6A);
}

#[test]
fn random_multi_corruptions_never_panic() {
    assert_total(&layouts::<f32>()[1], seed() ^ 0x3C);
}
