//! Quickstart: compress a column of doubles with ALP, inspect the result,
//! serialize it, and get the data back bit-exactly.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use alp::format::{self, BodyColumn};
use alp::Compressor;

fn main() {
    // A million "prices": decimals with 2 digits — typical database doubles.
    let prices: Vec<f64> =
        (0..1_000_000).map(|i| (1999 + (i * 37) % 100_000) as f64 / 100.0).collect();

    // Compress. The compressor samples each row-group to pick the scheme and
    // the per-vector (exponent, factor) parameters automatically.
    let compressed = Compressor::new().compress(&prices);

    println!("values            : {}", compressed.len);
    println!("bits per value    : {:.2} (uncompressed: 64)", compressed.bits_per_value());
    println!("compression ratio : {:.1}x", 64.0 / compressed.bits_per_value());
    println!(
        "row-groups        : {} ALP, {} ALP_rd",
        compressed.stats.rowgroups_alp, compressed.stats.rowgroups_rd
    );

    // Serialize to bytes (e.g. for a file or a column chunk in a data format).
    let bytes = format::to_bytes(&compressed);
    println!("serialized bytes  : {}", bytes.len());

    // Deserialize and decompress — bit-exact, always.
    let restored = format::from_bytes::<f64>(&bytes).expect("valid column");
    let output = restored.decompress();
    assert_eq!(prices.len(), output.len());
    assert!(prices.iter().zip(&output).all(|(a, b)| a.to_bits() == b.to_bits()));
    println!("roundtrip         : bit-exact ✓");

    // Vector-level random access: a row-group's body (the bytes a file's
    // frame holds) decodes any one of its vectors without touching the rest.
    let mut body = Vec::new();
    let (mut scratch, mut stats) = (Default::default(), Default::default());
    let rowgroup = &prices[..100 * alp::VECTOR_SIZE];
    Compressor::new().encode_rowgroup_body(rowgroup, &mut body, &mut scratch, &mut stats);
    let column = BodyColumn::<f64>::from_bodies(vec![body]).expect("a body just encoded");
    let mut buffer = vec![0.0f64; alp::VECTOR_SIZE];
    let n = column.vector(50).expect("in range").decode(&mut buffer);
    println!("random access     : vector 50 of row-group 0 -> {n} values, first = {}", buffer[0]);
}
