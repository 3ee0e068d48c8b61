//! Predicate push-down over compressed storage with the query engine: a
//! narrow-band `sum_where` over an ALP column and over the same values
//! uncompressed, and why vector-granular compression can skip where a
//! block-based general-purpose compressor cannot.
//!
//! ```sh
//! cargo run --release --example query_pushdown
//! ```

use std::time::Instant;

use vectorq::{Column, Format};

fn main() {
    let data = {
        let base = datagen::generate("City-Temp", 1_048_576, 3);
        let mut d = Vec::with_capacity(8 * base.len());
        for _ in 0..8 {
            d.extend_from_slice(&base);
        }
        d
    };
    println!("column: {} doubles ({} MB uncompressed)\n", data.len(), data.len() * 8 / 1_000_000);

    // A narrow band — the range of one vector in the middle of the column:
    // most vectors' zone maps rule it out, the ones inside it are answered
    // from their stored sums, and the rest are summed.
    let middle = data.chunks(alp::VECTOR_SIZE).nth(4000).expect("8192 vectors");
    let lo = middle.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = middle.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for fmt in [Format::Uncompressed, Format::alp()] {
        let t0 = Instant::now();
        let col = Column::from_f64(&data, fmt);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let bpv = col.compressed_bytes() as f64 * 8.0 / data.len() as f64;
        println!("{}: {bpv:.2} bits/value, built in {build_ms:.1} ms", fmt.name());
        let t0 = Instant::now();
        let r = col.sum_where(lo, hi);
        println!(
            "  sum({lo} <= x <= {hi}) = {:.2} ({} matches) in {:.2} ms: {} vectors scanned \
             ({} inside the band), {} skipped\n",
            r.sum,
            r.matches,
            t0.elapsed().as_secs_f64() * 1e3,
            r.vectors_scanned,
            r.vectors_all_in,
            r.vectors_skipped
        );
    }

    // The push-down story: touching ONE vector.
    println!("touching a single 1024-value vector in the middle of the column:");
    let alp_col = Column::from_f64(&data, Format::alp());
    let (mut buf, mut scratch) = (Vec::with_capacity(alp::VECTOR_SIZE), alp_core::Scratch::new());
    let t0 = Instant::now();
    let n = alp_col.try_decompress_vector_at(4050, &mut buf, &mut scratch).expect("in range");
    let alp_us = t0.elapsed().as_secs_f64() * 1e6;
    println!("  ALP   : decompress exactly {n} values          -> {alp_us:>8.1} us");

    let block: Vec<u8> =
        data[..vectorq::ROWGROUP_VALUES].iter().flat_map(|v| v.to_le_bytes()).collect();
    let zblock = gpzip::compress(&block);
    let t0 = Instant::now();
    let raw = gpzip::try_decompress(&zblock).expect("bytes compressed above");
    let z_us = t0.elapsed().as_secs_f64() * 1e6;
    println!(
        "  GPZip : must inflate the whole {}-value block -> {z_us:>8.1} us ({:.0}x more data touched)",
        raw.len() / 8,
        (raw.len() / 8) as f64 / n as f64
    );
}
