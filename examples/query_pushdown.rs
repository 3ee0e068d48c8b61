//! End-to-end querying over compressed storage with the vectorized engine:
//! SCAN and SUM over an ALP column vs uncompressed vs a block-based
//! general-purpose compressor, demonstrating why vector-granular compression
//! enables skipping (predicate push-down) and block-based does not.
//!
//! ```sh
//! cargo run --release --example query_pushdown
//! ```

use std::time::Instant;

use vectorq::{Column, Format};

fn time<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    println!("  {label:<24} {:>9.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    r
}

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

    for fmt in [Format::Uncompressed, Format::alp(), Format::by_id("gpzip").unwrap()] {
        println!("{}:", fmt.name());
        let col = time("compress (COMP)", || Column::from_f64(&data, fmt));
        println!(
            "  {:<24} {:>9.2} bits/value",
            "footprint",
            col.compressed_bytes() as f64 * 8.0 / data.len() as f64
        );
        let tuples = time("full scan (SCAN)", || col.scan());
        assert_eq!(tuples, data.len());
        let total = time("aggregate (SUM)", || col.sum());
        println!("  {:<24} {total:>13.2}\n", "sum result");
    }

    // The push-down story: touching ONE vector.
    println!("touching a single 1024-value vector in the middle of the column:");
    let alp_col = alp::Compressor::new().compress(&data);
    let mut buf = vec![0.0f64; alp::VECTOR_SIZE];
    let t0 = Instant::now();
    let n = alp_col.try_decompress_vector(40, 50, &mut buf).expect("in range");
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

    // Cross-column push-down with the Table API: filter on a sorted time
    // column, aggregate a price column — only the matching vectors of the
    // price column are ever decompressed.
    println!("\ncross-column predicate push-down (Table API):");
    let n_rows = 2_000_000usize;
    let time: Vec<f64> = (0..n_rows).map(|i| i as f64).collect();
    let price = datagen::generate("Stocks-USA", n_rows, 3);
    let table = vectorq::table::Table::from_columns(vec![
        ("time", time, vectorq::Format::alp()),
        ("price", price, vectorq::Format::alp()),
    ])
    .unwrap();
    let t0 = Instant::now();
    let r = table
        .aggregate_where("price", vectorq::table::Aggregate::Avg, "time", 1_000_000.0, 1_004_095.0)
        .unwrap();
    println!(
        "  avg(price) where time in [1e6, 1e6+4095]: {:.4} ({} rows, {} of {} price vectors touched, {:.1} us)",
        r.value,
        r.matches,
        r.vectors_touched,
        table.rows().div_ceil(alp::VECTOR_SIZE),
        t0.elapsed().as_secs_f64() * 1e6
    );
}
