//! **Table 7** — compression of 32-bit machine-learning weights (§4.4):
//! ALP (which falls back to ALP_rd32 on such data) against the codecs that
//! have 32-bit variants (Gorilla, Chimp, Chimp128, Patas) and the Zstd
//! stand-in. Metric: bits per value (uncompressed = 32).
//!
//! The paper's four models are replaced by synthetic Gaussian weights at
//! scaled-down parameter counts (see DESIGN.md §2) — what matters is the
//! high-precision, exponent-clustered profile, which the generator matches.
//!
//! ```sh
//! cargo run --release -p bench --bin table7_ml
//! ```

use bench::tables::Table;

fn main() {
    let mut table = Table::new(
        "Table 7: ML weights, bits per value (uncompressed = 32)",
        &["params", "Gorilla", "Chimp", "Chimp128", "Patas", "ALP(rd32)", "Zstd*"],
    );

    let mut sums = [0.0f64; 6];
    for (i, (model, params)) in datagen::ML_MODELS.iter().enumerate() {
        let weights = datagen::ml_weights_f32(*params, bench::bench_seed() + i as u64);
        let n = weights.len() as f64;

        let mut row: Vec<f64> = Vec::new();
        for codec in [
            codecs::Codec::Gorilla,
            codecs::Codec::Chimp,
            codecs::Codec::Chimp128,
            codecs::Codec::Patas,
        ] {
            let bytes = codec.compress_f32(&weights).unwrap();
            let back = codec.decompress_f32(&bytes, weights.len()).unwrap();
            assert!(back.iter().zip(&weights).all(|(a, b)| a.to_bits() == b.to_bits()));
            row.push(bytes.len() as f64 * 8.0 / n);
        }

        let compressed = alp::Compressor::new().compress(&weights);
        let back = compressed.decompress();
        assert!(back.iter().zip(&weights).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(
            compressed.stats.rowgroups_rd > 0 || weights.len() < alp::VECTOR_SIZE,
            "ML weights should trigger ALP_rd"
        );
        row.push(compressed.bits_per_value());

        let raw: Vec<u8> = weights.iter().flat_map(|v| v.to_le_bytes()).collect();
        let z = gpzip::compress(&raw);
        assert_eq!(gpzip::try_decompress(&z).unwrap(), raw);
        row.push(z.len() as f64 * 8.0 / n);

        for (s, v) in sums.iter_mut().zip(&row) {
            *s += v;
        }
        let mut cells = vec![params.to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.1}")));
        table.row(*model, cells);
        eprintln!("done: {model}");
    }

    let mut cells = vec!["".to_string()];
    cells.extend(sums.iter().map(|s| format!("{:.1}", s / datagen::ML_MODELS.len() as f64)));
    table.row("AVG.", cells);

    table.print();
    table.write_csv("table7_ml").ok();
    println!("\nPaper's claim: ALP_rd32 is the only float encoding to compress ML weights (28.1 avg, Zstd 29.7).");
}
