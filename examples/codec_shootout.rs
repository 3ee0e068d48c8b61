//! Compares every compression scheme in the repository on one dataset:
//! ratio and wall-clock speed, a single-dataset slice of the paper's
//! evaluation.
//!
//! ```sh
//! cargo run --release --example codec_shootout -- Stocks-USA
//! ```

use std::time::Instant;

fn main() -> Result<(), codecs::CodecError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Stocks-USA".to_string());
    let data = datagen::generate(&name, 500_000, 11);
    let mb = data.len() as f64 * 8.0 / 1e6;
    println!("dataset {name}: {} values ({mb:.0} MB)\n", data.len());
    println!("{:<10} {:>11} {:>14} {:>14}", "scheme", "bits/value", "comp MB/s", "decomp MB/s");

    // ALP.
    let t0 = Instant::now();
    let compressed = alp::Compressor::new().compress(&data);
    let c_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let back = compressed.decompress();
    let d_s = t0.elapsed().as_secs_f64();
    assert!(data.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()));
    println!(
        "{:<10} {:>11.2} {:>14.0} {:>14.0}",
        "ALP",
        compressed.bits_per_value(),
        mb / c_s,
        mb / d_s
    );

    // Baseline codecs.
    for codec in codecs::Codec::ALL {
        let t0 = Instant::now();
        let bytes = codec.compress_f64(&data);
        let c_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let back = codec.try_decompress_f64(&bytes, data.len())?;
        let d_s = t0.elapsed().as_secs_f64();
        assert!(data.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()));
        println!(
            "{:<10} {:>11.2} {:>14.0} {:>14.0}",
            codec.name(),
            bytes.len() as f64 * 8.0 / data.len() as f64,
            mb / c_s,
            mb / d_s
        );
    }

    // The Zstd stand-in.
    let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let t0 = Instant::now();
    let z = gpzip::compress(&raw);
    let c_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let back = gpzip::try_decompress(&z)?;
    let d_s = t0.elapsed().as_secs_f64();
    assert_eq!(back, raw);
    println!(
        "{:<10} {:>11.2} {:>14.0} {:>14.0}",
        "Zstd*",
        z.len() as f64 * 8.0 / data.len() as f64,
        mb / c_s,
        mb / d_s
    );
    println!("\nall schemes verified bit-exact lossless on this dataset");
    Ok(())
}
