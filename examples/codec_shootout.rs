//! Compares every compression scheme in the repository on one dataset:
//! ratio and wall-clock speed, a single-dataset slice of the paper's
//! evaluation — one loop over the codec registry, timed at the morsel
//! scheduler's thread count (`ALP_THREADS`, or the machine's).
//!
//! ```sh
//! cargo run --release --example codec_shootout -- Stocks-USA
//! ```

use std::time::Instant;

use alp::par::resolve_threads;
use alp_core::par::DEFAULT_CHUNK_VALUES;
use alp_core::{CoreError, Registry, Scratch};

fn main() -> Result<(), CoreError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Stocks-USA".to_string());
    let data = datagen::generate(&name, 500_000, 11);
    let mb = data.len() as f64 * 8.0 / 1e6;
    let threads = resolve_threads(None);
    println!("dataset {name}: {} values ({mb:.0} MB)", data.len());
    println!(
        "threads: {threads}, chunk: {DEFAULT_CHUNK_VALUES} values, kernels: {}\n",
        alp::tier::active()
    );
    println!("{:<16} {:>11} {:>14} {:>14}", "scheme", "bits/value", "comp MB/s", "decomp MB/s");

    let mut scratch = Scratch::new();
    for codec in Registry::all() {
        // Verifies losslessness on the way; the only figure a ratio-only
        // scheme has.
        let bits = codec.verified_compressed_bits(&data, &mut scratch)?;
        let bpv = bits as f64 / data.len() as f64;
        if codec.caps().ratio_only {
            println!("{:<16} {bpv:>11.2} {:>14} {:>14}", codec.name(), "-", "-");
            continue;
        }
        let t0 = Instant::now();
        let chunks = codec.par_compress(&data, DEFAULT_CHUNK_VALUES, threads)?;
        let c_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let back = codec.par_decompress(&chunks, threads)?;
        let d_s = t0.elapsed().as_secs_f64();
        assert!(
            back.len() == data.len()
                && data.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits())
        );
        println!("{:<16} {bpv:>11.2} {:>14.0} {:>14.0}", codec.name(), mb / c_s, mb / d_s);
    }
    println!("\nall schemes verified bit-exact lossless on this dataset");
    Ok(())
}
