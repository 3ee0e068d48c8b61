//! **§4.2 "Sampling Overhead in Compression"** — three measurements:
//!
//! 1. the histogram of how many candidate combinations each vector's
//!    second-level sampling tried (paper: ~54% skip it entirely; 22.9% try 2,
//!    20.0% try 3, 2.9% try 4, 0.3% try 5);
//! 2. the share of total compression time spent in second-level sampling
//!    (paper: ≈6%);
//! 3. the compression-ratio gain a full brute-force search per vector would
//!    deliver over the sampled parameters (paper: <1%);
//!
//! and, for level 1 as the compressor runs it (`Compressor::choose_scheme`,
//! which stops as soon as every sampled vector is above the ALP_rd cap), its
//! time per row-group and its share of the row-group's compression time, for
//! ALP and for ALP_rd row-groups, with how many ALP_rd decisions the cap
//! settled (`SamplerStats::rd_proven`).
//!
//! ```sh
//! cargo run --release -p bench --bin sampling_overhead
//! ```

use std::time::Instant;

use alp::rowgroup::EncodeScratch;
use alp::sampler::{full_search, SamplerParams};
use alp::{Compressor, SamplerStats, Scheme, VECTOR_SIZE};
use bench::tables::Table;

/// Seconds per call of `f`, the fastest of five batches of at least 2 ms.
fn seconds(f: impl FnMut()) -> f64 {
    bench::timing::measure(f, 2, 5).ns_per_call * 1e-9
}

/// Per scheme: row-groups, level-1 seconds, compression seconds.
#[derive(Default)]
struct Level1Time {
    rowgroups: usize,
    level1_s: f64,
    compress_s: f64,
}

/// Times level 1 (`choose_scheme`) and the whole row-group
/// (`encode_rowgroup_body`, level 1 included) on every row-group of `data`,
/// into `times` by the scheme chosen; returns the row-groups' statistics.
fn time_level1(data: &[f64], times: &mut [Level1Time; 2]) -> SamplerStats {
    let compressor = Compressor::new();
    let rowgroup_values = compressor.params().vectors_per_rowgroup * VECTOR_SIZE;
    let (mut scratch, mut body) = (EncodeScratch::default(), Vec::new());
    let mut stats = SamplerStats::default();
    for rowgroup in data.chunks(rowgroup_values) {
        let scheme = compressor.choose_scheme(rowgroup, &mut scratch, &mut stats);
        let level1_s = seconds(|| {
            let mut stats = SamplerStats::default();
            std::hint::black_box(compressor.choose_scheme(rowgroup, &mut scratch, &mut stats));
        });
        let compress_s = seconds(|| {
            body.clear();
            let mut stats = SamplerStats::default();
            compressor.encode_rowgroup_body(rowgroup, &mut body, &mut scratch, &mut stats);
            std::hint::black_box(&body);
        });
        let slot = &mut times[usize::from(scheme == Scheme::AlpRd)];
        slot.rowgroups += 1;
        slot.level1_s += level1_s;
        slot.compress_s += compress_s;
    }
    stats
}

fn main() {
    let mut hist = [0usize; 8];
    let mut total_vectors = 0usize;
    let mut skipped = 0usize;

    let mut sampled_time = 0.0f64;
    let mut total_time = 0.0f64;
    let mut sampled_bits = 0usize;
    let mut brute_bits = 0usize;
    let mut uncompressed_values = 0usize;
    let mut level1_times: [Level1Time; 2] = Default::default();
    let mut rd_proven = 0usize;

    for ds in &datagen::DATASETS {
        let data = bench::dataset(ds.name);
        rd_proven += time_level1(&data, &mut level1_times).rd_proven;

        // Full compression (includes both sampling levels).
        let t0 = Instant::now();
        let compressed = Compressor::new().compress(&data);
        total_time += t0.elapsed().as_secs_f64();

        for (i, &n) in compressed.stats.combinations_tried.iter().enumerate() {
            hist[i] += n;
        }
        total_vectors += compressed.stats.vectors_encoded;
        skipped += compressed.stats.second_level_skipped;
        let rd_dataset = compressed.stats.rowgroups_rd > 0;
        if !rd_dataset {
            sampled_bits += compressed.compressed_bits();
            uncompressed_values += data.len();
        }

        // Isolate second-level time: re-run level-2 on every vector.
        let params = SamplerParams::default();
        let outcome = alp::sampler::first_level(&data, &params);
        let mut stats = alp::SamplerStats::default();
        let t1 = Instant::now();
        for chunk in data.chunks(VECTOR_SIZE) {
            std::hint::black_box(alp::sampler::second_level(
                chunk,
                &outcome.combinations,
                &params,
                &mut stats,
            ));
        }
        sampled_time += t1.elapsed().as_secs_f64();

        // Brute force: best combination per vector over the full space, then
        // encode with it. Only meaningful for decimal (non-rd) datasets.
        if !rd_dataset {
            let mut bits = 0usize;
            for chunk in data.chunks(VECTOR_SIZE) {
                let (combo, _) = full_search(chunk);
                let v = alp::encode::encode_vector(chunk, combo.e, combo.f);
                bits += v.compressed_bits();
            }
            brute_bits += bits;
        }
        eprintln!("done: {}", ds.name);
    }

    let mut table = Table::new(
        "Second-level sampling: combinations tried per vector",
        &["vectors", "% of vectors"],
    );
    for (tried, &n) in hist.iter().enumerate().skip(1) {
        if n > 0 {
            table.row(
                format!("{tried} combination(s)"),
                vec![n.to_string(), format!("{:.1}%", n as f64 / total_vectors as f64 * 100.0)],
            );
        }
    }
    table.print();

    println!(
        "\nvectors skipping second-level sampling (k'=1): {:.1}% (paper: ~54%)",
        skipped as f64 / total_vectors as f64 * 100.0
    );
    println!(
        "second-level sampling share of compression time: {:.1}% (paper: ~6%)",
        sampled_time / total_time * 100.0
    );
    let sampled_bpv = sampled_bits as f64 / uncompressed_values as f64;
    let brute_bpv = brute_bits as f64 / uncompressed_values as f64;
    println!(
        "sampled {sampled_bpv:.2} bits/value vs brute-force {brute_bpv:.2}: brute-force gains {:.2}% (paper: <1%)",
        (sampled_bpv - brute_bpv) / sampled_bpv * 100.0
    );
    table.write_csv("sampling_overhead").ok();

    let mut table = Table::new(
        "Level 1 as the compressor runs it, per row-group",
        &["row-groups", "level 1 us", "compression us", "level 1 share"],
    );
    for (scheme, t) in ["ALP", "ALP_rd"].iter().zip(&level1_times) {
        let per = |s: f64| s / t.rowgroups.max(1) as f64 * 1e6;
        table.row(
            format!("{scheme} row-groups"),
            vec![
                t.rowgroups.to_string(),
                format!("{:.1}", per(t.level1_s)),
                format!("{:.1}", per(t.compress_s)),
                format!("{:.1}%", t.level1_s / t.compress_s * 100.0),
            ],
        );
    }
    table.print();
    println!(
        "ALP_rd row-groups decided before level 1 finished (rd_proven): {rd_proven} of {}",
        level1_times[1].rowgroups
    );
}
