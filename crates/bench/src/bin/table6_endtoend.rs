//! **Table 6** — end-to-end query performance (§4.3): SCAN and SUM at
//! 1/8/16 threads plus COMP, in per-core tuples per cycle, on the City-Temp
//! dataset scaled up by concatenation. Each scheme's column is decoded vector
//! at a time by morsel-claiming workers ([`bench::endtoend`]), the paper's
//! Tectorwise setup.
//!
//! The paper scales to 1B doubles on a 16-core Ice Lake; the default here is
//! 20M values (override with `ALP_E2E_VALUES`), and thread counts are clamped
//! to the host's cores — on smaller hosts the scaling columns degenerate but
//! the single-thread ordering (the headline) is preserved.
//!
//! ```sh
//! cargo run --release -p bench --bin table6_endtoend
//! ```

use std::time::Instant;

use bench::endtoend::{Stored, SCHEMES};
use bench::tables::Table;
use bench::timing::tsc_ghz;

fn scaled_dataset(name: &str, target: usize) -> Vec<f64> {
    let base = bench::dataset(name);
    let mut out = Vec::with_capacity(target);
    while out.len() < target {
        let take = (target - out.len()).min(base.len());
        out.extend_from_slice(&base[..take]);
    }
    out
}

/// Per-core tuples per cycle of `f` over `tuples` total tuples on `threads`.
fn per_core_tpc(tuples: usize, threads: usize, mut f: impl FnMut()) -> f64 {
    // One warm-up, then best of 3.
    f();
    let ghz = tsc_ghz();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let cycles_total = best * ghz * 1e9 * threads as f64;
    tuples as f64 / cycles_total
}

fn main() {
    let target: usize =
        std::env::var("ALP_E2E_VALUES").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000_000);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let thread_counts: Vec<usize> =
        [1usize, 8, 16].iter().map(|&t| t.min(cores)).collect::<Vec<_>>();
    eprintln!("values: {target}, host cores: {cores}, threads tested: {thread_counts:?}");

    let data = scaled_dataset("City-Temp", target);
    let mut table = Table::new(
        "Table 6: end-to-end on City-Temp (per-core tuples/cycle, higher is better)",
        &["SCAN 1", "SCAN 8", "SCAN 16", "SUM 1", "SUM 8", "SUM 16", "COMP", "bits/val"],
    );

    for id in SCHEMES {
        // COMP: time the compression.
        let t0 = Instant::now();
        let col = Stored::new(id, &data);
        let comp_s = t0.elapsed().as_secs_f64();
        let comp_tpc =
            if id == "raw" { f64::NAN } else { data.len() as f64 / (comp_s * tsc_ghz() * 1e9) };
        let bits_per_value = col.compressed_bytes() as f64 * 8.0 / data.len() as f64;

        let mut cells = Vec::new();
        for &t in &thread_counts {
            let tpc = per_core_tpc(data.len(), t, || {
                std::hint::black_box(col.scan(t));
            });
            cells.push(format!("{tpc:.3}"));
        }
        for &t in &thread_counts {
            let tpc = per_core_tpc(data.len(), t, || {
                std::hint::black_box(col.sum(t));
            });
            cells.push(format!("{tpc:.3}"));
        }
        cells.push(if comp_tpc.is_nan() { "N/A".into() } else { format!("{comp_tpc:.3}") });
        cells.push(format!("{bits_per_value:.1}"));
        table.row(col.name(), cells);
        eprintln!("done: {}", col.name());
    }

    table.print();
    table.write_csv("table6_endtoend").ok();
}
