//! **Figure 6** — end-to-end SUM cost in CPU cycles per tuple for five
//! diverse datasets (Gov/26, City-Temp, Food-prices, Blockchain-tr, NYC/29),
//! decomposed into SCAN and summing work (SUM − SCAN), across thread counts,
//! on the same decode-then-consume loop as Table 6 ([`bench::endtoend`]).
//!
//! Lower is better. The paper's claims to check: ALP is cheaper end-to-end
//! than every other scheme *and* than uncompressed, and its per-core cost
//! stays flat as threads scale.
//!
//! ```sh
//! cargo run --release -p bench --bin fig6_endtoend
//! ```

use std::time::Instant;

use bench::endtoend::{Stored, SCHEMES};
use bench::tables::Table;
use bench::timing::tsc_ghz;

const DATASETS: [&str; 5] = ["Gov/26", "City-Temp", "Food-prices", "Blockchain", "NYC/29"];

fn cycles_per_tuple(tuples: usize, threads: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * tsc_ghz() * 1e9 * threads as f64 / tuples as f64
}

fn main() {
    let target: usize =
        std::env::var("ALP_E2E_VALUES").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000_000);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = [1usize, 8.min(cores), 16.min(cores)];
    eprintln!("values: {target}, threads: {threads:?}");

    for name in DATASETS {
        let base = bench::dataset(name);
        let mut data = Vec::with_capacity(target);
        while data.len() < target {
            let take = (target - data.len()).min(base.len());
            data.extend_from_slice(&base[..take]);
        }

        let mut table = Table::new(
            format!("Figure 6: SUM on {name} (cycles per tuple per core, lower is better)"),
            &["scan@1", "sum@1", "sum-scan@1", "sum@8", "sum@16", "bits/val"],
        );
        for id in SCHEMES {
            let col = Stored::new(id, &data);
            let scan1 = cycles_per_tuple(data.len(), 1, || {
                std::hint::black_box(col.scan(1));
            });
            let sums: Vec<f64> = threads
                .iter()
                .map(|&t| {
                    cycles_per_tuple(data.len(), t, || {
                        std::hint::black_box(col.sum(t));
                    })
                })
                .collect();
            let bpv = col.compressed_bytes() as f64 * 8.0 / data.len() as f64;
            table.row(
                col.name(),
                vec![
                    format!("{scan1:.2}"),
                    format!("{:.2}", sums[0]),
                    format!("{:.2}", (sums[0] - scan1).max(0.0)),
                    format!("{:.2}", sums[1]),
                    format!("{:.2}", sums[2]),
                    format!("{bpv:.1}"),
                ],
            );
            eprintln!("done: {name} / {}", col.name());
        }
        table.print();
        table.write_csv(&format!("fig6_{}", name.replace('/', "_"))).ok();
    }
}
