//! **Figure 4** — ALP's kernels on two instruction sets, in one process.
//!
//! The paper compares SIMDized / auto-vectorized / scalar builds across five
//! CPU architectures. With a single host CPU we reproduce the two axes it can
//! reach:
//!
//! * the **ISA axis**: the same kernels at both instruction tiers of
//!   [`fastlanes::tier`] — baseline x86-64 (SSE2) and x86-64-v3 (AVX2) —
//!   for the vector encoder, the fused decoder and the fused sum — summing
//!   every value (`sum`, the stored-sum route's `block_sum_all`) and under
//!   the vector's interquartile band (`sum band`, the predicated
//!   `block_sum` every query route calls). The tiers are switched with
//!   [`fastlanes::tier::capped`], so both columns come from one binary on
//!   one host;
//! * the **software axis**: the fused decoder against `scalar`, a
//!   deliberately value-at-a-time decoder with per-value branching (proxy for
//!   the `-fno-vectorize` builds of the paper).
//!
//! On a CPU without v3 both tier columns are the baseline's.
//!
//! ```sh
//! cargo run --release -p bench --bin fig4_arch
//! ```

use alp::VECTOR_SIZE;
use bench::tables::Table;
use bench::timing::{measure, Measurement};
use fastlanes::tier::{self, Tier};

fn main() {
    let batch_ms: u64 =
        std::env::var("ALP_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(20);
    let fast = tier::detected();
    println!("CPU tier: {fast}");
    let mut table = Table::new(
        "Figure 4: ALP kernels per instruction tier (tuples per cycle, higher is better)",
        &[
            "encode x86-64",
            "encode v3",
            "decode x86-64",
            "decode v3",
            "sum x86-64",
            "sum v3",
            "sum band x86-64",
            "sum band v3",
            "decode scalar",
        ],
    );

    let mut gains: [Vec<f64>; 4] = Default::default();
    for ds in &datagen::DATASETS {
        let data = bench::dataset(ds.name);
        let compressed = alp::Compressor::new().compress(&data);
        // First ALP-encoded (non-rd) vector; rd-only datasets have no decimal
        // kernel to compare.
        let Some(vector) = compressed.rowgroups.iter().find_map(|rg| match rg {
            alp::RowGroup::Alp(g) => g.owned_vector(0),
            _ => None,
        }) else {
            eprintln!("skip {} (ALP_rd row-groups only)", ds.name);
            continue;
        };
        let input = &data[..VECTOR_SIZE.min(data.len())];
        let (e, f) = (vector.exponent, vector.factor);
        let mut sorted = input.to_vec();
        sorted.sort_by(f64::total_cmp);
        let band = Some((sorted[sorted.len() / 4], sorted[3 * sorted.len() / 4]));

        let mut out = vec![0.0f64; VECTOR_SIZE];
        let mut arena = alp::ExcArena::new();
        let mut at = |tier: Tier| -> [Measurement; 4] {
            tier::capped(tier, || {
                let encode = measure(
                    || {
                        arena.clear();
                        std::hint::black_box(alp::encode::encode_vector_into(
                            input, e, f, &mut arena,
                        ));
                    },
                    batch_ms,
                    3,
                );
                let decode = measure(
                    || {
                        alp::decode::decode_vector(&vector, vector.view(), &mut out);
                        std::hint::black_box(&out);
                    },
                    batch_ms,
                    3,
                );
                let sum = measure(
                    || {
                        std::hint::black_box(alp::decode::sum_vector::<f64>(
                            &vector,
                            vector.view(),
                            None,
                        ));
                    },
                    batch_ms,
                    3,
                );
                let sum_band = measure(
                    || {
                        std::hint::black_box(alp::decode::sum_vector::<f64>(
                            &vector,
                            vector.view(),
                            band,
                        ));
                    },
                    batch_ms,
                    3,
                );
                [encode, decode, sum, sum_band]
            })
        };
        let base = at(Tier::Baseline);
        let v3 = at(fast);
        let scalar = measure(
            || {
                alp::decode::decode_vector_scalar(&vector, vector.view(), &mut out);
                std::hint::black_box(&out);
            },
            batch_ms,
            3,
        );
        let tpc = |m: &Measurement| m.tuples_per_cycle(VECTOR_SIZE);
        let mut cells = Vec::new();
        for (k, (b, v)) in base.iter().zip(&v3).enumerate() {
            gains[k].push(tpc(v) / tpc(b));
            cells.push(format!("{:.3}", tpc(b)));
            cells.push(format!("{:.3}", tpc(v)));
        }
        cells.push(format!("{:.3}", tpc(&scalar)));
        table.row(ds.name, cells);
    }

    table.print();
    for (kernel, g) in ["encode", "decode", "sum", "sum band"].iter().zip(&mut gains) {
        println!("median {kernel} v3/x86-64: {:.2}x", median(g));
    }
    if let Ok(p) = table.write_csv("fig4_arch") {
        eprintln!("wrote {}", p.display());
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}
