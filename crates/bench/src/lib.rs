//! Shared infrastructure for the per-table/per-figure harness binaries:
//! cycle-accurate timing, a scheme registry covering every compressor in the
//! evaluation, the end-to-end SCAN/SUM loop, and plain-text/CSV table output.
//!
//! Run every binary in `--release`; the measurements are meaningless in debug
//! builds. Environment knobs:
//!
//! * `ALP_BENCH_VALUES` — values generated per dataset (default 262,144).
//! * `ALP_BENCH_SEED` — generator seed (default 20240609).

pub mod endtoend;
pub mod schemes;
pub mod tables;
pub mod timing;

/// Default number of values generated per dataset for ratio experiments.
pub fn bench_values() -> usize {
    std::env::var("ALP_BENCH_VALUES").ok().and_then(|v| v.parse().ok()).unwrap_or(262_144)
}

/// Deterministic seed for all dataset generation.
pub fn bench_seed() -> u64 {
    std::env::var("ALP_BENCH_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(20_240_609)
}

/// Generates the standard benchmark instance of a dataset.
pub fn dataset(name: &str) -> Vec<f64> {
    datagen::generate(name, bench_values(), bench_seed())
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
