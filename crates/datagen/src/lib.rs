//! Synthetic stand-ins for the 30 datasets of the paper's Table 1.
//!
//! The real datasets (NEON sensor archives, InfluxDB samples, the Public BI
//! benchmark, Kaggle dumps — multi-GB downloads) are not available offline, so
//! each dataset is replaced by a generator tuned to the statistics the paper
//! itself reports in **Table 2**: visible decimal precision (mean/spread),
//! value magnitude (mean/std-dev), the per-vector duplicate fraction, whether
//! values evolve as a time series (random walk) or i.i.d., heavy tails, zero
//! inflation, and — for the POI datasets — genuine full-precision "real
//! doubles". Decimals are manufactured as `d / 10^p` with both operands
//! exactly representable, which is correctly rounded and therefore produces
//! exactly the double a CSV parser would (see DESIGN.md §2).
//!
//! All generators are deterministic given `(name, n, seed)`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How a dataset's values are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spec {
    /// Random walk of an integer significand: `s_{i+1} = s_i ± U(0, step)`,
    /// value `s / 10^precision`. Models the time-series datasets.
    Walk {
        /// Decimal places.
        precision: u32,
        /// Starting value (in value units).
        start: f64,
        /// Maximum per-tick significand step.
        step: i64,
        /// Probability of repeating a recent value exactly.
        dup: f64,
    },
    /// I.i.d. decimals with significand uniform over `[lo, hi] * 10^precision`.
    Decimal {
        /// Decimal places of most values.
        precision: u32,
        /// Additional places on ~10% of values (precision jitter).
        jitter: u32,
        /// Low end of the value range.
        lo: f64,
        /// High end of the value range.
        hi: f64,
        /// Probability of repeating a recent value exactly.
        dup: f64,
    },
    /// Log-normal magnitudes rounded to `precision` decimals (heavy tails,
    /// e.g. Blockchain-tr, Food-prices, Gov/10).
    HeavyTail {
        /// Decimal places.
        precision: u32,
        /// Mean of `ln(value)`.
        mu: f64,
        /// Std-dev of `ln(value)`.
        sigma: f64,
        /// Probability of repeating a recent value exactly.
        dup: f64,
    },
    /// Zero-inflated decimals (the Gov columns: up to 99.5% exact zeros).
    Sparse {
        /// Fraction of exact `0.0` values.
        zero_frac: f64,
        /// Decimal places of the non-zero values.
        precision: u32,
        /// Low end of the non-zero range.
        lo: f64,
        /// High end of the non-zero range.
        hi: f64,
    },
    /// Non-negative integers stored as doubles (CMS/9, Medicare/9), with a
    /// log-uniform (Zipf-like) size distribution.
    Counts {
        /// Largest count.
        max: u64,
        /// Probability of repeating a recent value exactly.
        dup: f64,
    },
    /// Full-precision reals: uniform degrees converted to radians — true
    /// "real doubles" with ~17 significant digits (POI-lat / POI-lon).
    RealDouble {
        /// Low end in degrees.
        lo_deg: f64,
        /// High end in degrees.
        hi_deg: f64,
    },
    /// Very high-precision decimals clustered around a center (NYC/29:
    /// longitudes near -73.9 with ~13 decimal places).
    HighPrecision {
        /// Decimal places (> 10).
        precision: u32,
        /// Cluster center.
        center: f64,
        /// Half-width of the cluster.
        spread: f64,
        /// Probability of repeating a recent value exactly.
        dup: f64,
    },
}

/// A named dataset description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dataset {
    /// Paper's dataset name.
    pub name: &'static str,
    /// Whether Table 1 classifies it as time series.
    pub time_series: bool,
    /// Generator parameters.
    pub spec: Spec,
}

/// The 30 datasets of Table 1, with Table 2-derived parameters.
pub const DATASETS: [Dataset; 30] = [
    // ---- Time series ----
    Dataset {
        name: "Air-Pressure",
        time_series: true,
        spec: Spec::Walk { precision: 5, start: 93.4, step: 40, dup: 0.75 },
    },
    Dataset {
        name: "Basel-Temp",
        time_series: true,
        spec: Spec::Walk { precision: 6, start: 11.4, step: 90_000, dup: 0.26 },
    },
    Dataset {
        name: "Basel-Wind",
        time_series: true,
        spec: Spec::Walk { precision: 6, start: 7.1, step: 70_000, dup: 0.30 },
    },
    Dataset {
        name: "Bird-Mig",
        time_series: true,
        spec: Spec::Walk { precision: 5, start: 26.6, step: 9_000, dup: 0.55 },
    },
    Dataset {
        name: "Btc-Price",
        time_series: true,
        spec: Spec::Walk { precision: 4, start: 19187.5, step: 120_000, dup: 0.0 },
    },
    Dataset {
        name: "City-Temp",
        time_series: true,
        spec: Spec::Walk { precision: 1, start: 56.0, step: 25, dup: 0.60 },
    },
    Dataset {
        name: "Dew-Temp",
        time_series: true,
        spec: Spec::Walk { precision: 3, start: 14.4, step: 120, dup: 0.19 },
    },
    Dataset {
        name: "Bio-Temp",
        time_series: true,
        spec: Spec::Walk { precision: 2, start: 12.7, step: 18, dup: 0.49 },
    },
    Dataset {
        name: "PM10-dust",
        time_series: true,
        spec: Spec::Walk { precision: 3, start: 1.5, step: 4, dup: 0.94 },
    },
    Dataset {
        name: "Stocks-DE",
        time_series: true,
        spec: Spec::Walk { precision: 3, start: 63.8, step: 9, dup: 0.89 },
    },
    Dataset {
        name: "Stocks-UK",
        time_series: true,
        spec: Spec::Walk { precision: 2, start: 1593.7, step: 35, dup: 0.88 },
    },
    Dataset {
        name: "Stocks-USA",
        time_series: true,
        spec: Spec::Walk { precision: 2, start: 146.1, step: 10, dup: 0.91 },
    },
    Dataset {
        name: "Wind-dir",
        time_series: true,
        spec: Spec::Walk { precision: 2, start: 192.4, step: 900, dup: 0.04 },
    },
    // ---- Non time series ----
    Dataset {
        name: "Arade/4",
        time_series: false,
        spec: Spec::Decimal { precision: 4, jitter: 0, lo: 20.0, hi: 1500.0, dup: 0.0 },
    },
    Dataset {
        name: "Blockchain",
        time_series: false,
        spec: Spec::HeavyTail { precision: 4, mu: 6.0, sigma: 3.5, dup: 0.0 },
    },
    Dataset {
        name: "CMS/1",
        time_series: false,
        spec: Spec::Decimal { precision: 2, jitter: 8, lo: 5.0, hi: 400.0, dup: 0.55 },
    },
    Dataset {
        name: "CMS/25",
        time_series: false,
        spec: Spec::HeavyTail { precision: 9, mu: 1.5, sigma: 1.6, dup: 0.06 },
    },
    Dataset { name: "CMS/9", time_series: false, spec: Spec::Counts { max: 12_000, dup: 0.70 } },
    Dataset {
        name: "Food-prices",
        time_series: false,
        spec: Spec::HeavyTail { precision: 2, mu: 5.0, sigma: 2.4, dup: 0.52 },
    },
    Dataset {
        name: "Gov/10",
        time_series: false,
        spec: Spec::HeavyTail { precision: 1, mu: 9.0, sigma: 3.0, dup: 0.26 },
    },
    Dataset {
        name: "Gov/26",
        time_series: false,
        spec: Spec::Sparse { zero_frac: 0.995, precision: 2, lo: 1.0, hi: 5_000.0 },
    },
    Dataset {
        name: "Gov/30",
        time_series: false,
        spec: Spec::Sparse { zero_frac: 0.89, precision: 2, lo: 1.0, hi: 900_000.0 },
    },
    Dataset {
        name: "Gov/31",
        time_series: false,
        spec: Spec::Sparse { zero_frac: 0.94, precision: 2, lo: 1.0, hi: 60_000.0 },
    },
    Dataset {
        name: "Gov/40",
        time_series: false,
        spec: Spec::Sparse { zero_frac: 0.99, precision: 2, lo: 1.0, hi: 70_000.0 },
    },
    Dataset {
        name: "Medicare/1",
        time_series: false,
        spec: Spec::Decimal { precision: 2, jitter: 8, lo: 5.0, hi: 500.0, dup: 0.41 },
    },
    Dataset {
        name: "Medicare/9",
        time_series: false,
        spec: Spec::Counts { max: 14_000, dup: 0.70 },
    },
    Dataset {
        name: "NYC/29",
        time_series: false,
        spec: Spec::HighPrecision { precision: 13, center: -73.9, spread: 0.2, dup: 0.51 },
    },
    Dataset {
        name: "POI-lat",
        time_series: false,
        spec: Spec::RealDouble { lo_deg: -60.0, hi_deg: 75.0 },
    },
    Dataset {
        name: "POI-lon",
        time_series: false,
        spec: Spec::RealDouble { lo_deg: -180.0, hi_deg: 180.0 },
    },
    Dataset {
        name: "SD-bench",
        time_series: false,
        spec: Spec::Decimal { precision: 1, jitter: 0, lo: 8.0, hi: 2000.0, dup: 0.92 },
    },
];

/// Exact power of ten (valid for `p <= 22`).
fn pow10(p: u32) -> f64 {
    10f64.powi(p as i32)
}

/// Turns an integer significand into the correctly-rounded decimal double.
#[inline]
fn decimal(d: i64, p: u32) -> f64 {
    d as f64 / pow10(p)
}

struct DupBuffer {
    ring: Vec<f64>,
    pos: usize,
}

impl DupBuffer {
    fn new() -> Self {
        Self { ring: Vec::with_capacity(64), pos: 0 }
    }
    fn push(&mut self, v: f64) {
        if self.ring.len() < 64 {
            self.ring.push(v);
        } else {
            self.ring[self.pos] = v;
            self.pos = (self.pos + 1) % 64;
        }
    }
    fn sample(&self, rng: &mut SmallRng) -> Option<f64> {
        if self.ring.is_empty() {
            None
        } else {
            Some(self.ring[rng.gen_range(0..self.ring.len())])
        }
    }
}

/// Generates `n` values for the named dataset (see [`DATASETS`]).
///
/// # Panics
/// Panics if `name` is unknown.
pub fn generate(name: &str, n: usize, seed: u64) -> Vec<f64> {
    let ds = DATASETS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown dataset {name:?}"));
    generate_spec(&ds.spec, n, seed)
}

/// Generates `n` values from an explicit [`Spec`].
pub fn generate_spec(spec: &Spec, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA1B2_C3D4_E5F6_0789);
    let mut out = Vec::with_capacity(n);
    let mut dups = DupBuffer::new();
    match *spec {
        Spec::Walk { precision, start, step, dup } => {
            let mut s = (start * pow10(precision)).round() as i64;
            for _ in 0..n {
                if rng.gen_bool(dup) {
                    if let Some(v) = dups.sample(&mut rng) {
                        out.push(v);
                        continue;
                    }
                }
                s += rng.gen_range(-step..=step);
                let v = decimal(s, precision);
                dups.push(v);
                out.push(v);
            }
        }
        Spec::Decimal { precision, jitter, lo, hi, dup } => {
            for _ in 0..n {
                if rng.gen_bool(dup) {
                    if let Some(v) = dups.sample(&mut rng) {
                        out.push(v);
                        continue;
                    }
                }
                let p = if jitter > 0 && rng.gen_bool(0.1) {
                    precision + rng.gen_range(1..=jitter)
                } else {
                    precision
                };
                let d = rng.gen_range((lo * pow10(p)) as i64..=(hi * pow10(p)) as i64);
                let v = decimal(d, p);
                dups.push(v);
                out.push(v);
            }
        }
        Spec::HeavyTail { precision, mu, sigma, dup } => {
            for _ in 0..n {
                if rng.gen_bool(dup) {
                    if let Some(v) = dups.sample(&mut rng) {
                        out.push(v);
                        continue;
                    }
                }
                // Box-Muller normal.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let magnitude = (mu + sigma * z).exp();
                let d = (magnitude * pow10(precision)).round();
                // Significands beyond 2^53 cannot stay exact decimals; clamp.
                let v = if d.abs() < 9.0e15 { decimal(d as i64, precision) } else { magnitude };
                dups.push(v);
                out.push(v);
            }
        }
        Spec::Sparse { zero_frac, precision, lo, hi } => {
            // Real sparse columns are *bursty*: long stretches of zeros with
            // clustered non-zero regions (not value-wise Bernoulli noise).
            // Alternate geometric-length runs so most 1024-value vectors are
            // all-zero, as in the Public BI Gov columns.
            let value_burst = 2048.0f64;
            let zero_burst = value_burst * zero_frac / (1.0 - zero_frac).max(1e-6);
            let mut in_zeros = true;
            let mut remaining = 0usize;
            for _ in 0..n {
                if remaining == 0 {
                    in_zeros = !in_zeros;
                    let mean = if in_zeros { zero_burst } else { value_burst };
                    // Geometric run length with the given mean, at least 1.
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    remaining = (1.0 - u.ln() * mean).min(50_000_000.0) as usize;
                }
                remaining -= 1;
                if in_zeros {
                    out.push(0.0);
                } else {
                    let d = rng
                        .gen_range((lo * pow10(precision)) as i64..=(hi * pow10(precision)) as i64);
                    out.push(decimal(d, precision));
                }
            }
        }
        Spec::Counts { max, dup } => {
            let ln_max = (max as f64).ln();
            for _ in 0..n {
                if rng.gen_bool(dup) {
                    if let Some(v) = dups.sample(&mut rng) {
                        out.push(v);
                        continue;
                    }
                }
                let v = (rng.gen::<f64>() * ln_max).exp().floor();
                dups.push(v);
                out.push(v);
            }
        }
        Spec::RealDouble { lo_deg, hi_deg } => {
            let rad = std::f64::consts::PI / 180.0;
            for _ in 0..n {
                // Degrees with full 53-bit randomness, converted to radians:
                // the multiplication makes these genuine real doubles.
                let deg: f64 = rng.gen_range(lo_deg..hi_deg);
                out.push(deg * rad);
            }
        }
        Spec::HighPrecision { precision, center, spread, dup } => {
            let lo = ((center - spread) * pow10(precision)) as i64;
            let hi = ((center + spread) * pow10(precision)) as i64;
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            for _ in 0..n {
                if rng.gen_bool(dup) {
                    if let Some(v) = dups.sample(&mut rng) {
                        out.push(v);
                        continue;
                    }
                }
                let v = decimal(rng.gen_range(lo..=hi), precision);
                dups.push(v);
                out.push(v);
            }
        }
    }
    out
}

/// Generates all 30 datasets at `n` values each.
pub fn all_datasets(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    DATASETS.iter().map(|d| (d.name, generate_spec(&d.spec, n, seed))).collect()
}

/// Whether the named dataset is a time series per Table 1.
pub fn is_time_series(name: &str) -> bool {
    DATASETS.iter().any(|d| d.name == name && d.time_series)
}

/// Synthetic ML model weights (Table 7): zero-mean Gaussian `f32`s, the
/// high-precision, exponent-clustered profile of trained parameters.
pub fn ml_weights_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0000_0032_F10A);
    (0..n)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (z * 0.02) as f32
        })
        .collect()
}

/// The four ML models of Table 7 with their (scaled-down) parameter counts.
pub const ML_MODELS: [(&str, usize); 4] = [
    ("Dino-Vitb16", 2_000_000),
    ("GPT2", 2_000_000),
    ("Grammarly-lg", 2_000_000),
    ("W2V Tweets", 3_000),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate("City-Temp", 10_000, 42);
        let b = generate("City-Temp", 10_000, 42);
        assert_eq!(a, b);
        let c = generate("City-Temp", 10_000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn every_dataset_generates() {
        for d in &DATASETS {
            let data = generate(d.name, 5000, 7);
            assert_eq!(data.len(), 5000, "{}", d.name);
            assert!(data.iter().all(|v| v.is_finite()), "{}", d.name);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_dataset_panics() {
        generate("No-Such-Dataset", 10, 0);
    }

    #[test]
    fn decimals_have_bounded_precision() {
        let data = generate("City-Temp", 5000, 1);
        for &v in &data {
            let s = format!("{v}");
            let p = s.find('.').map(|d| s.len() - d - 1).unwrap_or(0);
            assert!(p <= 1, "{v} has {p} decimals");
        }
    }

    #[test]
    fn sparse_datasets_are_mostly_zero() {
        let data = generate("Gov/26", 50_000, 3);
        let zeros = data.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros as f64 / data.len() as f64 > 0.98);
    }

    #[test]
    fn counts_are_integers() {
        let data = generate("CMS/9", 5000, 5);
        assert!(data.iter().all(|&v| v.fract() == 0.0 && v >= 0.0));
    }

    #[test]
    fn poi_values_are_high_precision_reals() {
        let data = generate("POI-lat", 5000, 11);
        let high_precision = data
            .iter()
            .filter(|&&v| {
                let s = format!("{v}");
                s.find('.').map(|d| s.len() - d - 1).unwrap_or(0) > 14
            })
            .count();
        assert!(high_precision as f64 / data.len() as f64 > 0.9);
        assert!(data.iter().all(|&v| v.abs() < 1.5));
    }

    #[test]
    fn duplicate_fraction_roughly_matches_spec() {
        let data = generate("PM10-dust", 100_000, 9); // dup = 0.94
        let mut dups = 0usize;
        let mut seen = std::collections::HashSet::new();
        for chunk in data.chunks(1024) {
            seen.clear();
            for &v in chunk {
                if !seen.insert(v.to_bits()) {
                    dups += 1;
                }
            }
        }
        let frac = dups as f64 / data.len() as f64;
        assert!(frac > 0.80, "{frac}");
    }

    #[test]
    fn ml_weights_look_gaussian() {
        let w = ml_weights_f32(100_000, 1);
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 1e-3, "{mean}");
        let within_2sigma = w.iter().filter(|&&x| x.abs() < 0.04).count();
        assert!(within_2sigma as f64 / w.len() as f64 > 0.93);
    }

    #[test]
    fn walks_stay_in_plausible_ranges() {
        let data = generate("Stocks-USA", 200_000, 2);
        // A bounded-step walk over 200k ticks stays within a generous band.
        assert!(data.iter().all(|&v| v.abs() < 1e7));
    }
}
