//! The two-level adaptive sampling scheme of §3.2.
//!
//! **Level 1** (once per row-group): sample `SAMPLE_VECTORS` equidistant
//! vectors, `SAMPLE_VALUES` equidistant values from each; brute-force the full
//! (e, f) search space (253 combinations for doubles) on each sampled vector;
//! keep the `k` most frequent winners. The pooled sample also drives the
//! ALP-vs-ALP_rd scheme decision (§3.4).
//!
//! **Level 2** (once per vector, only when `k' > 1`): sample `SECOND_VALUES`
//! equidistant values from the vector, evaluate the `k'` candidates in order,
//! early-exiting after two consecutive non-improvements.

use crate::encode::{decode_one, encode_one};
use crate::traits::AlpFloat;

/// Sampling parameters (§4 "Sampling Parameters"). Defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerParams {
    /// `w`: vectors per row-group (paper: 100).
    pub vectors_per_rowgroup: usize,
    /// Vectors sampled per row-group in level 1 (paper: 8).
    pub sample_vectors: usize,
    /// Values sampled per vector in level 1 (paper: 32).
    pub sample_values: usize,
    /// `k`: maximum number of candidate combinations kept (paper: 5).
    pub max_combinations: usize,
    /// `s`: values sampled per vector in level 2 (paper: 32).
    pub second_level_values: usize,
}

impl Default for SamplerParams {
    fn default() -> Self {
        Self {
            vectors_per_rowgroup: 100,
            sample_vectors: 8,
            sample_values: 32,
            max_combinations: 5,
            second_level_values: 32,
        }
    }
}

impl SamplerParams {
    /// Validates the configuration: every count must be nonzero. A zero
    /// `vectors_per_rowgroup` used to be silently clamped to 1 deep inside
    /// the compressor; zero sampling counts make [`equidistant_indices`]
    /// sample nothing. Both are rejected up front.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let checks = [
            ("vectors_per_rowgroup", self.vectors_per_rowgroup),
            ("sample_vectors", self.sample_vectors),
            ("sample_values", self.sample_values),
            ("max_combinations", self.max_combinations),
            ("second_level_values", self.second_level_values),
        ];
        for (param, value) in checks {
            if value == 0 {
                return Err(ConfigError { param });
            }
        }
        Ok(())
    }
}

/// A sampling parameter held a value the compressor cannot honor (today:
/// zero, where a positive count is required). Returned by
/// [`SamplerParams::validate`] and surfaced through every constructor that
/// accepts custom parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the rejected parameter.
    pub param: &'static str,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid sampler configuration: `{}` must be nonzero", self.param)
    }
}

impl std::error::Error for ConfigError {}

/// An (exponent, factor) candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combination {
    /// Exponent `e`.
    pub e: u8,
    /// Factor `f <= e`.
    pub f: u8,
}

/// Estimated compressed footprint of a sample under one combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleScore {
    /// Estimated size in bits (packed integers + exception overhead).
    pub bits: usize,
    /// Number of sampled values that failed to round-trip.
    pub exceptions: usize,
}

/// Scores `sample` under `(e, f)`: estimated bits = `len * width(max-min)`
/// plus `(BITS + 16)` bits per exception — the cost model of §3.2.
pub fn score_sample<F: AlpFloat>(sample: &[F], e: u8, f: u8) -> SampleScore {
    score_sample_capped(sample, e, f, usize::MAX)
}

/// [`score_sample`] that stops early once the score is known to exceed `cap`:
/// returns the exact score when it is `<= cap`, and otherwise *some* lower
/// bound of it that is `> cap`. Both terms of the estimate only grow as
/// values are added (an exception adds its cost, an encodable value can only
/// widen `max - min`), so the running estimate, checked every four values, is
/// such a bound.
fn score_sample_capped<F: AlpFloat>(sample: &[F], e: u8, f: u8, cap: usize) -> SampleScore {
    let mut exceptions = 0usize;
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    let mut score = SampleScore { bits: 0, exceptions };
    for chunk in sample.chunks(4) {
        for &n in chunk {
            let d = encode_one(n, e, f);
            let dec: F = decode_one(d, e, f);
            if dec.to_bits_u64() == n.to_bits_u64() {
                min = min.min(d);
                max = max.max(d);
            } else {
                exceptions += 1;
            }
        }
        let width = if min <= max {
            fastlanes::bits_needed((max as u64).wrapping_sub(min as u64))
        } else {
            0
        };
        let bits = sample.len() * width + exceptions * (F::BITS as usize + 16);
        score = SampleScore { bits, exceptions };
        if bits > cap {
            break;
        }
    }
    score
}

/// Brute-force search over the full `(e, f)` space; ties prefer higher `e`,
/// then higher `f` (§3.2).
pub fn full_search<F: AlpFloat>(sample: &[F]) -> (Combination, SampleScore) {
    full_search_from(sample, None)
}

/// [`full_search`] with a head start: `seed` (a combination of the search
/// space — the previous vector's winner) is scored first and the sweep starts
/// under its score instead of under no bound at all. The sweep still visits
/// every combination in order, the seed included, so the winner is still the
/// *last* combination with the minimal score: the outcome does not depend on
/// the seed, only the number of values scored does.
fn full_search_from<F: AlpFloat>(
    sample: &[F],
    seed: Option<Combination>,
) -> (Combination, SampleScore) {
    let (mut best, mut best_score) = match seed {
        Some(c) => (c, score_sample(sample, c.e, c.f)),
        None => (Combination { e: 0, f: 0 }, SampleScore { bits: usize::MAX, exceptions: 0 }),
    };
    for e in 0..=F::MAX_EXPONENT {
        for f in 0..=e {
            // A combination abandoned above the best score could neither win
            // nor tie, so capping changes no winner and no reported score.
            let s = score_sample_capped(sample, e, f, best_score.bits);
            // `e` ascends and `f` ascends within `e`, so `<=` makes the
            // *later* (higher-e, then higher-f) combination win ties — the
            // paper's tie-break rule.
            if s.bits <= best_score.bits {
                best = Combination { e, f };
                best_score = s;
            }
        }
    }
    (best, best_score)
}

/// Outcome of level-1 sampling for one row-group.
#[derive(Debug, Clone)]
pub struct FirstLevelOutcome {
    /// The `k' <= k` candidate combinations, most frequent first.
    pub combinations: Vec<Combination>,
    /// Estimated bits/value of the pooled sample under the top candidate.
    pub estimated_bits_per_value: f64,
    /// Fraction of pooled sample values that were exceptions.
    pub exception_fraction: f64,
}

impl FirstLevelOutcome {
    /// Whether the row-group should switch to ALP_rd (§3.4): the decimal
    /// encoding is deemed hopeless when the estimate approaches the
    /// uncompressed width or exceptions dominate.
    pub fn should_use_rd<F: AlpFloat>(&self) -> bool {
        prefers_rd::<F>(self.estimated_bits_per_value, self.exception_fraction)
    }
}

/// The rule behind [`FirstLevelOutcome::should_use_rd`], on the two figures
/// [`first_level_with`] returns.
pub(crate) fn prefers_rd<F: AlpFloat>(
    estimated_bits_per_value: f64,
    exception_fraction: f64,
) -> bool {
    estimated_bits_per_value >= F::BITS as f64 * 0.96 || exception_fraction > 0.35
}

/// Indices of `count` samples of a `len`-element sequence: one per
/// equal-width stratum, at a deterministic hash-jittered offset.
///
/// The paper samples strictly equidistantly; a fixed stride, however, aliases
/// with periodic data (e.g. a value pattern whose period divides the stride
/// makes every sample land in the same residue class, so the search only ever
/// sees one sub-population). The jitter keeps the samples spread while
/// breaking that resonance; it is deterministic, so compression stays
/// reproducible.
pub fn equidistant_indices(len: usize, count: usize) -> impl Iterator<Item = usize> {
    // `count >= len` takes every index (stride 1, no room for jitter).
    let count = count.min(len);
    let stride = len.checked_div(count).unwrap_or(1);
    (0..count).map(move |i| {
        let jitter = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % stride;
        i * stride + jitter
    })
}

/// Gathers `count` equidistant values of `vector` into `buf` (which holds at
/// least `min(count, vector.len())`) and returns the filled prefix — the
/// sample lives on the caller's stack, so sampling a vector never touches the
/// heap.
fn sample_into<'a, F: AlpFloat>(vector: &[F], count: usize, buf: &'a mut [F]) -> &'a [F] {
    let mut taken = 0usize;
    for (slot, idx) in buf.iter_mut().zip(equidistant_indices(vector.len(), count)) {
        *slot = vector[idx];
        taken += 1;
    }
    &buf[..taken]
}

/// Level-1 sampling over one row-group, presented as a slice of (up to
/// `vectors_per_rowgroup * 1024`) values.
pub fn first_level<F: AlpFloat>(rowgroup: &[F], params: &SamplerParams) -> FirstLevelOutcome {
    let mut winners = Vec::new();
    let (estimated_bits_per_value, exception_fraction) =
        first_level_with(rowgroup, params, &mut winners);
    FirstLevelOutcome {
        combinations: winners.into_iter().map(|(c, _)| c).collect(),
        estimated_bits_per_value,
        exception_fraction,
    }
}

/// [`first_level`] over the caller's winner list: leaves the `k' <= k`
/// candidates in `winners`, most frequent first, and returns
/// `(estimated_bits_per_value, exception_fraction)`. Allocates nothing once
/// `winners` is warm.
pub(crate) fn first_level_with<F: AlpFloat>(
    rowgroup: &[F],
    params: &SamplerParams,
    winners: &mut Vec<(Combination, usize)>,
) -> (f64, f64) {
    let n_vectors = rowgroup.len().div_ceil(fastlanes::VECTOR_SIZE);

    // Winners with their frequencies, in order of first appearance.
    winners.clear();
    let mut sample_buf = [F::from_i64(0); fastlanes::VECTOR_SIZE];
    let mut sampled_values = 0usize;
    let mut best_bits = 0usize;
    let mut best_exceptions = 0usize;
    // (e, f) is stable within a column (§3.2), so the previous sampled
    // vector's winner is a tight first bound for this one's search.
    let mut previous = None;

    for vid in equidistant_indices(n_vectors, params.sample_vectors) {
        let start = vid * fastlanes::VECTOR_SIZE;
        let end = (start + fastlanes::VECTOR_SIZE).min(rowgroup.len());
        let sample = sample_into(&rowgroup[start..end], params.sample_values, &mut sample_buf);
        let (combo, score) = full_search_from(sample, previous);
        previous = Some(combo);
        match winners.iter_mut().find(|(c, _)| *c == combo) {
            Some((_, n)) => *n += 1,
            None => winners.push((combo, 1)),
        }
        // The scheme decision uses what a *per-vector adaptive* encoder can
        // achieve — each sampled vector under its own best combination —
        // so mixed row-groups (e.g. zero bursts next to value bursts) are
        // not mistaken for incompressible real doubles.
        sampled_values += sample.len();
        best_bits += score.bits;
        best_exceptions += score.exceptions;
    }

    // Frequency-rank the winners; ties prefer higher e, then higher f.
    winners.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.e.cmp(&a.0.e)).then(b.0.f.cmp(&a.0.f)));
    winners.truncate(params.max_combinations);

    if sampled_values == 0 {
        (0.0, 0.0)
    } else {
        (best_bits as f64 / sampled_values as f64, best_exceptions as f64 / sampled_values as f64)
    }
}

/// Counters the §4.2 "Sampling Overhead" analysis reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SamplerStats {
    /// Vectors encoded with the decimal (non-rd) scheme.
    pub vectors_encoded: usize,
    /// Vectors whose second-level sampling was skipped because `k' == 1`.
    pub second_level_skipped: usize,
    /// Histogram over how many candidate combinations each vector tried
    /// (index = combinations tried; index 0 unused).
    pub combinations_tried: [usize; 8],
    /// Row-groups encoded with plain ALP.
    pub rowgroups_alp: usize,
    /// Row-groups that fell back to ALP_rd.
    pub rowgroups_rd: usize,
    /// Vectors whose row-group candidates all failed locally and that were
    /// re-searched individually (see `rescue_if_poor`).
    pub rescued_vectors: usize,
}

impl SamplerStats {
    /// Folds another accumulation into `self`. Every counter is a sum, so
    /// parallel workers can accumulate per-row-group partials and merge them
    /// at the join barrier in any order without changing the totals.
    pub fn merge(&mut self, other: &SamplerStats) {
        self.vectors_encoded += other.vectors_encoded;
        self.second_level_skipped += other.second_level_skipped;
        for (mine, theirs) in self.combinations_tried.iter_mut().zip(other.combinations_tried) {
            *mine += theirs;
        }
        self.rowgroups_alp += other.rowgroups_alp;
        self.rowgroups_rd += other.rowgroups_rd;
        self.rescued_vectors += other.rescued_vectors;
    }
}

/// Level-2 sampling: picks the combination for one vector from the row-group
/// candidates, with the greedy two-strikes early exit of §3.2.
pub fn second_level<F: AlpFloat>(
    vector: &[F],
    candidates: &[Combination],
    params: &SamplerParams,
    stats: &mut SamplerStats,
) -> Combination {
    // A buffer the size of the sample, not of the vector: zeroing 8 KB per
    // vector costs more than scoring the paper's 32-value sample.
    const SMALL_SAMPLE: usize = 64;
    let zero = F::from_i64(0);
    let (mut small, mut large);
    let buf: &mut [F] = if params.second_level_values <= SMALL_SAMPLE {
        small = [zero; SMALL_SAMPLE];
        &mut small
    } else {
        large = [zero; fastlanes::VECTOR_SIZE];
        &mut large
    };
    pick_combination(sample_into(vector, params.second_level_values, buf), candidates, stats)
}

/// [`second_level`] on the vector's sample.
fn pick_combination<F: AlpFloat>(
    sample: &[F],
    candidates: &[Combination],
    stats: &mut SamplerStats,
) -> Combination {
    stats.vectors_encoded += 1;
    let (first, rest) = match candidates {
        [] => (Combination { e: 0, f: 0 }, candidates),
        [first, rest @ ..] => (*first, rest),
    };
    let (mut best, mut best_score) = (first, score_sample(sample, first.e, first.f));
    let mut tried = candidates.len().min(1);
    if rest.is_empty() {
        stats.second_level_skipped += 1;
    }
    let mut worse_streak = 0usize;
    for &c in rest {
        tried += 1;
        let s = score_sample(sample, c.e, c.f);
        if s.bits < best_score.bits {
            (best, best_score) = (c, s);
            worse_streak = 0;
        } else {
            worse_streak += 1;
            if worse_streak == 2 {
                break;
            }
        }
    }
    stats.combinations_tried[tried.min(7)] += 1;

    // Robustness guard (deviation from the paper, see DESIGN.md): if the
    // row-group's candidates all fail on this particular vector — which
    // happens when the level-1 sample missed a locally different
    // sub-population (e.g. a burst of values inside a mostly-zero column) —
    // fall back to a full search on the vector's own sample. It only
    // triggers on pathological vectors.
    if best_score.exceptions * 4 > sample.len() {
        stats.rescued_vectors += 1;
        let (rescued, rescued_score) = full_search(sample);
        if rescued_score.bits < best_score.bits {
            return rescued;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decimals(precision: u32, count: usize) -> Vec<f64> {
        // i / 10^p — correctly rounded decimal-to-double (see DESIGN.md).
        let div = 10f64.powi(precision as i32);
        (0..count).map(|i| (i as f64 * 7.0 + 13.0) / div).collect()
    }

    #[test]
    fn sample_indices_are_strata_bounded_and_sorted() {
        for (len, count) in [(10, 3), (1024, 32), (1000, 7), (4096, 32)] {
            let idx: Vec<usize> = equidistant_indices(len, count).collect();
            assert_eq!(idx.len(), count);
            let stride = len / count;
            for (i, &x) in idx.iter().enumerate() {
                assert!(x >= i * stride && x < (i + 1) * stride, "len {len} count {count} i {i}");
            }
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(equidistant_indices(2, 5).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(equidistant_indices(0, 4).count(), 0);
        assert_eq!(equidistant_indices(4, 0).count(), 0);
    }

    #[test]
    fn sample_indices_break_periodic_aliasing() {
        // With a plain stride of 32 on 1024 values, all samples share
        // index % 4; the jitter must hit several residue classes.
        let idx: Vec<usize> = equidistant_indices(1024, 32).collect();
        let classes: std::collections::HashSet<usize> = idx.iter().map(|&i| i % 4).collect();
        assert!(classes.len() > 1, "{idx:?}");
    }

    #[test]
    fn full_search_finds_lossless_combo_for_decimals() {
        let sample = decimals(2, 32);
        let (combo, score) = full_search(&sample);
        assert_eq!(score.exceptions, 0, "combo {combo:?}");
        // Must at least neutralize 2 decimal places.
        assert!(combo.e as i32 - combo.f as i32 >= 2);
    }

    #[test]
    fn score_prefers_factor_that_shrinks_integers() {
        // Values like 123.00 (2 decimals of zeros): high factor shrinks d.
        let sample: Vec<f64> = (0..32).map(|i| (i * 100) as f64).collect();
        let with_factor = score_sample(&sample, 14, 14);
        let without_factor = score_sample(&sample, 14, 0);
        assert_eq!(with_factor.exceptions, 0);
        assert!(with_factor.bits < without_factor.bits);
    }

    #[test]
    fn first_level_converges_to_one_combo_on_uniform_data() {
        let rowgroup = decimals(3, 8 * 1024);
        let outcome = first_level(&rowgroup, &SamplerParams::default());
        assert!(!outcome.combinations.is_empty());
        assert_eq!(outcome.combinations.len(), 1, "{:?}", outcome.combinations);
        assert!(!outcome.should_use_rd::<f64>());
    }

    #[test]
    fn first_level_flags_real_doubles_for_rd() {
        // Full-precision values: essentially nothing round-trips.
        let rowgroup: Vec<f64> =
            (0..8192).map(|i| ((i as f64) + 0.1).sqrt().sin() * 1e-3).collect();
        let outcome = first_level(&rowgroup, &SamplerParams::default());
        assert!(outcome.should_use_rd::<f64>(), "{outcome:?}");
    }

    #[test]
    fn second_level_skips_when_single_candidate() {
        let mut stats = SamplerStats::default();
        let v = decimals(2, 1024);
        let combo = second_level(
            &v,
            &[Combination { e: 14, f: 12 }],
            &SamplerParams::default(),
            &mut stats,
        );
        assert_eq!(combo, Combination { e: 14, f: 12 });
        assert_eq!(stats.second_level_skipped, 1);
    }

    #[test]
    fn second_level_picks_better_candidate() {
        let mut stats = SamplerStats::default();
        let v = decimals(4, 1024); // needs >= 4 decimals of headroom
        let good = Combination { e: 14, f: 10 };
        let bad = Combination { e: 2, f: 0 }; // cannot represent 4 decimals
        let combo = second_level(&v, &[bad, good], &SamplerParams::default(), &mut stats);
        assert_eq!(combo, good);
    }

    /// Samples of different character: decimals at several precisions, real
    /// doubles, the values no combination encodes, a mix, and nothing.
    fn search_samples() -> Vec<Vec<f64>> {
        let reals: Vec<f64> = (0..32).map(|i| ((i as f64) + 0.1).sqrt().sin() * 1e-3).collect();
        let specials =
            vec![f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e300, f64::from_bits(1)];
        let mut mixed = decimals(1, 20);
        mixed.extend(&reals[..6]);
        mixed.extend(&specials);
        vec![
            decimals(0, 32),
            decimals(2, 32),
            decimals(5, 32),
            decimals(9, 7),
            reals,
            specials,
            mixed,
            Vec::new(),
        ]
    }

    /// A seed changes how many values a search scores, never what it finds:
    /// whichever combination it starts under, the sweep ends on the last
    /// combination with the minimal score, scored exactly.
    #[test]
    fn seeded_search_equals_the_unseeded_one_under_every_seed() {
        for sample in search_samples() {
            let want = full_search(&sample);
            for e in 0..=f64::MAX_EXPONENT {
                for f in 0..=e {
                    let seed = Combination { e, f };
                    assert_eq!(full_search_from(&sample, Some(seed)), want, "seed {seed:?}");
                }
            }
            let narrow: Vec<f32> = sample.iter().map(|&x| x as f32).collect();
            let want = full_search(&narrow);
            for e in 0..=f32::MAX_EXPONENT {
                for f in 0..=e {
                    let seed = Combination { e, f };
                    assert_eq!(full_search_from(&narrow, Some(seed)), want, "f32 seed {seed:?}");
                }
            }
        }
    }

    /// `first_level` as it was before its searches were seeded: every sampled
    /// vector searched from scratch.
    fn first_level_unseeded(rowgroup: &[f64], params: &SamplerParams) -> FirstLevelOutcome {
        let n_vectors = rowgroup.len().div_ceil(fastlanes::VECTOR_SIZE);
        let mut counts: Vec<(Combination, usize)> = Vec::new();
        let (mut values, mut bits, mut exceptions) = (0usize, 0usize, 0usize);
        for vid in equidistant_indices(n_vectors, params.sample_vectors) {
            let vector = &rowgroup[vid * fastlanes::VECTOR_SIZE..];
            let vector = &vector[..vector.len().min(fastlanes::VECTOR_SIZE)];
            let sample: Vec<f64> = equidistant_indices(vector.len(), params.sample_values)
                .map(|i| vector[i])
                .collect();
            let (combo, score) = full_search(&sample);
            match counts.iter_mut().find(|(c, _)| *c == combo) {
                Some((_, n)) => *n += 1,
                None => counts.push((combo, 1)),
            }
            values += sample.len();
            bits += score.bits;
            exceptions += score.exceptions;
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.e.cmp(&a.0.e)).then(b.0.f.cmp(&a.0.f)));
        counts.truncate(params.max_combinations);
        FirstLevelOutcome {
            combinations: counts.into_iter().map(|(c, _)| c).collect(),
            estimated_bits_per_value: bits as f64 / values.max(1) as f64,
            exception_fraction: exceptions as f64 / values.max(1) as f64,
        }
    }

    #[test]
    fn first_level_equals_its_unseeded_reference() {
        // Row-groups whose sampled vectors agree, disagree, and cannot be
        // encoded at all; whole, short and shorter than one vector.
        let mut changing = decimals(2, 3 * 1024);
        changing.extend(decimals(6, 2 * 1024));
        changing.extend((0..3 * 1024).map(|i| ((i as f64) + 0.1).sqrt().sin()));
        changing.extend([f64::NAN, -0.0, f64::INFINITY, 1e300, f64::from_bits(1)].repeat(300));
        for rowgroup in [decimals(3, 100 * 1024), decimals(1, 5000), decimals(4, 700), changing] {
            for sample_vectors in [1, 3, 8] {
                let params = SamplerParams { sample_vectors, ..SamplerParams::default() };
                let (got, want) =
                    (first_level(&rowgroup, &params), first_level_unseeded(&rowgroup, &params));
                assert_eq!(got.combinations, want.combinations);
                assert_eq!(
                    got.estimated_bits_per_value.to_bits(),
                    want.estimated_bits_per_value.to_bits()
                );
                assert_eq!(got.exception_fraction.to_bits(), want.exception_fraction.to_bits());
            }
        }
    }

    #[test]
    fn paper_defaults() {
        let p = SamplerParams::default();
        assert_eq!(
            (
                p.vectors_per_rowgroup,
                p.sample_vectors,
                p.sample_values,
                p.max_combinations,
                p.second_level_values
            ),
            (100, 8, 32, 5, 32)
        );
    }
}
