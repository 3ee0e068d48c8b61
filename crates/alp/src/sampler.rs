//! The two-level adaptive sampling scheme of §3.2.
//!
//! **Level 1** (once per row-group): sample `SAMPLE_VECTORS` equidistant
//! vectors, `SAMPLE_VALUES` equidistant values from each; brute-force the full
//! (e, f) search space (253 combinations for doubles) on each sampled vector;
//! keep the `k` most frequent winners. The pooled sample also drives the
//! ALP-vs-ALP_rd scheme decision (§3.4).
//!
//! Two things make level 1 cheaper without changing any outcome. A per-shift
//! lower bound on a sample's exceptions that scores nothing
//! ([`is_definite_exception`]) lets the search skip combinations that could
//! neither win nor tie. And the compressor searches each sampled vector under
//! the scheme rule's own cap first (`rd_cap`): when every sampled vector is
//! above it, the row-group is ALP_rd whatever the exact scores are, and level
//! 1 stops there.
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

/// Magnitudes from `2^51` up leave the sweet-spot round's exact range.
const SWEET_RANGE: f64 = (1u64 << 51) as f64;

/// Whether `n` is an exception under every `(e, f)` with `e − f = shift`
/// (`shift <= F::MAX_EXPONENT`), decided without encoding anything.
///
/// [`crate::encode::decode_one`] is `d·10^f·10^-e` rounded at most four
/// times (the conversion of `d`, the inexact `10^-e`, two products), and
/// `10^f·10^-e = 10^-shift`. So if some integer `d` decodes to `n`, then
/// `y = n·10^shift` — computed in `f64`, exactly for `f32` — lies within
/// `(5u + O(u²))·|y| < 8u·|y|` of `d`, `u` being `F`'s
/// [`AlpFloat::UNIT_ROUNDOFF`] (the fifth rounding is `y`'s own). A `y` in
/// the sweet-spot round's exact range (`|y| < 2^51`) whose nearest integer is
/// farther than that has no such `d`. Below `|y| = 1/2` that nearest integer
/// is 0, which decodes to `+0.0` only, while every other `d` decodes to a
/// `|y|` near `|d| ≥ 1`. NaN, ±∞ and overflowing products fail both
/// comparisons and are never marked.
#[inline(always)]
pub fn is_definite_exception<F: AlpFloat>(n: F, shift: u8) -> bool {
    let y = n.to_f64() * f64::f10(shift);
    let off = (y - ((y + f64::SWEET) - f64::SWEET)).abs();
    y.abs() < SWEET_RANGE && off > 8.0 * F::UNIT_ROUNDOFF * y.abs()
}

/// Shifts `e − f` of the widest search space (`f64`'s).
const SHIFTS: usize = f64::MAX_EXPONENT as usize + 1;

/// Per shift `g`, a lower bound on how many values of `sample` are
/// exceptions under every combination with `e − f = g`: the values
/// [`is_definite_exception`] marks, counted from `g = 0` up to the first shift
/// that marks none. Any count of 0 is a lower bound, and a shift above one
/// where every value is an integer or out of range hardly ever marks any, so
/// the counting stops there: after `p + 1` shifts on `p`-digit decimals.
fn definite_exceptions<F: AlpFloat>(sample: &[F]) -> [usize; SHIFTS] {
    let mut counts = [0; SHIFTS];
    for (shift, count) in (0..=F::MAX_EXPONENT).zip(&mut counts) {
        *count = sample.iter().filter(|&&n| is_definite_exception(n, shift)).count();
        if *count == 0 {
            break;
        }
    }
    counts
}

/// Brute-force search over the full `(e, f)` space; ties prefer higher `e`,
/// then higher `f` (§3.2).
pub fn full_search<F: AlpFloat>(sample: &[F]) -> (Combination, SampleScore) {
    uncapped_search(sample, None)
}

/// [`full_search_from`] with no cap, under which something always scores.
fn uncapped_search<F: AlpFloat>(
    sample: &[F],
    seed: Option<Combination>,
) -> (Combination, SampleScore) {
    full_search_from(sample, seed, usize::MAX).expect("every score is at most usize::MAX")
}

/// [`full_search`] under `cap`: the same winner and score when that score is
/// `<= cap`, and `None` when no combination scores within it.
///
/// `seed` (a combination of the search space — the previous vector's winner)
/// is a head start: it is scored first and the sweep starts under its score.
/// The sweep still visits every combination in order, the seed included, so
/// the winner is still the *last* combination with the minimal score: the
/// outcome does not depend on the seed, only the number of values scored
/// does.
fn full_search_from<F: AlpFloat>(
    sample: &[F],
    seed: Option<Combination>,
    cap: usize,
) -> Option<(Combination, SampleScore)> {
    let definite = definite_exceptions(sample);
    let exception_bits = F::BITS as usize + 16;
    let mut bound = cap;
    if let Some(c) = seed {
        bound = bound.min(score_sample_capped(sample, c.e, c.f, bound).bits);
    }
    let mut best = None;
    for e in 0..=F::MAX_EXPONENT {
        for f in 0..=e {
            // A combination whose definite exceptions alone cost more than
            // the bound, or that is abandoned above it, could neither win nor
            // tie: skipping and capping change no winner and no score.
            if definite[usize::from(e - f)] * exception_bits > bound {
                continue;
            }
            let s = score_sample_capped(sample, e, f, bound);
            // `e` ascends and `f` ascends within `e`, so `<=` makes the
            // *later* (higher-e, then higher-f) combination win ties — the
            // paper's tie-break rule.
            if s.bits <= bound {
                best = Some((Combination { e, f }, s));
                bound = s.bits;
            }
        }
    }
    best
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
/// [`Level1::finish`] returns.
pub(crate) fn prefers_rd<F: AlpFloat>(
    estimated_bits_per_value: f64,
    exception_fraction: f64,
) -> bool {
    estimated_bits_per_value >= rd_threshold::<F>() || exception_fraction > 0.35
}

/// The estimated bits/value at and above which [`prefers_rd`] switches.
fn rd_threshold<F: AlpFloat>() -> f64 {
    F::BITS as f64 * 0.96
}

/// The largest bit count `b` whose rate over `len` sampled values is still
/// below the rd threshold: `b > rd_cap::<F>(len)` exactly when
/// `prefers_rd::<F>(b as f64 / len as f64, 0.0)`.
///
/// Worked out in integers from the threshold's bits, not by rounding a float
/// quotient. `b as f64 / len as f64` is the real quotient correctly rounded,
/// so it is `>= t` exactly when the real quotient passes the midpoint between
/// `t` and the double `p` below it. With `t = mt·2^kt` and `p = mp·2^kp`
/// (`kp <= kt`) that midpoint is `n·2^(kp−1)`, `n = mt·2^(kt−kp) + mp`, and the
/// test is `b·2^(1−kp) > n·len`. It cannot tie: `n` is odd (`mt + mp` when
/// `kt = kp`, `2^53 + mp` otherwise), so a tie needs `2^(1−kp)` (here `2^48`
/// or more) to divide `len`, and a sample holds at most a vector. Because the
/// test is linear in `(b, len)`, pooled samples that are each above their cap
/// are above the pooled cap too.
pub(crate) fn rd_cap<F: AlpFloat>(len: usize) -> usize {
    let t = rd_threshold::<F>();
    let (mt, kt) = significand_and_exponent(t);
    let (mp, kp) = significand_and_exponent(f64::from_bits(t.to_bits() - 1));
    let n = (u128::from(mt) << (kt - kp)) + u128::from(mp);
    usize::try_from((n * len as u128) >> (1 - kp)).unwrap_or(usize::MAX)
}

/// `(m, k)` with `x = m·2^k` for a positive normal double `x`.
fn significand_and_exponent(x: f64) -> (u64, i32) {
    let bits = x.to_bits();
    ((bits & ((1 << 52) - 1)) | (1 << 52), (bits >> 52) as i32 - 1075)
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
    let mut level1 = Level1::default();
    level1.search(rowgroup, params, |_| usize::MAX);
    let (estimated_bits_per_value, exception_fraction) = level1.finish(rowgroup, params);
    FirstLevelOutcome {
        combinations: level1.winners.into_iter().map(|(c, _)| c).collect(),
        estimated_bits_per_value,
        exception_fraction,
    }
}

/// The sampled vectors of a row-group, in order.
fn sampled_vectors<'a, F: AlpFloat>(
    rowgroup: &'a [F],
    params: &SamplerParams,
) -> impl Iterator<Item = &'a [F]> {
    let n_vectors = rowgroup.len().div_ceil(fastlanes::VECTOR_SIZE);
    equidistant_indices(n_vectors, params.sample_vectors).map(move |vid| {
        let start = vid * fastlanes::VECTOR_SIZE;
        &rowgroup[start..(start + fastlanes::VECTOR_SIZE).min(rowgroup.len())]
    })
}

/// Level 1 of one row-group in two steps over reusable buffers ([`first_level`]
/// runs both; allocates nothing once warm): [`Level1::search`] searches every
/// sampled vector under a cap, [`Level1::finish`] completes the searches that
/// ran above it and ranks the winners.
#[derive(Debug, Clone, Default)]
pub(crate) struct Level1 {
    /// Per sampled vector: its sample length, and its best combination with
    /// the exact score, or `None` while that score is only known to exceed
    /// the cap the vector was searched under.
    searches: Vec<(usize, Option<(Combination, SampleScore)>)>,
    /// After [`Level1::finish`]: the `k' <= k` candidates, most frequent
    /// first, with their frequencies.
    pub(crate) winners: Vec<(Combination, usize)>,
}

impl Level1 {
    /// Searches every sampled vector of `rowgroup` under `cap(sample length)`
    /// and returns whether there was one and each scored above its cap.
    pub(crate) fn search<F: AlpFloat>(
        &mut self,
        rowgroup: &[F],
        params: &SamplerParams,
        cap: fn(usize) -> usize,
    ) -> bool {
        let mut buf = [F::from_i64(0); fastlanes::VECTOR_SIZE];
        // (e, f) is stable within a column (§3.2), so the previous sampled
        // vector's winner is a tight first bound for this one's search.
        let mut previous = None;
        self.searches.clear();
        for vector in sampled_vectors(rowgroup, params) {
            let sample = sample_into(vector, params.sample_values, &mut buf);
            let found = full_search_from(sample, previous, cap(sample.len()));
            previous = found.map(|(c, _)| c).or(previous);
            self.searches.push((sample.len(), found));
        }
        !self.searches.is_empty() && self.searches.iter().all(|(_, found)| found.is_none())
    }

    /// Searches the vectors that [`Level1::search`] left above their cap
    /// again without one, ranks the winners into [`Level1::winners`] and
    /// returns `(estimated_bits_per_value, exception_fraction)`. A vector
    /// found under its cap has found its exact best, so these are the
    /// figures of an uncapped search, whatever the caps were.
    pub(crate) fn finish<F: AlpFloat>(
        &mut self,
        rowgroup: &[F],
        params: &SamplerParams,
    ) -> (f64, f64) {
        let mut buf = [F::from_i64(0); fastlanes::VECTOR_SIZE];
        let mut previous = None;
        let (mut sampled_values, mut best_bits, mut best_exceptions) = (0usize, 0usize, 0usize);
        // Winners with their frequencies, in order of first appearance.
        self.winners.clear();
        for (&(len, found), vector) in self.searches.iter().zip(sampled_vectors(rowgroup, params)) {
            let (combo, score) = match found {
                Some(hit) => hit,
                None => {
                    uncapped_search(sample_into(vector, params.sample_values, &mut buf), previous)
                }
            };
            previous = Some(combo);
            match self.winners.iter_mut().find(|(c, _)| *c == combo) {
                Some((_, n)) => *n += 1,
                None => self.winners.push((combo, 1)),
            }
            // The scheme decision uses what a *per-vector adaptive* encoder
            // can achieve — each sampled vector under its own best
            // combination — so mixed row-groups (e.g. zero bursts next to
            // value bursts) are not mistaken for incompressible real doubles.
            sampled_values += len;
            best_bits += score.bits;
            best_exceptions += score.exceptions;
        }

        // Frequency-rank the winners; ties prefer higher e, then higher f.
        self.winners.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.e.cmp(&a.0.e)).then(b.0.f.cmp(&a.0.f)));
        self.winners.truncate(params.max_combinations);

        if sampled_values == 0 {
            (0.0, 0.0)
        } else {
            (
                best_bits as f64 / sampled_values as f64,
                best_exceptions as f64 / sampled_values as f64,
            )
        }
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
    /// Of those, the row-groups whose decision level 1 settled without
    /// finishing: every sampled vector scored above the rd rule's own cap.
    pub rd_proven: usize,
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
        self.rd_proven += other.rd_proven;
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
    /// combination with the minimal score, scored exactly. A cap changes
    /// nothing at or above that score, and below it finds nothing.
    #[test]
    fn seeded_and_capped_searches_equal_the_plain_one() {
        fn check<F: AlpFloat>(sample: &[F]) {
            let want = full_search(sample);
            for e in 0..=F::MAX_EXPONENT {
                for f in 0..=e {
                    let seed = Some(Combination { e, f });
                    for cap in [usize::MAX, want.1.bits, want.1.bits + 1] {
                        let got = full_search_from(sample, seed, cap);
                        assert_eq!(got, Some(want), "{} seed {seed:?} cap {cap}", F::NAME);
                    }
                    if let Some(cap) = want.1.bits.checked_sub(1) {
                        assert_eq!(full_search_from(sample, seed, cap), None, "{}", F::NAME);
                    }
                }
            }
        }
        for sample in search_samples() {
            check(&sample);
            check(&sample.iter().map(|&x| x as f32).collect::<Vec<_>>());
        }
    }

    /// `b > rd_cap(len)` is the rd rule on `b / len`, for every sample length
    /// up to a vector and every bit count a sample can score.
    #[test]
    fn rd_cap_is_the_rd_rule_at_every_length_and_score() {
        fn check<F: AlpFloat>() {
            for len in 1..=fastlanes::VECTOR_SIZE {
                let cap = rd_cap::<F>(len);
                for b in 0..=len * (F::BITS as usize + 16) {
                    let rule = prefers_rd::<F>(b as f64 / len as f64, 0.0);
                    assert!((b > cap) == rule, "{} len {len} b {b} cap {cap}", F::NAME);
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    /// `first_level` as it was before its searches were seeded and capped:
    /// every sampled vector searched from scratch.
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
