//! Fused compressed-domain scan: unpack + FOR-add + predicate + aggregate in
//! a single pass over the interleaved layout, never materializing the
//! 1024-value vector.
//!
//! This is the FastLanes-style answer to "decompress, then filter": the scan
//! kernel walks the packed words directly, reconstructs each value in
//! registers, tests the range predicate, and folds SUM/COUNT/MIN/MAX plus a
//! selection bitmap — the decompressed vector never touches memory. Integer
//! aggregation is exact and associative, so the per-lane accumulator layout
//! (16 independent chains, no cross-lane dependency) produces bit-identical
//! results to a scalar unpack-then-scan.
//!
//! The float-domain analogue (where FP addition is *not* associative and the
//! accumulation order is part of the contract) lives in `alp::decode`; this
//! module provides the integer substrate and the bitmap conventions shared by
//! both: bit `i` of word `i / 64` describes value `i`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::dispatch::{width_mask, with_width, WidthKernel};
use crate::interleaved::{LANES, ROWS};
use crate::{packed_len, VECTOR_SIZE};

/// Selection-bitmap words per vector (bit `i` of word `i / 64` ⇔ value `i`
/// matched the predicate).
pub const MATCH_WORDS: usize = VECTOR_SIZE / 64;

/// Integer aggregates over the values matching `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanAgg {
    /// Wrapping sum of matching values.
    pub sum: i64,
    /// Number of matching values.
    pub count: usize,
    /// Minimum matching value (`i64::MAX` when `count == 0`).
    pub min: i64,
    /// Maximum matching value (`i64::MIN` when `count == 0`).
    pub max: i64,
}

impl ScanAgg {
    /// Identity element: no matches yet.
    pub const EMPTY: Self = Self { sum: 0, count: 0, min: i64::MAX, max: i64::MIN };
}

/// Fused FFOR scan over one interleaved 1024-value vector: unpacks `packed`,
/// adds `base` back, tests `lo <= v <= hi`, and aggregates the matches — all
/// in one loop, filling `matches` with the selection bitmap.
pub fn ffor_unpack_cmp_agg(
    packed: &[u64],
    base: i64,
    width: usize,
    lo: i64,
    hi: i64,
    matches: &mut [u64; MATCH_WORDS],
) -> ScanAgg {
    assert!(packed.len() >= packed_len(width));
    with_width(width, FusedScan { packed, base, lo, hi, matches })
}

struct FusedScan<'a> {
    packed: &'a [u64],
    base: i64,
    lo: i64,
    hi: i64,
    matches: &'a mut [u64; MATCH_WORDS],
}

impl WidthKernel for FusedScan<'_> {
    type Out = ScanAgg;
    fn run<const W: usize>(self) -> ScanAgg {
        ffor_unpack_cmp_agg_const::<W>(self.packed, self.base, self.lo, self.hi, self.matches)
    }
}

/// Monomorphized fused scan. Public for fixed-width callers downstream.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "lanes index five parallel arrays under the fixed 1024-lane FastLanes geometry: \
              callers size `packed` via `packed_len(width)`, and row/lane/word indices are \
              bounded at compile time"
)]
pub fn ffor_unpack_cmp_agg_const<const W: usize>(
    packed: &[u64],
    base: i64,
    lo: i64,
    hi: i64,
    matches: &mut [u64; MATCH_WORDS],
) -> ScanAgg {
    if W == 0 {
        // Every value is `base`: one comparison decides the whole vector.
        let hit = base >= lo && base <= hi;
        matches.fill(if hit { u64::MAX } else { 0 });
        return if hit {
            ScanAgg {
                sum: base.wrapping_mul(VECTOR_SIZE as i64),
                count: VECTOR_SIZE,
                min: base,
                max: base,
            }
        } else {
            ScanAgg::EMPTY
        };
    }
    let mask = width_mask::<W>();
    let base_u = base as u64;
    // Per-lane accumulators carry no cross-lane dependency; integer
    // arithmetic is associative, so folding lanes at the end is bit-identical
    // to a sequential scan. Row-major traversal *is* value order (value `i`
    // lives in row `i / 16`, lane `i % 16`), so four rows fill one bitmap word.
    let mut sums = [0i64; LANES];
    let mut counts = [0u32; LANES];
    let mut mins = [i64::MAX; LANES];
    let mut maxs = [i64::MIN; LANES];
    let mut tmp = [0i64; LANES];
    let mut word_acc: u64 = 0;
    for row in 0..ROWS {
        let bit = row * W;
        let word_row = bit >> 6;
        let off = (bit & 63) as u32;
        let lo_words = &packed[word_row * LANES..word_row * LANES + LANES];
        if off as usize + W <= 64 {
            for l in 0..LANES {
                tmp[l] = ((lo_words[l] >> off) & mask).wrapping_add(base_u) as i64;
            }
        } else {
            let hi_start = (word_row + 1) * LANES;
            let hi_words = &packed[hi_start..hi_start + LANES];
            for l in 0..LANES {
                let r = ((lo_words[l] >> off) | ((hi_words[l] << 1) << (63 - off))) & mask;
                tmp[l] = r.wrapping_add(base_u) as i64;
            }
        }
        for l in 0..LANES {
            let v = tmp[l];
            let hit = v >= lo && v <= hi;
            sums[l] = sums[l].wrapping_add(if hit { v } else { 0 });
            counts[l] += hit as u32;
            mins[l] = if hit && v < mins[l] { v } else { mins[l] };
            maxs[l] = if hit && v > maxs[l] { v } else { maxs[l] };
            word_acc |= (hit as u64) << ((row & 3) * LANES + l);
        }
        if row & 3 == 3 {
            matches[row >> 2] = word_acc;
            word_acc = 0;
        }
    }
    let mut agg = ScanAgg::EMPTY;
    for l in 0..LANES {
        agg.sum = agg.sum.wrapping_add(sums[l]);
        agg.count += counts[l] as usize;
        agg.min = agg.min.min(mins[l]);
        agg.max = agg.max.max(maxs[l]);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleaved;

    /// Pseudo-random residuals masked to `width` bits.
    fn residuals(width: usize) -> Vec<u64> {
        let mask = if width == 64 {
            u64::MAX
        } else if width == 0 {
            0
        } else {
            (1 << width) - 1
        };
        (0..VECTOR_SIZE as u64).map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95) & mask).collect()
    }

    fn reference(values: &[i64], lo: i64, hi: i64) -> (ScanAgg, Vec<u64>) {
        let mut agg = ScanAgg::EMPTY;
        let mut words = vec![0u64; MATCH_WORDS];
        for (i, &v) in values.iter().enumerate() {
            if v >= lo && v <= hi {
                agg.sum = agg.sum.wrapping_add(v);
                agg.count += 1;
                agg.min = agg.min.min(v);
                agg.max = agg.max.max(v);
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        (agg, words)
    }

    #[test]
    fn matches_unpack_then_scan_every_width() {
        let base = -987_654i64;
        for width in 0..=64usize {
            let res = residuals(width);
            let values: Vec<i64> =
                res.iter().map(|&r| r.wrapping_add(base as u64) as i64).collect();
            let packed = interleaved::pack(&res, width);
            // Pick bounds that select roughly the middle of the range.
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let (lo, hi) = (sorted[VECTOR_SIZE / 4], sorted[3 * VECTOR_SIZE / 4]);
            let mut words = [0u64; MATCH_WORDS];
            let agg = ffor_unpack_cmp_agg(&packed, base, width, lo, hi, &mut words);
            let (want_agg, want_words) = reference(&values, lo, hi);
            assert_eq!(agg, want_agg, "width {width}");
            assert_eq!(&words[..], &want_words[..], "width {width}");
        }
    }

    #[test]
    fn empty_and_full_selections() {
        let res = residuals(13);
        let base = 42i64;
        let values: Vec<i64> = res.iter().map(|&r| r.wrapping_add(base as u64) as i64).collect();
        let packed = interleaved::pack(&res, 13);

        let mut words = [u64::MAX; MATCH_WORDS];
        let none = ffor_unpack_cmp_agg(&packed, base, 13, 1, 0, &mut words);
        assert_eq!(none, ScanAgg::EMPTY);
        assert!(words.iter().all(|&w| w == 0));

        let all = ffor_unpack_cmp_agg(&packed, base, 13, i64::MIN, i64::MAX, &mut words);
        assert_eq!(all.count, VECTOR_SIZE);
        assert_eq!(all.sum, values.iter().fold(0i64, |a, &v| a.wrapping_add(v)));
        assert!(words.iter().all(|&w| w == u64::MAX));
    }

    #[test]
    fn zero_width_constant_vector() {
        let packed = interleaved::pack(&vec![0u64; VECTOR_SIZE], 0);
        let mut words = [0u64; MATCH_WORDS];
        let hit = ffor_unpack_cmp_agg(&packed, 7, 0, 0, 10, &mut words);
        assert_eq!(
            hit,
            ScanAgg { sum: 7 * VECTOR_SIZE as i64, count: VECTOR_SIZE, min: 7, max: 7 }
        );
        assert!(words.iter().all(|&w| w == u64::MAX));
        let miss = ffor_unpack_cmp_agg(&packed, 7, 0, 8, 10, &mut words);
        assert_eq!(miss, ScanAgg::EMPTY);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn selection_bitmap_is_in_value_order() {
        // Values 0..1024; select exactly [100, 163] — one fully-set word span.
        let res: Vec<u64> = (0..VECTOR_SIZE as u64).collect();
        let packed = interleaved::pack(&res, 10);
        let mut words = [0u64; MATCH_WORDS];
        let agg = ffor_unpack_cmp_agg(&packed, 0, 10, 100, 163, &mut words);
        assert_eq!(agg.count, 64);
        assert_eq!((agg.min, agg.max), (100, 163));
        for (i, &w) in words.iter().enumerate() {
            let mut want = 0u64;
            for b in 0..64 {
                let v = (i * 64 + b) as i64;
                if (100..=163).contains(&v) {
                    want |= 1 << b;
                }
            }
            assert_eq!(w, want, "word {i}");
        }
    }
}
