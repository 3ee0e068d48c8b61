//! The scan oracle: validity bitmaps ([`Validity`]), the scan contract
//! ([`ScanResult`]), and the reference implementation over plain values
//! ([`scan_values`]) every compressed-domain aggregate is held equal to.
//!
//! ## Accumulation contract
//! A scan's sum is the workspace's *canonical sum* ([`alp::decode`], DESIGN.md
//! §14): within a 64-value block value `i` goes to lane `i % 8`, the lanes
//! combine through one fixed tree ([`alp::decode::block_sum`]), a
//! 1024-value vector folds its block sums in order, and per-vector sums are
//! added in vector order. Floating-point addition is not associative, so this
//! exact order *is* the contract: it is a function of position only, which is
//! what lets fused and materializing scans agree bit-for-bit at every thread
//! count while the lanes still vectorize. [`scan_values`] calls the same
//! block primitive as every kernel; the independent statement of the
//! definition lives in `tests/kernel_differential.rs`.
//!
//! ## Validity bitmap layout
//! Bit `i` of word `i / 64` describes value `i`: set ⇔ the value is live and
//! not NaN (the workspace's only invalid state — there is no null encoding in
//! the float domain). Bits at and past `len` are always clear, so counts are
//! plain popcounts over the words.

use alp::decode::block_sum;
use alp::VECTOR_SIZE;

/// Growable validity bitmap: 64-bit words, popcount-based counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
}

impl Validity {
    /// Empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty bitmap with room for `values` bits.
    pub fn with_capacity(values: usize) -> Self {
        Self { words: Vec::with_capacity(values.div_ceil(64)), len: 0 }
    }

    /// Number of values described.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no values are described.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one validity bit.
    pub fn push(&mut self, valid: bool) {
        self.push_word(valid as u64, 1);
    }

    /// Appends the low `bits` bits of `word` (high-to-low = later-to-earlier
    /// values). `bits` must be ≤ 64; higher bits of `word` are ignored.
    pub fn push_word(&mut self, word: u64, bits: usize) {
        assert!(bits <= 64);
        if bits == 0 {
            return;
        }
        let word = if bits == 64 { word } else { word & ((1u64 << bits) - 1) };
        let off = self.len & 63;
        if off == 0 {
            self.words.push(word);
        } else {
            if let Some(last) = self.words.last_mut() {
                *last |= word << off;
            }
            if off + bits > 64 {
                self.words.push(word >> (64 - off));
            }
        }
        self.len += bits;
    }

    /// Validity of value `i` (false out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// The raw bitmap words (bit `i` of word `i / 64` ⇔ value `i` valid).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of valid (non-NaN) values — a popcount over the words.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of invalid (NaN) values.
    pub fn count_invalid(&self) -> usize {
        self.len - self.count_valid()
    }

    /// Resets to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }
}

/// Range predicate `lo <= x <= hi`. NaN never matches (both comparisons
/// fail), so predicate hits are always valid values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPredicate {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

/// Which aggregates a scan must fill in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanAgg {
    /// SUM and COUNT of the matches — the query service's hot path.
    SumCount,
    /// SUM, COUNT, MIN and MAX of the matches.
    All,
}

/// Result of a predicate scan, fused or materializing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanResult {
    /// Canonical sum of the matching values (see the module contract).
    pub sum: f64,
    /// Number of matching values.
    pub matches: usize,
    /// Minimum matching value; `None` when nothing matched or min/max were
    /// not requested ([`ScanAgg::SumCount`]). Never a ±inf sentinel.
    pub min: Option<f64>,
    /// Maximum matching value (see `min`).
    pub max: Option<f64>,
    /// Per-value validity of everything scanned.
    pub validity: Validity,
}

impl ScanResult {
    /// Empty result (additive identity).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The reference scan: folds the canonical sum over `values` at 1024-value
/// vector granularity, appending to `result`. Every aggregate over stored
/// columns must match it bit-for-bit (`tests/differential.rs`).
pub fn scan_values(values: &[f64], pred: ScanPredicate, agg: ScanAgg, result: &mut ScanResult) {
    let with_minmax = matches!(agg, ScanAgg::All);
    for vector in values.chunks(VECTOR_SIZE) {
        let mut sum = 0.0f64;
        for block in vector.chunks(64) {
            let (s, matches) = block_sum(block, pred.lo, pred.hi);
            sum += s;
            result.matches += matches;
            let mut vw = 0u64;
            for (j, &x) in block.iter().enumerate() {
                vw |= ((!x.is_nan()) as u64) << j;
            }
            result.validity.push_word(vw, block.len());
            if with_minmax {
                for &x in block.iter().filter(|&&x| x >= pred.lo && x <= pred.hi) {
                    result.min = Some(match result.min {
                        Some(m) if m <= x => m,
                        _ => x,
                    });
                    result.max = Some(match result.max {
                        Some(m) if m >= x => m,
                        _ => x,
                    });
                }
            }
        }
        result.sum += sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_push_and_count() {
        let mut v = Validity::new();
        for i in 0..130 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_invalid(), (0..130).filter(|i| i % 3 == 0).count());
        assert_eq!(v.count_valid() + v.count_invalid(), 130);
        assert!(!v.get(0));
        assert!(v.get(1));
        assert!(!v.get(129 + 1)); // out of range
    }

    #[test]
    fn validity_push_word_handles_misalignment() {
        let mut a = Validity::new();
        a.push_word(0b1011, 4);
        a.push_word(u64::MAX, 64); // spans a word boundary at offset 4
        a.push_word(0b01, 2);
        let mut b = Validity::new();
        for i in 0..70 {
            b.push(match i {
                0 => true,
                1 => true,
                2 => false,
                3 => true,
                68 => true,
                69 => false,
                _ => true,
            });
        }
        assert_eq!(a, b);
        assert_eq!(a.count_valid(), b.count_valid());
    }

    #[test]
    fn validity_word_bits_match_value_order() {
        let mut v = Validity::new();
        v.push_word(1 << 63, 64);
        assert!(!v.get(0));
        assert!(v.get(63));
        assert_eq!(v.words(), &[1u64 << 63]);
    }

    #[test]
    fn scan_values_basics() {
        let vals = [1.0, f64::NAN, 3.0, -2.0, 5.0];
        let mut r = ScanResult::new();
        scan_values(&vals, ScanPredicate { lo: 0.0, hi: 4.0 }, ScanAgg::All, &mut r);
        assert_eq!(r.matches, 2);
        assert_eq!(r.sum, 4.0);
        assert_eq!((r.min, r.max), (Some(1.0), Some(3.0)));
        assert_eq!(r.validity.count_invalid(), 1);
        assert_eq!(r.validity.len(), 5);
    }

    #[test]
    fn scan_values_no_match_yields_none_not_infinities() {
        let vals = [f64::NAN, f64::NAN];
        let mut r = ScanResult::new();
        scan_values(
            &vals,
            ScanPredicate { lo: f64::NEG_INFINITY, hi: f64::INFINITY },
            ScanAgg::All,
            &mut r,
        );
        assert_eq!(r.matches, 0);
        assert_eq!((r.min, r.max), (None, None));
        assert_eq!(r.validity.count_valid(), 0);
    }

    #[test]
    fn sum_count_mode_skips_minmax() {
        let vals = [1.0, 2.0];
        let mut r = ScanResult::new();
        scan_values(&vals, ScanPredicate { lo: 0.0, hi: 9.0 }, ScanAgg::SumCount, &mut r);
        assert_eq!(r.matches, 2);
        assert_eq!((r.min, r.max), (None, None));
    }
}
