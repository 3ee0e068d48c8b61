//! Lightweight vectorized integer compression, modeled on the FastLanes library
//! the ALP paper builds on.
//!
//! All kernels operate on vectors of exactly [`VECTOR_SIZE`] = 1024 values, the
//! granularity at which ALP (and vectorized query engines generally) move data.
//! Bit widths are compile-time constants inside the kernels
//! ([`dispatch::with_width`]). In the sequential layout the 64 steps of a
//! block are written out with literal indices ([`bitpack::unpack64`] /
//! [`bitpack::pack64`]), so constant shifts and word indices — the property
//! the paper's speed results rest on — do not depend on what the optimizer
//! decides to unroll; what the stock x86-64 build makes of each kernel is
//! measured, not assumed (EXPERIMENTS.md E15).
//!
//! Provided encodings:
//!
//! * [`bitpack`] — pack/unpack `u64` values to any width `0..=64`.
//! * [`ffor`] — Frame-Of-Reference fused with bit-packing (the paper's FFOR),
//!   plus deliberately *unfused* variants for the Figure 5 kernel-fusion ablation.
//! * [`fused`] — fused unpack + FOR-add + predicate + aggregate scan kernels
//!   over the interleaved layout (compressed-domain filtering, no
//!   materialization).
//! * [`delta`] — delta + zigzag encoding for sorted-ish data.
//! * [`rle`] — run-length encoding with separate run-value / run-length streams.
//! * [`dict`] — dictionary encoding with packed codes.
//!
//! [`tier`] runs the hot kernels — these block packers and unpackers, and
//! through [`tier::run`] ALP's encode, decode and sum kernels — as
//! x86-64-v3 (AVX2) code when the CPU has it, chosen at runtime; a stock
//! build otherwise vectorizes for SSE2 only.
//!
//! # Layout note
//! The default is a word-sequential LSB-first packed layout rather than
//! FastLanes' interleaved lane order. Every claim reproduced here (fusion
//! speedup, scalar-vs-vectorized gap, compression ratios) is independent of
//! the lane permutation; [`interleaved`] provides the lane-transposed layout
//! as well, read only by the [`fused`] scan kernels. No bench times the two
//! layouts head to head; the pinned benchmark's `fastlanes.fused_scan_mbps`
//! rung times the fused scan over the interleaved one.

pub mod bitpack;
pub mod delta;
pub mod dict;
pub mod dispatch;
pub mod ffor;
pub mod fused;
pub mod interleaved;
pub mod rle;
pub mod tier;

/// Number of values every kernel processes at a time.
pub const VECTOR_SIZE: usize = 1024;

/// Number of `u64` words a packed 1024-value vector of `width` bits occupies,
/// *including* one zeroed pad word: the interleaved kernels and
/// `alp::decode::decode_vector_scalar` read the word pair around every value
/// unconditionally (the block kernels of [`bitpack`] do not).
#[inline]
pub const fn packed_len(width: usize) -> usize {
    width * (VECTOR_SIZE / 64) + 1
}

/// Number of bits needed to represent `v` (0 for 0).
#[inline]
pub const fn bits_needed(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_len_matches_width() {
        assert_eq!(packed_len(0), 1);
        assert_eq!(packed_len(1), 17);
        assert_eq!(packed_len(64), 1025);
    }

    #[test]
    fn bits_needed_boundaries() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u64::MAX), 64);
    }
}
