//! Lane-transposed ("interleaved") bit-packing — the layout family FastLanes
//! proper uses, provided as an alternative to the default word-sequential
//! layout of [`crate::bitpack`].
//!
//! The 1024 values are viewed as 64 rows × 16 lanes (value `i` lives in lane
//! `i % 16`, row `i / 16`). Each lane packs its 64 values independently;
//! packed words are stored lane-major per word-row (`word_row * 16 + lane`),
//! so at every step of the unpack loop **all 16 lanes use identical shift
//! amounts** — the textbook SIMD-friendly arrangement (two AVX-512 registers
//! cover a whole lane row).
//!
//! The `layout_ablation` bench compares this against the sequential layout;
//! compressed size is identical by construction (same width, same word
//! count), only the access pattern differs.

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
use crate::{packed_len, VECTOR_SIZE};

/// Number of lanes (values interleave across lanes round-robin).
pub const LANES: usize = 16;
/// Rows per lane.
pub const ROWS: usize = VECTOR_SIZE / LANES;

/// Packs 1024 values into the interleaved layout (same size as
/// [`crate::bitpack::pack`]: `packed_len(width)` words).
pub fn pack(input: &[u64], width: usize) -> Vec<u64> {
    assert_eq!(input.len(), VECTOR_SIZE);
    let mut out = vec![0u64; packed_len(width)];
    with_width(width, PackKernel { input, out: &mut out });
    out
}

/// Unpacks an interleaved vector.
pub fn unpack(packed: &[u64], width: usize, out: &mut [u64]) {
    assert_eq!(out.len(), VECTOR_SIZE);
    assert!(packed.len() >= packed_len(width));
    with_width(width, UnpackKernel { packed, out });
}

struct PackKernel<'a> {
    input: &'a [u64],
    out: &'a mut [u64],
}

impl WidthKernel for PackKernel<'_> {
    type Out = ();
    fn run<const W: usize>(self) {
        pack_const::<W>(self.input, self.out);
    }
}

struct UnpackKernel<'a> {
    packed: &'a [u64],
    out: &'a mut [u64],
}

impl WidthKernel for UnpackKernel<'_> {
    type Out = ();
    fn run<const W: usize>(self) {
        unpack_const::<W>(self.packed, self.out);
    }
}

/// Monomorphized interleaved pack: 16 parallel lane accumulators.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "fixed 1024-lane FastLanes geometry: `input` holds a vector and `out` \
              `packed_len::<W>()` words; row/lane/word indices are bounded at compile time"
)]
pub fn pack_const<const W: usize>(input: &[u64], out: &mut [u64]) {
    if W == 0 {
        return;
    }
    if W == 64 {
        out[..VECTOR_SIZE].copy_from_slice(&input[..VECTOR_SIZE]);
        return;
    }
    let mask = width_mask::<W>();
    let mut acc = [0u64; LANES];
    let mut filled: usize = 0;
    let mut word_row = 0usize;
    for row in 0..ROWS {
        let values = &input[row * LANES..row * LANES + LANES];
        let room = 64 - filled;
        if W <= room {
            for l in 0..LANES {
                acc[l] |= (values[l] & mask) << filled;
            }
            filled += W;
            if filled == 64 {
                out[word_row * LANES..word_row * LANES + LANES].copy_from_slice(&acc);
                acc = [0; LANES];
                word_row += 1;
                filled = 0;
            }
        } else {
            // Split across the word boundary — same split for every lane.
            for l in 0..LANES {
                acc[l] |= (values[l] & mask) << filled;
            }
            out[word_row * LANES..word_row * LANES + LANES].copy_from_slice(&acc);
            word_row += 1;
            let spill = W - room;
            for l in 0..LANES {
                acc[l] = (values[l] & mask) >> room;
            }
            filled = spill;
        }
    }
    if filled > 0 {
        out[word_row * LANES..word_row * LANES + LANES].copy_from_slice(&acc);
    }
}

/// Monomorphized interleaved unpack: identical shifts across all 16 lanes at
/// every step.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "fixed 1024-lane FastLanes geometry: callers size `packed` via \
              `packed_len::<W>()` (16*W words plus the pad word) and `out` holds a vector"
)]
pub fn unpack_const<const W: usize>(packed: &[u64], out: &mut [u64]) {
    if W == 0 {
        out[..VECTOR_SIZE].fill(0);
        return;
    }
    if W == 64 {
        out[..VECTOR_SIZE].copy_from_slice(&packed[..VECTOR_SIZE]);
        return;
    }
    let mask = width_mask::<W>();
    for row in 0..ROWS {
        let bit = row * W;
        let word_row = bit >> 6;
        let off = (bit & 63) as u32;
        let lo = &packed[word_row * LANES..word_row * LANES + LANES];
        let hi_start = (word_row + 1) * LANES;
        let out_row = &mut out[row * LANES..row * LANES + LANES];
        if off as usize + W <= 64 {
            for l in 0..LANES {
                out_row[l] = (lo[l] >> off) & mask;
            }
        } else {
            let hi = &packed[hi_start..hi_start + LANES];
            for l in 0..LANES {
                out_row[l] = ((lo[l] >> off) | ((hi[l] << 1) << (63 - off))) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(width: usize) -> Vec<u64> {
        let mask = if width == 64 {
            u64::MAX
        } else if width == 0 {
            0
        } else {
            (1 << width) - 1
        };
        (0..VECTOR_SIZE as u64).map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95) & mask).collect()
    }

    #[test]
    fn roundtrip_every_width() {
        for width in 0..=64 {
            let input = sample(width);
            let packed = pack(&input, width);
            let mut out = vec![0u64; VECTOR_SIZE];
            unpack(&packed, width, &mut out);
            assert_eq!(out, input, "width {width}");
        }
    }

    #[test]
    fn same_size_as_sequential_layout() {
        for width in [1usize, 7, 13, 33, 52] {
            let input = sample(width);
            let inter = pack(&input, width);
            let seq = crate::bitpack::pack(&input, width);
            assert_eq!(inter.len(), seq.len(), "width {width}");
        }
    }

    #[test]
    fn layouts_differ_but_decode_identically() {
        let input = sample(11);
        let inter = pack(&input, 11);
        let seq = crate::bitpack::pack(&input, 11);
        assert_ne!(inter, seq, "layouts should actually interleave");
        let mut a = vec![0u64; VECTOR_SIZE];
        let mut b = vec![0u64; VECTOR_SIZE];
        unpack(&inter, 11, &mut a);
        crate::bitpack::unpack(&seq, 11, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn max_values_survive() {
        for width in [1usize, 31, 63] {
            let max = (1u64 << width) - 1;
            let input = vec![max; VECTOR_SIZE];
            let packed = pack(&input, width);
            let mut out = vec![0u64; VECTOR_SIZE];
            unpack(&packed, width, &mut out);
            assert!(out.iter().all(|&v| v == max), "width {width}");
        }
    }
}
