//! `u32` bit-packing (widths `0..=32`) over 1024-value vectors, for 32-bit
//! pipelines (ALP for `f32`, packed dictionary codes, PDE exponents) that
//! want half the payload footprint of the `u64` kernels.
//!
//! Layout: 32 blocks of 32 values, each block filling exactly `W`
//! consecutive `u32` words, LSB-first. Read as little-endian `u64` words that
//! is the very bit stream [`crate::bitpack`] produces, so a pair of blocks is
//! one [`crate::bitpack::pack64`] / [`crate::bitpack::unpack64`] block and
//! the kernels here only join and split word halves around it. The `layout_ablation` bench compares the two.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::bitpack::{packer, unpacker, BLOCK};
use crate::VECTOR_SIZE;

/// Words (u32) a packed 1024-value vector of `width` bits occupies, including
/// one pad word (kept so buffer sizes match the `u64` convention; the kernels
/// do not read it).
#[inline]
pub const fn packed_len32(width: usize) -> usize {
    width * (VECTOR_SIZE / 32) + 1
}

/// Packs 1024 `u32` values at `width` bits each: 64 values → `width` `u64`
/// words → `2 * width` `u32` words per block.
///
/// # Panics
/// Panics if `width > 32` or `input.len() != 1024`.
pub fn pack(input: &[u32], width: usize) -> Vec<u32> {
    assert!(width <= 32, "u32 kernels support widths 0..=32");
    assert_eq!(input.len(), VECTOR_SIZE);
    let mut out = vec![0u32; packed_len32(width)];
    let pack = packer(width);
    let mut values = [0u64; BLOCK];
    let mut words = [0u64; 32];
    let halves = out.as_chunks_mut::<2>().0;
    for (block, chunk) in input.as_chunks::<BLOCK>().0.iter().enumerate() {
        for (v, &narrow) in values.iter_mut().zip(chunk) {
            *v = u64::from(narrow);
        }
        pack.call(&values, &mut words);
        for (pair, &w) in halves.iter_mut().skip(block * width).zip(words.iter().take(width)) {
            *pair = [w as u32, (w >> 32) as u32];
        }
    }
    out
}

/// Unpacks a 1024-value `u32` vector: `2 * width` `u32` words → `width` `u64`
/// words → 64 values per block.
pub fn unpack(packed: &[u32], width: usize, out: &mut [u32]) {
    assert!(width <= 32);
    assert_eq!(out.len(), VECTOR_SIZE);
    assert!(packed.len() >= packed_len32(width));
    let unpack = unpacker(width);
    let mut words = [0u64; 32];
    let mut values = [0u64; BLOCK];
    let halves = packed.as_chunks::<2>().0;
    for (block, out_block) in out.as_chunks_mut::<BLOCK>().0.iter_mut().enumerate() {
        for (w, &[lo, hi]) in words.iter_mut().zip(halves.iter().skip(block * width).take(width)) {
            *w = u64::from(lo) | u64::from(hi) << 32;
        }
        unpack.call(&words, &mut values);
        for (o, &v) in out_block.iter_mut().zip(&values) {
            // `v` is masked to `width <= 32` bits, so the conversion cannot fail.
            *o = u32::try_from(v).unwrap_or(u32::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(width: usize) -> Vec<u32> {
        let mask = if width == 32 {
            u32::MAX
        } else if width == 0 {
            0
        } else {
            (1u32 << width) - 1
        };
        (0..VECTOR_SIZE as u32).map(|i| i.wrapping_mul(0x9E37_79B1) & mask).collect()
    }

    #[test]
    fn roundtrip_every_width() {
        for width in 0..=32 {
            let input = sample(width);
            let packed = pack(&input, width);
            assert_eq!(packed.len(), packed_len32(width));
            let mut out = vec![0u32; VECTOR_SIZE];
            unpack(&packed, width, &mut out);
            assert_eq!(out, input, "width {width}");
        }
    }

    #[test]
    fn agrees_with_u64_kernel_semantics() {
        for width in [1usize, 5, 11, 17, 23, 31] {
            let input = sample(width);
            let wide: Vec<u64> = input.iter().map(|&v| v as u64).collect();
            let packed64 = crate::bitpack::pack(&wide, width);
            let mut out64 = vec![0u64; VECTOR_SIZE];
            crate::bitpack::unpack(&packed64, width, &mut out64);
            let packed32 = pack(&input, width);
            let mut out32 = vec![0u32; VECTOR_SIZE];
            unpack(&packed32, width, &mut out32);
            assert!(out64.iter().zip(&out32).all(|(&a, &b)| a == b as u64), "width {width}");
            // Native kernel halves the payload footprint.
            assert!(packed32.len() * 4 < packed64.len() * 8);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_width_over_32() {
        pack(&vec![0u32; VECTOR_SIZE], 33);
    }

    #[test]
    fn max_values_survive() {
        for width in [1usize, 16, 32] {
            let max = if width == 32 { u32::MAX } else { (1 << width) - 1 };
            let input = vec![max; VECTOR_SIZE];
            let packed = pack(&input, width);
            let mut out = vec![0u32; VECTOR_SIZE];
            unpack(&packed, width, &mut out);
            assert!(out.iter().all(|&v| v == max), "width {width}");
        }
    }
}
