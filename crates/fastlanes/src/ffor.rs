//! Frame-Of-Reference encoding fused with bit-packing — the paper's **FFOR**.
//!
//! FOR subtracts a per-vector base (the minimum) from every value so the
//! residuals need few bits; FFOR fuses the subtraction into the packing loop
//! (and the addition into the unpacking loop), saving a round trip through a
//! temporary buffer. The *unfused* variants are kept deliberately: the Figure 5
//! ablation of the paper measures exactly this fusion.
//!
//! Bases are `i64` (ALP's encoded integers are signed); residuals are computed
//! with wrapping two's-complement arithmetic, which is order-preserving for
//! `v >= base`, so any `i64` range — including ones spanning more than
//! `i64::MAX` — packs correctly into `u64` residuals.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::bitpack::{block_words, block_words_mut, packer, unpacker, Word, BLOCK};
use crate::{bits_needed, packed_len, VECTOR_SIZE};

/// Smallest width (bits per residual) that losslessly frames `input` against
/// its minimum. Returns `(base, width)`.
#[inline(always)]
pub fn frame_of(input: &[i64]) -> (i64, usize) {
    assert!(!input.is_empty());
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for &v in input {
        min = min.min(v);
        max = max.max(v);
    }
    let range = (max as u64).wrapping_sub(min as u64);
    (min, bits_needed(range))
}

/// Fused subtract-base + bit-pack of a 1024-value vector: each block of 64
/// residuals goes from the subtraction straight into
/// [`crate::bitpack::pack64`] (which truncates to `width` bits).
pub fn ffor_pack(input: &[i64], base: i64, width: usize) -> Vec<u64> {
    let mut out = vec![0u64; packed_len(width)];
    ffor_pack_into(input, base, width, &mut out);
    out
}

/// [`ffor_pack`] into the caller's words — native, or the bytes of a file
/// (see [`Word`]): fills `out[..16 * width]` and leaves the rest alone.
#[inline(always)]
pub fn ffor_pack_into<T: Word>(input: &[i64], base: i64, width: usize, out: &mut [T]) {
    assert_eq!(input.len(), VECTOR_SIZE);
    let pack = packer::<T>(width);
    let mut residuals = [0u64; BLOCK];
    for (block, values) in input.as_chunks::<BLOCK>().0.iter().enumerate() {
        for_encode(values, base, &mut residuals);
        pack.call(&residuals, block_words_mut(out, width, block));
    }
}

/// Fused bit-unpack + add-base of a 1024-value vector: the base is added
/// while a block's 64 residuals are still in L1.
#[inline(always)]
pub fn ffor_unpack(packed: &[u64], base: i64, width: usize, out: &mut [i64]) {
    assert_eq!(out.len(), VECTOR_SIZE);
    assert!(packed.len() >= packed_len(width));
    let unpack = unpacker(width);
    let mut residuals = [0u64; BLOCK];
    for (block, out_block) in out.as_chunks_mut::<BLOCK>().0.iter_mut().enumerate() {
        unpack.call(block_words(packed, width, block), &mut residuals);
        for_decode(&residuals, base, out_block);
    }
}

/// Unfused FOR encode: writes residuals to `residuals`, then the caller packs
/// them with [`crate::bitpack::pack`]. Exists for the kernel-fusion ablation.
#[inline(always)]
pub fn for_encode(input: &[i64], base: i64, residuals: &mut [u64]) {
    assert_eq!(input.len(), residuals.len());
    for (r, &v) in residuals.iter_mut().zip(input) {
        *r = (v as u64).wrapping_sub(base as u64);
    }
}

/// Unfused FOR decode: adds the base back onto unpacked residuals.
#[inline(always)]
pub fn for_decode(residuals: &[u64], base: i64, out: &mut [i64]) {
    assert_eq!(residuals.len(), out.len());
    for (o, &r) in out.iter_mut().zip(residuals) {
        *o = r.wrapping_add(base as u64) as i64;
    }
}

/// Convenience: frame, fuse-pack, and return `(base, width, packed)`.
pub fn ffor(input: &[i64]) -> (i64, usize, Vec<u64>) {
    let (base, width) = frame_of(input);
    let packed = ffor_pack(input, base, width);
    (base, width, packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack;

    fn vec_of(f: impl Fn(usize) -> i64) -> Vec<i64> {
        (0..VECTOR_SIZE).map(f).collect()
    }

    #[test]
    fn roundtrip_small_range() {
        let input = vec_of(|i| 1000 + (i as i64 % 37));
        let (base, width, packed) = ffor(&input);
        assert_eq!(base, 1000);
        assert_eq!(width, 6); // 36 needs 6 bits
        let mut out = vec![0i64; VECTOR_SIZE];
        ffor_unpack(&packed, base, width, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn roundtrip_negative_values() {
        let input = vec_of(|i| -5000 + (i as i64 * 3));
        let (base, width, packed) = ffor(&input);
        assert_eq!(base, -5000);
        let mut out = vec![0i64; VECTOR_SIZE];
        ffor_unpack(&packed, base, width, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn roundtrip_full_i64_range() {
        let mut input = vec_of(|i| (i as i64).wrapping_mul(0x5DEE_CE66_D1CE_4E85));
        input[0] = i64::MIN;
        input[1] = i64::MAX;
        let (base, width, packed) = ffor(&input);
        assert_eq!(width, 64);
        let mut out = vec![0i64; VECTOR_SIZE];
        ffor_unpack(&packed, base, width, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn constant_vector_needs_zero_bits() {
        let input = vec![42i64; VECTOR_SIZE];
        let (base, width, packed) = ffor(&input);
        assert_eq!((base, width), (42, 0));
        assert_eq!(packed.len(), 1);
        let mut out = vec![0i64; VECTOR_SIZE];
        ffor_unpack(&packed, base, width, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn fused_and_unfused_agree() {
        let input = vec_of(|i| 7_000_000 + (i as i64 * i as i64 % 9999));
        let (base, width) = frame_of(&input);
        let fused = ffor_pack(&input, base, width);

        let mut residuals = vec![0u64; VECTOR_SIZE];
        for_encode(&input, base, &mut residuals);
        let unfused = bitpack::pack(&residuals, width);
        assert_eq!(fused, unfused);

        let mut out_fused = vec![0i64; VECTOR_SIZE];
        ffor_unpack(&fused, base, width, &mut out_fused);

        let mut unpacked = vec![0u64; VECTOR_SIZE];
        bitpack::unpack(&unfused, width, &mut unpacked);
        let mut out_unfused = vec![0i64; VECTOR_SIZE];
        for_decode(&unpacked, base, &mut out_unfused);

        assert_eq!(out_fused, input);
        assert_eq!(out_unfused, input);
    }
}
