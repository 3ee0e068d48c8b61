//! PseudoDecimals — PDE (Kuschewski et al., *BtrBlocks*, SIGMOD'23).
//!
//! PDE assumes each double originated as a decimal and brute-forces, **per
//! value**, the smallest exponent `e` such that `d = round(v * 10^e)` fits a
//! 32-bit significand and `d * 10^-e` recovers `v` bit-exactly. Values with no
//! such `e` become *patches* (stored raw with their positions). The
//! significand and exponent streams are bit-packed separately per 1024-value
//! block — which is why PDE's output is further compressible but its
//! compression is extremely slow (the paper measures it 251x slower than ALP)
//! while decompression is reasonably fast.
//!
//! Block layout: `sig_base:i64 | sig_width:u8 | exp_width:u8 | count:u16 |
//! patches:u16 | packed significands | packed exponents | patch positions |
//! patch values`.

use fastlanes::{bitpack, bits_needed, ffor, VECTOR_SIZE};

use crate::cursor;
use crate::error::CodecError;

const NAME: &str = "pde";

/// Largest exponent tried by the per-value search.
pub const MAX_EXPONENT: u32 = 22;
/// Significands are limited to `i32` range, as in BtrBlocks (the ALP paper
/// notes PDE avoids big integers because they would not compress).
const SIG_LIMIT: f64 = 2_147_483_647.0;

/// Finds the smallest viable exponent for `v`; `None` → patch.
#[inline]
fn find_exponent(v: f64) -> Option<(i32, u32)> {
    if !v.is_finite() {
        return None;
    }
    for e in 0..=MAX_EXPONENT {
        let scaled = v * 10f64.powi(e as i32);
        if scaled.abs() > SIG_LIMIT {
            return None; // larger e only grows the significand
        }
        // Verify through the i32 the format actually stores: `-0.0` rounds to
        // an f64 `-0.0` but is stored as integer 0, losing the sign.
        let d = scaled.round() as i32;
        if ((d as f64) * 10f64.powi(-(e as i32))).to_bits() == v.to_bits() {
            return Some((d, e));
        }
    }
    None
}

/// Compresses a column of doubles.
pub fn compress(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 6 + 64);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for block in data.chunks(VECTOR_SIZE) {
        compress_block(block, &mut out);
    }
    out
}

fn compress_block(block: &[f64], out: &mut Vec<u8>) {
    let mut sigs = [0i64; VECTOR_SIZE];
    let mut exps = [0u64; VECTOR_SIZE];
    let mut patch_pos: Vec<u16> = Vec::new();
    let mut patch_val: Vec<u64> = Vec::new();

    // Patched slots and the tail of a short block keep their zeros.
    for (i, ((sig, exp), &v)) in sigs.iter_mut().zip(&mut exps).zip(block).enumerate() {
        match find_exponent(v) {
            Some((d, e)) => {
                *sig = d as i64;
                *exp = e as u64;
            }
            None => {
                patch_pos.push(i as u16);
                patch_val.push(v.to_bits());
            }
        }
    }

    let (sig_base, sig_width) = ffor::frame_of(&sigs);
    let packed_sigs = ffor::ffor_pack(&sigs, sig_base, sig_width);
    let exp_width = bits_needed(exps.iter().copied().max().unwrap_or(0));
    let packed_exps = bitpack::pack(&exps, exp_width);

    out.extend_from_slice(&sig_base.to_le_bytes());
    out.push(sig_width as u8);
    out.push(exp_width as u8);
    out.extend_from_slice(&(block.len() as u16).to_le_bytes());
    out.extend_from_slice(&(patch_pos.len() as u16).to_le_bytes());
    let sig_words = sig_width * (VECTOR_SIZE / 64);
    for &w in packed_sigs.iter().take(sig_words) {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let exp_words = exp_width * (VECTOR_SIZE / 64);
    for &w in packed_exps.iter().take(exp_words) {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for &p in &patch_pos {
        out.extend_from_slice(&p.to_le_bytes());
    }
    for &v in &patch_val {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reusable decode buffers so [`try_decompress_into`] allocates nothing per
/// call once warm: unpacked significand/exponent lanes, the packed-word
/// staging buffers, patch positions, and the inverse-power-of-ten LUT.
pub struct Scratch {
    sigs: Vec<i64>,
    exps: Vec<u64>,
    packed: Vec<u64>,
    packed_e: Vec<u64>,
    positions: Vec<usize>,
    inv_pow: Vec<f64>,
}

impl Scratch {
    /// Allocates the fixed-size lanes and the power LUT up front.
    pub fn new() -> Self {
        Self {
            sigs: vec![0i64; VECTOR_SIZE],
            exps: vec![0u64; VECTOR_SIZE],
            packed: Vec::with_capacity(65),
            packed_e: Vec::with_capacity(65),
            positions: Vec::with_capacity(VECTOR_SIZE),
            // Inverse powers of ten indexed by exponent, hoisted out of the
            // decode loop.
            inv_pow: (0..=MAX_EXPONENT).map(|e| 10f64.powi(-(e as i32))).collect(),
        }
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Decompresses the column into `out` (cleared first), validating every field
/// against the input. Allocation-free once `out` and `scratch` are warm.
///
/// Checked hazards: the column header, per-block header geometry (widths over
/// 64 bits, empty or oversized blocks — an empty block would loop forever),
/// packed-word and patch-stream bounds, exponents past [`MAX_EXPONENT`], and
/// patch positions outside their block.
pub fn try_decompress_into(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
) -> Result<(), CodecError> {
    let truncated = || CodecError::Truncated { codec: NAME };
    let corrupt = |what| CodecError::Corrupt { codec: NAME, what };

    let mut pos = 0usize;
    let total = cursor::read_u64_le(bytes, &mut pos).ok_or_else(truncated)? as usize;
    if total != count {
        return Err(corrupt("count mismatch"));
    }
    out.clear();
    out.reserve(total.min(1 << 24));
    let Scratch { sigs, exps, packed, packed_e, positions, inv_pow } = scratch;

    while out.len() < total {
        let sig_base = cursor::read_i64_le(bytes, &mut pos).ok_or_else(truncated)?;
        let sig_width = cursor::read_u8(bytes, &mut pos).ok_or_else(truncated)? as usize;
        let exp_width = cursor::read_u8(bytes, &mut pos).ok_or_else(truncated)? as usize;
        let block_len = cursor::read_u16_le(bytes, &mut pos).ok_or_else(truncated)? as usize;
        let patches = cursor::read_u16_le(bytes, &mut pos).ok_or_else(truncated)? as usize;

        if sig_width > 64 || exp_width > 64 {
            return Err(corrupt("pack width"));
        }
        if block_len == 0 || block_len > VECTOR_SIZE {
            return Err(corrupt("block length"));
        }
        if block_len > total - out.len() {
            return Err(corrupt("blocks exceed column length"));
        }
        if patches > block_len {
            return Err(corrupt("patch count"));
        }

        let sig_words = sig_width * (VECTOR_SIZE / 64);
        let exp_words = exp_width * (VECTOR_SIZE / 64);
        if bytes.len() - pos < (sig_words + exp_words) * 8 {
            return Err(truncated());
        }
        packed.clear();
        for _ in 0..sig_words {
            packed.push(cursor::read_u64_le(bytes, &mut pos).ok_or_else(truncated)?);
        }
        packed.push(0);
        ffor::ffor_unpack(packed, sig_base, sig_width, sigs);

        packed_e.clear();
        for _ in 0..exp_words {
            packed_e.push(cursor::read_u64_le(bytes, &mut pos).ok_or_else(truncated)?);
        }
        packed_e.push(0);
        bitpack::unpack(packed_e, exp_width, exps);

        let start = out.len();
        for (&e, &sig) in exps.iter().zip(sigs.iter()).take(block_len) {
            // The LUT holds an entry per exponent up to MAX_EXPONENT.
            let &inv = inv_pow.get(e as usize).ok_or_else(|| corrupt("exponent out of range"))?;
            out.push(sig as f64 * inv);
        }
        // Patch streams: all positions, then all values.
        positions.clear();
        for _ in 0..patches {
            positions.push(cursor::read_u16_le(bytes, &mut pos).ok_or_else(truncated)? as usize);
        }
        for &p in positions.iter() {
            let v = cursor::read_u64_le(bytes, &mut pos).ok_or_else(truncated)?;
            // The block's values end the output, so this is `p < block_len`.
            let slot = out.get_mut(start + p).ok_or_else(|| corrupt("patch position"))?;
            *slot = f64::from_bits(v);
        }
    }
    Ok(())
}

/// Decompresses the column into a fresh vector — see [`try_decompress_into`]
/// for the allocation-free variant.
pub fn try_decompress(bytes: &[u8], count: usize) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::new();
    try_decompress_into(bytes, count, &mut out, &mut Scratch::new())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) -> usize {
        let bytes = compress(data);
        let back = try_decompress(&bytes, data.len()).unwrap();
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "idx {i}");
        }
        bytes.len()
    }

    #[test]
    fn decimal_data_roundtrips_compactly() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64) / 100.0).collect();
        let size = roundtrip(&data);
        assert!(size < data.len() * 8, "{size}");
    }

    #[test]
    fn per_value_exponent_adapts() {
        // Alternating precisions that a single exponent could not serve with
        // small significands.
        let data: Vec<f64> = (0..2048)
            .map(|i| if i % 2 == 0 { (i as f64) / 10.0 } else { (i as f64) / 1e6 })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn unencodable_values_become_patches() {
        let data: Vec<f64> = (0..1000).map(|i| ((i as f64) * 0.987).sin()).collect();
        roundtrip(&data);
    }

    #[test]
    fn specials_are_patches() {
        roundtrip(&[f64::NAN, f64::INFINITY, -0.0, 0.0, 1.0, 2.5]);
    }

    #[test]
    fn find_exponent_prefers_smallest() {
        assert_eq!(find_exponent(2.5), Some((25, 1)));
        assert_eq!(find_exponent(100.0), Some((100, 0)));
        assert_eq!(find_exponent(f64::NAN), None);
        // Needs 4 digits but visible precision fails at e=4 (§2.5): PDE walks
        // upward until some e works or gives up.
        let r = find_exponent(8.0605);
        assert!(r.is_some());
    }

    #[test]
    fn large_magnitudes_patch_out() {
        // |d| would exceed i32 for every e.
        roundtrip(&[3.4e12, 5.6e18, 1e300]);
    }

    #[test]
    fn multi_block_roundtrip() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64) / 4.0).collect();
        roundtrip(&data);
    }

    #[test]
    fn empty_column() {
        roundtrip(&[]);
    }
}
