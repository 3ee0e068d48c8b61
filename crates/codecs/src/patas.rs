//! Patas (DuckDB Labs, 2022) — a byte-aligned, single-mode variant of
//! Chimp128 that trades compression ratio for decompression speed.
//!
//! For every value Patas picks a reference among the previous 128 values with
//! the same low-bits hash as Chimp128, XORs, and writes:
//!
//! * a 16-bit little-endian header packing the 7-bit reference ring index,
//!   a 4-bit significant-**byte** count (0 for a perfect match), and a 3-bit
//!   trailing-zero **byte** count;
//! * the significant bytes of `xor >> (8 * trailing_zero_bytes)`, verbatim.
//!
//! Everything is byte-aligned, so decoding needs no bit arithmetic at all —
//! the design point the paper credits for Patas's decompression speed.

use crate::cursor;
use crate::error::CodecError;
use crate::word::{bits_f32, bits_f64, f32_bits, f64_bits, Word};

const NAME: &str = "patas";

/// Ring-buffer capacity, shared with Chimp128.
pub const PREVIOUS_VALUES: usize = 128;
const PREV_LOG2: u32 = 7;
const KEY_BITS: u32 = PREV_LOG2 + 7;
const TZ_THRESHOLD: u32 = 6 + PREV_LOG2;

/// Compresses a column of words.
#[expect(
    clippy::indexing_slicing,
    reason = "ring slots are taken mod its 128 slots, keys are masked to the index table's \
              14 bits, and a word has at most 8 bytes"
)]
pub fn compress_words<W: Word>(data: &[W]) -> Vec<u8> {
    let word_bytes = (W::BITS / 8) as usize;
    let mut out = Vec::with_capacity(data.len() * (word_bytes + 2) + 16);
    let mut ring = [W::ZERO; PREVIOUS_VALUES];
    let mut indices = vec![usize::MAX; 1 << KEY_BITS];

    for (i, &value) in data.iter().enumerate() {
        if i == 0 {
            out.extend_from_slice(&value.to_u64().to_le_bytes()[..word_bytes]);
            ring[0] = value;
            indices[(value.to_u64() & ((1 << KEY_BITS) - 1)) as usize] = 0;
            continue;
        }
        let key = (value.to_u64() & ((1 << KEY_BITS) - 1)) as usize;
        let candidate_global = indices[key];
        let mut ref_index = (i - 1) % PREVIOUS_VALUES;
        let mut xor = value ^ ring[ref_index];
        if candidate_global != usize::MAX && i - candidate_global < PREVIOUS_VALUES {
            let cand_index = candidate_global % PREVIOUS_VALUES;
            let cand_xor = value ^ ring[cand_index];
            if cand_xor == W::ZERO || cand_xor.trailing_zeros() > TZ_THRESHOLD {
                ref_index = cand_index;
                xor = cand_xor;
            }
        }

        let (byte_count, tz_bytes) = if xor == W::ZERO {
            (0u16, 0u16)
        } else {
            let tz_bytes = (xor.trailing_zeros() / 8) as u16;
            let lz_bytes = (xor.leading_zeros() / 8) as u16;
            let byte_count = (W::BITS / 8) as u16 - lz_bytes - tz_bytes;
            (byte_count, tz_bytes)
        };
        let header: u16 = ((ref_index as u16) << 9) | (byte_count << 5) | (tz_bytes << 2);
        out.extend_from_slice(&header.to_le_bytes());
        let payload = xor.to_u64() >> (8 * tz_bytes as u32);
        out.extend_from_slice(&payload.to_le_bytes()[..byte_count as usize]);

        ring[i % PREVIOUS_VALUES] = value;
        indices[key] = i;
    }
    out
}

/// Decompresses `count` words into `out` (cleared first), validating every
/// field against the input. Allocation-free once `out` has capacity.
///
/// Checked hazards: the verbatim first word, every 2-byte header, the 4-bit
/// significant-byte count (values 9–15 are unrepresentable in a word), and
/// each payload slice.
#[expect(
    clippy::indexing_slicing,
    reason = "byte counts are checked against the word size, and a 7-bit index addresses \
              the 128-slot ring"
)]
pub fn try_decompress_words_into<W: Word>(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<W>,
) -> Result<(), CodecError> {
    CodecError::unless_backed(NAME, bytes, count)?;
    let word_bytes = (W::BITS / 8) as usize;
    out.clear();
    out.reserve(count);
    if count == 0 {
        return Ok(());
    }
    let mut ring = [W::ZERO; PREVIOUS_VALUES];
    let mut pos = 0usize;
    let Some(first_bytes) = cursor::take(bytes, &mut pos, word_bytes) else {
        return Err(CodecError::Truncated { codec: NAME });
    };
    let mut first_word = [0u8; 8];
    first_word[..word_bytes].copy_from_slice(first_bytes);
    let first = W::from_u64(u64::from_le_bytes(first_word));
    ring[0] = first;
    out.push(first);

    for i in 1..count {
        let header =
            cursor::read_u16_le(bytes, &mut pos).ok_or(CodecError::Truncated { codec: NAME })?;
        let ref_index = (header >> 9) as usize;
        let byte_count = ((header >> 5) & 0xF) as usize;
        let tz_bytes = u32::from((header >> 2) & 0x7);
        if byte_count > word_bytes {
            return Err(CodecError::Corrupt { codec: NAME, what: "significant byte count" });
        }
        let Some(src) = cursor::take(bytes, &mut pos, byte_count) else {
            return Err(CodecError::Truncated { codec: NAME });
        };
        let mut payload = [0u8; 8];
        payload[..byte_count].copy_from_slice(src);
        let xor = W::from_u64(u64::from_le_bytes(payload) << (8 * tz_bytes));
        let value = ring[ref_index] ^ xor;
        ring[i % PREVIOUS_VALUES] = value;
        out.push(value);
    }
    Ok(())
}

/// Decompresses `count` words into a fresh vector — see
/// [`try_decompress_words_into`] for the allocation-free variant.
fn try_decompress_words<W: Word>(bytes: &[u8], count: usize) -> Result<Vec<W>, CodecError> {
    let mut out = Vec::new();
    try_decompress_words_into(bytes, count, &mut out)?;
    Ok(out)
}

/// Compresses doubles.
pub fn compress_f64(data: &[f64]) -> Vec<u8> {
    compress_words(&f64_bits(data))
}

/// Decompresses `count` doubles from untrusted bytes into a fresh vector.
pub fn try_decompress_f64(bytes: &[u8], count: usize) -> Result<Vec<f64>, CodecError> {
    Ok(bits_f64(&try_decompress_words::<u64>(bytes, count)?))
}

/// Compresses 32-bit floats.
pub fn compress_f32(data: &[f32]) -> Vec<u8> {
    compress_words(&f32_bits(data))
}

/// Decompresses `count` 32-bit floats from untrusted bytes into a fresh vector.
pub fn try_decompress_f32(bytes: &[u8], count: usize) -> Result<Vec<f32>, CodecError> {
    Ok(bits_f32(&try_decompress_words::<u32>(bytes, count)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip64(data: &[f64]) {
        let bytes = compress_f64(data);
        let back = try_decompress_f64(&bytes, data.len()).unwrap();
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "idx {i}");
        }
    }

    #[test]
    fn timeseries_roundtrip() {
        let data: Vec<f64> = (0..10_000).map(|i| 1.0 + (i as f64) * 1e-4).collect();
        roundtrip64(&data);
    }

    #[test]
    fn perfect_matches_cost_two_bytes() {
        let data = vec![123.456f64; 10_000];
        let bytes = compress_f64(&data);
        assert!(bytes.len() <= 8 + 2 * 10_000, "{} bytes", bytes.len());
        roundtrip64(&data);
    }

    #[test]
    fn specials_roundtrip() {
        roundtrip64(&[f64::NAN, -0.0, 0.0, f64::INFINITY, f64::MIN_POSITIVE, f64::MAX]);
    }

    #[test]
    fn random_bits_roundtrip() {
        let data: Vec<f64> = (0..5000)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)))
            .collect();
        roundtrip64(&data);
    }

    #[test]
    fn worst_case_overhead_is_bounded() {
        // Incompressible data: header (2B) + full 8B payload per value.
        let data: Vec<f64> = (0..1000)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
            .collect();
        let bytes = compress_f64(&data);
        assert!(bytes.len() <= 8 + 10 * (data.len() - 1) + 10);
        roundtrip64(&data);
    }

    #[test]
    fn f32_roundtrip() {
        let data: Vec<f32> = (0..4000).map(|i| 3.0 + (i as f32) * 0.001).collect();
        let bytes = compress_f32(&data);
        let back = try_decompress_f32(&bytes, data.len()).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_and_short() {
        roundtrip64(&[]);
        roundtrip64(&[7.5]);
        roundtrip64(&[7.5, -7.5]);
    }
}
