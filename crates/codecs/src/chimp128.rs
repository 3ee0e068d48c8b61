//! Chimp128 — Chimp with a 128-value reference window (VLDB'22).
//!
//! Instead of always XORing with the immediately previous value, Chimp128
//! hashes the low `log2(128) + 7 = 14` bits of every value and remembers the
//! most recent position where each key occurred. If the hashed candidate is
//! still inside the 128-value ring buffer *and* the XOR against it has more
//! than `6 + log2(128) = 13` trailing zeros, that candidate becomes the
//! reference (its 7-bit ring index is written to the stream); otherwise the
//! previous value is used, exactly as in Chimp.
//!
//! Stream layout per value (after the verbatim first value):
//!
//! * flag `00` + 7-bit index — value identical to `ring[index]`.
//! * flag `01` + 7-bit index + 3-bit lz code + center-count + center bits —
//!   trailing-zeros mode against `ring[index]`.
//! * flag `10` + `BITS - stored_lz` bits — previous-value XOR, reusing lz.
//! * flag `11` + 3-bit lz code + `BITS - lz` bits — previous-value XOR.

use bitstream::{BitReader, BitWriter};

use crate::chimp::{LEADING_DECODE, LEADING_REPR, LEADING_ROUND};
use crate::error::CodecError;
use crate::word::{bits_f32, bits_f64, f32_bits, f64_bits, Word};

const NAME: &str = "chimp128";

/// Ring-buffer capacity (the "128" in Chimp128).
pub const PREVIOUS_VALUES: usize = 128;
const PREV_LOG2: u32 = 7;
/// Low bits hashed into the candidate index table.
const KEY_BITS: u32 = PREV_LOG2 + 7;
/// Trailing-zero threshold for accepting a hashed candidate.
const TZ_THRESHOLD: u32 = 6 + PREV_LOG2;

const fn center_field<W: Word>() -> u32 {
    if W::BITS == 64 {
        6
    } else {
        5
    }
}

/// Compresses a column of words.
#[expect(
    clippy::indexing_slicing,
    reason = "ring slots are taken mod its 128 slots, keys are masked to the index table's \
              14 bits, and the 65-entry tables are indexed by a leading-zero count"
)]
pub fn compress_words<W: Word>(data: &[W]) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(data.len() * (W::BITS as usize / 8) + 16);
    let mut ring = [W::ZERO; PREVIOUS_VALUES];
    // Most recent global index at which each 14-bit key was seen.
    let mut indices = vec![usize::MAX; 1 << KEY_BITS];
    let mut stored_lz = u32::MAX;

    for (i, &value) in data.iter().enumerate() {
        if i == 0 {
            w.write_bits(value.to_u64(), W::BITS);
            ring[0] = value;
            indices[(value.to_u64() & ((1 << KEY_BITS) - 1)) as usize] = 0;
            continue;
        }
        let key = (value.to_u64() & ((1 << KEY_BITS) - 1)) as usize;
        let candidate_global = indices[key];

        // Pick the reference: hashed candidate if fresh and well-matching,
        // else the immediately previous value.
        let (ref_index, xor, use_candidate) = {
            let mut ref_index = (i - 1) % PREVIOUS_VALUES;
            let mut xor = value ^ ring[ref_index];
            let mut use_candidate = false;
            if candidate_global != usize::MAX && i - candidate_global < PREVIOUS_VALUES {
                let cand_index = candidate_global % PREVIOUS_VALUES;
                let cand_xor = value ^ ring[cand_index];
                if cand_xor == W::ZERO || cand_xor.trailing_zeros() > TZ_THRESHOLD {
                    ref_index = cand_index;
                    xor = cand_xor;
                    use_candidate = true;
                }
            }
            (ref_index, xor, use_candidate)
        };

        if use_candidate {
            if xor == W::ZERO {
                w.write_bits(0b00, 2);
                w.write_bits(ref_index as u64, PREV_LOG2);
            } else {
                let tz = xor.trailing_zeros();
                let lz = LEADING_ROUND[xor.leading_zeros() as usize];
                let center = W::BITS - lz - tz;
                w.write_bits(0b01, 2);
                w.write_bits(ref_index as u64, PREV_LOG2);
                w.write_bits(LEADING_REPR[lz as usize], 3);
                w.write_bits((center % W::BITS) as u64, center_field::<W>());
                w.write_bits(xor.to_u64() >> tz, center);
            }
            stored_lz = u32::MAX;
        } else if xor == W::ZERO {
            // Previous value repeated but hash missed (or stale): encode as a
            // candidate-match against the previous ring slot.
            w.write_bits(0b00, 2);
            w.write_bits(ref_index as u64, PREV_LOG2);
            stored_lz = u32::MAX;
        } else {
            let lz = LEADING_ROUND[xor.leading_zeros() as usize];
            if lz == stored_lz {
                w.write_bits(0b10, 2);
                w.write_bits(xor.to_u64(), W::BITS - lz);
            } else {
                w.write_bits(0b11, 2);
                w.write_bits(LEADING_REPR[lz as usize], 3);
                w.write_bits(xor.to_u64(), W::BITS - lz);
                stored_lz = lz;
            }
        }

        ring[i % PREVIOUS_VALUES] = value;
        indices[key] = i;
    }
    w.into_bytes()
}

/// Decompresses `count` words into `out` (cleared first), validating every
/// field against the input. Allocation-free once `out` has capacity.
/// (Ring indices are 7-bit reads and cannot exceed the 128-slot buffer; the
/// center/lz geometry and end-of-stream are the checked hazards.)
#[expect(
    clippy::indexing_slicing,
    reason = "7-bit indices address the 128-slot ring and 3-bit codes the 8-entry table"
)]
pub fn try_decompress_words_into<W: Word>(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<W>,
) -> Result<(), CodecError> {
    CodecError::unless_backed(NAME, bytes, count)?;
    let mut r = BitReader::new(bytes);
    out.clear();
    out.reserve(count);
    if count == 0 {
        return Ok(());
    }
    let mut ring = [W::ZERO; PREVIOUS_VALUES];
    let first = W::from_u64(r.read_bits(W::BITS));
    ring[0] = first;
    out.push(first);
    let mut prev = first;
    let mut stored_lz = 0u32;

    for i in 1..count {
        let flag = r.read_bits(2);
        let value = match flag {
            0b00 => {
                let idx = r.read_bits(PREV_LOG2) as usize;
                ring[idx]
            }
            0b01 => {
                let idx = r.read_bits(PREV_LOG2) as usize;
                let lz = LEADING_DECODE[r.read_bits(3) as usize];
                let mut center = r.read_bits(center_field::<W>()) as u32;
                if center == 0 {
                    center = W::BITS;
                }
                let tz = W::BITS.checked_sub(lz + center).ok_or(CodecError::Corrupt {
                    codec: NAME,
                    what: "center exceeds word width",
                })?;
                let xor = W::from_u64(r.read_bits(center) << tz);
                ring[idx] ^ xor
            }
            0b10 => {
                let len = W::BITS
                    .checked_sub(stored_lz)
                    .ok_or(CodecError::Corrupt { codec: NAME, what: "lz exceeds word width" })?;
                let xor = W::from_u64(r.read_bits(len));
                prev ^ xor
            }
            _ => {
                stored_lz = LEADING_DECODE[r.read_bits(3) as usize];
                let len = W::BITS
                    .checked_sub(stored_lz)
                    .ok_or(CodecError::Corrupt { codec: NAME, what: "lz exceeds word width" })?;
                let xor = W::from_u64(r.read_bits(len));
                prev ^ xor
            }
        };
        ring[i % PREVIOUS_VALUES] = value;
        out.push(value);
        prev = value;
    }
    if r.overrun() {
        return Err(CodecError::Truncated { codec: NAME });
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
    fn duplicates_far_apart_benefit_from_window() {
        // The same 40 values cycle with period 40 (< 128): Chimp128 should
        // find perfect references and beat Chimp clearly.
        let pool: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.7).sin()).collect();
        let data: Vec<f64> = (0..20_000).map(|i| pool[i % 40]).collect();
        roundtrip64(&data);
        let c128 = compress_f64(&data).len();
        let c = crate::chimp::compress_f64(&data).len();
        assert!(c128 * 2 < c, "chimp128 {c128} vs chimp {c}");
    }

    #[test]
    fn timeseries_roundtrip() {
        let data: Vec<f64> = (0..10_000).map(|i| 55.0 + ((i as f64) * 0.01).cos()).collect();
        roundtrip64(&data);
    }

    #[test]
    fn specials_roundtrip() {
        roundtrip64(&[f64::NAN, f64::NAN, -0.0, 0.0, f64::INFINITY, 1e-320, f64::MAX, f64::MIN]);
    }

    #[test]
    fn random_bits_roundtrip() {
        let data: Vec<f64> = (0..5000)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0xA24B_AED4_963E_E407)))
            .collect();
        roundtrip64(&data);
    }

    #[test]
    fn short_inputs() {
        roundtrip64(&[]);
        roundtrip64(&[1.0]);
        roundtrip64(&[1.0, 1.0]);
        roundtrip64(&[1.0, 2.0, 1.0]);
    }

    #[test]
    fn f32_roundtrip() {
        let pool: Vec<f32> = (0..60).map(|i| (i as f32) * 0.125).collect();
        let data: Vec<f32> = (0..8000).map(|i| pool[(i * 13) % 60]).collect();
        let bytes = compress_f32(&data);
        let back = try_decompress_f32(&bytes, data.len()).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
