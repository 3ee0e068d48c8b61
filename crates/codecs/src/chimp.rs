//! Chimp (Liakos, Papakonstantinopoulou, Kotidis — VLDB'22).
//!
//! Like Gorilla, Chimp XORs each value with its predecessor, but it chooses
//! among **four** encoding modes via a 2-bit flag:
//!
//! * `00` — XOR is zero.
//! * `01` — XOR has more than [`TZ_THRESHOLD`] trailing zeros: write a 3-bit
//!   rounded leading-zero code, a center-bit count, then the center bits.
//! * `10` — leading zeros match the previously stored count: write the
//!   remaining `BITS - lz` bits (trailing zeros included).
//! * `11` — new leading-zero count: 3-bit code, then `BITS - lz` bits.
//!
//! Leading-zero counts are rounded down to {0, 8, 12, 16, 18, 20, 22, 24} so
//! they fit a 3-bit code — the tables below are the reference ones.

use bitstream::{BitReader, BitWriter};

use crate::error::CodecError;
use crate::word::{bits_f32, bits_f64, f32_bits, f64_bits, Word};

const NAME: &str = "chimp";

/// Trailing zeros beyond this trigger the center-bits mode (`01`).
pub const TZ_THRESHOLD: u32 = 6;

/// Rounded leading-zero value for each raw count 0..=64 (reference table).
pub(crate) const LEADING_ROUND: [u32; 65] = [
    0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8, 12, 12, 12, 12, 16, 16, 18, 18, 20, 20, 22, 22, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
];

/// 3-bit code for each rounded leading-zero count.
pub(crate) const LEADING_REPR: [u64; 65] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7,
];

/// Rounded leading-zero count for each 3-bit code.
pub(crate) const LEADING_DECODE: [u32; 8] = [0, 8, 12, 16, 18, 20, 22, 24];

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
    reason = "the 65-entry tables are indexed by a leading-zero count, at most 64"
)]
pub fn compress_words<W: Word>(data: &[W]) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(data.len() * (W::BITS as usize / 8) + 16);
    let mut prev = W::ZERO;
    let mut stored_lz = u32::MAX;
    for (i, &value) in data.iter().enumerate() {
        if i == 0 {
            w.write_bits(value.to_u64(), W::BITS);
            prev = value;
            continue;
        }
        let xor = value ^ prev;
        if xor == W::ZERO {
            w.write_bits(0b00, 2);
            stored_lz = u32::MAX;
        } else {
            let lz = LEADING_ROUND[xor.leading_zeros() as usize];
            let tz = xor.trailing_zeros();
            if tz > TZ_THRESHOLD {
                let center = W::BITS - lz - tz;
                w.write_bits(0b01, 2);
                w.write_bits(LEADING_REPR[lz as usize], 3);
                // center is 1..=BITS-TZ-1; encode BITS as 0 (cannot occur here
                // but keeps the field width uniform).
                w.write_bits((center % W::BITS) as u64, center_field::<W>());
                w.write_bits(xor.to_u64() >> tz, center);
                stored_lz = u32::MAX;
            } else if lz == stored_lz {
                w.write_bits(0b10, 2);
                w.write_bits(xor.to_u64(), W::BITS - lz);
            } else {
                w.write_bits(0b11, 2);
                w.write_bits(LEADING_REPR[lz as usize], 3);
                w.write_bits(xor.to_u64(), W::BITS - lz);
                stored_lz = lz;
            }
        }
        prev = value;
    }
    w.into_bytes()
}

/// Decompresses `count` words into `out` (cleared first), validating every
/// field against the input. Allocation-free once `out` has capacity.
#[expect(clippy::indexing_slicing, reason = "a 3-bit code indexes the 8-entry table")]
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
    let mut prev = W::from_u64(r.read_bits(W::BITS));
    out.push(prev);
    let mut stored_lz = 0u32;
    for _ in 1..count {
        let flag = r.read_bits(2);
        let value = match flag {
            0b00 => prev,
            0b01 => {
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
                prev ^ xor
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
    fn leading_tables_are_consistent() {
        for lz in 0..=64usize {
            let rounded = LEADING_ROUND[lz];
            assert!(rounded as usize <= lz);
            assert_eq!(LEADING_DECODE[LEADING_REPR[lz] as usize], rounded);
        }
    }

    #[test]
    fn timeseries_roundtrip() {
        let data: Vec<f64> = (0..5000).map(|i| 100.0 + ((i as f64) * 0.003).sin() * 5.0).collect();
        roundtrip64(&data);
    }

    #[test]
    fn specials_roundtrip() {
        roundtrip64(&[f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-310, 0.0]);
    }

    #[test]
    fn random_bits_roundtrip() {
        let data: Vec<f64> = (0..4000)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0xD134_2543_DE82_EF95) | 1))
            .collect();
        roundtrip64(&data);
    }

    #[test]
    fn repeated_values_compress_to_two_bits() {
        let data = vec![9.5f64; 8000];
        let bytes = compress_f64(&data);
        assert!(bytes.len() <= 8 + 2 * 8000 / 8 + 8, "{} bytes", bytes.len());
        roundtrip64(&data);
    }

    #[test]
    fn f32_roundtrip() {
        let data: Vec<f32> = (0..3000).map(|i| (i as f32) * 0.25 - 17.0).collect();
        let bytes = compress_f32(&data);
        let back = try_decompress_f32(&bytes, data.len()).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
