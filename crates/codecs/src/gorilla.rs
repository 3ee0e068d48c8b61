//! Gorilla floating-point compression (Pelkonen et al., VLDB'15, §4.1.2).
//!
//! Each value is XORed with the immediately previous one:
//!
//! * XOR == 0 → control bit `0`.
//! * XOR != 0 → control bit `1`, then:
//!   * `0` if the meaningful bits fall inside the previous value's window
//!     (leading zeros ≥ stored, trailing zeros ≥ stored): re-use the stored
//!     window and write only its bits.
//!   * `1` otherwise: write 5/6 bits of leading-zero count, `LEN_BITS` bits of
//!     meaningful-bit count (count `BITS` wraps to 0), then the bits.
//!
//! The first value is stored verbatim. Generic over [`Word`]: `u64` for the
//! paper's doubles, `u32` for the Table 7 floats.

use bitstream::{BitReader, BitWriter};

use crate::error::CodecError;
use crate::word::{bits_f32, bits_f64, f32_bits, f64_bits, Word};

const NAME: &str = "gorilla";

/// Bits used for the leading-zero count field.
const LZ_FIELD: u32 = 6;
/// Leading-zero counts are capped so they fit the field comfortably.
const MAX_LZ: u32 = 63;

const fn len_field<W: Word>() -> u32 {
    // Meaningful length is 1..=BITS; BITS wraps to 0, so log2(BITS) bits do.
    if W::BITS == 64 {
        6
    } else {
        5
    }
}

/// Compresses a column of words.
pub fn compress_words<W: Word>(data: &[W]) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(data.len() * (W::BITS as usize / 8) + 16);
    let mut prev = W::ZERO;
    let mut stored_lz = u32::MAX; // forces a fresh window on first non-zero XOR
    let mut stored_tz = 0u32;
    for (i, &value) in data.iter().enumerate() {
        if i == 0 {
            w.write_bits(value.to_u64(), W::BITS);
            prev = value;
            continue;
        }
        let xor = value ^ prev;
        if xor == W::ZERO {
            w.write_bit(false);
        } else {
            w.write_bit(true);
            let lz = xor.leading_zeros().min(MAX_LZ);
            let tz = xor.trailing_zeros();
            if stored_lz != u32::MAX && lz >= stored_lz && tz >= stored_tz {
                // Fits the stored window.
                w.write_bit(false);
                let len = W::BITS - stored_lz - stored_tz;
                w.write_bits(xor.to_u64() >> stored_tz, len);
            } else {
                w.write_bit(true);
                stored_lz = lz;
                stored_tz = tz;
                let len = W::BITS - lz - tz;
                w.write_bits(lz as u64, LZ_FIELD);
                // len is 1..=BITS; BITS encodes as 0.
                w.write_bits((len % W::BITS) as u64, len_field::<W>());
                w.write_bits(xor.to_u64() >> tz, len);
            }
        }
        prev = value;
    }
    w.into_bytes()
}

/// Decompresses `count` words into `out` (cleared first), validating every
/// field against the input. Allocation-free once `out` has capacity.
///
/// Returns an error if the stream is truncated (any bit-level read ran past
/// the end of `bytes`) or a window descriptor is impossible (`lz + len`
/// exceeding the word width — only corrupt input can produce it).
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
    let mut stored_tz = 0u32;
    for _ in 1..count {
        let value = if !r.read_bit() {
            prev
        } else {
            if r.read_bit() {
                stored_lz = r.read_bits(LZ_FIELD) as u32;
                let mut len = r.read_bits(len_field::<W>()) as u32;
                if len == 0 {
                    len = W::BITS;
                }
                stored_tz = W::BITS.checked_sub(stored_lz + len).ok_or(CodecError::Corrupt {
                    codec: NAME,
                    what: "window exceeds word width",
                })?;
            }
            let len = W::BITS - stored_lz - stored_tz;
            let xor = W::from_u64(r.read_bits(len) << stored_tz);
            prev ^ xor
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

/// Compresses 32-bit floats (Table 7 variant).
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
        assert_eq!(back.len(), data.len());
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "idx {i}");
        }
    }

    #[test]
    fn empty_and_single() {
        roundtrip64(&[]);
        roundtrip64(&[42.5]);
        roundtrip64(&[f64::NAN]);
    }

    #[test]
    fn timeseries_like_data() {
        let data: Vec<f64> = (0..5000).map(|i| 20.0 + ((i as f64) * 0.01).sin()).collect();
        roundtrip64(&data);
    }

    #[test]
    fn repeated_values_cost_one_bit() {
        let data = vec![3.25f64; 10_000];
        let bytes = compress_f64(&data);
        // 64 bits + ~1 bit/value.
        assert!(bytes.len() < 8 + 10_000 / 8 + 16, "{} bytes", bytes.len());
        roundtrip64(&data);
    }

    #[test]
    fn adversarial_bit_patterns() {
        let data: Vec<f64> = (0..2000)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        roundtrip64(&data);
    }

    #[test]
    fn full_window_xor() {
        // Consecutive values whose XOR spans all 64 bits (len == 64 wraps to 0
        // in the length field).
        let data =
            vec![f64::from_bits(0x8000_0000_0000_0001), f64::from_bits(0x7FFF_FFFF_FFFF_FFFE)];
        roundtrip64(&data);
    }

    #[test]
    fn f32_roundtrip() {
        let data: Vec<f32> = (0..3000).map(|i| ((i as f32) * 0.37).cos()).collect();
        let bytes = compress_f32(&data);
        let back = try_decompress_f32(&bytes, data.len()).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_full_window_xor() {
        let data = vec![f32::from_bits(0x8000_0001), f32::from_bits(0x7FFF_FFFE)];
        let bytes = compress_f32(&data);
        let back = try_decompress_f32(&bytes, 2).unwrap();
        assert_eq!(back[1].to_bits(), data[1].to_bits());
    }
}
