//! Elf (Li et al., VLDB'23) — *erase-then-XOR* compression.
//!
//! Elf observes that a double which originated as a decimal with `α` digits
//! after the point carries mantissa bits that are redundant given `α`: they
//! can be zeroed ("erased") at encode time and reconstructed at decode time
//! by re-rounding to `α` decimals. The erased values have far more trailing
//! zeros, so the XOR back-end compresses them much better; the price is
//! per-value decimal analysis at both ends — exactly the speed/ratio trade
//! the ALP paper measures (≈4x slower than Chimp-family, better ratio).
//!
//! This reproduction keeps Elf's structure but simplifies the bit-erasure
//! search (documented in DESIGN.md): per value we store a 1-bit "erased" flag
//! and, when set, a 4-bit decimal precision `α ∈ 0..=14`; reconstruction is
//! `round(erased * 10^α) / 10^α`, where the division by an exact power of ten
//! is correctly rounded and therefore recovers the original double bit-exactly
//! (this is verified at encode time; failures fall back to the raw path).
//! The erased stream is compressed with the Chimp back-end, as Elf builds on
//! a Gorilla/Chimp-style XOR stage.

use bitstream::{BitReader, BitWriter};

use crate::error::CodecError;
use crate::word::Word;

const NAME: &str = "elf";

const MAX_ALPHA: u32 = 14;

/// Number of decimal digits after the point in the shortest representation,
/// or `None` if the value is not finite / has too many digits to exploit.
fn visible_precision(v: f64) -> Option<u32> {
    if !v.is_finite() {
        return None;
    }
    let s = format!("{v}");
    let p = match s.find('.') {
        Some(dot) => (s.len() - dot - 1) as u32,
        None => 0,
    };
    (p <= MAX_ALPHA).then_some(p)
}

/// Attempts to erase trailing mantissa bits of `v` given precision `alpha`.
/// Returns the erased value, or `None` if `v` cannot be reconstructed from
/// `(erased, alpha)`.
fn erase(v: f64, alpha: u32) -> Option<f64> {
    let pow = 10f64.powi(alpha as i32);
    let scaled = v * pow;
    if !scaled.is_finite() || scaled.abs() >= 9.007_199_254_740_992e15 {
        return None;
    }
    let d = scaled.round();
    // Reconstruction must be bit-exact (division by 10^alpha is correctly
    // rounded, so this recovers exactly the nearest double to d * 10^-alpha).
    if (d / pow).to_bits() != v.to_bits() {
        return None;
    }
    // Zero trailing mantissa bits while reconstruction still works. Erasing
    // monotonically coarsens the value, so scan from aggressive to none.
    let bits = v.to_bits();
    for erased_bits in (1..52u32).rev() {
        let mask = !((1u64 << erased_bits) - 1);
        let cand = f64::from_bits(bits & mask);
        if restore(cand, alpha).to_bits() == v.to_bits() {
            return Some(cand);
        }
    }
    Some(v)
}

/// Reconstructs the original value from an erased value and its precision.
fn restore(erased: f64, alpha: u32) -> f64 {
    let pow = 10f64.powi(alpha as i32);
    (erased * pow).round() / pow
}

/// Compresses a column of doubles.
pub fn compress(data: &[f64]) -> Vec<u8> {
    // Pass 1: erase what can be erased, remember flags/alphas.
    let mut erased_stream: Vec<u64> = Vec::with_capacity(data.len());
    let mut flags = BitWriter::with_capacity(data.len() / 8 + 8);
    for &v in data {
        let mut done = false;
        if let Some(alpha) = visible_precision(v) {
            if let Some(e) = erase(v, alpha) {
                flags.write_bit(true);
                flags.write_bits(alpha as u64, 4);
                erased_stream.push(e.to_bits());
                done = true;
            }
        }
        if !done {
            flags.write_bit(false);
            erased_stream.push(v.to_bits());
        }
    }
    // Pass 2: XOR-compress the erased stream with the Chimp back-end.
    let xor_bytes = crate::chimp::compress_words(&erased_stream);
    let flag_bytes = flags.into_bytes();

    let mut out = Vec::with_capacity(8 + flag_bytes.len() + xor_bytes.len());
    out.extend_from_slice(&(flag_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&flag_bytes);
    out.extend_from_slice(&xor_bytes);
    out
}

/// Decompresses `count` doubles into `out` (cleared first), validating every
/// field against the input. `words` is the scratch buffer for the erased XOR
/// stream; the call is allocation-free once both buffers have capacity.
///
/// Checked hazards: the flag-stream length prefix (can claim more bytes than
/// exist), flag-stream exhaustion, precision values past `MAX_ALPHA`, and
/// whatever the Chimp back-end detects in the XOR stream.
pub fn try_decompress_into(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<f64>,
    words: &mut Vec<u64>,
) -> Result<(), CodecError> {
    let Some((len_bytes, rest)) = bytes.split_first_chunk::<8>() else {
        return Err(CodecError::Truncated { codec: NAME });
    };
    let flag_len = u64::from_le_bytes(*len_bytes) as usize;
    let Some((flag_bytes, xor_bytes)) = rest.split_at_checked(flag_len) else {
        return Err(CodecError::Truncated { codec: NAME });
    };
    crate::chimp::try_decompress_words_into(xor_bytes, count, words)?;

    let mut flags = BitReader::new(flag_bytes);
    out.clear();
    out.reserve(count); // bounded by the bytes: checked above
    for &bits in words.iter() {
        let v = f64::from_bits(bits);
        if flags.read_bit() {
            let alpha = flags.read_bits(4) as u32;
            if alpha > MAX_ALPHA {
                return Err(CodecError::Corrupt { codec: NAME, what: "precision out of range" });
            }
            out.push(restore(v, alpha));
        } else {
            out.push(v);
        }
    }
    if flags.overrun() {
        return Err(CodecError::Truncated { codec: NAME });
    }
    Ok(())
}

/// Decompresses `count` doubles into fresh vectors — see
/// [`try_decompress_into`] for the allocation-free variant.
pub fn try_decompress(bytes: &[u8], count: usize) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::new();
    let mut words = Vec::new();
    try_decompress_into(bytes, count, &mut out, &mut words)?;
    Ok(out)
}

/// Word-width guard: Elf is only defined for doubles here, as in the paper's
/// evaluation (no 32-bit Elf exists).
pub fn assert_f64_only<W: Word>() {
    assert_eq!(W::BITS, 64, "Elf is implemented for f64 only");
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
    fn decimal_data_roundtrips_and_beats_chimp() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 7.0 + 3.0) / 100.0).collect();
        let elf_size = roundtrip(&data);
        let chimp_size = crate::chimp::compress_f64(&data).len();
        assert!(elf_size < chimp_size, "elf {elf_size} vs chimp {chimp_size}");
    }

    #[test]
    fn erase_recovers_paper_example() {
        let v = 8.0605f64;
        let e = erase(v, 4).expect("erasable");
        assert_eq!(restore(e, 4).to_bits(), v.to_bits());
        // Erasure must produce at least as many trailing zero bits.
        assert!(e.to_bits().trailing_zeros() >= v.to_bits().trailing_zeros());
    }

    #[test]
    fn full_precision_values_fall_back_to_raw() {
        let data: Vec<f64> = (0..1000).map(|i| ((i as f64) * 0.7391).sin()).collect();
        roundtrip(&data);
    }

    #[test]
    fn specials_roundtrip() {
        roundtrip(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 5e-324]);
    }

    #[test]
    fn mixed_precision_roundtrip() {
        let mut data = Vec::new();
        for i in 0..2000 {
            data.push(match i % 4 {
                0 => (i as f64) / 10.0,
                1 => (i as f64) / 10_000.0,
                2 => (i as f64) * 1.0,
                _ => ((i as f64) * 0.123).cos(),
            });
        }
        roundtrip(&data);
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[std::f64::consts::E]);
    }
}
