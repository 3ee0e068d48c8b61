//! Baseline lossless floating-point codecs — the competitors of the ALP
//! paper's evaluation (§4): Gorilla, Chimp, Chimp128, Patas, Elf, and
//! PseudoDecimals (PDE). All are re-implemented from their original
//! descriptions (and, for Patas, the DuckDB design notes); each module's docs
//! record the exact stream layout and any simplification.
//!
//! Every codec is lossless for **arbitrary bit patterns** — NaN payloads,
//! signed zeros, infinities, subnormals — which the integration suite
//! property-tests.
//!
//! The XOR-family codecs are generic over [`word::Word`] so the same logic
//! serves `f64` and the `f32` variants Table 7 benchmarks.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod chimp;
pub mod chimp128;
pub mod cursor;
pub mod elf;
pub mod error;
pub mod fpc;
pub mod gorilla;
pub mod patas;
pub mod pde;
pub mod scratch;
pub mod word;

pub use error::CodecError;
pub use scratch::DecodeScratch;

/// Uniform handle over the six baselines (plus raw storage), used by the
/// benchmark harnesses to iterate "all schemes".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Gorilla (Facebook, VLDB'15).
    Gorilla,
    /// Chimp (VLDB'22).
    Chimp,
    /// Chimp128 — Chimp with a 128-value reference window.
    Chimp128,
    /// Patas (DuckDB) — byte-aligned Chimp128 variant.
    Patas,
    /// Elf (VLDB'23) — erase-then-XOR.
    Elf,
    /// PseudoDecimals (BtrBlocks, SIGMOD'23).
    Pde,
    /// FPC (TC'09) — predictive (FCM/DFCM) scheme; extra baseline from the
    /// paper's Related Work.
    Fpc,
}

impl Codec {
    /// The paper's six baselines, in its table order.
    pub const ALL: [Codec; 6] =
        [Codec::Gorilla, Codec::Chimp, Codec::Chimp128, Codec::Patas, Codec::Pde, Codec::Elf];

    /// All implemented baselines including the extra predictive scheme.
    pub const EXTENDED: [Codec; 7] = [
        Codec::Gorilla,
        Codec::Chimp,
        Codec::Chimp128,
        Codec::Patas,
        Codec::Pde,
        Codec::Elf,
        Codec::Fpc,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Codec::Gorilla => "Gorilla",
            Codec::Chimp => "Chimp",
            Codec::Chimp128 => "Chimp128",
            Codec::Patas => "Patas",
            Codec::Elf => "Elf",
            Codec::Pde => "PDE",
            Codec::Fpc => "FPC",
        }
    }

    /// Compresses a column of doubles.
    pub fn compress_f64(&self, data: &[f64]) -> Vec<u8> {
        match self {
            Codec::Gorilla => gorilla::compress_f64(data),
            Codec::Chimp => chimp::compress_f64(data),
            Codec::Chimp128 => chimp128::compress_f64(data),
            Codec::Patas => patas::compress_f64(data),
            Codec::Elf => elf::compress(data),
            Codec::Pde => pde::compress(data),
            Codec::Fpc => fpc::compress(data),
        }
    }

    /// Decompresses `count` doubles from untrusted `bytes`, returning an
    /// error instead of panicking on truncated or corrupt input.
    pub fn try_decompress_f64(&self, bytes: &[u8], count: usize) -> Result<Vec<f64>, CodecError> {
        match self {
            Codec::Gorilla => gorilla::try_decompress_f64(bytes, count),
            Codec::Chimp => chimp::try_decompress_f64(bytes, count),
            Codec::Chimp128 => chimp128::try_decompress_f64(bytes, count),
            Codec::Patas => patas::try_decompress_f64(bytes, count),
            Codec::Elf => elf::try_decompress(bytes, count),
            Codec::Pde => pde::try_decompress(bytes, count),
            Codec::Fpc => fpc::try_decompress(bytes, count),
        }
    }

    /// Decompresses `count` doubles from untrusted `bytes` into `out`
    /// (cleared first), staging through `scratch`. Allocation-free once the
    /// buffers are warm — this is the hot-loop variant of
    /// [`Codec::try_decompress_f64`].
    pub fn try_decompress_f64_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f64>,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CodecError> {
        match self {
            Codec::Gorilla => {
                gorilla::try_decompress_words_into::<u64>(bytes, count, &mut scratch.words64)?
            }
            Codec::Chimp => {
                chimp::try_decompress_words_into::<u64>(bytes, count, &mut scratch.words64)?
            }
            Codec::Chimp128 => {
                chimp128::try_decompress_words_into::<u64>(bytes, count, &mut scratch.words64)?
            }
            Codec::Patas => {
                patas::try_decompress_words_into::<u64>(bytes, count, &mut scratch.words64)?
            }
            Codec::Elf => return elf::try_decompress_into(bytes, count, out, &mut scratch.words64),
            Codec::Pde => return pde::try_decompress_into(bytes, count, out, &mut scratch.pde),
            Codec::Fpc => return fpc::try_decompress_into(bytes, count, out, &mut scratch.fpc),
        }
        out.clear();
        out.reserve(scratch.words64.len());
        out.extend(scratch.words64.iter().map(|&b| f64::from_bits(b)));
        Ok(())
    }

    /// Decompresses `count` 32-bit floats from untrusted `bytes` into `out`
    /// (cleared first), staging through `scratch`. Errs with
    /// [`CodecError::Unsupported`] for codecs without a 32-bit variant.
    pub fn try_decompress_f32_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f32>,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CodecError> {
        match self {
            Codec::Gorilla => {
                gorilla::try_decompress_words_into::<u32>(bytes, count, &mut scratch.words32)?
            }
            Codec::Chimp => {
                chimp::try_decompress_words_into::<u32>(bytes, count, &mut scratch.words32)?
            }
            Codec::Chimp128 => {
                chimp128::try_decompress_words_into::<u32>(bytes, count, &mut scratch.words32)?
            }
            Codec::Patas => {
                patas::try_decompress_words_into::<u32>(bytes, count, &mut scratch.words32)?
            }
            other => {
                return Err(CodecError::Unsupported {
                    codec: other.name(),
                    what: "32-bit decompression",
                })
            }
        }
        out.clear();
        out.reserve(scratch.words32.len());
        out.extend(scratch.words32.iter().map(|&b| f32::from_bits(b)));
        Ok(())
    }

    /// Whether a 32-bit float variant exists (Table 7: all XOR codecs do;
    /// Elf/PDE do not, as in the paper).
    pub fn supports_f32(&self) -> bool {
        matches!(self, Codec::Gorilla | Codec::Chimp | Codec::Chimp128 | Codec::Patas)
    }

    /// Compresses a column of 32-bit floats. Errs with
    /// [`CodecError::Unsupported`] for codecs without a 32-bit variant
    /// (check [`Codec::supports_f32`] first to avoid the `Result`).
    pub fn compress_f32(&self, data: &[f32]) -> Result<Vec<u8>, CodecError> {
        match self {
            Codec::Gorilla => Ok(gorilla::compress_f32(data)),
            Codec::Chimp => Ok(chimp::compress_f32(data)),
            Codec::Chimp128 => Ok(chimp128::compress_f32(data)),
            Codec::Patas => Ok(patas::compress_f32(data)),
            other => {
                Err(CodecError::Unsupported { codec: other.name(), what: "32-bit compression" })
            }
        }
    }

    /// Decompresses `count` 32-bit floats from untrusted `bytes`. Errs with
    /// [`CodecError::Unsupported`] for codecs without a 32-bit variant, and
    /// with the usual taxonomy on truncated or corrupt input.
    pub fn decompress_f32(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>, CodecError> {
        match self {
            Codec::Gorilla => gorilla::try_decompress_f32(bytes, count),
            Codec::Chimp => chimp::try_decompress_f32(bytes, count),
            Codec::Chimp128 => chimp128::try_decompress_f32(bytes, count),
            Codec::Patas => patas::try_decompress_f32(bytes, count),
            other => {
                Err(CodecError::Unsupported { codec: other.name(), what: "32-bit decompression" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_codec_roundtrips_a_simple_column() {
        let data: Vec<f64> = (0..3000).map(|i| (i as f64) * 0.1).collect();
        for codec in Codec::ALL {
            let bytes = codec.compress_f64(&data);
            let back = codec.try_decompress_f64(&bytes, data.len()).unwrap();
            assert_eq!(back.len(), data.len(), "{}", codec.name());
            for (i, (a, b)) in data.iter().zip(&back).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{} idx {i}", codec.name());
            }
        }
    }

    /// Found by the differential driver: told a count the bytes could not
    /// back, the bit-reader codecs decoded (and stored) that many zero-filled
    /// values before reporting the truncation, and the others reserved for it.
    #[test]
    fn a_count_the_bytes_cannot_back_is_refused_before_anything_is_reserved() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        for codec in Codec::ALL {
            let bytes = codec.compress_f64(&data);
            let mut out = Vec::new();
            for lie in [bytes.len() * 8 + 1, 1 << 40, usize::MAX] {
                let result = codec.try_decompress_f64_into(
                    &bytes,
                    lie,
                    &mut out,
                    &mut DecodeScratch::default(),
                );
                assert!(result.is_err(), "{} told {lie} values", codec.name());
                assert!(
                    out.capacity() <= bytes.len() * 8,
                    "{} reserved {}",
                    codec.name(),
                    out.capacity()
                );
            }
        }
    }

    #[test]
    fn f32_support_matches_paper() {
        assert!(Codec::Gorilla.supports_f32());
        assert!(Codec::Patas.supports_f32());
        assert!(!Codec::Elf.supports_f32());
        assert!(!Codec::Pde.supports_f32());
    }

    #[test]
    fn f32_on_unsupported_codec_errs_instead_of_panicking() {
        for codec in [Codec::Elf, Codec::Pde, Codec::Fpc] {
            assert!(matches!(codec.compress_f32(&[1.0, 2.0]), Err(CodecError::Unsupported { .. })));
            assert!(matches!(
                codec.decompress_f32(&[0u8; 16], 2),
                Err(CodecError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn f32_roundtrips_through_the_fallible_api() {
        let data: Vec<f32> = (0..2000).map(|i| (i as f32) * 0.125).collect();
        for codec in Codec::EXTENDED.into_iter().filter(|c| c.supports_f32()) {
            let bytes = codec.compress_f32(&data).unwrap();
            let back = codec.decompress_f32(&bytes, data.len()).unwrap();
            assert_eq!(back.len(), data.len(), "{}", codec.name());
            for (a, b) in data.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", codec.name());
            }
        }
    }
}
