//! Cascading lightweight compression — the "LWC+ALP" column of Table 4.
//!
//! On repetitive data a floating-point encoding is the wrong first step: the
//! paper plugs a DICTIONARY (or RLE, when repeats are consecutive) *in front*
//! of ALP and then compresses the dictionary / run values with ALP itself.
//! [`CascadeCompressor`] tries plain ALP, DICT+ALP, and RLE+ALP and keeps the
//! smallest.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use fastlanes::dict::DictEncoded;
use fastlanes::rle::Rle;
use fastlanes::{bitpack, bits_needed, VECTOR_SIZE};

use crate::rowgroup::{Compressed, Compressor};
use crate::traits::AlpFloat;

/// Which cascade won for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeScheme {
    /// Plain ALP (no cascade).
    Plain,
    /// Dictionary of distinct values; codes bit-packed, dictionary
    /// ALP-compressed.
    Dict,
    /// Run-length encoding; run values ALP-compressed, run lengths
    /// bit-packed.
    Rle,
}

/// A cascade-compressed column.
#[derive(Debug, Clone)]
pub enum CascadeCompressed<F: AlpFloat> {
    /// Plain ALP column.
    Plain(Compressed<F>),
    /// Dictionary cascade: packed codes + ALP-compressed dictionary.
    Dict {
        /// Bit-packed codes, one full 1024-vector at a time.
        packed_codes: Vec<Vec<u64>>,
        /// Bits per code.
        code_width: u8,
        /// ALP-compressed distinct values.
        dict: Compressed<F>,
        /// Total number of values.
        len: usize,
    },
    /// RLE cascade: ALP-compressed run values + packed run lengths.
    Rle {
        /// ALP-compressed run values.
        values: Compressed<F>,
        /// Run lengths (kept unpacked in memory; accounted packed).
        lengths: Vec<u32>,
        /// Bits per packed run length.
        length_width: u8,
        /// Total number of values.
        len: usize,
    },
}

impl<F: AlpFloat> CascadeCompressed<F> {
    /// The winning scheme.
    pub fn scheme(&self) -> CascadeScheme {
        match self {
            CascadeCompressed::Plain(_) => CascadeScheme::Plain,
            CascadeCompressed::Dict { .. } => CascadeScheme::Dict,
            CascadeCompressed::Rle { .. } => CascadeScheme::Rle,
        }
    }

    /// Exact compressed size in bits.
    pub fn compressed_bits(&self) -> usize {
        match self {
            CascadeCompressed::Plain(c) => c.compressed_bits(),
            CascadeCompressed::Dict { packed_codes, code_width, dict, .. } => {
                let codes = packed_codes.len() * (*code_width as usize * VECTOR_SIZE + 16);
                codes + dict.compressed_bits() + 64
            }
            CascadeCompressed::Rle { values, lengths, length_width, .. } => {
                values.compressed_bits() + lengths.len() * *length_width as usize + 64
            }
        }
    }

    /// Bits per value, comparable to Table 4.
    pub fn bits_per_value(&self) -> f64 {
        let len = match self {
            CascadeCompressed::Plain(c) => c.len,
            CascadeCompressed::Dict { len, .. } | CascadeCompressed::Rle { len, .. } => *len,
        };
        if len == 0 {
            0.0
        } else {
            self.compressed_bits() as f64 / len as f64
        }
    }

    /// Decompresses the whole column, bit-exactly.
    #[expect(
        clippy::indexing_slicing,
        reason = "codes come from `DictEncoded::encode` and index its own dictionary"
    )]
    pub fn decompress(&self) -> Vec<F> {
        match self {
            CascadeCompressed::Plain(c) => c.decompress(),
            CascadeCompressed::Dict { packed_codes, code_width, dict, len } => {
                let dict_values = dict.decompress();
                let mut out = Vec::with_capacity(*len);
                let mut buf = vec![0u64; VECTOR_SIZE];
                for packed in packed_codes {
                    bitpack::unpack(packed, *code_width as usize, &mut buf);
                    let remaining = *len - out.len();
                    for &code in buf.iter().take(remaining.min(VECTOR_SIZE)) {
                        out.push(dict_values[code as usize]);
                    }
                }
                out
            }
            CascadeCompressed::Rle { values, lengths, len, .. } => {
                let run_values = values.decompress();
                let mut out = Vec::with_capacity(*len);
                for (v, &l) in run_values.iter().zip(lengths) {
                    out.resize(out.len() + l as usize, *v);
                }
                out
            }
        }
    }
}

/// Compressor that tries the cascades and keeps the smallest result.
#[derive(Debug, Clone, Default)]
pub struct CascadeCompressor {
    inner: Compressor,
}

impl CascadeCompressor {
    /// Cascade compressor around a default ALP [`Compressor`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Compresses `data`, choosing among plain / DICT / RLE cascades.
    pub fn compress<F: AlpFloat>(&self, data: &[F]) -> CascadeCompressed<F> {
        let plain = CascadeCompressed::Plain(self.inner.compress(data));
        let mut best = plain;

        if let Some(dict) = self.try_dict(data) {
            if dict.compressed_bits() < best.compressed_bits() {
                best = dict;
            }
        }
        if let Some(rle) = self.try_rle(data) {
            if rle.compressed_bits() < best.compressed_bits() {
                best = rle;
            }
        }
        best
    }

    fn try_dict<F: AlpFloat>(&self, data: &[F]) -> Option<CascadeCompressed<F>> {
        if data.is_empty() {
            return None;
        }
        let bits: Vec<u64> = data.iter().map(|v| v.to_bits_u64()).collect();
        let encoded = DictEncoded::encode(&bits);
        // A dictionary only pays off on repetitive data; cap cardinality so the
        // build cost stays bounded on high-cardinality columns.
        if encoded.dict.len() > data.len() / 4 || encoded.dict.len() > (1 << 20) {
            return None;
        }
        let code_width = encoded.code_width();
        let mut packed_codes = Vec::with_capacity(encoded.codes.len().div_ceil(VECTOR_SIZE));
        let mut buf = [0u64; VECTOR_SIZE];
        for chunk in encoded.codes.chunks(VECTOR_SIZE) {
            for (i, slot) in buf.iter_mut().enumerate() {
                *slot = chunk.get(i).copied().unwrap_or(0) as u64;
            }
            packed_codes.push(bitpack::pack(&buf, code_width));
        }
        let dict_values: Vec<F> = encoded.dict.iter().map(|&b| F::from_bits_u64(b)).collect();
        let dict = self.inner.compress(&dict_values);
        Some(CascadeCompressed::Dict {
            packed_codes,
            // The cardinality cap above bounds the width at 20.
            code_width: code_width as u8,
            dict,
            len: data.len(),
        })
    }

    fn try_rle<F: AlpFloat>(&self, data: &[F]) -> Option<CascadeCompressed<F>> {
        if data.is_empty() {
            return None;
        }
        let bits: Vec<u64> = data.iter().map(|v| v.to_bits_u64()).collect();
        let rle = Rle::encode(&bits);
        // RLE pays off only when runs are long on average.
        if rle.run_count() * 4 > data.len() {
            return None;
        }
        let run_values: Vec<F> = rle.values.iter().map(|&b| F::from_bits_u64(b)).collect();
        let values = self.inner.compress(&run_values);
        let length_width = bits_needed(rle.lengths.iter().copied().max().unwrap_or(0) as u64);
        Some(CascadeCompressed::Rle {
            values,
            lengths: rle.lengths,
            length_width: length_width as u8, // <= 64
            len: data.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_lossless(data: &[f64]) -> CascadeCompressed<f64> {
        let c = CascadeCompressor::new().compress(data);
        let back = c.decompress();
        assert_eq!(back.len(), data.len());
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "idx {i}");
        }
        c
    }

    #[test]
    fn repetitive_data_picks_dict() {
        // 50 distinct high-precision values repeated many times.
        let pool: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.37).sin()).collect();
        let data: Vec<f64> = (0..200_000).map(|i| pool[(i * 7) % 50]).collect();
        let c = assert_lossless(&data);
        assert_eq!(c.scheme(), CascadeScheme::Dict);
        assert!(c.bits_per_value() < 10.0, "bpv {}", c.bits_per_value());
    }

    #[test]
    fn consecutive_repeats_pick_rle() {
        let mut data = Vec::new();
        for run in 0..200 {
            data.extend(std::iter::repeat_n((run as f64) * 0.5, 1000));
        }
        let c = assert_lossless(&data);
        assert_eq!(c.scheme(), CascadeScheme::Rle);
        assert!(c.bits_per_value() < 1.0, "bpv {}", c.bits_per_value());
    }

    #[test]
    fn decimal_data_stays_plain() {
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64) * 0.01).collect();
        let c = assert_lossless(&data);
        assert_eq!(c.scheme(), CascadeScheme::Plain);
    }

    #[test]
    fn cascade_never_worse_than_plain() {
        let cases: Vec<Vec<f64>> = vec![
            (0..50_000).map(|i| (i % 3) as f64).collect(),
            (0..50_000).map(|i| (i as f64) * 0.001).collect(),
            (0..50_000).map(|i| ((i as f64) * 0.1).sin()).collect(),
        ];
        for data in cases {
            let plain = Compressor::new().compress(&data);
            let cascade = CascadeCompressor::new().compress(&data);
            assert!(cascade.compressed_bits() <= plain.compressed_bits());
        }
    }

    #[test]
    fn empty_column() {
        let c = CascadeCompressor::new().compress::<f64>(&[]);
        assert_eq!(c.scheme(), CascadeScheme::Plain);
        assert!(c.decompress().is_empty());
    }
}
