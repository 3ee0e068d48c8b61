//! # ALP: Adaptive Lossless floating-Point compression
//!
//! A from-scratch Rust reproduction of *ALP: Adaptive Lossless floating-Point
//! Compression* (Afroozeh, Kuffó, Boncz — SIGMOD). ALP losslessly encodes
//! vectors of 1024 doubles (or floats) either as **decimals** — integers plus
//! a per-vector exponent/factor pair, bit-packed with fused
//! frame-of-reference — or, for truly high-precision "real doubles", with the
//! **ALP_rd** front-bits scheme (dictionary-compressed front bits + verbatim
//! tail bits).
//!
//! The encoding is *adaptive* (a two-level sampling scheme chooses the scheme
//! per row-group and the parameters per vector) and *vectorized* (all hot
//! loops run over 1024-value vectors with no per-value branch on the value
//! path; what the compiler makes of each is measured by the benchmark's
//! layer ladder, EXPERIMENTS.md E15).
//!
//! ## Quick start
//! ```
//! use alp::Compressor;
//!
//! let prices: Vec<f64> = (0..10_000).map(|i| (999 + i % 500) as f64 / 100.0).collect();
//! let compressed = Compressor::new().compress(&prices);
//! assert!(compressed.bits_per_value() < 16.0); // ~64 bits uncompressed
//! let restored = compressed.decompress();
//! assert_eq!(prices, restored); // bit-exact
//! ```
//!
//! ## Crate map
//! * [`encode`] / [`decode`] — the `ALP_enc`/`ALP_dec` kernels of Algorithms 1–2.
//! * [`sampler`] — the two-level adaptive sampling of §3.2.
//! * [`rd`] — ALP_rd for real doubles, §3.4.
//! * [`rowgroup`] — the column-level [`Compressor`] tying it together.
//! * [`mod@format`] — the row-group body codec and the `"ALP2"` column header.
//! * [`frame`] — the one integrity layer under columns, streams and containers:
//!   the `len | xxh64 | body` frame, `"ALPP"` parity frames, single-loss repair.
//! * [`cascade`] — Dictionary/RLE cascades (the "LWC+ALP" column of Table 4).
//! * [`stream`] — incremental `std::io` writer/reader (one row-group in memory):
//!   the `"ALPT"` header, terminator and commit footer around [`frame`]s.
//! * [`pipeline`] — the same stream bytes with compression on a worker pool.
//! * [`archive`] — the one way to open a file of either layout: sniff, strict
//!   read, salvage, verdict.
//! * [`mod@io`] — fault injection, bounded retry, and the fault taxonomy.
//! * [`par`] — the morsel-driven scheduler behind the `*_parallel` paths.
//! * [`analysis`] — the dataset statistics of Table 2.

pub mod analysis;
pub mod archive;
pub mod cascade;
pub mod decode;
pub mod encode;
pub mod format;
pub mod frame;
pub mod hash;
pub mod io;
pub mod par;
pub mod pipeline;
pub mod rd;
pub mod rowgroup;
pub mod sampler;
pub mod stream;
pub mod traits;
pub(crate) mod wire;

pub use decode::{
    scan_decoded, scan_vector, sum_decoded, sum_decoded_planned, sum_vector, BlockRoute,
    VectorScan, VectorSum, SCAN_WORDS,
};
pub use encode::{
    decode_one, encode_one, fast_round, AlpVector, ExcArena, ExcView, OwnedAlpVector,
};
pub use fastlanes::tier;
pub use frame::ParityConfig;
pub use par::MorselFailure;
pub use pipeline::{IngestError, PipelineConfig, PipelinedColumnWriter};
pub use rowgroup::{AlpGroup, Compressed, Compressor, RowGroup, Scheme};
pub use sampler::{Combination, ConfigError, SamplerParams, SamplerStats};
pub use traits::AlpFloat;

/// Values per vector — the unit of vectorized execution.
pub const VECTOR_SIZE: usize = fastlanes::VECTOR_SIZE;
