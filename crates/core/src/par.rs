//! `alp_core::par` — the codec-level parallel helpers behind
//! [`ColumnCodec::par_compress`] and [`ColumnCodec::par_decompress`].
//!
//! They run on the workspace's one morsel scheduler, [`alp::par`] (this
//! crate depends on `alp`, not the other way around, so placing it there
//! lets `alp::Compressor::compress_parallel` use the same queue); every
//! caller imports the scheduler from there.
//!
//! The helpers in this module parallelize any registered codec by splitting
//! the column into fixed-size chunks and treating each chunk as one morsel.
//! Scratch ownership follows DESIGN.md §10: every worker builds exactly one
//! [`Scratch`] before its claim loop and reuses it across all chunks it
//! claims, so the zero-alloc-after-warm-up discipline of
//! `tests/alloc_discipline.rs` holds per worker.

use alp::par::try_map_morsels;
use alp::ConfigError;

use crate::codec::ColumnCodec;
use crate::error::CoreError;
use crate::scratch::Scratch;

/// Default values per parallel chunk: one paper row-group (100 × 1024).
/// Large enough that per-chunk headers are noise, small enough that a
/// multi-row-group column fans out across workers.
pub const DEFAULT_CHUNK_VALUES: usize = 100 * 1024;

/// Compresses `data` as independent `chunk_values`-sized chunks on up to
/// `threads` morsel-claiming workers. Returns `(bytes, values)` per chunk,
/// in column order — byte-identical to compressing the same chunks serially,
/// at every thread count, because chunk boundaries (not thread count) define
/// the encoding units.
pub fn compress_chunks<C: ColumnCodec + ?Sized>(
    codec: &C,
    data: &[f64],
    chunk_values: usize,
    threads: usize,
) -> Result<Vec<(Vec<u8>, usize)>, CoreError> {
    if chunk_values == 0 {
        return Err(CoreError::Config(ConfigError { param: "chunk_values" }));
    }
    let morsels = data.len().div_ceil(chunk_values);
    try_map_morsels(
        threads,
        morsels,
        Scratch::new,
        |scratch, m| -> Result<(Vec<u8>, usize), CoreError> {
            let start = m * chunk_values;
            let end = (start + chunk_values).min(data.len());
            let chunk = &data[start..end];
            let mut bytes = Vec::new();
            codec.try_compress_into(chunk, &mut bytes, scratch)?;
            Ok((bytes, chunk.len()))
        },
    )
}

/// Decompresses chunks produced by [`compress_chunks`] on up to `threads`
/// workers and concatenates them in order. Each worker owns one [`Scratch`].
pub fn decompress_chunks<C: ColumnCodec + ?Sized>(
    codec: &C,
    blocks: &[(Vec<u8>, usize)],
    threads: usize,
) -> Result<Vec<f64>, CoreError> {
    let parts = try_map_morsels(
        threads,
        blocks.len(),
        Scratch::new,
        |scratch, m| -> Result<Vec<f64>, CoreError> {
            let (bytes, count) = &blocks[m];
            let mut part = Vec::new();
            codec.try_decompress_into(bytes, *count, &mut part, scratch)?;
            Ok(part)
        },
    )?;
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in &parts {
        out.extend_from_slice(p);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(
                |i| if i % 500 == 499 { (i as f64).sqrt() * 1e-6 } else { (i % 997) as f64 * 0.25 },
            )
            .collect()
    }

    #[test]
    fn zero_chunk_size_is_a_typed_config_error() {
        let codec = Registry::get("gorilla").unwrap();
        let err = compress_chunks(codec, &sample(100), 0, 2).unwrap_err();
        assert!(matches!(err, CoreError::Config(ConfigError { param: "chunk_values" })));
    }

    #[test]
    fn chunked_roundtrip_across_thread_counts() {
        let data = sample(10_000);
        let codec = Registry::get("chimp128").unwrap();
        let reference = compress_chunks(codec, &data, 1024, 1).unwrap();
        for threads in [1, 2, 7] {
            let blocks = compress_chunks(codec, &data, 1024, threads).unwrap();
            assert_eq!(blocks, reference, "t={threads}");
            let back = decompress_chunks(codec, &blocks, threads).unwrap();
            assert_eq!(back.len(), data.len());
            for (a, b) in data.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn ratio_only_codecs_surface_unsupported() {
        let codec = Registry::get("lwc-alp").unwrap();
        let err = compress_chunks(codec, &sample(2048), 1024, 2).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }

    #[test]
    fn empty_column_yields_no_chunks() {
        let codec = Registry::get("gorilla").unwrap();
        let blocks = compress_chunks(codec, &[], 1024, 4).unwrap();
        assert!(blocks.is_empty());
        assert!(decompress_chunks(codec, &blocks, 4).unwrap().is_empty());
    }
}
