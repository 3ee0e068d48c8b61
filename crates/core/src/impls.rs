//! [`ColumnCodec`] implementations — one value per scheme of the paper's
//! evaluation (a unit struct, or for the seven per-value baselines an
//! instance of [`Baseline`]), each registered exactly once in
//! [`crate::registry`].
//!
//! The impls are thin adapters: all compression logic lives in the `codecs`,
//! `alp`, and `gpzip` crates; this module only maps the uniform trait surface
//! onto each crate's native API and error model.

use crate::codec::{verify_lossless, Capabilities, ColumnCodec};
use crate::error::CoreError;
use crate::scratch::Scratch;

/// One of the seven per-value baselines of the paper's evaluation — the
/// registry's face of a [`codecs::Codec`]. The instances differ in nothing
/// but the codec they wrap and its stable registry id; the display name and
/// the 32-bit capability are the codec's own.
pub struct Baseline {
    codec: codecs::Codec,
    id: &'static str,
}

/// Gorilla (Facebook, VLDB'15).
pub static GORILLA: Baseline = Baseline { codec: codecs::Codec::Gorilla, id: "gorilla" };
/// Chimp (VLDB'22).
pub static CHIMP: Baseline = Baseline { codec: codecs::Codec::Chimp, id: "chimp" };
/// Chimp128 — Chimp with a 128-value reference window.
pub static CHIMP128: Baseline = Baseline { codec: codecs::Codec::Chimp128, id: "chimp128" };
/// Patas (DuckDB) — byte-aligned Chimp128 variant.
pub static PATAS: Baseline = Baseline { codec: codecs::Codec::Patas, id: "patas" };
/// PseudoDecimals (BtrBlocks, SIGMOD'23).
pub static PDE: Baseline = Baseline { codec: codecs::Codec::Pde, id: "pde" };
/// Elf (VLDB'23) — erase-then-XOR.
pub static ELF: Baseline = Baseline { codec: codecs::Codec::Elf, id: "elf" };
/// FPC (TC'09) — predictive FCM/DFCM scheme.
pub static FPC: Baseline = Baseline { codec: codecs::Codec::Fpc, id: "fpc" };

impl Baseline {
    /// The 32-bit entry points of a codec without a 32-bit variant answer
    /// with the registry's own `Unsupported`, like every other codec.
    fn require_f32(&self, what: &'static str) -> Result<(), CoreError> {
        if self.codec.supports_f32() {
            Ok(())
        } else {
            Err(CoreError::Unsupported { codec: self.id, what })
        }
    }
}

impl ColumnCodec for Baseline {
    fn id(&self) -> &'static str {
        self.id
    }
    fn name(&self) -> &'static str {
        self.codec.name()
    }
    fn caps(&self) -> Capabilities {
        Capabilities { f32: self.codec.supports_f32(), ..Capabilities::vector() }
    }
    fn try_compress_into(
        &self,
        data: &[f64],
        out: &mut Vec<u8>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        out.clear();
        out.extend_from_slice(&self.codec.compress_f64(data));
        Ok(())
    }
    /// Allocation-free once `out` and `scratch` are warm.
    fn try_decompress_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        self.codec.try_decompress_f64_into(bytes, count, out, &mut scratch.codecs)?;
        Ok(())
    }
    fn try_compress_f32_into(
        &self,
        data: &[f32],
        out: &mut Vec<u8>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        self.require_f32("32-bit compression")?;
        out.clear();
        out.extend_from_slice(&self.codec.compress_f32(data)?);
        Ok(())
    }
    fn try_decompress_f32_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        self.require_f32("32-bit decompression")?;
        self.codec.try_decompress_f32_into(bytes, count, out, &mut scratch.codecs)?;
        Ok(())
    }
}

/// ALP (this paper), serialized in its checksummed `ALP2` column format.
pub struct Alp;

impl ColumnCodec for Alp {
    fn id(&self) -> &'static str {
        "alp"
    }
    fn name(&self) -> &'static str {
        "ALP"
    }
    fn caps(&self) -> Capabilities {
        Capabilities {
            random_vector_access: true,
            f32: true,
            streaming_ingest: true,
            ..Capabilities::vector()
        }
    }
    fn try_compress_into(
        &self,
        data: &[f64],
        out: &mut Vec<u8>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        let compressed = alp::Compressor::new().compress(data);
        out.clear();
        out.extend_from_slice(&alp::format::to_bytes(&compressed));
        Ok(())
    }
    fn try_decompress_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f64>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        let compressed = alp::format::from_bytes::<f64>(bytes)?;
        if compressed.len != count {
            return Err(CoreError::LengthMismatch {
                codec: "alp",
                expected: count,
                actual: compressed.len,
            });
        }
        compressed.decompress_into(out);
        Ok(())
    }
    fn try_compress_f32_into(
        &self,
        data: &[f32],
        out: &mut Vec<u8>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        let compressed = alp::Compressor::new().compress(data);
        out.clear();
        out.extend_from_slice(&alp::format::to_bytes(&compressed));
        Ok(())
    }
    fn try_decompress_f32_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        let compressed = alp::format::from_bytes::<f32>(bytes)?;
        if compressed.len != count {
            return Err(CoreError::LengthMismatch {
                codec: "alp",
                expected: count,
                actual: compressed.len,
            });
        }
        compressed.decompress_into(out);
        Ok(())
    }
    /// Table 4 methodology: ALP's size is its exact in-memory bit accounting
    /// (vector headers + payload + exceptions), not the serialized file size
    /// with magic and integrity frames.
    fn verified_compressed_bits(
        &self,
        data: &[f64],
        _scratch: &mut Scratch,
    ) -> Result<usize, CoreError> {
        let compressed = alp::Compressor::new().compress(data);
        verify_lossless("alp", data, &compressed.decompress())?;
        Ok(compressed.compressed_bits())
    }
}

/// ALP behind a Dictionary/RLE cascade — the "LWC+ALP" column of Table 4.
/// Ratio-only: the cascade has no byte serialization.
pub struct LwcAlp;

impl ColumnCodec for LwcAlp {
    fn id(&self) -> &'static str {
        "lwc-alp"
    }
    fn name(&self) -> &'static str {
        "LWC+ALP"
    }
    fn caps(&self) -> Capabilities {
        Capabilities { ratio_only: true, cacheable_decode: false, ..Capabilities::vector() }
    }
    fn try_compress_into(
        &self,
        _data: &[f64],
        _out: &mut Vec<u8>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        Err(CoreError::Unsupported { codec: "lwc-alp", what: "byte serialization (ratio-only)" })
    }
    fn try_decompress_into(
        &self,
        _bytes: &[u8],
        _count: usize,
        _out: &mut Vec<f64>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        Err(CoreError::Unsupported { codec: "lwc-alp", what: "byte serialization (ratio-only)" })
    }
    fn verified_compressed_bits(
        &self,
        data: &[f64],
        _scratch: &mut Scratch,
    ) -> Result<usize, CoreError> {
        let compressed = alp::cascade::CascadeCompressor::new().compress(data);
        verify_lossless("lwc-alp", data, &compressed.decompress())?;
        Ok(compressed.compressed_bits())
    }
}

/// Converts staged little-endian bytes back into `out` after a GPZip inflate.
fn bytes_to_f64(
    codec: &'static str,
    raw: &[u8],
    count: usize,
    out: &mut Vec<f64>,
) -> Result<(), CoreError> {
    if count.checked_mul(8) != Some(raw.len()) {
        return Err(CoreError::LengthMismatch { codec, expected: count, actual: raw.len() / 8 });
    }
    out.clear();
    out.reserve(count);
    for chunk in raw.chunks_exact(8) {
        let mut le = [0u8; 8];
        le.copy_from_slice(chunk);
        out.push(f64::from_le_bytes(le));
    }
    Ok(())
}

/// Stages `data` as little-endian bytes into `scratch.bytes`.
fn f64_to_bytes(data: &[f64], scratch: &mut Scratch) {
    scratch.bytes.clear();
    scratch.bytes.reserve(data.len() * 8);
    for v in data {
        scratch.bytes.extend_from_slice(&v.to_le_bytes());
    }
}

/// GPZip default mode — the deflate-class general-purpose stand-in for Zstd.
pub struct Gpzip;

impl ColumnCodec for Gpzip {
    fn id(&self) -> &'static str {
        "gpzip"
    }
    fn name(&self) -> &'static str {
        "Zstd*"
    }
    fn caps(&self) -> Capabilities {
        Capabilities { block_based: true, ..Capabilities::vector() }
    }
    fn try_compress_into(
        &self,
        data: &[f64],
        out: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        f64_to_bytes(data, scratch);
        out.clear();
        out.extend_from_slice(&gpzip::compress(&scratch.bytes));
        Ok(())
    }
    fn try_decompress_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        gpzip::try_decompress_into(bytes, &mut scratch.bytes)?;
        bytes_to_f64("gpzip", &scratch.bytes, count, out)
    }
}

/// GPZip fast mode — the LZ4/Snappy-class point of the general-purpose
/// spectrum (greedy hash matching, no entropy stage).
pub struct GpzipFast;

impl ColumnCodec for GpzipFast {
    fn id(&self) -> &'static str {
        "gpzip-fast"
    }
    fn name(&self) -> &'static str {
        "LZ4*"
    }
    fn caps(&self) -> Capabilities {
        Capabilities { block_based: true, ..Capabilities::vector() }
    }
    fn try_compress_into(
        &self,
        data: &[f64],
        out: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        f64_to_bytes(data, scratch);
        out.clear();
        out.extend_from_slice(&gpzip::fast::compress(&scratch.bytes));
        Ok(())
    }
    fn try_decompress_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        gpzip::fast::try_decompress_into(bytes, &mut scratch.bytes)?;
        bytes_to_f64("gpzip-fast", &scratch.bytes, count, out)
    }
}
