//! The [`ColumnCodec`] trait: one compression abstraction for the whole
//! workspace.

use crate::error::CoreError;
use crate::scratch::Scratch;

/// What a codec can and cannot do — consumers branch on capabilities instead
/// of matching on concrete schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// A 32-bit float variant exists (Table 7's f32 benchmarks).
    pub f32: bool,
    /// The scheme reports exact compressed size but has no byte
    /// serialization — it participates in ratio tables only (LWC+ALP).
    pub ratio_only: bool,
    /// Decompression is block-granular: reading anything inflates a whole
    /// block (the general-purpose compressors). Vector-granular codecs leave
    /// this false.
    pub block_based: bool,
}

impl Capabilities {
    /// Defaults of a vector-granular, f64-only, fully serializable codec.
    pub const fn vector() -> Self {
        Capabilities { f32: false, ratio_only: false, block_based: false }
    }
}

/// A lossless floating-point column compressor.
///
/// The fallible `try_*` methods are the whole surface — they implement the
/// workspace's untrusted-input contract (return `Err`, never panic, never
/// read out of bounds) and write into caller-owned buffers so hot loops stay
/// allocation-free once the buffers are warm.
///
/// Every implementing value — a unit struct, or a `static` instance of a
/// shared adapter type — is registered exactly once in [`crate::registry`]
/// (its unit test pins the list).
pub trait ColumnCodec: Sync {
    /// Stable registry id (kebab-case, never changes once released).
    fn id(&self) -> &'static str;

    /// Display name matching the paper's tables.
    fn name(&self) -> &'static str;

    /// What this codec supports.
    fn caps(&self) -> Capabilities;

    /// Compresses `data` into `out` (cleared first).
    ///
    /// Errs with [`CoreError::Unsupported`] for ratio-only schemes.
    fn try_compress_into(
        &self,
        data: &[f64],
        out: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError>;

    /// Decompresses `count` values from untrusted `bytes` into `out`
    /// (cleared first), staging through `scratch`.
    fn try_decompress_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError>;

    /// Compresses a 32-bit float column into `out`. Defaults to
    /// [`CoreError::Unsupported`]; the XOR-family codecs override.
    fn try_compress_f32_into(
        &self,
        _data: &[f32],
        _out: &mut Vec<u8>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        Err(CoreError::Unsupported { codec: self.id(), what: "32-bit compression" })
    }

    /// Decompresses `count` 32-bit floats into `out`. Defaults to
    /// [`CoreError::Unsupported`]; the XOR-family codecs override.
    fn try_decompress_f32_into(
        &self,
        _bytes: &[u8],
        _count: usize,
        _out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        Err(CoreError::Unsupported { codec: self.id(), what: "32-bit decompression" })
    }

    /// Exact compressed size of `data` in bits, **verifying losslessness** on
    /// the way: the default compresses, decompresses, and compares bit
    /// patterns, erring with [`CoreError::NotLossless`] on any difference.
    ///
    /// Schemes whose accounted size is not their serialized size (ALP's
    /// in-memory bit accounting, the ratio-only cascade) override this.
    fn verified_compressed_bits(
        &self,
        data: &[f64],
        scratch: &mut Scratch,
    ) -> Result<usize, CoreError> {
        let mut stage = std::mem::take(&mut scratch.stage);
        let mut floats = std::mem::take(&mut scratch.floats);
        let result = (|| {
            self.try_compress_into(data, &mut stage, scratch)?;
            self.try_decompress_into(&stage, data.len(), &mut floats, scratch)?;
            verify_lossless(self.id(), data, &floats)?;
            Ok(stage.len() * 8)
        })();
        scratch.stage = stage;
        scratch.floats = floats;
        result
    }

    /// Compresses `data` as independent `chunk_values`-sized chunks on up to
    /// `threads` morsel-claiming workers, one [`Scratch`] per worker.
    /// Returns `(bytes, values)` per chunk in column order; the output is
    /// byte-identical at every thread count because chunk boundaries, not
    /// thread count, define the encoding units. See [`crate::par`].
    fn par_compress(
        &self,
        data: &[f64],
        chunk_values: usize,
        threads: usize,
    ) -> Result<Vec<(Vec<u8>, usize)>, CoreError> {
        crate::par::compress_chunks(self, data, chunk_values, threads)
    }

    /// Decompresses chunks produced by [`ColumnCodec::par_compress`] on up
    /// to `threads` workers (one [`Scratch`] each) and concatenates them in
    /// order. Values are identical to decompressing each chunk serially.
    fn par_decompress(
        &self,
        blocks: &[(Vec<u8>, usize)],
        threads: usize,
    ) -> Result<Vec<f64>, CoreError> {
        crate::par::decompress_chunks(self, blocks, threads)
    }
}

/// Bit-exact comparison shared by the verification paths.
pub(crate) fn verify_lossless(
    codec: &'static str,
    data: &[f64],
    back: &[f64],
) -> Result<(), CoreError> {
    if data.len() != back.len() {
        return Err(CoreError::LengthMismatch { codec, expected: data.len(), actual: back.len() });
    }
    for (index, (a, b)) in data.iter().zip(back).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(CoreError::NotLossless { codec, index });
        }
    }
    Ok(())
}
