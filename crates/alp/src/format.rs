//! Byte serialization of compressed columns.
//!
//! The format is self-describing and vector-addressable: each vector's
//! parameters precede its payload, so a reader can skip whole vectors without
//! touching their packed words — the predicate-pushdown property the paper
//! contrasts with block-based compressors.
//!
//! Layout (all integers little-endian):
//! ```text
//! "ALP2" | bits:u8 | len:u64 | rowgroups:u32 | frame per row-group | [trailing parity frames]
//!   body: scheme:u8 (0=ALP, 1=ALP_rd) | vectors:u32 | ...
//!   ALP vector : e:u8 f:u8 width:u8 len:u16 base:i64 exc:u16
//!                packed[16*width] exc_pos[exc] exc_val[exc]
//!   RD header  : left_width:u8 code_width:u8 dict_len:u8 dict[dict_len]:u16
//!   RD vector  : len:u16 exc:u16 packed_codes packed_right exc_pos exc_left
//! ```
//!
//! Every packed stream is 16 blocks of `width` little-endian `u64` words
//! (`fastlanes::bitpack`; an in-memory vector's trailing pad word is not
//! stored); exception values are 8 bytes whatever the float width; an RD
//! vector's right parts are `bits - left_width` wide.
//!
//! This module owns the header and the row-group *body* codec
//! ([`write_rowgroup`] / [`RowGroupView`]); the `len | xxh64 | body` frame
//! around each body, the parity section and repair are [`crate::frame`]'s.
//! The frame buys two things: bit-rot in a payload is *detected* (a flipped
//! packed bit otherwise decodes to plausible garbage), and
//! [`from_bytes_salvage_parallel`] can resync past a damaged row-group and recover —
//! or, with parity, rebuild — the rest of the column.
//!
//! ## Writing a body: from an owned column, or straight from values
//! [`write_rowgroup`] serializes an owned [`RowGroup`] (what the registry
//! codec holds), copying each packed stream out in one little-endian
//! extend. [`encode_alp_body`] / [`encode_rd_body`] write the same bytes from
//! the *values*: the encode kernels pack each 64-value block's words straight
//! into a zeroed region of the output (`fastlanes::bitpack::Word` over
//! `[u8; 8]` — the same block loops that fill an owned vector's `Vec<u64>`),
//! so the stream writers and the query engine's column build no `RowGroup`,
//! no per-vector `Vec` and copy no word twice
//! (`Compressor::encode_rowgroup_body` picks between the two and supplies the
//! per-vector combination).
//!
//! ## Reading a body: one borrowed view
//! [`RowGroupView::parse`] is the only code that validates a row-group body.
//! It copies nothing: a view is the header fields by value plus sub-slices of
//! the body, and the decode kernels read their packed words from those bytes
//! in place ([`AlpVectorView`] / [`RdVectorView`] are the kernels' own source
//! types, `crate::decode::AlpVectorRef` / `crate::rd::RdVectorRef`, over
//! `[u8; 8]` words). Readers that want values — the stream reader, the
//! salvage engine — go bytes → view → values ([`decode_rowgroup_into`]);
//! readers that want an owned [`RowGroup`] ([`from_bytes`], [`read_rowgroup`],
//! the salvage walkers) copy one out of a view ([`RowGroupView::to_owned`]).
//! A reader that keeps the bytes and wants any one vector later — the query
//! engine — holds a [`BodyColumn`]: the bodies, each parsed once when it is
//! taken in, and every vector's offset, from which [`BodyColumn::vector`]
//! splits a [`VectorView`] again with the parser's own per-vector step.
//!
//! The checks, in the order they are made (a body failing several reports
//! the first). Reading any field past the end of the buffer is
//! [`FormatError::Truncated`]; the rest are [`FormatError::Corrupt`]:
//!
//! 1. `scheme` is 0 or 1 — `"scheme tag"` (after `scheme` and `vectors` are
//!    read).
//! 2. RD header, once `left_width`, `code_width` and `dict_len` are read:
//!    `1 <= left_width <= 16` — `"rd left_width"`; `1 <= dict_len <= 8` —
//!    `"rd dict size"`; `code_width <= 3` — `"rd code width"`; then the
//!    dictionary is read.
//! 3. Per ALP vector, once its 15 header bytes are read: `width <= 64` —
//!    `"alp bit_width"`; `len <= 1024` and `exc <= len` —
//!    `"alp vector len/exceptions"`; the payload (`packed`, `exc_pos`,
//!    `exc_val`) is present; every `exc_pos < len` —
//!    `"alp exception position"`; `e <= F::MAX_EXPONENT` and `f <= e` —
//!    `"alp exponent/factor"`.
//! 4. Per RD vector, once its 4 header bytes are read: `len <= 1024` and
//!    `exc <= len` — `"rd vector len/exceptions"`; the payload is present;
//!    every `exc_pos < len` — `"rd exception position"`.
//! 5. A frame body is exactly one row-group: bytes left over —
//!    `"row-group frame length"` ([`RowGroupView::parse_exact`]).
//!
//! Exception positions may repeat or come unsorted (no writer produces that;
//! the decoders patch in list order, so of equal positions the last stays).
//! An RD code at or past `dict_len` decodes as dictionary entry 0.
//!
//! The legacy `ALP1` layout — identical except that bare row-group bodies
//! follow each other with no frame — is still accepted by [`from_bytes`];
//! nothing writes it any more (`tests/golden/alp1_f64.bin` pins the reader).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use fastlanes::bitpack::Word;
use fastlanes::VECTOR_SIZE;

use crate::decode::{
    scan_decoded, sum_decoded_planned, AlpVectorRef, BlockRoute, VectorScan, VectorSum,
};
use crate::encode::{encode_vector_with, AlpVector, ExcArena, ExcView, Short};
pub use crate::frame::parity_group_size;
use crate::frame::{self, Frame, ParityConfig};
use crate::rd::{RdCut, RdEncoder, RdVector, RdVectorRef, MAX_DICT_SIZE, MAX_LEFT_WIDTH};
use crate::rowgroup::{AlpGroup, Compressed, RowGroup};
use crate::sampler::{Combination, ConfigError};
use crate::traits::AlpFloat;
use crate::wire::{self, PutExt};

/// Magic bytes identifying a checksummed (current) serialized ALP column.
pub const MAGIC: &[u8; 4] = b"ALP2";

/// Magic bytes of the legacy, checksum-less column layout (still readable,
/// never written; `tests/golden/alp1_f64.bin` pins the reader).
pub const MAGIC_V1: &[u8; 4] = b"ALP1";

/// Row-group scheme tag: the body holds plain ALP vectors.
pub const SCHEME_TAG_ALP: u8 = 0;

/// Row-group scheme tag: the body holds ALP_rd metadata plus vectors.
pub const SCHEME_TAG_RD: u8 = 1;

/// Errors produced when decoding a serialized column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The float width in the header does not match the requested type.
    WidthMismatch {
        /// Width recorded in the file.
        found: u8,
        /// Width of the type the caller asked for.
        expected: u8,
    },
    /// A structural field held an impossible value.
    Corrupt(&'static str),
    /// A row-group's stored checksum does not match its bytes (bit-rot).
    ChecksumMismatch {
        /// Index of the damaged row-group within the column.
        rowgroup: usize,
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum computed over the bytes actually present.
        computed: u64,
    },
}

impl core::fmt::Display for FormatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not an ALP column (bad magic)"),
            FormatError::Truncated => write!(f, "buffer truncated"),
            FormatError::WidthMismatch { found, expected } => {
                write!(f, "column stores {found}-bit floats, caller expected {expected}-bit")
            }
            FormatError::Corrupt(what) => write!(f, "corrupt field: {what}"),
            FormatError::ChecksumMismatch { rowgroup, stored, computed } => write!(
                f,
                "row-group {rowgroup} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for FormatError {}

/// Serializes a compressed column to bytes (current `ALP2` layout: every
/// row-group body is length-prefixed and XXH64-checksummed).
pub fn to_bytes<F: AlpFloat>(c: &Compressed<F>) -> Vec<u8> {
    write_column(c, None)
}

/// Serializes a compressed column like [`to_bytes`], then appends the
/// trailing parity section (see [`crate::frame`]): one parity frame per
/// `parity.group_size` data frames. Strict readers never look at it;
/// [`from_bytes_salvage_parallel`] uses it to rebuild any *single* damaged row-group
/// per group byte-identically.
///
/// Returns [`ConfigError`] when the group size is out of range.
pub fn to_bytes_with_parity<F: AlpFloat>(
    c: &Compressed<F>,
    parity: ParityConfig,
) -> Result<Vec<u8>, ConfigError> {
    parity.validate()?;
    Ok(write_column(c, Some(parity)))
}

fn write_column<F: AlpFloat>(c: &Compressed<F>, parity: Option<ParityConfig>) -> Vec<u8> {
    let mut out = Vec::with_capacity(c.compressed_bits() / 8 + 64);
    out.put_slice(MAGIC);
    out.put_u8(F::BITS as u8);
    out.put_u64_le(c.len as u64);
    out.put_u32_le(c.rowgroups.len() as u32);
    frame::encode_trailing(&mut out, parity, &c.rowgroups, write_rowgroup::<F>);
    out
}

/// Serializes one row-group (the framing unit of the streaming API).
pub fn write_rowgroup<F: AlpFloat>(out: &mut Vec<u8>, rg: &RowGroup) {
    match rg {
        RowGroup::Alp(group) => {
            out.put_u8(SCHEME_TAG_ALP);
            out.put_u32_le(group.vectors.len() as u32);
            for v in &group.vectors {
                write_alp_vector(out, v, group.view(v));
            }
        }
        RowGroup::Rd(meta, vectors) => {
            write_rd_header(out, vectors.len(), meta.left_width, meta.code_width, &meta.dict);
            for v in vectors {
                write_rd_vector(out, v, meta.right_width::<F>());
            }
        }
    }
}

/// The head of an ALP_rd row-group: tag, vector count, cut and dictionary.
fn write_rd_header(
    out: &mut Vec<u8>,
    vectors: usize,
    left_width: u8,
    code_width: u8,
    dict: &[u16],
) {
    out.put_u8(SCHEME_TAG_RD);
    out.put_u32_le(vectors as u32);
    out.put_u8(left_width);
    out.put_u8(code_width);
    out.put_u8(dict.len() as u8);
    for &d in dict {
        out.put_u16_le(d);
    }
}

/// The fixed-size head of an ALP vector; its packed words follow.
fn write_alp_vector_header(
    out: &mut Vec<u8>,
    (exponent, factor, bit_width): (u8, u8, u8),
    len: u16,
    for_base: i64,
    exceptions: usize,
) {
    out.put_u8(exponent);
    out.put_u8(factor);
    out.put_u8(bit_width);
    out.put_u16_le(len);
    out.put_i64_le(for_base);
    out.put_u16_le(exceptions as u16);
}

#[expect(
    clippy::indexing_slicing,
    reason = "an owned vector holds `bit_width` words per 64 values plus the pad word"
)]
fn write_alp_vector(out: &mut Vec<u8>, v: &AlpVector, exc: ExcView<'_>) {
    let head = (v.exponent, v.factor, v.bit_width);
    write_alp_vector_header(out, head, v.len, v.for_base, exc.positions.len());
    // Stored without the trailing pad word — it is reconstructed on read.
    out.put_words_le(&v.packed[..v.bit_width as usize * (VECTOR_SIZE / 64)]);
    for &p in exc.positions {
        out.put_u16_le(p);
    }
    out.put_words_le(exc.values);
}

#[expect(
    clippy::indexing_slicing,
    reason = "an owned vector's packed streams hold their widths' words plus the pad word"
)]
fn write_rd_vector(out: &mut Vec<u8>, v: &RdVector, right_width: usize) {
    out.put_u16_le(v.len);
    out.put_u16_le(v.exc_positions.len() as u16);
    out.put_words_le(&v.packed_codes[..v.packed_codes.len() - 1]);
    out.put_words_le(&v.packed_right[..right_width * (VECTOR_SIZE / 64)]);
    for &p in &v.exc_positions {
        out.put_u16_le(p);
    }
    for &l in &v.exc_left {
        out.put_u16_le(l);
    }
}

/// Appends `words` zeroed 8-byte words to `out` and lends them out: the
/// region a vector's blocks are packed into in place.
fn word_region(out: &mut Vec<u8>, words: usize) -> &mut [[u8; 8]] {
    let start = out.len();
    out.resize(start + 8 * words, 0);
    out.get_mut(start..).unwrap_or_default().as_chunks_mut::<8>().0
}

/// Encodes `values` (one row-group's worth) as an ALP row-group straight into
/// `out`, each vector under the combination `pick` answers for it: the bytes
/// [`write_rowgroup`] writes for the same vectors encoded by
/// [`crate::encode::encode_vector_into`], with no owned vector in between —
/// a vector's header goes out first, its blocks are FFOR-packed in place into
/// a zeroed region of `out`, its exceptions follow.
pub fn encode_alp_body<F: AlpFloat>(
    out: &mut Vec<u8>,
    values: &[F],
    mut pick: impl FnMut(&[F]) -> Combination,
) {
    let vectors = values.chunks(VECTOR_SIZE);
    out.put_u8(SCHEME_TAG_ALP);
    out.put_u32_le(vectors.len() as u32);
    for chunk in vectors {
        let combo = pick(chunk);
        encode_vector_with(
            chunk,
            combo.e,
            combo.f,
            #[inline(always)]
            |v| {
                let head = (v.exponent, v.factor, v.bit_width);
                write_alp_vector_header(
                    out,
                    head,
                    chunk.len() as u16,
                    v.for_base,
                    v.exc_positions.len(),
                );
                v.pack_into(word_region(out, usize::from(v.bit_width) * (VECTOR_SIZE / 64)));
                v.exc_positions.iter().for_each(|&p| out.put_u16_le(p));
                v.exc_values().for_each(|bits| out.put_u64_le(bits));
            },
        );
    }
}

/// Encodes `values` (one row-group's worth) as an ALP_rd row-group under
/// `encoder`'s cut straight into `out`: the bytes [`write_rowgroup`] writes
/// for the same vectors encoded by [`crate::rd::encode_rd_vector`]. Both
/// packed streams of a vector are packed in place into one zeroed region; its
/// exception count is known only afterwards and is patched into the header
/// slot reserved for it.
pub fn encode_rd_body<F: AlpFloat>(out: &mut Vec<u8>, encoder: &RdEncoder, values: &[F]) {
    let vectors = values.chunks(VECTOR_SIZE);
    let cut = encoder.cut();
    write_rd_header(out, vectors.len(), cut.left_width, cut.code_width, cut.dict());
    let code_words = usize::from(cut.code_width) * (VECTOR_SIZE / 64);
    let right_words = usize::from(cut.right_width::<F>()) * (VECTOR_SIZE / 64);
    for chunk in vectors {
        out.put_u16_le(chunk.len() as u16);
        let exc_count_at = out.len();
        out.put_u16_le(0);
        let (codes, rights) = word_region(out, code_words + right_words).split_at_mut(code_words);
        let exceptions = encoder.encode_vector(chunk, codes, rights);
        if let Some(slot) = out.get_mut(exc_count_at..exc_count_at + 2) {
            slot.copy_from_slice(&(exceptions.count() as u16).to_le_bytes());
        }
        exceptions.positions().for_each(|p| out.put_u16_le(p));
        exceptions.lefts(chunk).for_each(|left| out.put_u16_le(left));
    }
}

/// Parsed column header (shared by strict and salvage readers).
struct Header {
    /// `"ALP2"`: each row-group body sits in a frame. `false` for the legacy
    /// `"ALP1"` layout of bare bodies.
    framed: bool,
    len: usize,
    rg_count: usize,
}

impl Header {
    /// The row-group count, clamped to what `rest` (the bytes after the
    /// header) could physically hold, the smallest body being 5 bytes: a
    /// corrupt header can claim billions, and neither a reservation nor a
    /// loss report may be sized by the claim.
    fn plausible_rowgroups(&self, rest: &[u8]) -> usize {
        let min_frame = if self.framed { frame::PREFIX_LEN + 5 } else { 5 };
        self.rg_count.min(rest.len() / min_frame + 1)
    }
}

fn read_header<F: AlpFloat>(buf: &mut &[u8]) -> Result<Header, FormatError> {
    let framed = match &take::<4>(buf)? {
        MAGIC => true,
        MAGIC_V1 => false,
        _ => return Err(FormatError::BadMagic),
    };
    if buf.len() < 1 + 8 + 4 {
        return Err(FormatError::Truncated);
    }
    let bits = u8::from_le_bytes(take(buf)?);
    if u32::from(bits) != F::BITS {
        // F::BITS is 32 or 64, always fits in u8.
        return Err(FormatError::WidthMismatch { found: bits, expected: F::BITS as u8 });
    }
    let len = u64::from_le_bytes(take(buf)?) as usize;
    let rg_count = u32::from_le_bytes(take(buf)?) as usize;
    Ok(Header { framed, len, rg_count })
}

/// Parses a frame body as exactly one owned row-group.
pub(crate) fn read_rowgroup_exact<F: AlpFloat>(body: &[u8]) -> Result<RowGroup, FormatError> {
    RowGroupView::<F>::parse_exact(body)?.to_owned()
}

/// Verifies and parses one delimited frame: checksum first, then a full-body
/// parse. The per-morsel work unit of [`from_bytes_salvage_parallel`] — it
/// touches nothing outside the frame, so frames decode independently.
fn decode_frame<F: AlpFloat>(frame: &Frame<'_>, index: usize) -> Result<RowGroup, FormatError> {
    frame.check(index)?;
    read_rowgroup_exact::<F>(frame.body)
}

/// Deserializes a column previously produced by [`to_bytes`] (or a legacy
/// `ALP1` writer). Strict: any damage — structural or checksum — is an error.
pub fn from_bytes<F: AlpFloat>(mut buf: &[u8]) -> Result<Compressed<F>, FormatError> {
    let header = read_header::<F>(&mut buf)?;
    let mut rowgroups = Vec::with_capacity(header.plausible_rowgroups(buf));
    for i in 0..header.rg_count {
        rowgroups.push(if header.framed {
            let (frame, rest) = Frame::split(buf).ok_or(FormatError::Truncated)?;
            buf = rest;
            decode_frame::<F>(&frame, i)?
        } else {
            read_rowgroup::<F>(&mut buf)?
        });
    }

    // The recorded length must equal the vectors' actual content — a lying
    // header would otherwise drive a giant allocation in `decompress`.
    let actual: usize = rowgroups.iter().map(|rg| rg.len()).sum();
    if actual != header.len {
        return Err(FormatError::Corrupt("column length"));
    }
    Ok(Compressed::from_rowgroups(rowgroups, header.len))
}

/// Result of a salvage read: whatever survived, plus a damage report.
#[derive(Debug)]
pub struct Salvage<F: AlpFloat> {
    /// The recoverable column — surviving row-groups in file order. Its `len`
    /// is the surviving value count, not the original header length.
    pub column: Compressed<F>,
    /// Indices (in file order) of row-groups that were lost to corruption.
    pub lost_rowgroups: Vec<usize>,
    /// Indices (in file order) of row-groups that were damaged on disk but
    /// reconstructed byte-identically from the column's parity section.
    /// Repaired row-groups are present in `column` and never in
    /// `lost_rowgroups`.
    pub repaired_rowgroups: Vec<usize>,
    /// Row-group count the header promised.
    pub total_rowgroups: usize,
    /// Value count the header promised (what `len` would be undamaged).
    pub expected_len: usize,
}

impl<F: AlpFloat> Salvage<F> {
    /// True when every row-group survived.
    pub fn is_complete(&self) -> bool {
        self.lost_rowgroups.is_empty() && self.column.len == self.expected_len
    }
}

/// Best-effort deserialization: skips damaged row-groups instead of failing,
/// returning the survivors and exactly which row-groups were lost.
///
/// With the `ALP2` layout each frame's length prefix allows resyncing past a
/// damaged body, so one flipped bit costs *at most* one row-group — and when
/// the column carries a parity section ([`to_bytes_with_parity`]), a group's
/// single damaged row-group is rebuilt byte-identically and reported in
/// [`Salvage::repaired_rowgroups`] instead of lost; two or more in one group
/// degrade to the loss report. A frame whose *length field itself* is
/// implausible ends recovery on parity-less columns; with parity, the walk
/// resyncs on the next checksum-verified frame boundary (see
/// [`frame::salvage`]). Legacy `ALP1` columns have no frames, so the first
/// damaged row-group ends recovery outright. A damaged header is
/// unrecoverable and returns `Err` like [`from_bytes`].
///
/// A serial scan finds the frame boundaries, then checksum verification and
/// body decoding fan out on up to `threads` morsel-claiming workers, one
/// frame per morsel; `threads <= 1` never spawns. The salvage report is the
/// same at every thread count; legacy `ALP1` columns have no boundaries to
/// scan and always walk serially.
pub fn from_bytes_salvage_parallel<F: AlpFloat>(
    mut buf: &[u8],
    threads: usize,
) -> Result<Salvage<F>, FormatError> {
    let header = read_header::<F>(&mut buf)?;
    let rg_count = header.plausible_rowgroups(buf);
    let (mut decoded, repaired) = if header.framed {
        // Serial boundary walk, parallel verify + decode, then parity repair
        // of single-fault groups: the layer's random-access walker.
        let walk = frame::salvage(buf, rg_count, threads, |f, i| decode_frame::<F>(f, i).ok());
        (walk.items, walk.repaired)
    } else {
        // No framing: a parse failure loses byte alignment for good.
        let walk = core::iter::from_fn(|| read_rowgroup::<F>(&mut buf).ok().map(Some));
        (walk.take(rg_count).collect(), Vec::new())
    };
    // Damaged beyond repair, or beyond the walk: lost.
    decoded.resize_with(rg_count, || None);
    let lost = (0..rg_count).filter(|&i| decoded.get(i).is_some_and(Option::is_none)).collect();
    let rowgroups: Vec<RowGroup> = decoded.into_iter().flatten().collect();

    let salvaged_len: usize = rowgroups.iter().map(|rg| rg.len()).sum();
    Ok(Salvage {
        column: Compressed::from_rowgroups(rowgroups, salvaged_len),
        lost_rowgroups: lost,
        repaired_rowgroups: repaired,
        total_rowgroups: rg_count,
        expected_len: header.len,
    })
}

/// The wire form of an ALP vector: [`AlpVectorRef`] over the bytes of a frame
/// body — `decode` / `sum` / `scan` run on it as they do on an owned vector.
pub type AlpVectorView<'a> = AlpVectorRef<'a, [u8; 8], [u8; 2]>;

/// The wire form of an ALP_rd vector (see [`AlpVectorView`]); the row-group's
/// cut and dictionary ride along by value.
pub type RdVectorView<'a> = RdVectorRef<'a, [u8; 8], [u8; 2]>;

/// One vector of a [`RowGroupView`].
#[derive(Debug, Clone, Copy)]
pub enum VectorView<'a> {
    /// A plain ALP vector.
    Alp(AlpVectorView<'a>),
    /// An ALP_rd vector.
    Rd(RdVectorView<'a>),
}

impl VectorView<'_> {
    /// Number of live values (`<= 1024`).
    pub fn len(&self) -> usize {
        match self {
            VectorView::Alp(v) => v.len(),
            VectorView::Rd(v) => v.len(),
        }
    }

    /// Whether the vector holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes into `out[..len]` (`out` ≥ 1024 elements) with the scheme's
    /// kernel, reading packed words straight from the body bytes; returns
    /// the live count.
    pub fn decode<F: AlpFloat>(&self, out: &mut [F]) -> usize {
        match self {
            VectorView::Alp(v) => v.decode(out),
            VectorView::Rd(v) => v.decode(out),
        }
    }

    /// Fused scan under `lo..=hi` ([`AlpVectorRef::scan`]); an ALP_rd vector,
    /// which has no decimal fast path, decodes into `buf` (≥ 1024 elements)
    /// and is scanned there ([`scan_decoded`]) — the same bits either way.
    pub fn scan<F: AlpFloat>(&self, lo: F, hi: F, minmax: bool, buf: &mut [F]) -> VectorScan<F> {
        match self {
            VectorView::Alp(v) => v.scan(lo, hi, minmax),
            VectorView::Rd(v) => {
                let n = v.decode(buf);
                let mut scan = VectorScan::empty(n);
                scan_decoded(buf.get(..n).unwrap_or(&[]), lo, hi, minmax, &mut scan);
                scan
            }
        }
    }

    /// The aggregate-only scan, planned block by block by `route`
    /// ([`AlpVectorRef::sum_planned`]); an ALP_rd vector decodes whole into
    /// `buf` (≥ 1024 elements) first, and only its NaNs need `may_hold_nan`
    /// ([`sum_decoded_planned`]).
    pub fn sum_planned<F: AlpFloat>(
        &self,
        band: Option<(F, F)>,
        may_hold_nan: bool,
        buf: &mut [F],
        route: impl Fn(usize) -> BlockRoute<F>,
    ) -> VectorSum<F> {
        match self {
            VectorView::Alp(v) => v.sum_planned(band, route),
            VectorView::Rd(v) => {
                let n = v.decode(buf);
                sum_decoded_planned(buf.get(..n).unwrap_or(&[]), band, may_hold_nan, route)
            }
        }
    }
}

/// An owned column of row-group frame bodies, addressable by vector.
/// [`BodyColumn::from_bodies`], the only constructor, parses each body once
/// ([`RowGroupView::parse_exact`]) and records where each vector starts;
/// [`BodyColumn::vector`] splits it off there with the parser's own
/// per-vector step, so the kernels read the stored bytes in place (the
/// paper's §4.3 random access) with no owned vector in between.
#[derive(Debug, Clone)]
pub struct BodyColumn<F> {
    bodies: Vec<Vec<u8>>,
    /// Per vector: its body, the offset of its header there, and the body's
    /// ALP_rd cut (`None`: an ALP row-group).
    vectors: Vec<(usize, usize, Option<RdCut>)>,
    _float: core::marker::PhantomData<F>,
}

impl<F: AlpFloat> BodyColumn<F> {
    /// Takes `bodies` — one row-group each, in column order, as
    /// [`crate::Compressor::encode_rowgroup_body`] writes them — once every
    /// one parses whole; the first that does not is the error.
    pub fn from_bodies(bodies: Vec<Vec<u8>>) -> Result<Self, FormatError> {
        let views: Vec<_> =
            bodies.iter().map(|b| RowGroupView::<F>::parse_exact(b)).collect::<Result<_, _>>()?;
        let mut vectors = Vec::with_capacity(views.iter().map(|v| v.vectors).sum());
        for (body, (view, bytes)) in views.iter().zip(&bodies).enumerate() {
            let mut cur = view.payload; // which ends where the body does
            for _ in 0..view.vectors {
                vectors.push((body, bytes.len() - cur.len(), view.rd));
                split_vector::<F>(view.rd.as_ref(), &mut cur)?;
            }
        }
        Ok(Self { bodies, vectors, _float: core::marker::PhantomData })
    }

    /// Vector `v`, numbered across the bodies; `None` past the last.
    #[inline]
    pub fn vector(&self, v: usize) -> Option<VectorView<'_>> {
        let (body, at, rd) = self.vectors.get(v)?;
        let mut cur = self.bodies.get(*body)?.get(*at..)?;
        split_vector::<F>(rd.as_ref(), &mut cur).ok()
    }

    /// The bodies, byte for byte as they were taken in.
    pub fn bodies(&self) -> &[Vec<u8>] {
        &self.bodies
    }

    /// Number of vectors.
    pub fn vector_count(&self) -> usize {
        self.vectors.len()
    }
}

/// A validated, borrowed view of one serialized row-group: nothing is copied
/// out of `body`, and the decode kernels read its packed words in place.
///
/// [`RowGroupView::parse`] is the only code that validates a row-group body.
/// It walks every vector header once, so a view in hand means every field is
/// in range and every payload slice is present; [`RowGroupView::vectors`]
/// re-walks the same bytes and cannot fail. Owned [`RowGroup`]s
/// ([`read_rowgroup`], [`from_bytes`], the salvage walkers) are built from a
/// view; readers that only want values ([`decode_rowgroup_into`], the stream
/// reader) never build one.
#[derive(Debug, Clone, Copy)]
pub struct RowGroupView<'a, F> {
    /// `Some` for an ALP_rd row-group: the header every vector decodes under.
    rd: Option<RdCut>,
    vectors: usize,
    /// Live values over all vectors.
    len: usize,
    /// The serialized vectors, exactly.
    payload: &'a [u8],
    /// What follows the row-group in the buffer it was parsed from.
    rest: &'a [u8],
    _float: core::marker::PhantomData<F>,
}

/// Splits the next `N` bytes off `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FormatError> {
    wire::take(buf).ok_or(FormatError::Truncated)
}

/// Splits the next `n` `N`-byte little-endian integers off `buf`, still as
/// bytes. The length is checked before anything is sliced.
fn take_ints<'a, const N: usize>(
    buf: &mut &'a [u8],
    n: usize,
) -> Result<&'a [[u8; N]], FormatError> {
    let bytes = n.checked_mul(N).ok_or(FormatError::Truncated)?;
    let (head, rest) = buf.split_at_checked(bytes).ok_or(FormatError::Truncated)?;
    *buf = rest;
    Ok(head.as_chunks::<N>().0)
}

/// Splits one ALP vector off `buf`: header, then its three payload slices.
fn split_alp_vector<'a>(buf: &mut &'a [u8]) -> Result<AlpVectorView<'a>, FormatError> {
    let [exponent, factor, bit_width, l0, l1, base @ .., x0, x1] = take::<15>(buf)?;
    let (len, for_base) = (u16::from_le_bytes([l0, l1]), i64::from_le_bytes(base));
    let exc = usize::from(u16::from_le_bytes([x0, x1]));
    if bit_width > 64 {
        return Err(FormatError::Corrupt("alp bit_width"));
    }
    if usize::from(len) > VECTOR_SIZE || exc > usize::from(len) {
        return Err(FormatError::Corrupt("alp vector len/exceptions"));
    }
    // The trailing pad word of an in-memory vector is not on the wire.
    let packed = take_ints::<8>(buf, usize::from(bit_width) * (VECTOR_SIZE / 64))?;
    let positions = take_ints::<2>(buf, exc)?;
    let values = take_ints::<8>(buf, exc)?;
    Ok(AlpVectorRef {
        exponent,
        factor,
        bit_width,
        for_base,
        len,
        packed,
        exc: ExcView { positions, values },
    })
}

/// Splits one ALP_rd vector off `buf` under its row-group's header.
fn split_rd_vector<'a, F: AlpFloat>(
    rd: &RdCut,
    buf: &mut &'a [u8],
) -> Result<RdVectorView<'a>, FormatError> {
    let [l0, l1, x0, x1] = take(buf)?;
    let (len, exc) = (u16::from_le_bytes([l0, l1]), usize::from(u16::from_le_bytes([x0, x1])));
    if usize::from(len) > VECTOR_SIZE || exc > usize::from(len) {
        return Err(FormatError::Corrupt("rd vector len/exceptions"));
    }
    let right_width = rd.right_width::<F>();
    let words = VECTOR_SIZE / 64;
    let packed_codes = take_ints::<8>(buf, usize::from(rd.code_width) * words)?;
    let packed_right = take_ints::<8>(buf, usize::from(right_width) * words)?;
    let exc_positions = take_ints::<2>(buf, exc)?;
    let exc_left = take_ints::<2>(buf, exc)?;
    Ok(RdVectorRef {
        right_width,
        code_width: rd.code_width,
        lut: rd.lut,
        len,
        packed_codes,
        packed_right,
        exc_positions,
        exc_left,
    })
}

/// Every exception position must address a live value.
fn check_positions(positions: &[[u8; 2]], len: u16, what: &'static str) -> Result<(), FormatError> {
    if positions.iter().any(|p| p.get() >= len) {
        return Err(FormatError::Corrupt(what));
    }
    Ok(())
}

/// Splits one vector off `buf` under its row-group's cut (`None`: ALP), the
/// checks that size its payload included: the per-vector step of
/// [`RowGroupView::parse`] (which then runs [`check_vector`]) and of
/// [`BodyColumn::vector`], and the only code that makes a [`VectorView`].
#[inline]
fn split_vector<'a, F: AlpFloat>(
    rd: Option<&RdCut>,
    buf: &mut &'a [u8],
) -> Result<VectorView<'a>, FormatError> {
    Ok(match rd {
        None => VectorView::Alp(split_alp_vector(buf)?),
        Some(rd) => VectorView::Rd(split_rd_vector::<F>(rd, buf)?),
    })
}

/// The rest of a vector's checks: its exception positions address live
/// values, and an ALP vector's exponent and factor index the decoder's tables.
fn check_vector<F: AlpFloat>(vector: &VectorView<'_>) -> Result<(), FormatError> {
    match vector {
        VectorView::Alp(v) => {
            check_positions(v.exc.positions, v.len, "alp exception position")?;
            if v.exponent > F::MAX_EXPONENT || v.factor > v.exponent {
                return Err(FormatError::Corrupt("alp exponent/factor"));
            }
        }
        VectorView::Rd(v) => check_positions(v.exc_positions, v.len, "rd exception position")?,
    }
    Ok(())
}

impl<'a, F: AlpFloat> RowGroupView<'a, F> {
    /// Parses and validates the row-group at the head of `buf` (inverse of
    /// [`write_rowgroup`]); bytes past it are kept as [`RowGroupView::rest`].
    pub fn parse(buf: &'a [u8]) -> Result<Self, FormatError> {
        let mut cur = buf;
        let [scheme] = take(&mut cur)?;
        let vectors = u32::from_le_bytes(take(&mut cur)?) as usize;
        let rd = match scheme {
            SCHEME_TAG_ALP => None,
            SCHEME_TAG_RD => Some(Self::parse_rd_header(&mut cur)?),
            _ => return Err(FormatError::Corrupt("scheme tag")),
        };
        let body = cur;
        let mut len = 0usize;
        for _ in 0..vectors {
            let vector = split_vector::<F>(rd.as_ref(), &mut cur)?;
            check_vector::<F>(&vector)?;
            len += vector.len();
        }
        let payload = body.get(..body.len() - cur.len()).unwrap_or(body);
        Ok(Self { rd, vectors, len, payload, rest: cur, _float: core::marker::PhantomData })
    }

    /// [`RowGroupView::parse`] for a frame body, which must hold exactly one
    /// row-group: trailing bytes are a framing error, not slack.
    pub fn parse_exact(body: &'a [u8]) -> Result<Self, FormatError> {
        let view = Self::parse(body)?;
        if !view.rest.is_empty() {
            return Err(FormatError::Corrupt("row-group frame length"));
        }
        Ok(view)
    }

    fn parse_rd_header(cur: &mut &[u8]) -> Result<RdCut, FormatError> {
        let [left_width] = take(cur)?;
        let [code_width] = take(cur)?;
        let [dict_len] = take(cur)?;
        if left_width == 0 || usize::from(left_width) > MAX_LEFT_WIDTH {
            return Err(FormatError::Corrupt("rd left_width"));
        }
        if dict_len == 0 || usize::from(dict_len) > MAX_DICT_SIZE {
            return Err(FormatError::Corrupt("rd dict size"));
        }
        if code_width > 3 {
            return Err(FormatError::Corrupt("rd code width"));
        }
        let dict = take_ints::<2>(cur, usize::from(dict_len))?;
        // Codes are `< 2^code_width <= 8`: with the unused slots repeating
        // entry 0, a masked lookup never misses, whatever the bytes say.
        let lut = RdCut::padded_lut(dict.iter().map(|d| d.get()));
        Ok(RdCut { left_width, code_width, dict_len, lut })
    }

    /// Number of vectors.
    pub fn vector_count(&self) -> usize {
        self.vectors
    }

    /// Number of live values over all vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row-group holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes that follow the row-group in the buffer it was parsed from
    /// (empty after [`RowGroupView::parse_exact`]).
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The vectors in order. Re-walks the bytes [`RowGroupView::parse`]
    /// validated, so every vector is delivered.
    pub fn vectors(&self) -> impl Iterator<Item = VectorView<'a>> + use<'a, F> {
        let (rd, mut cur) = (self.rd, self.payload);
        (0..self.vectors).map_while(move |_| split_vector::<F>(rd.as_ref(), &mut cur).ok())
    }

    /// Appends the row-group's values to `out`, one reservation of exactly
    /// [`RowGroupView::len`] values, decoding vector by vector from the
    /// body bytes.
    pub fn decode_into(&self, out: &mut Vec<F>) {
        out.reserve(self.len);
        let mut buf = [F::from_bits_u64(0); VECTOR_SIZE];
        for v in self.vectors() {
            let n = v.decode(&mut buf);
            out.extend_from_slice(buf.get(..n).unwrap_or(&buf));
        }
    }

    /// Copies the view out into an owned [`RowGroup`]. Every reservation is
    /// sized by what was parsed, never by a count field alone.
    pub fn to_owned(&self) -> Result<RowGroup, FormatError> {
        let words = |packed: &[[u8; 8]]| -> Vec<u64> {
            let mut out = Vec::with_capacity(packed.len() + 1);
            out.extend(packed.iter().map(|w| w.get()));
            out.push(0); // reconstruct the pad word
            out
        };
        let shorts = |s: &[[u8; 2]]| -> Vec<u16> { s.iter().map(|p| p.get()).collect() };
        match &self.rd {
            None => {
                let mut group = AlpGroup {
                    vectors: Vec::with_capacity(self.vectors),
                    exceptions: ExcArena::new(),
                };
                for v in self.vectors() {
                    let VectorView::Alp(v) = v else { continue };
                    let arena = &mut group.exceptions;
                    let Ok(exc_start) = u32::try_from(arena.len()) else {
                        return Err(FormatError::Corrupt("exception arena overflow"));
                    };
                    arena.positions.extend(v.exc.positions.iter().map(|p| p.get()));
                    arena.values.extend(v.exc.values.iter().map(|x| x.get()));
                    group.vectors.push(AlpVector {
                        exponent: v.exponent,
                        factor: v.factor,
                        bit_width: v.bit_width,
                        for_base: v.for_base,
                        packed: words(v.packed),
                        exc_start,
                        exc_count: u16::try_from(v.exc.len()).unwrap_or(u16::MAX),
                        len: v.len,
                    });
                }
                Ok(RowGroup::Alp(group))
            }
            Some(rd) => {
                let meta = rd.to_meta();
                let mut vectors = Vec::with_capacity(self.vectors);
                for v in self.vectors() {
                    let VectorView::Rd(v) = v else { continue };
                    vectors.push(RdVector {
                        packed_codes: words(v.packed_codes),
                        packed_right: words(v.packed_right),
                        exc_positions: shorts(v.exc_positions),
                        exc_left: shorts(v.exc_left),
                        len: v.len,
                    });
                }
                Ok(RowGroup::Rd(meta, vectors))
            }
        }
    }
}

/// Deserializes the row-group at the head of `buf` into an owned
/// [`RowGroup`] and advances `buf` past it (inverse of [`write_rowgroup`]).
pub fn read_rowgroup<F: AlpFloat>(buf: &mut &[u8]) -> Result<RowGroup, FormatError> {
    let view = RowGroupView::<F>::parse(buf)?;
    let rg = view.to_owned()?;
    *buf = view.rest();
    Ok(rg)
}

/// Decodes a frame body — exactly one row-group — appending its values to
/// `out`, straight from the body bytes: no owned [`RowGroup`] is built. On
/// `Err` nothing was appended.
pub fn decode_rowgroup_into<F: AlpFloat>(body: &[u8], out: &mut Vec<F>) -> Result<(), FormatError> {
    RowGroupView::parse_exact(body)?.decode_into(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowgroup::Compressor;

    fn roundtrip(data: &[f64]) {
        let c = Compressor::new().compress(data);
        let bytes = to_bytes(&c);
        let back = from_bytes::<f64>(&bytes).expect("deserialize");
        assert_eq!(back.len, data.len());
        let decoded = back.decompress();
        for (a, b) in data.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn serde_roundtrip_decimal_data() {
        let data: Vec<f64> = (0..120_000).map(|i| ((i % 777) as f64) * 0.125).collect();
        roundtrip(&data);
    }

    #[test]
    fn serde_roundtrip_rd_data() {
        let data: Vec<f64> = (0..120_000).map(|i| ((i as f64) * 0.271).sin() * 2e-5).collect();
        roundtrip(&data);
    }

    #[test]
    fn serde_roundtrip_with_specials() {
        let mut data: Vec<f64> = (0..4000).map(|i| (i as f64) * 0.2).collect();
        data[13] = f64::NAN;
        data[200] = -0.0;
        data[3999] = f64::NEG_INFINITY;
        roundtrip(&data);
    }

    #[test]
    fn serde_f32_roundtrip() {
        let data: Vec<f32> = (0..9000).map(|i| ((i % 300) as f32) * 0.5).collect();
        let c = Compressor::new().compress(&data);
        let bytes = to_bytes(&c);
        let back = from_bytes::<f32>(&bytes).unwrap();
        assert_eq!(back.decompress(), data);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(from_bytes::<f64>(b"NOPE....."), Err(FormatError::BadMagic)));
    }

    #[test]
    fn rejects_width_mismatch() {
        let data: Vec<f32> = vec![1.0; 100];
        let bytes = to_bytes(&Compressor::new().compress(&data));
        assert!(matches!(
            from_bytes::<f64>(&bytes),
            Err(FormatError::WidthMismatch { found: 32, expected: 64 })
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let data: Vec<f64> = (0..3000).map(|i| (i as f64) * 0.1).collect();
        let bytes = to_bytes(&Compressor::new().compress(&data));
        // Every strict prefix must fail cleanly, never panic.
        for cut in [0, 3, 4, 10, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes::<f64>(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_column_serializes() {
        let c = Compressor::new().compress::<f64>(&[]);
        let bytes = to_bytes(&c);
        let back = from_bytes::<f64>(&bytes).unwrap();
        assert_eq!(back.len, 0);
        assert!(back.decompress().is_empty());
    }

    /// Three-row-group column (default row-group is 100 × 1024 values).
    fn multi_rowgroup_bytes() -> (Vec<f64>, Vec<u8>) {
        let data: Vec<f64> = (0..250_000).map(|i| ((i % 901) as f64) * 0.05).collect();
        let bytes = to_bytes(&Compressor::new().compress(&data));
        (data, bytes)
    }

    #[test]
    fn current_magic_is_alp2() {
        let (_, bytes) = multi_rowgroup_bytes();
        assert_eq!(&bytes[..4], MAGIC);
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let (_, mut bytes) = multi_rowgroup_bytes();
        // Flip one bit deep inside the second row-group's packed payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        match from_bytes::<f64>(&bytes) {
            Err(FormatError::ChecksumMismatch { stored, computed, .. }) => {
                assert_ne!(stored, computed)
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn salvage_recovers_all_but_damaged_rowgroup() {
        let (data, mut bytes) = multi_rowgroup_bytes();
        let clean = from_bytes::<f64>(&bytes).unwrap();
        let rg_count = clean.rowgroups.len();
        assert!(rg_count >= 2, "need multiple row-groups, got {rg_count}");
        let rg_len: usize = clean.rowgroups[0].len();

        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        let salvage = from_bytes_salvage_parallel::<f64>(&bytes, 1).unwrap();
        assert_eq!(salvage.lost_rowgroups.len(), 1);
        assert_eq!(salvage.total_rowgroups, rg_count);
        assert_eq!(salvage.expected_len, data.len());
        assert!(!salvage.is_complete());

        // Surviving row-groups decode bit-exactly to the data outside the
        // damaged row-group.
        let lost = salvage.lost_rowgroups[0];
        let decoded = salvage.column.decompress();
        let expected: Vec<f64> = data
            .chunks(rg_len)
            .enumerate()
            .filter(|(i, _)| *i != lost)
            .flat_map(|(_, c)| c.iter().copied())
            .collect();
        assert_eq!(salvage.column.len, expected.len());
        assert_eq!(decoded.len(), expected.len());
        for (a, b) in decoded.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn salvage_on_clean_column_is_complete() {
        let (data, bytes) = multi_rowgroup_bytes();
        let salvage = from_bytes_salvage_parallel::<f64>(&bytes, 1).unwrap();
        assert!(salvage.is_complete());
        assert!(salvage.lost_rowgroups.is_empty());
        assert_eq!(salvage.column.len, data.len());
    }

    /// The frozen `"ALP1"` file (no V1 writer is left) against the `"ALP2"`
    /// golden of the same column; `tests/golden_wire.rs` holds both to the
    /// generating dataset.
    #[test]
    fn legacy_v1_columns_still_roundtrip() {
        let v1: &[u8] = include_bytes!("../../../tests/golden/alp1_f64.bin");
        let v2: &[u8] = include_bytes!("../../../tests/golden/alp2_f64.bin");
        assert_eq!(&v1[..4], MAGIC_V1);
        let want = from_bytes::<f64>(v2).unwrap().decompress();
        let back = from_bytes::<f64>(v1).unwrap();
        assert_eq!(back.rowgroups.len(), 4);
        assert_bit_exact(&want, &back.decompress());
        let salvage = from_bytes_salvage_parallel::<f64>(v1, 1).unwrap();
        assert!(salvage.is_complete());
        assert_bit_exact(&want, &salvage.column.decompress());
        // Salvage accepts v1 too, but without frames damage ends recovery.
        let mut damaged = v1.to_vec();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x01;
        let salvage = from_bytes_salvage_parallel::<f64>(&damaged, 1).unwrap();
        assert!(salvage.column.len <= want.len());
    }

    #[test]
    fn salvage_of_truncated_column_reports_tail_lost() {
        let (_, bytes) = multi_rowgroup_bytes();
        let clean = from_bytes::<f64>(&bytes).unwrap();
        let cut = bytes.len() - bytes.len() / 3;
        let salvage = from_bytes_salvage_parallel::<f64>(&bytes[..cut], 1).unwrap();
        assert!(!salvage.lost_rowgroups.is_empty());
        assert!(salvage.column.rowgroups.len() < clean.rowgroups.len());
    }

    #[test]
    fn parallel_salvage_matches_serial_on_damage() {
        let (_, mut bytes) = multi_rowgroup_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        let serial = from_bytes_salvage_parallel::<f64>(&bytes, 1).unwrap();
        assert!(!serial.is_complete());
        for threads in [2, 4] {
            let par = from_bytes_salvage_parallel::<f64>(&bytes, threads).unwrap();
            assert_eq!(par.lost_rowgroups, serial.lost_rowgroups, "t={threads}");
            assert_eq!(par.total_rowgroups, serial.total_rowgroups);
            assert_eq!(par.expected_len, serial.expected_len);
            assert_eq!(par.column.len, serial.column.len);
            assert_eq!(par.column.decompress(), serial.column.decompress());
        }
    }

    #[test]
    fn parallel_salvage_matches_serial_on_truncation() {
        let (_, bytes) = multi_rowgroup_bytes();
        for cut in [bytes.len() - 1, bytes.len() * 2 / 3, bytes.len() / 3, 20, 17] {
            let serial = from_bytes_salvage_parallel::<f64>(&bytes[..cut], 1).unwrap();
            let par = from_bytes_salvage_parallel::<f64>(&bytes[..cut], 4).unwrap();
            assert_eq!(par.lost_rowgroups, serial.lost_rowgroups, "cut {cut}");
            assert_eq!(par.total_rowgroups, serial.total_rowgroups, "cut {cut}");
            assert_eq!(par.column.decompress(), serial.column.decompress(), "cut {cut}");
        }
    }

    #[test]
    fn parallel_salvage_on_clean_column_is_complete() {
        let (data, bytes) = multi_rowgroup_bytes();
        let salvage = from_bytes_salvage_parallel::<f64>(&bytes, 4).unwrap();
        assert!(salvage.is_complete());
        assert_eq!(salvage.column.len, data.len());
        let decoded = salvage.column.decompress();
        for (a, b) in data.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Parity-protected column with several small row-groups: 13 row-groups
    /// of 2048 values each, parity groups of 4 (3 full groups + 1 partial).
    fn parity_column_bytes() -> (Vec<f64>, Vec<u8>) {
        let params = crate::sampler::SamplerParams {
            vectors_per_rowgroup: 2,
            ..crate::sampler::SamplerParams::default()
        };
        let data: Vec<f64> =
            (0..13 * 2 * fastlanes::VECTOR_SIZE).map(|i| ((i % 901) as f64) * 0.05).collect();
        let c = Compressor::with_params(params).unwrap().compress(&data);
        assert_eq!(c.rowgroups.len(), 13);
        let bytes = to_bytes_with_parity(&c, ParityConfig { group_size: 4 }).unwrap();
        (data, bytes)
    }

    /// Frame spans `(start, end)` of the column's data frames.
    fn data_frame_spans(bytes: &[u8], count: usize) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut off = 4 + 1 + 8 + 4;
        for _ in 0..count {
            let (frame, _) = Frame::split(&bytes[off..]).expect("data frame");
            spans.push((off, off + frame.whole.len()));
            off += frame.whole.len();
        }
        spans
    }

    fn assert_bit_exact(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn parity_column_reads_clean_through_legacy_strict_and_salvage() {
        let (data, bytes) = parity_column_bytes();
        // Strict reader (which predates parity) ignores the trailing section.
        let strict = from_bytes::<f64>(&bytes).unwrap();
        assert_bit_exact(&data, &strict.decompress());
        let salvage = from_bytes_salvage_parallel::<f64>(&bytes, 1).unwrap();
        assert!(salvage.is_complete());
        assert!(salvage.repaired_rowgroups.is_empty());
        assert_bit_exact(&data, &salvage.column.decompress());
    }

    #[test]
    fn corrupted_length_prefix_resyncs_and_repairs() {
        let (data, clean) = parity_column_bytes();
        let spans = data_frame_spans(&clean, 13);
        let mut bytes = clean.clone();
        // Make frame 5's length implausible (runs past the buffer) AND
        // damage its body so resync alone cannot recover it.
        let (s, e) = spans[5];
        bytes[s..s + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[s + 20] ^= 0xFF;
        let salvage = from_bytes_salvage_parallel::<f64>(&bytes, 1).unwrap();
        assert_eq!(salvage.repaired_rowgroups, vec![5]);
        assert!(salvage.lost_rowgroups.is_empty());
        assert_bit_exact(&data, &salvage.column.decompress());
        // With only the length corrupted, resync re-finds the true frame and
        // no parity repair is even needed.
        let mut bytes = clean.clone();
        bytes[s..s + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let _ = e;
        let salvage = from_bytes_salvage_parallel::<f64>(&bytes, 1).unwrap();
        assert!(salvage.lost_rowgroups.is_empty());
        assert_bit_exact(&data, &salvage.column.decompress());
    }

    #[test]
    fn parallel_parity_salvage_matches_serial() {
        let (_, clean) = parity_column_bytes();
        let spans = data_frame_spans(&clean, 13);
        let mut bytes = clean;
        let (s0, e0) = spans[2];
        bytes[s0 + 12 + (e0 - s0) / 3] ^= 0x08; // group 0: repairable
        let (s1, _) = spans[5];
        bytes[s1 + 4] ^= 0xFF; // group 1: checksum field damaged, repairable
        let (s2, e2) = spans[8];
        bytes[s2 + 13] ^= 0x02;
        bytes[e2 - 1] ^= 0x02; // still one frame: repairable
        let serial = from_bytes_salvage_parallel::<f64>(&bytes, 1).unwrap();
        assert_eq!(serial.repaired_rowgroups, vec![2, 5, 8]);
        for threads in [2, 4] {
            let par = from_bytes_salvage_parallel::<f64>(&bytes, threads).unwrap();
            assert_eq!(par.repaired_rowgroups, serial.repaired_rowgroups, "t={threads}");
            assert_eq!(par.lost_rowgroups, serial.lost_rowgroups);
            assert_eq!(par.column.decompress(), serial.column.decompress());
        }
    }

    #[test]
    fn truncated_parity_column_still_reads_data_prefix() {
        let (data, clean) = parity_column_bytes();
        let spans = data_frame_spans(&clean, 13);
        // Cut inside the parity section: all data survives, repair is gone.
        let parity_start = spans.last().unwrap().1;
        let cut = parity_start + (clean.len() - parity_start) / 2;
        let salvage = from_bytes_salvage_parallel::<f64>(&clean[..cut], 1).unwrap();
        assert!(salvage.lost_rowgroups.is_empty());
        assert_bit_exact(&data, &salvage.column.decompress());
        // Cut inside the data: the tail (and the parity section with it) is
        // lost — trailing parity cannot repair truncation, by design.
        let (s, e) = spans[11];
        let salvage = from_bytes_salvage_parallel::<f64>(&clean[..s + (e - s) / 2], 1).unwrap();
        assert!(salvage.lost_rowgroups.contains(&11));
        assert!(salvage.column.rowgroups.len() <= 11);
    }

    /// A [`BodyColumn`] over one body per slice of `rowgroups`.
    fn body_column(rowgroups: &[&[f64]]) -> BodyColumn<f64> {
        let compressor = Compressor::new();
        let mut scratch = crate::rowgroup::EncodeScratch::default();
        let mut stats = crate::sampler::SamplerStats::default();
        let bodies = rowgroups.iter().map(|values| {
            let mut body = Vec::new();
            compressor.encode_rowgroup_body(values, &mut body, &mut scratch, &mut stats);
            body
        });
        BodyColumn::from_bodies(bodies.collect()).expect("bodies this process wrote")
    }

    #[test]
    fn vector_random_access_matches_full_decode() {
        let decimals: Vec<f64> = (0..5000).map(|i| (i as f64) * 0.5).collect();
        let reals: Vec<f64> = (0..2100).map(|i| ((i as f64) * 0.271).sin() * 2e-5).collect();
        let column = body_column(&[&decimals, &reals]);
        assert!(matches!(column.vector(0), Some(VectorView::Alp(_))));
        assert!(matches!(column.vector(5), Some(VectorView::Rd(_))));
        let mut buf = vec![0.0f64; VECTOR_SIZE];
        // A full vector, the short last one of each body, and the first
        // vector of the second body.
        let cases = [
            (2, &decimals[2048..3072]),
            (4, &decimals[4096..]),
            (5, &reals[..1024]),
            (7, &reals[2048..]),
        ];
        for (v, want) in cases {
            let n = column.vector(v).expect("in range").decode(&mut buf);
            assert_bit_exact(want, &buf[..n]);
        }
    }

    #[test]
    fn vectors_are_numbered_across_bodies_and_none_past_the_last() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64) * 0.5).collect();
        let column = body_column(&[&data, &data[..2100]]);
        assert_eq!(column.vector_count(), 8);
        assert_eq!(column.vector(4).map(|v| v.len()), Some(5000 - 4096));
        assert_eq!(column.vector(5).map(|v| v.len()), Some(1024));
        assert_eq!(column.vector(7).map(|v| v.len()), Some(2100 - 2048));
        assert!(column.vector(8).is_none());
        assert!(body_column(&[]).vector(0).is_none());
    }

    #[test]
    fn salvage_rejects_damaged_header() {
        let (_, mut bytes) = multi_rowgroup_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes_salvage_parallel::<f64>(&bytes, 1),
            Err(FormatError::BadMagic)
        ));
    }
}
