//! A minimal vectorized query engine in the style of Tectorwise (Kersten et
//! al., VLDB'18), built for the paper's §4.3 end-to-end experiments.
//!
//! The engine stores one `f64` column in row-groups of 100 × 1024 values,
//! compressed with a selectable [`Format`]. Operators pull data
//! **vector-at-a-time** (1024 values) through a reusable buffer:
//!
//! * [`Column::scan`] — decompress every vector (the SCAN query);
//! * [`Column::sum`] — SCAN plus a vectorized SUM aggregation;
//! * [`Column::par_scan`] / [`Column::par_sum`] — the same with morsel-driven
//!   parallelism (each morsel = one row-group, claimed from an atomic
//!   counter). The scheduler is the workspace-shared [`alp_core::par`]
//!   (this engine's original private copy was extracted there), which also
//!   powers [`Column::from_f64_parallel`] on the write side.
//!
//! Block-granularity matters: ALP and the per-value codecs decompress a
//! single vector at a time; GPZip (the Zstd stand-in) must inflate an entire
//! row-group block to read anything inside it — the skipping disadvantage the
//! paper highlights.

pub mod cache;
pub mod scrub;
pub mod service;
pub mod table;

use core::ops::Range;

use alp::decode::{block_sum_all, SUM_LANES};
use alp_core::{ColumnCodec, Registry, Scratch};
use fastlanes::bitpack::BLOCK;
use fastlanes::VECTOR_SIZE;

/// Row-group size in vectors (matches the ALP compressor's default).
pub const ROWGROUP_VECTORS: usize = 100;
/// Row-group size in values.
pub const ROWGROUP_VALUES: usize = ROWGROUP_VECTORS * VECTOR_SIZE;

/// Storage format of a column: either raw, or any codec from the workspace
/// [`Registry`]. The engine decides the physical layout from the codec's
/// capabilities, so there are no per-scheme construction branches.
#[derive(Clone, Copy)]
pub enum Format {
    /// Plain `f64` array (the paper's "Uncompressed" baseline).
    Uncompressed,
    /// A registered [`ColumnCodec`].
    Registered(&'static dyn ColumnCodec),
}

impl Format {
    /// Looks a format up by registry id (`"alp"`, `"patas"`, `"gpzip"`, …).
    /// `None` for unknown ids and for ratio-only schemes, which cannot back
    /// a stored column.
    pub fn by_id(id: &str) -> Option<Format> {
        let codec = Registry::get(id)?;
        if codec.caps().ratio_only {
            return None;
        }
        Some(Format::Registered(codec))
    }

    /// ALP (this paper) — the engine's default compressed format.
    pub fn alp() -> Format {
        Format::Registered(&alp_core::impls::Alp)
    }

    /// Display name for benchmark tables.
    pub fn name(&self) -> String {
        match self {
            Format::Uncompressed => "Uncompressed".into(),
            Format::Registered(c) => c.name().into(),
        }
    }
}

impl PartialEq for Format {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Format::Uncompressed, Format::Uncompressed) => true,
            (Format::Registered(a), Format::Registered(b)) => a.id() == b.id(),
            _ => false,
        }
    }
}

impl core::fmt::Debug for Format {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Format::Uncompressed => write!(f, "Uncompressed"),
            Format::Registered(c) => write!(f, "Registered({})", c.id()),
        }
    }
}

enum Storage {
    Uncompressed(Vec<f64>),
    /// ALP keeps its native compressed form: it is the one codec with
    /// random vector access, which the engine exploits for per-vector reads.
    Alp(alp::Compressed<f64>),
    /// Any other registered codec: `(compressed bytes, value count)` per
    /// block of `vectors_per_block` vectors — 1 for the per-value codecs,
    /// [`ROWGROUP_VECTORS`] for the block-based general-purpose compressors,
    /// which must inflate a whole block to read anything inside it.
    Blocks {
        codec: &'static dyn ColumnCodec,
        vectors_per_block: usize,
        blocks: Vec<(Vec<u8>, usize)>,
    },
}

/// Per-vector statistics enabling predicate push-down: a vector whose range
/// is disjoint from the predicate is skipped without decompression, and a
/// vector whose range lies inside it is answered from [`ZoneMap::sum`]
/// without decompression either.
///
/// NaNs are handled explicitly rather than folded into the range: `min`/`max`
/// cover only the non-NaN values (so a stray NaN can never poison the range
/// into `NaN` and make [`ZoneMap::overlaps`] silently reject live neighbours),
/// and [`ZoneMap::has_nan`] records that NaNs were present at all, so
/// consumers that *do* care about NaNs (e.g. `IS NULL`-style scans) can find
/// them without a full decompression pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMap {
    /// Minimum non-NaN value in the vector (`+inf` if none).
    pub min: f64,
    /// Maximum non-NaN value in the vector (`-inf` if none).
    pub max: f64,
    /// The vector's unpredicated canonical sum (DESIGN.md §14):
    /// `alp::sum_decoded(values, None, false).sum`, the bits every sum route
    /// folds for a vector [`within`](ZoneMap::within) a band.
    pub sum: f64,
    /// Whether the vector contains at least one NaN.
    pub has_nan: bool,
}

impl ZoneMap {
    /// Builds the zone map of one vector of values in one lane-striped pass:
    /// per 64-value block, the canonical block sum ([`block_sum_all`])
    /// and eight min / max / NaN lanes over the same values.
    pub fn of(values: &[f64]) -> Self {
        alp::tier::run(
            #[inline(always)]
            || {
                let mut sum = 0.0;
                let mut min = [f64::INFINITY; SUM_LANES];
                let mut max = [f64::NEG_INFINITY; SUM_LANES];
                let mut nan = [false; SUM_LANES];
                for block in values.chunks(BLOCK) {
                    sum += block_sum_all(block);
                    // A NaN fails both comparisons: it never enters the
                    // range, only the NaN lane.
                    let mut fold = |row: &[f64]| {
                        for (((lo, hi), n), &x) in
                            min.iter_mut().zip(&mut max).zip(&mut nan).zip(row)
                        {
                            *lo = if x < *lo { x } else { *lo };
                            *hi = if x > *hi { x } else { *hi };
                            *n |= x.is_nan();
                        }
                    };
                    let (rows, tail) = block.as_chunks::<SUM_LANES>();
                    for row in rows {
                        fold(row);
                    }
                    fold(tail);
                }
                Self {
                    min: min.into_iter().fold(f64::INFINITY, f64::min),
                    max: max.into_iter().fold(f64::NEG_INFINITY, f64::max),
                    sum,
                    has_nan: nan.contains(&true),
                }
            },
        )
    }

    /// Whether any value in the zone could fall inside `[lo, hi]`.
    ///
    /// NaN-only vectors have an empty range (`min = +inf`, `max = -inf`)
    /// and overlap nothing — the `min <= max` guard matters for predicates
    /// with infinite bounds, where the sentinel infinities would otherwise
    /// compare as overlapping and force a pointless scan.
    #[inline]
    pub fn overlaps(&self, lo: f64, hi: f64) -> bool {
        self.min <= self.max && self.min <= hi && self.max >= lo
    }

    /// Whether every value in the zone is a non-NaN member of `[lo, hi]`, so
    /// a predicated aggregate needs no predicate: the vector's sum is its
    /// unpredicated canonical sum ([`ZoneMap::sum`]) and its match count its
    /// length. The comparisons are the predicate's own (`-0.0 >= 0.0` holds,
    /// a NaN bound holds for nothing), so the verdict agrees with testing
    /// every value.
    #[inline]
    pub fn within(&self, lo: f64, hi: f64) -> bool {
        !self.has_nan && self.min >= lo && self.max <= hi
    }

    /// Whether a sum over `[lo, hi]` has to read this zone's payload: it
    /// overlaps the band without lying [`within`](ZoneMap::within) it.
    #[inline]
    fn needs_scan(&self, lo: f64, hi: f64) -> bool {
        self.overlaps(lo, hi) && !self.within(lo, hi)
    }

    /// The predicate an aggregate-only scan of this zone still has to apply:
    /// `None` once the zone lies [`within`](ZoneMap::within) the band.
    #[inline]
    fn residual_band(&self, lo: f64, hi: f64) -> Option<(f64, f64)> {
        (!self.within(lo, hi)).then_some((lo, hi))
    }
}

/// Result of a predicated aggregation, including push-down effectiveness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilteredSum {
    /// Sum of values inside the predicate range.
    pub sum: f64,
    /// Number of matching values.
    pub matches: usize,
    /// Vectors the zone maps could not rule out: each vector whose zone map
    /// overlaps the band — decoded and summed, or answered from its zone map
    /// (see [`FilteredSum::vectors_all_in`]) — plus, on block-granular
    /// storage, the disjoint neighbours that shared an inflated block.
    pub vectors_scanned: usize,
    /// Vectors skipped purely from their zone map.
    pub vectors_skipped: usize,
    /// Non-NaN values among every scanned vector (validity-bitmap popcounts,
    /// or the length of a vector inside the band; zone-skipped vectors
    /// contribute nothing).
    pub valid: usize,
    /// NaN values among every scanned vector.
    pub invalid: usize,
    /// Scanned vectors whose zone map lay inside the band
    /// ([`ZoneMap::within`]), so no predicate applied. On the fused route
    /// ([`Column::sum_where`], the service's pages summed from the bytes)
    /// each was answered from [`ZoneMap::sum`] with its payload untouched;
    /// on a decoded page it took the predicate-free sum of its values — the
    /// same bits.
    pub vectors_all_in: usize,
}

impl FilteredSum {
    /// Additive identity: nothing scanned yet.
    pub const fn zero() -> Self {
        Self {
            sum: 0.0,
            matches: 0,
            vectors_scanned: 0,
            vectors_skipped: 0,
            valid: 0,
            invalid: 0,
            vectors_all_in: 0,
        }
    }

    /// Folds the partial of a later range of vectors in: the sum added after
    /// this one's, the counters added up. The one way partials combine — the
    /// service folds its page partials in page order through it.
    pub(crate) fn merge(&mut self, later: &FilteredSum) {
        self.sum += later.sum;
        self.matches += later.matches;
        self.vectors_scanned += later.vectors_scanned;
        self.vectors_skipped += later.vectors_skipped;
        self.valid += later.valid;
        self.invalid += later.invalid;
        self.vectors_all_in += later.vectors_all_in;
    }

    /// Folds one scanned vector in — the single `VectorSum → FilteredSum`
    /// step behind every route (compressed-domain, freshly decoded, cached
    /// page), which is what keeps them bit-identical: one canonical sum per
    /// vector, added into the running total afterwards.
    fn add_vector(&mut self, band: Option<(f64, f64)>, vector: alp::VectorSum<f64>) {
        self.sum += vector.sum;
        self.matches += vector.matches;
        self.valid += vector.len - vector.nans;
        self.invalid += vector.nans;
        self.vectors_all_in += band.is_none() as usize;
    }

    /// Folds one already-decoded vector (of a cached or freshly materialized
    /// page, or raw storage) with zone map `zone` in: [`alp::sum_decoded`],
    /// which builds no bitmaps, takes the NaN count from the zone map where
    /// it can and drops the predicate where the zone lies inside the band.
    pub(crate) fn add_values(&mut self, values: &[f64], zone: &ZoneMap, lo: f64, hi: f64) {
        let band = zone.residual_band(lo, hi);
        self.add_vector(band, alp::sum_decoded(values, band, zone.has_nan));
    }

    /// Folds in a vector of `len` values whose zone map lies inside the band
    /// from the zone map alone: its stored sum, every value a match, no NaN.
    fn add_zone(&mut self, zone: &ZoneMap, len: usize) {
        self.add_vector(None, alp::VectorSum { sum: zone.sum, matches: len, nans: 0, len });
    }
}

/// Why [`Column::try_decompress_vector_at`] could not deliver a vector.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorAccessError {
    /// The requested vector index is beyond the column.
    OutOfRange {
        /// Requested global vector index.
        vector: usize,
        /// Number of vectors in the column.
        vectors: usize,
    },
    /// ALP storage rejected the `(rowgroup, vector)` coordinate.
    Index(alp::VectorIndexError),
    /// The stored bytes failed to decode (corruption).
    Codec(alp_core::CoreError),
    /// The codec decoded fewer values than the vector's position implies —
    /// the block is internally inconsistent.
    Truncated {
        /// Requested global vector index.
        vector: usize,
        /// Values actually present in the decoded block.
        decoded: usize,
    },
}

impl core::fmt::Display for VectorAccessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::OutOfRange { vector, vectors } => {
                write!(f, "vector index {vector} out of range (column has {vectors} vectors)")
            }
            Self::Index(e) => write!(f, "{e}"),
            Self::Codec(e) => write!(f, "{e}"),
            Self::Truncated { vector, decoded } => {
                write!(f, "vector {vector} lies beyond the {decoded} decoded values of its block")
            }
        }
    }
}

impl std::error::Error for VectorAccessError {}

/// The one seam where a decode failure becomes a panic. [`Column`]'s
/// whole-column operators keep infallible signatures because their bytes were
/// compressed in-process by the constructor, so a failure here is a codec
/// bug, not bad input; everything that reads by caller-supplied index (the
/// service, the scrubber, the `try_` accessors) stays on the `Result`.
pub(crate) fn trusted<T>(decoded: Result<T, VectorAccessError>) -> T {
    decoded.expect("decoding bytes this column compressed in-process")
}

/// Lends `f` the scratch's float buffer, grown to one vector — where ALP_rd
/// vectors decode to on the per-vector scan routes. Only ever grown:
/// re-zeroing 8 KB per vector would cost those routes their
/// no-materialization win, and a decode overwrites whatever it reads.
fn with_vector_buf<T>(scratch: &mut Scratch, f: impl FnOnce(&mut [f64]) -> T) -> T {
    if scratch.floats.len() < VECTOR_SIZE {
        scratch.floats.resize(VECTOR_SIZE, 0.0);
    }
    f(&mut scratch.floats)
}

/// Calls `f` with the index of every set bit of a bitmap (bit `i` of word
/// `i / 64`), ascending — the sparse-word walk that turns hit words into row
/// offsets, so vectors with few matches cost almost nothing.
pub(crate) fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// A single compressed column plus scan/aggregate operators.
pub struct Column {
    storage: Storage,
    len: usize,
    /// One entry per 1024-value vector.
    zone_maps: Vec<ZoneMap>,
}

impl Column {
    /// Compresses `data` into the requested format (the COMP query measures
    /// this constructor).
    pub fn from_f64(data: &[f64], format: Format) -> Self {
        Self::from_f64_parallel(data, format, 1)
    }

    /// Like [`Column::from_f64`], but compresses on up to `threads`
    /// morsel-claiming workers through the shared [`alp_core::par`]
    /// scheduler. The stored bytes are identical to the serial constructor's
    /// at every thread count: chunk boundaries, not thread count, define the
    /// encoding units.
    pub fn from_f64_parallel(data: &[f64], format: Format, threads: usize) -> Self {
        let storage = match format {
            Format::Uncompressed => Storage::Uncompressed(data.to_vec()),
            // ALP is the one codec with random vector access; keep its native
            // compressed form so per-vector reads stay cheap.
            Format::Registered(codec) if codec.caps().random_vector_access => {
                Storage::Alp(alp::Compressor::new().compress_parallel(data, threads))
            }
            Format::Registered(codec) => {
                assert!(!codec.caps().ratio_only, "{} cannot back a stored column", codec.id());
                let vectors_per_block = if codec.caps().block_based { ROWGROUP_VECTORS } else { 1 };
                let blocks = codec
                    .par_compress(data, vectors_per_block * VECTOR_SIZE, threads)
                    .expect("in-memory compression of trusted data");
                Storage::Blocks { codec, vectors_per_block, blocks }
            }
        };
        // One row-group of zone maps per morsel, on the same workers.
        let rowgroups = data.len().div_ceil(ROWGROUP_VALUES);
        let zone_maps = alp_core::par::map_morsels(
            threads,
            rowgroups,
            || (),
            |_, m| {
                let rowgroup = data.chunks(ROWGROUP_VALUES).nth(m).unwrap_or_default();
                rowgroup.chunks(VECTOR_SIZE).map(ZoneMap::of).collect::<Vec<_>>()
            },
        );
        Self { storage, len: data.len(), zone_maps: zone_maps.concat() }
    }

    /// The per-vector zone maps.
    pub fn zone_maps(&self) -> &[ZoneMap] {
        &self.zone_maps
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed footprint in bytes (payload only, as stored).
    pub fn compressed_bytes(&self) -> usize {
        match &self.storage {
            Storage::Uncompressed(v) => v.len() * 8,
            Storage::Alp(c) => c.compressed_bits() / 8,
            Storage::Blocks { blocks, .. } => blocks.iter().map(|(b, _)| b.len()).sum(),
        }
    }

    /// The one storage walker: decodes the vectors of `vectors` (global
    /// vector indices — a morsel, a page, or a single vector) that `wanted`
    /// keeps and hands each to `visit` in ascending order, staging through
    /// `scratch`. `wanted` is consulted *before* any payload is touched, and
    /// a block of block-granular storage is inflated once per call, and only
    /// when it holds a wanted vector. Every operator of [`Column`],
    /// [`table::Table`], the [`service`] and the scrubber is a loop over
    /// this.
    ///
    /// Returns how many vectors were decompressed: the visited ones, plus —
    /// for block-granular storage — the unwanted in-range neighbours that
    /// shared an inflated block (the skipping penalty the paper attributes
    /// to general-purpose compression).
    pub(crate) fn try_walk(
        &self,
        vectors: Range<usize>,
        wanted: impl Fn(usize) -> bool,
        scratch: &mut Scratch,
        mut visit: impl FnMut(usize, &[f64]),
    ) -> Result<usize, VectorAccessError> {
        let total = self.zone_maps.len();
        let out_of_range = |vector| VectorAccessError::OutOfRange { vector, vectors: total };
        if vectors.end > total {
            return Err(out_of_range(vectors.end - 1));
        }
        // The decode buffer lives in the caller's scratch so repeated walks
        // stay allocation-free once warm.
        let mut buf = std::mem::take(&mut scratch.floats);
        let walked = (|| {
            let mut decoded = 0usize;
            match &self.storage {
                Storage::Uncompressed(values) => {
                    for v in vectors.filter(|&v| wanted(v)) {
                        visit(v, values.chunks(VECTOR_SIZE).nth(v).ok_or(out_of_range(v))?);
                        decoded += 1;
                    }
                }
                Storage::Alp(c) => {
                    if buf.len() < VECTOR_SIZE {
                        buf.resize(VECTOR_SIZE, 0.0);
                    }
                    for v in vectors.filter(|&v| wanted(v)) {
                        let n = c
                            .try_decompress_vector(
                                v / ROWGROUP_VECTORS,
                                v % ROWGROUP_VECTORS,
                                &mut buf,
                            )
                            .map_err(VectorAccessError::Index)?;
                        let live = buf
                            .get(..n)
                            .ok_or(VectorAccessError::Truncated { vector: v, decoded: n })?;
                        visit(v, live);
                        decoded += 1;
                    }
                }
                Storage::Blocks { codec, vectors_per_block, blocks } => {
                    let mut v = vectors.start;
                    while v < vectors.end {
                        let block = v / vectors_per_block;
                        let first = block * vectors_per_block;
                        let block_end = (first + vectors_per_block).min(vectors.end);
                        if (v..block_end).any(&wanted) {
                            let (bytes, count) = blocks.get(block).ok_or(out_of_range(v))?;
                            codec
                                .try_decompress_into(bytes, *count, &mut buf, scratch)
                                .map_err(VectorAccessError::Codec)?;
                            for i in (v..block_end).filter(|&i| wanted(i)) {
                                let live = buf.chunks(VECTOR_SIZE).nth(i - first).ok_or(
                                    VectorAccessError::Truncated { vector: i, decoded: buf.len() },
                                )?;
                                visit(i, live);
                            }
                            decoded += block_end - v;
                        }
                        v = block_end;
                    }
                }
            }
            Ok(decoded)
        })();
        scratch.floats = buf;
        walked
    }

    /// Predicate scan of the vectors in `vectors` whose zone map overlaps
    /// `lo..=hi`: hands each one's [`alp::VectorScan`] (partial sum, match
    /// count, validity and hit words) to `visit`. ALP and raw storage scan in
    /// place ([`Column::try_scan_vector_fused`]); codec bytes go through
    /// [`Column::try_walk`] and [`alp::scan_decoded`], the same canonical sum,
    /// so every storage folds bit-identically. This is the route of the
    /// consumers that walk the words; a plain SUM takes the bitmap-free
    /// [`Column::try_sum_where_in`]. Returns the decompressed-vector count like
    /// [`Column::try_walk`].
    pub(crate) fn try_scan_range(
        &self,
        vectors: Range<usize>,
        lo: f64,
        hi: f64,
        scratch: &mut Scratch,
        mut visit: impl FnMut(usize, &alp::VectorScan<f64>),
    ) -> Result<usize, VectorAccessError> {
        let wanted = |v: usize| self.zone_maps.get(v).is_some_and(|z| z.overlaps(lo, hi));
        if !self.supports_fused_scan() {
            return self.try_walk(vectors, wanted, scratch, |v, values| {
                let mut scan = alp::VectorScan::empty(values.len());
                alp::scan_decoded(values, lo, hi, false, &mut scan);
                visit(v, &scan);
            });
        }
        let mut scanned = 0usize;
        for v in vectors.filter(|&v| wanted(v)) {
            // `None` only for codec bytes, which took the branch above.
            if let Some(scan) = self.try_scan_vector_fused(v, lo, hi, scratch)? {
                visit(v, &scan);
                scanned += 1;
            }
        }
        Ok(scanned)
    }

    /// [`Column::sum_where`] over a vector range (the service's fused page
    /// route is this over one page): every vector whose zone map overlaps
    /// `lo..=hi`, folded in vector order. A vector whose zone map lies inside
    /// the band ([`ZoneMap::within`]) is answered from its stored sum without
    /// touching its payload; the others take the aggregate-only scan — ALP
    /// storage runs [`alp::Compressed::try_sum_vector`] in the compressed
    /// domain, raw values and codec bytes go through [`Column::try_walk`] and
    /// [`FilteredSum::add_values`]. Every route folds the same canonical sum,
    /// so every storage folds bit-identically, and no route builds bitmap
    /// words.
    pub(crate) fn try_sum_where_in(
        &self,
        vectors: Range<usize>,
        lo: f64,
        hi: f64,
        scratch: &mut Scratch,
    ) -> Result<FilteredSum, VectorAccessError> {
        let zones = &self.zone_maps;
        let range_zones = zones.get(vectors.clone()).ok_or(VectorAccessError::OutOfRange {
            vector: vectors.end.saturating_sub(1),
            vectors: zones.len(),
        })?;
        let mut part = FilteredSum::zero();
        match &self.storage {
            Storage::Alp(c) => with_vector_buf(scratch, |buf| {
                for (v, zone) in vectors.clone().zip(range_zones) {
                    if zone.within(lo, hi) {
                        part.add_zone(zone, self.vector_len(v));
                    } else if zone.overlaps(lo, hi) {
                        let (rowgroup, vector) = (v / ROWGROUP_VECTORS, v % ROWGROUP_VECTORS);
                        let band = Some((lo, hi));
                        let sum = c
                            .try_sum_vector(rowgroup, vector, band, zone.has_nan, buf)
                            .map_err(VectorAccessError::Index)?;
                        part.add_vector(band, sum);
                    } else {
                        continue;
                    }
                    part.vectors_scanned += 1;
                }
                Ok(())
            })?,
            _ => {
                // The walker decodes only the vectors that need the
                // predicate; those inside the band fold from their zone maps
                // in between, so the fold keeps vector order.
                let walk = |v: usize| zones.get(v).is_some_and(|z| z.needs_scan(lo, hi));
                let answer = |part: &mut FilteredSum, from: Range<usize>| {
                    for (v, zone) in from.clone().zip(zones.get(from).unwrap_or_default()) {
                        if zone.within(lo, hi) {
                            part.add_zone(zone, self.vector_len(v));
                        }
                    }
                };
                let mut next = vectors.start;
                let walked = self.try_walk(vectors.clone(), walk, scratch, |v, values| {
                    answer(&mut part, next..v);
                    if let Some(zone) = zones.get(v) {
                        part.add_values(values, zone, lo, hi);
                    }
                    next = v + 1;
                })?;
                answer(&mut part, next..vectors.end);
                // The walk counted what it decoded; a vector answered from
                // its zone map counts too, unless it shared an inflated block.
                let unit = self.vectors_per_unit();
                let inflated = |v: usize| {
                    let first = v - v % unit;
                    (first.max(vectors.start)..(first + unit).min(vectors.end)).any(walk)
                };
                let answered = vectors.clone().zip(range_zones);
                part.vectors_scanned =
                    walked + answered.filter(|&(v, z)| z.within(lo, hi) && !inflated(v)).count();
            }
        }
        part.vectors_skipped = vectors.len() - part.vectors_scanned;
        Ok(part)
    }

    /// Values in vector `v` (the column's last vector may be short).
    pub(crate) fn vector_len(&self, v: usize) -> usize {
        self.len.saturating_sub(v.saturating_mul(VECTOR_SIZE)).min(VECTOR_SIZE)
    }

    /// Vectors per independently decoded unit of the storage: a block of
    /// block-granular codec bytes, one vector for everything else.
    fn vectors_per_unit(&self) -> usize {
        match &self.storage {
            Storage::Blocks { vectors_per_block, .. } => *vectors_per_block,
            _ => 1,
        }
    }

    /// `SELECT sum(x) WHERE lo <= x <= hi` with zone-map push-down.
    ///
    /// Vector-granular formats (ALP, the per-value codecs, uncompressed) skip
    /// non-overlapping vectors without touching their payload. GPZip can only
    /// skip a whole row-group block when *every* vector inside it is
    /// disjoint — the skipping disadvantage of block-based compression the
    /// paper describes.
    pub fn sum_where(&self, lo: f64, hi: f64) -> FilteredSum {
        let all = 0..self.zone_maps.len();
        trusted(self.try_sum_where_in(all, lo, hi, &mut Scratch::new()))
    }

    /// SCAN: decompresses every vector, returns the number of tuples
    /// delivered. Every delivered value is read (folded into a checksum that
    /// is black-boxed), so the uncompressed path is honestly memory-bound —
    /// without the fold a slice of raw data could be "scanned" without
    /// touching a byte.
    pub fn scan(&self) -> usize {
        self.par_scan(1)
    }

    /// SUM: scan plus vectorized aggregation.
    pub fn sum(&self) -> f64 {
        self.par_sum(1)
    }

    /// Parallel SCAN over `threads` workers (morsel-driven). Returns total
    /// tuples scanned.
    pub fn par_scan(&self, threads: usize) -> usize {
        self.fold_vectors(threads, |v| {
            std::hint::black_box(fold_bits(v));
            v.len() as f64
        }) as usize
    }

    /// Parallel SUM over `threads` workers.
    pub fn par_sum(&self, threads: usize) -> f64 {
        self.fold_vectors(threads, |v| alp::sum_decoded(v, None, false).sum)
    }

    /// Adds up `consume(vector)` over every decoded vector. Workers claim
    /// 100-vector morsels from the workspace-shared [`alp_core::par`] queue,
    /// each walking its morsels in order through its own [`Scratch`];
    /// partials are added at the join barrier (at one thread: one running
    /// total in vector order).
    fn fold_vectors(&self, threads: usize, consume: impl Fn(&[f64]) -> f64 + Sync) -> f64 {
        let vectors = self.zone_maps.len();
        let (_, total) = alp_core::par::fold_morsels(
            threads.max(1),
            vectors.div_ceil(ROWGROUP_VECTORS),
            || (Scratch::new(), 0.0f64),
            |(scratch, acc), m| {
                let morsel = m * ROWGROUP_VECTORS..((m + 1) * ROWGROUP_VECTORS).min(vectors);
                trusted(self.try_walk(morsel, |_| true, scratch, |_, v| *acc += consume(v)));
            },
            |(scratch, a), (_, b)| (scratch, a + b),
        );
        total
    }

    /// Decompresses the vector with global index `vector_idx` into `out`
    /// (cleared first), staging through `scratch`, and returns the live
    /// count — the random-access form of the storage walker. Never panics:
    /// out-of-range indices and corrupt payloads come back as typed
    /// [`VectorAccessError`]s. For block-based storage (GPZip) this inflates
    /// the whole containing block — the penalty the paper attributes to
    /// general-purpose compression — so range consumers walk instead.
    pub fn try_decompress_vector_at(
        &self,
        vector_idx: usize,
        out: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> Result<usize, VectorAccessError> {
        out.clear();
        let vectors = self.zone_maps.len();
        if vector_idx >= vectors {
            return Err(VectorAccessError::OutOfRange { vector: vector_idx, vectors });
        }
        let one = vector_idx..vector_idx + 1;
        self.try_walk(one, |_| true, scratch, |_, live| out.extend_from_slice(live))?;
        Ok(out.len())
    }

    /// Fused per-vector scan — unpack→FOR→patch→predicate→aggregate in one
    /// pass, returning the vector's partial aggregates plus validity and hit
    /// bitmaps without materializing a `Vec<f64>`. `Ok(None)` means this
    /// storage has no fused kernel (codec bytes); the caller materializes
    /// instead. The partial sum is the same bits [`Column::sum_where`] adds
    /// for this vector.
    pub fn try_scan_vector_fused(
        &self,
        vector_idx: usize,
        lo: f64,
        hi: f64,
        scratch: &mut Scratch,
    ) -> Result<Option<alp::VectorScan<f64>>, VectorAccessError> {
        let vectors = self.zone_maps.len();
        if vector_idx >= vectors {
            return Err(VectorAccessError::OutOfRange { vector: vector_idx, vectors });
        }
        match &self.storage {
            Storage::Alp(c) => with_vector_buf(scratch, |buf| {
                let (rowgroup, vector) =
                    (vector_idx / ROWGROUP_VECTORS, vector_idx % ROWGROUP_VECTORS);
                c.try_scan_vector(rowgroup, vector, lo, hi, false, buf)
                    .map(Some)
                    .map_err(VectorAccessError::Index)
            }),
            Storage::Uncompressed(values) => {
                // Already materialized: scan the stored slice in place — the
                // fused path's "no intermediate copy" win applies here too.
                let start = vector_idx.saturating_mul(VECTOR_SIZE);
                let end = start.saturating_add(VECTOR_SIZE).min(values.len());
                let live = values
                    .get(start..end)
                    .ok_or(VectorAccessError::OutOfRange { vector: vector_idx, vectors })?;
                let mut scan = alp::VectorScan::empty(live.len());
                alp::scan_decoded(live, lo, hi, false, &mut scan);
                Ok(Some(scan))
            }
            Storage::Blocks { .. } => Ok(None),
        }
    }

    /// Whether [`Column::try_scan_vector_fused`] has a real fused path for
    /// this column's storage.
    pub fn supports_fused_scan(&self) -> bool {
        matches!(self.storage, Storage::Alp(_) | Storage::Uncompressed(_))
    }

    /// `SELECT row_ids WHERE lo <= x <= hi` with zone-map push-down: returns
    /// global row indices of matching values.
    ///
    /// The selection vector is derived from per-vector hit-bitmap words
    /// ([`alp::VectorScan::hits`] — straight from the compressed domain on
    /// fused storages), walked sparsely, so vectors with few (or no) matches
    /// cost almost nothing beyond the scan itself.
    pub fn filter_indices(&self, lo: f64, hi: f64) -> Vec<u64> {
        let mut ids = Vec::new();
        let all = 0..self.zone_maps.len();
        trusted(self.try_scan_range(all, lo, hi, &mut Scratch::new(), |v, scan| {
            let base = v * VECTOR_SIZE;
            for_each_set_bit(&scan.hits, |i| ids.push((base + i) as u64));
        }));
        ids
    }
}

/// XOR-fold of a vector's bit patterns — the cheapest possible consumer that
/// still forces every value to be read.
#[inline]
fn fold_bits(v: &[f64]) -> u64 {
    let mut acc = 0u64;
    for &x in v {
        acc ^= x.to_bits();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formats() -> Vec<Format> {
        vec![
            Format::Uncompressed,
            Format::alp(),
            Format::by_id("gorilla").unwrap(),
            Format::by_id("patas").unwrap(),
            Format::by_id("gpzip").unwrap(),
        ]
    }

    fn sample_data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 5000) as f64) / 100.0).collect()
    }

    #[test]
    fn scan_counts_all_tuples_in_every_format() {
        let data = sample_data(250_000);
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            assert_eq!(col.scan(), data.len(), "{}", fmt.name());
        }
    }

    #[test]
    fn sum_agrees_across_formats() {
        let data = sample_data(123_456);
        let expected: f64 = data.iter().sum();
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            let got = col.sum();
            assert!(
                (got - expected).abs() <= expected.abs() * 1e-12,
                "{}: {got} vs {expected}",
                fmt.name()
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let data = sample_data(300_000);
        for fmt in [Format::alp(), Format::Uncompressed] {
            let col = Column::from_f64(&data, fmt);
            assert_eq!(col.par_scan(4), col.scan());
            let serial = col.sum();
            let parallel = col.par_sum(4);
            assert!((serial - parallel).abs() <= serial.abs() * 1e-9);
        }
    }

    #[test]
    fn parallel_construction_is_identical_to_serial() {
        let data = sample_data(3 * ROWGROUP_VALUES + 700);
        for fmt in formats() {
            let serial = Column::from_f64(&data, fmt);
            for threads in [1, 2, 7] {
                let par = Column::from_f64_parallel(&data, fmt, threads);
                assert_eq!(
                    par.compressed_bytes(),
                    serial.compressed_bytes(),
                    "{} t={threads}",
                    fmt.name()
                );
                assert_eq!(par.scan(), serial.scan(), "{} t={threads}", fmt.name());
                let (a, b) = (par.sum(), serial.sum());
                assert!((a - b).abs() <= b.abs() * 1e-12, "{} t={threads}", fmt.name());
            }
        }
    }

    #[test]
    fn compressed_sizes_are_sane() {
        let data = sample_data(200_000);
        let raw = Column::from_f64(&data, Format::Uncompressed).compressed_bytes();
        let alp = Column::from_f64(&data, Format::alp()).compressed_bytes();
        let zstd_sub = Column::from_f64(&data, Format::by_id("gpzip").unwrap()).compressed_bytes();
        assert_eq!(raw, data.len() * 8);
        assert!(alp < raw / 2, "alp {alp} raw {raw}");
        assert!(zstd_sub < raw, "gpzip {zstd_sub} raw {raw}");
    }

    #[test]
    fn empty_column_works() {
        for fmt in formats() {
            let col = Column::from_f64(&[], fmt);
            assert!(col.is_empty());
            assert_eq!(col.scan(), 0);
            assert_eq!(col.sum(), 0.0);
            assert_eq!(col.par_sum(4), 0.0);
        }
    }

    #[test]
    fn zone_maps_match_data() {
        let data = sample_data(5000);
        let col = Column::from_f64(&data, Format::alp());
        assert_eq!(col.zone_maps().len(), 5);
        for (i, zm) in col.zone_maps().iter().enumerate() {
            let chunk = &data[i * VECTOR_SIZE..((i + 1) * VECTOR_SIZE).min(data.len())];
            assert_eq!(zm.min, chunk.iter().copied().fold(f64::INFINITY, f64::min));
            assert_eq!(zm.max, chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
    }

    #[test]
    fn sum_where_agrees_with_reference_in_every_format() {
        // Sorted-ish data so zone maps actually prune.
        let data: Vec<f64> = (0..300_000).map(|i| (i / 10) as f64 / 100.0).collect();
        let (lo, hi) = (50.0, 80.0);
        let reference: f64 = data.iter().filter(|&&x| (lo..=hi).contains(&x)).sum();
        let ref_matches = data.iter().filter(|&&x| (lo..=hi).contains(&x)).count();
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            let r = col.sum_where(lo, hi);
            assert_eq!(r.matches, ref_matches, "{}", fmt.name());
            assert!((r.sum - reference).abs() <= reference.abs() * 1e-12, "{}", fmt.name());
            assert!(r.vectors_skipped > 0, "{} should prune", fmt.name());
        }
    }

    #[test]
    fn pushdown_prunes_more_at_vector_granularity_than_blocks() {
        let data: Vec<f64> = (0..500_000).map(|i| i as f64).collect();
        // A range covering ~2 vectors.
        let (lo, hi) = (250_000.0, 252_000.0);
        let alp = Column::from_f64(&data, Format::alp()).sum_where(lo, hi);
        let gz = Column::from_f64(&data, Format::by_id("gpzip").unwrap()).sum_where(lo, hi);
        assert_eq!(alp.matches, gz.matches);
        assert!(alp.vectors_scanned <= 4, "alp scanned {}", alp.vectors_scanned);
        // GPZip had to inflate its whole 100-vector block.
        assert!(gz.vectors_scanned >= 100, "gpzip scanned {}", gz.vectors_scanned);
    }

    #[test]
    fn sum_where_ignores_nans_and_handles_empty_range() {
        let mut data = sample_data(10_000);
        data[5] = f64::NAN;
        for fmt in [Format::alp(), Format::Uncompressed] {
            let col = Column::from_f64(&data, fmt);
            let all = col.sum_where(f64::NEG_INFINITY, f64::INFINITY);
            assert_eq!(all.matches, data.len() - 1); // NaN never matches
            let none = col.sum_where(1e18, 2e18);
            assert_eq!(none.matches, 0);
            assert_eq!(none.vectors_scanned, 0);
        }
    }

    #[test]
    fn nan_never_poisons_zone_ranges_and_is_tracked_explicitly() {
        // NaNs scattered through the first vector, right next to in-range
        // live values. A NaN-poisoned min/max would make `overlaps` return
        // false and silently drop the live neighbours.
        let mut data = sample_data(3 * VECTOR_SIZE);
        data[0] = f64::NAN;
        data[100] = f64::NAN;
        data[VECTOR_SIZE - 1] = f64::NAN;
        let live_in_range =
            |lo: f64, hi: f64| data.iter().filter(|x| **x >= lo && **x <= hi).count();
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            let zm = col.zone_maps()[0];
            assert!(zm.min.is_finite() && zm.max.is_finite(), "{}", fmt.name());
            assert!(zm.has_nan, "{}", fmt.name());
            assert!(!col.zone_maps()[1].has_nan, "{}", fmt.name());
            // The NaN-bearing vector must still be scanned for a predicate
            // covering its live values, and every live row found.
            let r = col.sum_where(0.0, 49.99);
            assert_eq!(r.matches, live_in_range(0.0, 49.99), "{}", fmt.name());
            // Rows adjacent to the NaNs are still addressable by value.
            let ids = col.filter_indices(0.01, 0.01);
            assert!(ids.contains(&1), "{}", fmt.name());
        }
    }

    #[test]
    fn all_nan_vectors_have_empty_ranges_that_overlap_nothing() {
        let zm = ZoneMap::of(&[f64::NAN; 16]);
        assert!(zm.has_nan);
        assert_eq!(zm.min, f64::INFINITY);
        assert_eq!(zm.max, f64::NEG_INFINITY);
        assert!(!zm.overlaps(f64::NEG_INFINITY, f64::INFINITY));
        // An all-NaN vector inside a column is pruned, not mis-scanned.
        let mut data = sample_data(2 * VECTOR_SIZE);
        for v in data.iter_mut().take(VECTOR_SIZE) {
            *v = f64::NAN;
        }
        for fmt in [Format::alp(), Format::Uncompressed] {
            let col = Column::from_f64(&data, fmt);
            let r = col.sum_where(f64::NEG_INFINITY, f64::INFINITY);
            assert_eq!(r.matches, VECTOR_SIZE, "{}", fmt.name());
            assert!(r.vectors_skipped >= 1, "{} should prune the NaN vector", fmt.name());
        }
    }

    #[test]
    fn within_is_the_predicate_applied_to_every_value() {
        let inf = f64::INFINITY;
        let zone = ZoneMap::of(&[1.0, 2.5, 4.0]);
        assert!(zone.within(1.0, 4.0), "boundary-equal bounds are inclusive");
        assert!(zone.within(-inf, inf));
        assert!(!zone.within(1.5, 4.0) && !zone.within(1.0, 3.5));
        assert!(!zone.within(4.0, 1.0), "an empty band holds nothing");
        assert!(!zone.within(f64::NAN, 4.0) && !zone.within(1.0, f64::NAN));
        // One NaN spoils the vector: it is live but can never match.
        let nan = ZoneMap::of(&[1.0, f64::NAN, 4.0]);
        assert!(nan.has_nan && !nan.within(-inf, inf));
        assert!(!ZoneMap::of(&[f64::NAN; 4]).within(-inf, inf), "NaN-only vector");
        // Signed zeros compare equal, as they do in the predicate itself.
        let zeros = ZoneMap::of(&[-0.0, 0.0]);
        assert!(zeros.within(0.0, 0.0) && zeros.within(-0.0, -0.0));
        // Infinite values are ordinary members of an unbounded band only.
        let wide = ZoneMap::of(&[-inf, 0.0, inf]);
        assert!(wide.within(-inf, inf) && !wide.within(f64::MIN, f64::MAX));
    }

    #[test]
    fn vectors_inside_the_band_take_the_predicate_free_route() {
        // Ascending data: vector `v` spans `v*1024 ..= v*1024 + 1023`.
        let mut data: Vec<f64> = (0..8 * VECTOR_SIZE).map(|i| i as f64).collect();
        data[5 * VECTOR_SIZE + 3] = f64::NAN; // vector 5 can never be all-in
        let (lo, hi) = (1.5 * VECTOR_SIZE as f64, 7.0 * VECTOR_SIZE as f64 - 1.0);
        let reference: f64 = data.iter().filter(|&&x| x >= lo && x <= hi).sum();
        for fmt in formats() {
            let r = Column::from_f64(&data, fmt).sum_where(lo, hi);
            // Vectors 1..=6 overlap; 1 straddles `lo`, 5 holds a NaN.
            assert_eq!(r.vectors_all_in, 4, "{}", fmt.name());
            assert_eq!(r.matches, 5 * VECTOR_SIZE + VECTOR_SIZE / 2 - 1, "{}", fmt.name());
            assert_eq!(r.invalid, 1, "{}", fmt.name());
            assert_eq!(r.sum, reference, "{} (integers: every order is exact)", fmt.name());
            // Nothing is inside an empty band, and nothing is scanned for it.
            let none = Column::from_f64(&data, fmt).sum_where(hi, lo);
            assert_eq!((none.vectors_all_in, none.matches), (0, 0), "{}", fmt.name());
        }
    }

    /// Shifts every value of vector `v` in the stored payload, leaving its
    /// zone map as it was built.
    fn damage(column: &mut Column, v: usize) {
        match &mut column.storage {
            Storage::Uncompressed(values) => {
                values[v * VECTOR_SIZE..(v + 1) * VECTOR_SIZE].iter_mut().for_each(|x| *x += 0.01);
            }
            Storage::Alp(c) => match &mut c.rowgroups[v / ROWGROUP_VECTORS] {
                alp::RowGroup::Alp(group) => group.vectors[v % ROWGROUP_VECTORS].for_base += 1,
                alp::RowGroup::Rd(..) => panic!("decimal data encodes as ALP"),
            },
            Storage::Blocks { .. } => panic!("codec bytes are not damaged here"),
        }
    }

    #[test]
    fn a_vector_inside_the_band_is_answered_without_reading_its_payload() {
        use crate::cache::CacheConfig;
        use crate::service::{QueryOptions, Service, ServiceConfig, Store};
        use std::sync::Arc;

        // Ascending quarters: vector `v` spans `v * 256 ..= v * 256 + 255.75`.
        let data: Vec<f64> = (0..4 * VECTOR_SIZE).map(|i| i as f64 / 4.0).collect();
        let zone = |v: usize| ZoneMap::of(&data[v * VECTOR_SIZE..(v + 1) * VECTOR_SIZE]);
        // Vectors 0..=2 lie inside; the second band straddles vector 1.
        let inside = (zone(0).min, zone(2).max);
        let straddling = (zone(1).min + 10.0, zone(1).max);
        let bits = |r: FilteredSum| (r.sum.to_bits(), r.matches, r.vectors_all_in);
        let zero_entries = CacheConfig { max_entries: 0, ..CacheConfig::default_config() };
        let opts = QueryOptions { threads: Some(1), ..QueryOptions::default() };
        let no_fused = QueryOptions { no_fused: true, ..opts };
        for fmt in [Format::alp(), Format::Uncompressed] {
            let pristine = Column::from_f64(&data, fmt);
            let want = (
                pristine.sum_where(inside.0, inside.1),
                pristine.sum_where(straddling.0, straddling.1),
            );
            assert_eq!(want.0.vectors_all_in, 3, "{}", fmt.name());
            let mut column = Column::from_f64(&data, fmt);
            damage(&mut column, 1);
            // The damaged vector's answer inside the band comes from its
            // zone map: unchanged, bit for bit.
            let got = column.sum_where(inside.0, inside.1);
            assert_eq!(bits(got), bits(want.0), "{}: inside the band", fmt.name());
            // A band it straddles has to decode it, and sees the damage.
            let got = column.sum_where(straddling.0, straddling.1);
            assert_ne!(got.sum.to_bits(), want.1.sum.to_bits(), "{}: straddling", fmt.name());
            // The service's fused pages answer the same way; `no_fused`
            // decodes every vector it scans, so it reports the damage even
            // inside the band.
            let service =
                Service::new(Arc::new(Store::new(column, zero_entries)), ServiceConfig::default());
            let fused = service.sum_where(inside.0, inside.1, &opts).unwrap();
            assert_eq!(bits(fused.value), bits(want.0), "{}: fused service", fmt.name());
            let decoded = service.sum_where(inside.0, inside.1, &no_fused).unwrap();
            assert_ne!(
                decoded.value.sum.to_bits(),
                want.0.sum.to_bits(),
                "{}: no_fused",
                fmt.name()
            );
        }
    }

    #[test]
    fn try_decompress_vector_at_delivers_every_vector_of_every_format() {
        let data = sample_data(ROWGROUP_VALUES + 700);
        let mut scratch = Scratch::new();
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            let mut got = Vec::new();
            let vectors = col.zone_maps().len();
            for (v, want) in data.chunks(VECTOR_SIZE).enumerate() {
                let n = col.try_decompress_vector_at(v, &mut got, &mut scratch).unwrap();
                assert_eq!(n, want.len(), "{} v={v}", fmt.name());
                for (a, b) in want.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} v={v}", fmt.name());
                }
            }
            // Out-of-range is a typed error, not a panic.
            let err = col.try_decompress_vector_at(vectors, &mut got, &mut scratch).unwrap_err();
            assert_eq!(err, VectorAccessError::OutOfRange { vector: vectors, vectors });
        }
    }

    #[test]
    fn a_walk_inflates_each_block_once_and_visits_only_wanted_vectors() {
        let data = sample_data(2 * ROWGROUP_VALUES + 700);
        let mut scratch = Scratch::new();
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            let vectors = col.zone_maps().len();
            // Vectors 3 and 150: one per row-group block, none in the third.
            let mut seen = Vec::new();
            let decoded = col
                .try_walk(
                    0..vectors,
                    |v| v == 3 || v == 150,
                    &mut scratch,
                    |v, live| {
                        assert_eq!(live, &data[v * VECTOR_SIZE..(v + 1) * VECTOR_SIZE]);
                        seen.push(v);
                    },
                )
                .unwrap();
            assert_eq!(seen, [3, 150], "{}", fmt.name());
            let block_granular = fmt == Format::by_id("gpzip").unwrap();
            let expect = if block_granular { 2 * ROWGROUP_VECTORS } else { 2 };
            assert_eq!(decoded, expect, "{}", fmt.name());
            // A range past the column is a typed error before any decode.
            let err = col.try_walk(0..vectors + 1, |_| true, &mut scratch, |_, _| {}).unwrap_err();
            assert_eq!(err, VectorAccessError::OutOfRange { vector: vectors, vectors });
        }
    }

    #[test]
    fn short_tail_vectors_are_delivered() {
        let data = sample_data(ROWGROUP_VALUES + 700);
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            assert_eq!(col.scan(), data.len(), "{}", fmt.name());
        }
    }
}
