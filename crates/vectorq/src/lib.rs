//! The query engine behind `alp query` and the benchmark, in the style of
//! Tectorwise (Kersten et al., VLDB'18): one `f64` column, stored raw or as
//! ALP row-group bodies of 100 × 1024 values (an [`alp::format::BodyColumn`],
//! the bytes an `"ALPT"` stream's frames hold, read in place), with a
//! [`ZoneMap`] per vector.
//!
//! Its one aggregate is the predicated sum, [`Column::sum_where`]: a vector
//! the zone maps rule out is skipped, one inside the band is answered from
//! its zone map's stored sum, and the rest are summed one vector at a time —
//! in the compressed domain on ALP ([`alp::format::VectorView::sum_planned`]),
//! in place on raw values — block by block as their block zones plan it: a
//! 64-value block outside the band is not decoded, one inside it folds its
//! stored sum. The [`service`] runs the same sum page by page on concurrent
//! workers behind admission, deadlines, a resident page set ([`cache`]) and
//! quarantine, and the [`scrub`]ber re-verifies quarantined pages. Parallel
//! work goes through the workspace's morsel scheduler, [`alp::par`], which
//! also builds the column in [`Column::from_f64_parallel`]: one pass, each
//! row-group's body and zones on one worker.
//!
//! The paper's whole-column SCAN and SUM over every codec (Table 6, Fig. 6)
//! are the benchmark harness's (`crates/bench`), not this engine's.

pub mod cache;
pub mod scrub;
pub mod service;

use core::ops::Range;

use alp::decode::{block_sum_all, SUM_LANES};
use alp::format::BodyColumn;
use alp::BlockPlan;
use alp_core::Scratch;
use fastlanes::bitpack::BLOCK;
use fastlanes::VECTOR_SIZE;

/// Row-group size in vectors (matches the ALP compressor's default).
pub const ROWGROUP_VECTORS: usize = 100;
/// Row-group size in values.
pub const ROWGROUP_VALUES: usize = ROWGROUP_VECTORS * VECTOR_SIZE;
/// 64-value blocks per vector: the unit the FFOR layout unpacks on its own.
const VECTOR_BLOCKS: usize = VECTOR_SIZE / BLOCK;

/// Storage format of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Plain `f64` array (the paper's "Uncompressed" baseline).
    Uncompressed,
    /// ALP (this paper), kept in its compressed form and read one vector at
    /// a time.
    Alp,
}

impl Format {
    /// ALP — the engine's default compressed format.
    pub fn alp() -> Format {
        Format::Alp
    }

    /// Display name for tables and messages.
    pub fn name(&self) -> &'static str {
        match self {
            Format::Uncompressed => "Uncompressed",
            Format::Alp => "ALP",
        }
    }
}

enum Storage {
    Uncompressed(Vec<f64>),
    Alp(BodyColumn<f64>),
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
    /// Builds the zone map of one vector of values in one lane-striped pass
    /// (`ZoneMap::with_blocks` without the block zones).
    pub fn of(values: &[f64]) -> Self {
        Self::with_blocks(values).0
    }

    /// Builds the zone map and the [`BlockZones`] of one vector of values in
    /// one lane-striped pass: per 64-value block, the canonical block sum
    /// ([`block_sum_all`]) and eight min / max / NaN lanes over the same
    /// values, the lanes reduced per block. The vector's figures fold the
    /// blocks' in block order — its sum as every sum route folds block sums.
    /// A vector longer than [`VECTOR_SIZE`] gets block zones for its first
    /// [`VECTOR_BLOCKS`] blocks only.
    pub(crate) fn with_blocks(values: &[f64]) -> (Self, BlockZones) {
        alp::tier::run(
            #[inline(always)]
            || {
                let mut blocks = BlockZones::EMPTY;
                let mut zone =
                    Self { min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0, has_nan: false };
                let mut nan = [false; SUM_LANES];
                for (b, block) in values.chunks(BLOCK).enumerate() {
                    let sum = block_sum_all(block);
                    let mut min = [f64::INFINITY; SUM_LANES];
                    let mut max = [f64::NEG_INFINITY; SUM_LANES];
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
                    let min = min.into_iter().fold(f64::INFINITY, f64::min);
                    let max = max.into_iter().fold(f64::NEG_INFINITY, f64::max);
                    zone.min = zone.min.min(min);
                    zone.max = zone.max.max(max);
                    zone.sum += sum;
                    let slots = (blocks.min.get_mut(b), blocks.max.get_mut(b));
                    if let ((Some(lo), Some(hi)), Some(s)) = (slots, blocks.sum.get_mut(b)) {
                        (*lo, *hi, *s) = (min, max, sum);
                    }
                }
                zone.has_nan = nan.contains(&true);
                (zone, blocks)
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
}

/// Per-block statistics of one vector, kept beside its [`ZoneMap`]: for each
/// 64-value block, the non-NaN min and max and the canonical block sum
/// ([`block_sum_all`]), struct-of-arrays — 384 bytes per vector. A block past
/// the end of a short vector holds the empty range (`+inf`, `-inf`) and
/// `+0.0`. They let a NaN-free vector that straddles a band be summed block
/// by block ([`Column::sum_where`], DESIGN.md §14): a block outside the band
/// is not decoded, one inside it folds its stored sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BlockZones {
    /// Minimum non-NaN value of each block (`+inf` if none).
    min: [f64; VECTOR_BLOCKS],
    /// Maximum non-NaN value of each block (`-inf` if none).
    max: [f64; VECTOR_BLOCKS],
    /// Each block's unpredicated canonical sum, `block_sum_all(block)`.
    sum: [f64; VECTOR_BLOCKS],
}

impl BlockZones {
    /// Every block empty.
    const EMPTY: Self = Self {
        min: [f64::INFINITY; VECTOR_BLOCKS],
        max: [f64::NEG_INFINITY; VECTOR_BLOCKS],
        sum: [0.0; VECTOR_BLOCKS],
    };

    /// The plan of a NaN-free vector for `[lo, hi]`: two 16-wide compares,
    /// one for the blocks whose range misses the band (an empty block among
    /// them), one for the blocks whose range lies inside it. The comparisons
    /// are the predicate's own, as in [`ZoneMap::overlaps`] and
    /// [`ZoneMap::within`].
    fn plan(&self, lo: f64, hi: f64) -> BlockPlan<'_, f64> {
        let (mut skip, mut inside) = (0u16, 0u16);
        for (b, (&min, &max)) in self.min.iter().zip(&self.max).enumerate() {
            skip |= u16::from(!((min <= max) & (min <= hi) & (max >= lo))) << b;
            inside |= u16::from((min >= lo) & (max <= hi)) << b;
        }
        BlockPlan::new(skip, inside, &self.sum)
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
    /// overlaps the band, decoded and summed or answered from its zone map
    /// (see [`FilteredSum::vectors_all_in`]).
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
    /// vector, added into the running total afterwards. `all_in` says the
    /// vector's zone map lay inside the band.
    pub(crate) fn add_vector(&mut self, all_in: bool, vector: alp::VectorSum<f64>) {
        self.sum += vector.sum;
        self.matches += vector.matches;
        self.valid += vector.len - vector.nans;
        self.invalid += vector.nans;
        self.vectors_all_in += all_in as usize;
        self.vectors_scanned += 1;
    }

    /// Folds in a vector of `len` values whose zone map lies inside the band
    /// from the zone map alone: its stored sum, every value a match, no NaN.
    fn add_zone(&mut self, zone: &ZoneMap, len: usize) {
        self.add_vector(true, alp::VectorSum { sum: zone.sum, matches: len, nans: 0, len });
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
}

impl core::fmt::Display for VectorAccessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::OutOfRange { vector, vectors } => {
                write!(f, "vector index {vector} out of range (column has {vectors} vectors)")
            }
        }
    }
}

impl std::error::Error for VectorAccessError {}

/// The one seam where a failure on the column's own bytes becomes a panic.
/// [`Column`]'s constructor and whole-column operators keep infallible
/// signatures because the constructor compressed those bytes in-process, so
/// a failure here is a codec bug, not bad input; everything that reads by
/// caller-supplied index (the service, the scrubber, the `try_` accessors)
/// stays on the `Result`.
pub(crate) fn trusted<T, E: core::fmt::Debug>(result: Result<T, E>) -> T {
    result.expect("bytes this column compressed in-process")
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

/// A single stored column plus its operators.
pub struct Column {
    storage: Storage,
    len: usize,
    /// One entry per 1024-value vector.
    zone_maps: Vec<ZoneMap>,
    /// One entry per vector, beside its zone map.
    block_zones: Vec<BlockZones>,
}

impl Column {
    /// Stores `data` in the requested format.
    pub fn from_f64(data: &[f64], format: Format) -> Self {
        Self::from_f64_parallel(data, format, 1)
    }

    /// Like [`Column::from_f64`], in one pass on up to `threads` workers of
    /// the shared [`alp::par`] scheduler: a morsel is a row-group, whose body
    /// ([`alp::Compressor::encode_rowgroup_body`] into the worker's buffer,
    /// copied out at its exact size), zone maps and block zones its worker
    /// builds. The bodies are those of an `"ALPT"` stream of the same values
    /// at every thread count: row-groups, not threads, are the encoding units.
    pub fn from_f64_parallel(data: &[f64], format: Format, threads: usize) -> Self {
        let compressor = alp::Compressor::new();
        let morsels = alp::par::map_morsels(
            threads,
            data.len().div_ceil(ROWGROUP_VALUES),
            Default::default,
            |(scratch, body, stats): &mut (_, Vec<u8>, _), m| {
                let rowgroup = data.chunks(ROWGROUP_VALUES).nth(m).unwrap_or_default();
                let stored = (format == Format::Alp).then(|| {
                    body.clear();
                    compressor.encode_rowgroup_body(rowgroup, body, scratch, stats);
                    body.clone()
                });
                (stored, rowgroup.chunks(VECTOR_SIZE).map(ZoneMap::with_blocks).collect::<Vec<_>>())
            },
        );
        let vectors = data.len().div_ceil(VECTOR_SIZE);
        let (mut zone_maps, mut block_zones) =
            (Vec::with_capacity(vectors), Vec::with_capacity(vectors));
        let mut bodies = Vec::with_capacity(morsels.len());
        for (body, zones) in morsels {
            bodies.extend(body);
            zone_maps.extend(zones.iter().map(|&(zone, _)| zone));
            block_zones.extend(zones.into_iter().map(|(_, blocks)| blocks));
        }
        let storage = match format {
            Format::Uncompressed => Storage::Uncompressed(data.to_vec()),
            Format::Alp => Storage::Alp(trusted(BodyColumn::from_bodies(bodies))),
        };
        Self { storage, len: data.len(), zone_maps, block_zones }
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

    /// Stored footprint in bytes: 8 per raw value, or the ALP row-group
    /// bodies' total length (an `"ALPT"` stream's frames without their
    /// prefixes). Zone maps and block zones are not counted.
    pub fn compressed_bytes(&self) -> usize {
        match &self.storage {
            Storage::Uncompressed(v) => v.len() * 8,
            Storage::Alp(c) => c.bodies().map(<[u8]>::len).sum(),
        }
    }

    /// The error for vector index `v`, past the column.
    fn out_of_range(&self, v: usize) -> VectorAccessError {
        VectorAccessError::OutOfRange { vector: v, vectors: self.zone_maps.len() }
    }

    /// Vector `v` of raw storage, read in place.
    fn raw_vector<'a>(&self, values: &'a [f64], v: usize) -> Result<&'a [f64], VectorAccessError> {
        let start = v.saturating_mul(VECTOR_SIZE);
        let end = start.saturating_add(VECTOR_SIZE).min(values.len());
        values.get(start..end).ok_or(self.out_of_range(v))
    }

    /// The one storage walker: hands every vector of `vectors` (global vector
    /// indices — a page or a single vector) to `visit` in ascending order,
    /// decoding ALP through `scratch` and reading raw values in place. The
    /// service's decoded pages, the scrubber's probe and
    /// [`Column::try_decompress_vector_at`] are loops over this.
    pub(crate) fn try_walk(
        &self,
        vectors: Range<usize>,
        scratch: &mut Scratch,
        mut visit: impl FnMut(&[f64]),
    ) -> Result<(), VectorAccessError> {
        if vectors.end > self.zone_maps.len() {
            return Err(self.out_of_range(vectors.end - 1));
        }
        match &self.storage {
            Storage::Uncompressed(values) => {
                for v in vectors {
                    visit(self.raw_vector(values, v)?);
                }
            }
            Storage::Alp(c) => with_vector_buf(scratch, |buf| {
                for v in vectors {
                    let n = c.vector(v).ok_or(self.out_of_range(v))?.decode(buf);
                    visit(&buf[..n]);
                }
                Ok(())
            })?,
        }
        Ok(())
    }

    /// [`Column::sum_where`] over a vector range (the service's fused page
    /// route is this over one page): every vector whose zone map overlaps
    /// `lo..=hi`, folded in vector order as [`Column::add_fused`] says — ALP
    /// storage summed from its stored bytes in the compressed domain
    /// ([`alp::format::VectorView::sum_planned`]), raw values by
    /// [`alp::sum_decoded_planned`] in place. Both fold the same canonical
    /// sum, so both storages fold bit-identically, and neither builds bitmap
    /// words.
    pub(crate) fn try_sum_where_in(
        &self,
        vectors: Range<usize>,
        lo: f64,
        hi: f64,
        scratch: &mut Scratch,
    ) -> Result<FilteredSum, VectorAccessError> {
        let last = vectors.end.saturating_sub(1);
        let range_zones = self.zone_maps.get(vectors.clone()).ok_or(self.out_of_range(last))?;
        let band = Some((lo, hi));
        let mut part = FilteredSum::zero();
        for (v, zone) in vectors.clone().zip(range_zones) {
            if !zone.overlaps(lo, hi) {
                continue;
            }
            self.add_fused(&mut part, v, lo, hi, |plan| match &self.storage {
                Storage::Alp(c) => {
                    let vector = c.vector(v).ok_or(self.out_of_range(v))?;
                    Ok(with_vector_buf(scratch, |buf| {
                        vector.sum_planned(band, zone.has_nan, buf, plan)
                    }))
                }
                Storage::Uncompressed(values) => Ok(alp::sum_decoded_planned(
                    self.raw_vector(values, v)?,
                    band,
                    zone.has_nan,
                    plan,
                )),
            })?;
        }
        part.vectors_skipped = vectors.len() - part.vectors_scanned;
        Ok(part)
    }

    /// Folds vector `v`, whose zone map overlaps `[lo, hi]`, into `part` the
    /// way every fused route does: a vector whose zone map lies inside the
    /// band ([`ZoneMap::within`]) from its stored sum, its payload untouched;
    /// any other from `sum(plan)`, its sum under `[lo, hi]` planned block by
    /// block. A NaN-free vector's plan comes from its [`BlockZones`]; a
    /// vector holding a NaN scans every block. Out of line: inlined into the
    /// zone-filter loop of `try_sum_where_in`, its body made that loop 1.4×
    /// slower per pruned vector (EXPERIMENTS.md E28).
    #[inline(never)]
    pub(crate) fn add_fused<E>(
        &self,
        part: &mut FilteredSum,
        v: usize,
        lo: f64,
        hi: f64,
        sum: impl FnOnce(BlockPlan<'_, f64>) -> Result<alp::VectorSum<f64>, E>,
    ) -> Result<(), E> {
        let Some(zone) = self.zone_maps.get(v) else { return Ok(()) };
        if zone.within(lo, hi) {
            part.add_zone(zone, self.vector_len(v));
            return Ok(());
        }
        // A vector holding a NaN scans every block: its block ranges say
        // nothing about the NaN's block.
        let plan = match self.block_zones.get(v) {
            Some(blocks) if !zone.has_nan => blocks.plan(lo, hi),
            _ => BlockPlan::ALL,
        };
        part.add_vector(false, sum(plan)?);
        Ok(())
    }

    /// Values in vector `v` (the column's last vector may be short).
    pub(crate) fn vector_len(&self, v: usize) -> usize {
        self.len.saturating_sub(v.saturating_mul(VECTOR_SIZE)).min(VECTOR_SIZE)
    }

    /// `SELECT sum(x) WHERE lo <= x <= hi` with zone-map push-down: vectors
    /// whose range is disjoint from the band are skipped without touching
    /// their payload.
    pub fn sum_where(&self, lo: f64, hi: f64) -> FilteredSum {
        let all = 0..self.zone_maps.len();
        trusted(self.try_sum_where_in(all, lo, hi, &mut Scratch::new()))
    }

    /// Decompresses the vector with global index `vector_idx` into `out`
    /// (cleared first), staging through `scratch`, and returns the live
    /// count — the random-access form of the storage walker. Never panics:
    /// an out-of-range index comes back as a typed [`VectorAccessError`].
    pub fn try_decompress_vector_at(
        &self,
        vector_idx: usize,
        out: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> Result<usize, VectorAccessError> {
        out.clear();
        if vector_idx >= self.zone_maps.len() {
            return Err(self.out_of_range(vector_idx));
        }
        self.try_walk(vector_idx..vector_idx + 1, scratch, |live| out.extend_from_slice(live))?;
        Ok(out.len())
    }

    /// Fused per-vector scan — unpack→FOR→patch→predicate→aggregate in one
    /// pass, returning the vector's partial aggregates plus validity and hit
    /// bitmaps without materializing a `Vec<f64>`; raw values are scanned in
    /// place. The partial sum is the same bits [`Column::sum_where`] adds for
    /// this vector. Every storage has a fused kernel, so a delivered scan is
    /// always `Some`; the `Option` is the signature callers already unwrap.
    pub fn try_scan_vector_fused(
        &self,
        vector_idx: usize,
        lo: f64,
        hi: f64,
        scratch: &mut Scratch,
    ) -> Result<Option<alp::VectorScan<f64>>, VectorAccessError> {
        if vector_idx >= self.zone_maps.len() {
            return Err(self.out_of_range(vector_idx));
        }
        let scan = match &self.storage {
            Storage::Alp(c) => {
                let vector = c.vector(vector_idx).ok_or(self.out_of_range(vector_idx))?;
                with_vector_buf(scratch, |buf| vector.scan(lo, hi, false, buf))
            }
            Storage::Uncompressed(values) => {
                let live = self.raw_vector(values, vector_idx)?;
                let mut scan = alp::VectorScan::empty(live.len());
                alp::scan_decoded(live, lo, hi, false, &mut scan);
                scan
            }
        };
        Ok(Some(scan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formats() -> [Format; 2] {
        [Format::Uncompressed, Format::alp()]
    }

    fn sample_data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 5000) as f64) / 100.0).collect()
    }

    /// What a column stores, byte for byte: its ALP row-group bodies, or its
    /// raw values.
    fn stored_bytes(column: &Column) -> Vec<Vec<u8>> {
        match &column.storage {
            Storage::Uncompressed(values) => {
                vec![values.iter().flat_map(|x| x.to_le_bytes()).collect()]
            }
            Storage::Alp(c) => c.bodies().map(<[u8]>::to_vec).collect(),
        }
    }

    /// The frame bodies of the `"ALPT"` stream `ColumnWriter` writes for
    /// `data`, in order.
    fn stream_bodies(data: &[f64]) -> Vec<Vec<u8>> {
        let mut file = Vec::new();
        let mut writer = alp::stream::ColumnWriter::<f64, _>::new(&mut file);
        writer.push(data).unwrap();
        writer.finish().unwrap();
        let mut frames = &file[alp::stream::STREAM_MAGIC.len() + 1..]; // magic, width
        let mut bodies = Vec::new();
        while let Some((frame, rest)) = alp::frame::Frame::split(frames) {
            bodies.push(frame.body.to_vec());
            frames = rest;
        }
        bodies
    }

    #[test]
    fn parallel_construction_is_identical_to_serial() {
        let data = sample_data(3 * ROWGROUP_VALUES + 700);
        for fmt in formats() {
            let serial = Column::from_f64(&data, fmt);
            let bytes = stored_bytes(&serial);
            for threads in [1, 2, 4] {
                let par = Column::from_f64_parallel(&data, fmt, threads);
                let at = format!("{} t={threads}", fmt.name());
                assert_eq!(stored_bytes(&par), bytes, "{at}");
                assert_eq!(par.zone_maps(), serial.zone_maps(), "{at}");
                assert_eq!(par.block_zones, serial.block_zones, "{at}");
                let (a, b) = (par.sum_where(10.0, 30.0), serial.sum_where(10.0, 30.0));
                assert_eq!(a, b, "{at}");
            }
            let total: usize = bytes.iter().map(Vec::len).sum();
            assert_eq!(serial.compressed_bytes(), total, "{}", fmt.name());
        }
        // The engine holds exactly what a file of the same values holds.
        let alp = stored_bytes(&Column::from_f64(&data, Format::alp()));
        assert_eq!(alp.len(), 4);
        assert_eq!(alp, stream_bodies(&data));
    }

    #[test]
    fn compressed_sizes_are_sane() {
        let data = sample_data(200_000);
        let raw = Column::from_f64(&data, Format::Uncompressed).compressed_bytes();
        let alp = Column::from_f64(&data, Format::alp()).compressed_bytes();
        assert_eq!(raw, data.len() * 8);
        assert!(alp < raw / 2, "alp {alp} raw {raw}");
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
            // Block `b` of the zones covers values `64 b ..`; past a short
            // vector's end a block is empty.
            let blocks = &col.block_zones[i];
            for b in 0..VECTOR_BLOCKS {
                let want = chunk.chunks(BLOCK).nth(b).map_or(
                    (f64::INFINITY, f64::NEG_INFINITY, 0.0),
                    |block: &[f64]| {
                        let min = block.iter().copied().fold(f64::INFINITY, f64::min);
                        let max = block.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        (min, max, block_sum_all(block))
                    },
                );
                assert_eq!((blocks.min[b], blocks.max[b], blocks.sum[b]), want, "v={i} b={b}");
            }
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
    fn sum_where_ignores_nans_and_handles_empty_range() {
        let mut data = sample_data(10_000);
        data[5] = f64::NAN;
        for fmt in formats() {
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
            // Rows adjacent to the NaNs are still found by value.
            assert_eq!(col.sum_where(0.01, 0.01).matches, 1, "{}", fmt.name());
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
        for fmt in formats() {
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

    /// Edits the stored bytes of ALP vector `v` of a one-row-group column:
    /// `edit` gets the body from the vector's header on. The layout is
    /// `alp::format`'s: a 5-byte body head, then per vector `e f width len:u16
    /// base:i64 exc:u16`, 16 blocks of `width` words, 10 bytes per exception.
    fn edit_alp_vector(column: &mut Column, v: usize, edit: impl FnOnce(&mut [u8])) {
        let Storage::Alp(c) = &mut column.storage else { panic!("an ALP column") };
        let mut bodies: Vec<Vec<u8>> = c.bodies().map(<[u8]>::to_vec).collect();
        let body = &mut bodies[0];
        assert_eq!(body[0], alp::format::SCHEME_TAG_ALP, "decimal data encodes as ALP");
        let mut at = 5;
        for _ in 0..v {
            let exceptions = u16::from_le_bytes([body[at + 13], body[at + 14]]);
            at += 15 + 128 * usize::from(body[at + 2]) + 10 * usize::from(exceptions);
        }
        edit(&mut body[at..]);
        *c = BodyColumn::from_bodies(bodies).expect("the edit keeps the body well-formed");
    }

    /// Shifts every value of vector `v` in the stored payload, leaving its
    /// zone map as it was built.
    fn damage(column: &mut Column, v: usize) {
        match &mut column.storage {
            Storage::Uncompressed(values) => {
                values[v * VECTOR_SIZE..(v + 1) * VECTOR_SIZE].iter_mut().for_each(|x| *x += 0.01);
            }
            Storage::Alp(_) => edit_alp_vector(column, v, |vector| {
                let base = i64::from_le_bytes(vector[5..13].try_into().unwrap());
                vector[5..13].copy_from_slice(&(base + 1).to_le_bytes());
            }),
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
        for fmt in formats() {
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

    /// Overwrites block `to` of vector `v`'s stored payload with block
    /// `from`'s, leaving zone maps, block zones and ALP exceptions as built.
    fn copy_block(column: &mut Column, v: usize, from: usize, to: usize) {
        let at = |block: usize| v * VECTOR_SIZE + block * BLOCK;
        match &mut column.storage {
            Storage::Uncompressed(values) => values.copy_within(at(from)..at(from) + BLOCK, at(to)),
            Storage::Alp(_) => edit_alp_vector(column, v, |vector| {
                // Block `b`'s words follow the 15 header bytes at `8 width b`.
                let block_bytes = 8 * usize::from(vector[2]);
                let at = |block: usize| 15 + block * block_bytes;
                vector.copy_within(at(from)..at(from) + block_bytes, at(to));
            }),
        }
    }

    #[test]
    fn a_straddling_vector_decodes_only_its_straddling_blocks() {
        use crate::cache::CacheConfig;
        use crate::service::{QueryOptions, Service, ServiceConfig, Store};
        use std::sync::Arc;

        // Vector 0 lies far above the band. Block `b` of vector 1 holds
        // `16 b ..= 16 b + 0.63` in hundredths and `16 b + 1/3`, an ALP
        // exception, so every block the plan passes over has one to drain.
        let far = (0..VECTOR_SIZE).map(|i| (10_000 + i) as f64 * 0.25);
        let block = |i: usize| match i % BLOCK {
            17 => (i / BLOCK * 16) as f64 + 1.0 / 3.0,
            j => (i / BLOCK * 1600 + j) as f64 * 0.01,
        };
        let data: Vec<f64> = far.chain((0..VECTOR_SIZE).map(block)).collect();
        // Blocks 0..=2 of vector 1 lie below the band, block 3 straddles its
        // low edge, 4..=9 lie inside (9's max is the high edge) and 10..=15
        // above it.
        let (lo, hi) = (48.05, 144.63);
        let reference = data.chunks(VECTOR_SIZE).fold((0.0, 0), |(sum, matches), vector| {
            let s = alp::sum_decoded(vector, Some((lo, hi)), true);
            (sum + s.sum, matches + s.matches)
        });
        let bits = |r: FilteredSum| (r.sum.to_bits(), r.matches);
        let zero_entries = CacheConfig { max_entries: 0, ..CacheConfig::default_config() };
        let opts = QueryOptions { threads: Some(1), ..QueryOptions::default() };
        let no_fused = QueryOptions { no_fused: true, ..opts };
        // (damaged block, copied from, whether a plan that is right sees it)
        let cases =
            [(12, 5, "outside", false), (5, 6, "inside", false), (3, 4, "straddling", true)];
        for fmt in formats() {
            let pristine = Column::from_f64(&data, fmt).sum_where(lo, hi);
            assert_eq!(bits(pristine), (reference.0.to_bits(), reference.1), "{}", fmt.name());
            assert_eq!((pristine.vectors_scanned, pristine.vectors_all_in), (1, 0));
            for (damaged, from, kind, seen) in cases {
                let at = format!("{}: a damaged block {kind} the band", fmt.name());
                let mut column = Column::from_f64(&data, fmt);
                copy_block(&mut column, 1, from, damaged);
                let got = column.sum_where(lo, hi);
                assert_eq!(bits(got) != bits(pristine), seen, "{at}: sum_where");
                let service = Service::new(
                    Arc::new(Store::new(column, zero_entries)),
                    ServiceConfig::default(),
                );
                let fused = service.sum_where(lo, hi, &opts).unwrap().value;
                assert_eq!(bits(fused), bits(got), "{at}: the service's fused pages");
                // `no_fused` decodes and predicates every value of the vector.
                let decoded = service.sum_where(lo, hi, &no_fused).unwrap().value;
                assert_ne!(bits(decoded), bits(pristine), "{at}: no_fused");
            }
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
    fn a_walk_visits_its_range_in_order_and_refuses_one_past_the_column() {
        let data = sample_data(2 * ROWGROUP_VALUES + 700);
        let mut scratch = Scratch::new();
        for fmt in formats() {
            let col = Column::from_f64(&data, fmt);
            let vectors = col.zone_maps().len();
            // A range that crosses a row-group boundary and ends on the tail.
            let mut seen = Vec::new();
            col.try_walk(98..vectors, &mut scratch, |live| seen.extend_from_slice(live)).unwrap();
            assert_eq!(seen, &data[98 * VECTOR_SIZE..], "{}", fmt.name());
            // A range past the column is a typed error before any decode.
            let err = col.try_walk(0..vectors + 1, &mut scratch, |_| {}).unwrap_err();
            assert_eq!(err, VectorAccessError::OutOfRange { vector: vectors, vectors });
        }
    }
}
