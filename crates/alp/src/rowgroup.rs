//! Column-level compression: splits data into row-groups of `w × 1024` values,
//! runs level-1 sampling once per row-group to pick the scheme (ALP vs ALP_rd)
//! and the candidate combinations, then encodes vector by vector.
//!
//! A row-group is encoded by one of two drivers over the same decisions
//! (`Compressor::plan_rowgroup`) and the same per-vector kernels
//! (`encode::encode_vector_with`, `rd::RdEncoder::encode_vector`), which
//! differ only in where a vector lands: [`Compressor::compress`] builds an
//! owned [`RowGroup`] (what the registry codec holds),
//! [`Compressor::encode_rowgroup_body`] appends the serialized body to a byte
//! buffer, packing every block's words straight into it
//! ([`crate::format::encode_alp_body`] / [`crate::format::encode_rd_body`]) —
//! the path of the stream writers and of the query engine's column
//! (`vectorq`), which builds no `RowGroup` at all.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use fastlanes::VECTOR_SIZE;

use crate::decode::decode_vector;
use crate::encode::{encode_vector_into, AlpVector, ExcArena, ExcView, OwnedAlpVector};
use crate::format::{encode_alp_body, encode_rd_body};
use crate::rd::{choose_cut_with, decode_rd_vector, RdEncoder, RdMeta, RdVector};
use crate::sampler::{
    prefers_rd, rd_cap, second_level, Combination, ConfigError, Level1, SamplerParams, SamplerStats,
};
use crate::traits::AlpFloat;

/// Which encoding a row-group uses (§3.4: the decision is per row-group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Decimal encoding (`ALP_enc`/`ALP_dec` + FFOR).
    Alp,
    /// Front-bits encoding for real doubles.
    AlpRd,
}

/// An ALP row-group's vectors plus the shared arena holding all their
/// exceptions — one pair of allocations per row-group instead of two per
/// vector.
#[derive(Debug, Clone, Default)]
pub struct AlpGroup {
    /// Encoded vectors; each indexes `exceptions` by `(exc_start, exc_count)`.
    pub vectors: Vec<AlpVector>,
    /// The exception streams of all vectors, concatenated.
    pub exceptions: ExcArena,
}

impl AlpGroup {
    /// Exception view of one vector.
    pub fn view(&self, v: &AlpVector) -> ExcView<'_> {
        self.exceptions.view(v)
    }

    /// Clones vector `i` out together with its exceptions (convenience for
    /// single-vector consumers — ablations, figure benches).
    pub fn owned_vector(&self, i: usize) -> Option<OwnedAlpVector> {
        let v = self.vectors.get(i)?;
        let view = self.view(v);
        let mut exceptions = ExcArena::new();
        for (&p, &bits) in view.positions.iter().zip(view.values) {
            exceptions.push(p, bits);
        }
        let mut vector = v.clone();
        vector.exc_start = 0;
        Some(OwnedAlpVector { vector, exceptions })
    }
}

/// One compressed row-group.
#[derive(Debug, Clone)]
pub enum RowGroup {
    /// Plain ALP vectors sharing one exception arena.
    Alp(AlpGroup),
    /// ALP_rd vectors plus the shared cut/dictionary metadata.
    Rd(RdMeta, Vec<RdVector>),
}

impl RowGroup {
    /// Scheme tag for reporting.
    pub fn scheme(&self) -> Scheme {
        match self {
            RowGroup::Alp(_) => Scheme::Alp,
            RowGroup::Rd(..) => Scheme::AlpRd,
        }
    }

    /// Number of vectors in this row-group.
    pub fn vector_count(&self) -> usize {
        match self {
            RowGroup::Alp(g) => g.vectors.len(),
            RowGroup::Rd(_, v) => v.len(),
        }
    }

    /// Number of live values in this row-group.
    pub fn len(&self) -> usize {
        match self {
            RowGroup::Alp(g) => g.vectors.iter().map(|x| x.len as usize).sum(),
            RowGroup::Rd(_, v) => v.iter().map(|x| x.len as usize).sum(),
        }
    }

    /// Whether the row-group holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact compressed size in bits: what [`crate::format::write_rowgroup`]
    /// writes (head, vector headers, payload, exceptions).
    pub fn compressed_bits<F: AlpFloat>(&self) -> usize {
        let head = 8 + 32; // scheme tag, vector count
        match self {
            RowGroup::Alp(g) => {
                head + g.vectors.iter().map(AlpVector::compressed_bits).sum::<usize>()
            }
            RowGroup::Rd(meta, vs) => {
                head + meta.header_bits()
                    + vs.iter().map(|v| v.compressed_bits::<F>(meta)).sum::<usize>()
            }
        }
    }

    /// Appends this row-group's values to `out`, decoding vector by vector
    /// through `buf`, the caller's reused vector buffer (≥ 1024 elements).
    /// This is the one whole-row-group decode loop: the serial, parallel and
    /// salvaging column decoders and the stream reader all call it.
    #[expect(
        clippy::indexing_slicing,
        reason = "decode kernels return n <= VECTOR_SIZE, and assert at entry that `buf` \
                  holds at least that many elements"
    )]
    pub fn decode_into<F: AlpFloat>(&self, buf: &mut [F], out: &mut Vec<F>) {
        match self {
            RowGroup::Alp(g) => {
                for v in &g.vectors {
                    let n = decode_vector(v, g.view(v), buf);
                    out.extend_from_slice(&buf[..n]);
                }
            }
            RowGroup::Rd(meta, vs) => {
                for v in vs {
                    let n = decode_rd_vector(v, meta, buf);
                    out.extend_from_slice(&buf[..n]);
                }
            }
        }
    }
}

/// A fully compressed column.
#[derive(Debug, Clone)]
pub struct Compressed<F: AlpFloat> {
    /// Row-groups in order.
    pub rowgroups: Vec<RowGroup>,
    /// Total number of values.
    pub len: usize,
    /// Sampling statistics accumulated during compression.
    pub stats: SamplerStats,
    _marker: core::marker::PhantomData<F>,
}

impl<F: AlpFloat> Compressed<F> {
    /// Assembles a column from already-encoded row-groups (used by the
    /// deserializer and by cascade encodings that build row-groups directly).
    pub fn from_rowgroups(rowgroups: Vec<RowGroup>, len: usize) -> Self {
        Self { rowgroups, len, stats: SamplerStats::default(), _marker: core::marker::PhantomData }
    }

    /// Exact compressed size in bits.
    pub fn compressed_bits(&self) -> usize {
        self.rowgroups.iter().map(|rg| rg.compressed_bits::<F>()).sum()
    }

    /// Compression ratio in bits per value — the metric of Table 4.
    pub fn bits_per_value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.compressed_bits() as f64 / self.len as f64
        }
    }

    /// Decompresses the whole column.
    pub fn decompress(&self) -> Vec<F> {
        let mut out = Vec::new();
        self.decompress_into(&mut out);
        out
    }

    /// Decompresses the whole column into `out` (cleared first), appending
    /// each row-group's vectors straight into it.
    pub fn decompress_into(&self, out: &mut Vec<F>) {
        out.clear();
        out.reserve(self.len);
        let mut buf = vec![F::from_bits_u64(0); VECTOR_SIZE];
        for rg in &self.rowgroups {
            rg.decode_into(&mut buf, out);
        }
    }
}

/// What encoding a row-group needs beside its values, reusable from one
/// row-group to the next so that a warm writer allocates nothing: level 1's
/// per-vector results and winners (as many as `sample_vectors` asks for), the
/// ALP candidate list, and the ALP_rd sample and encoder (whose probe table is
/// at most 64 KB).
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    level1: Level1,
    candidates: Vec<Combination>,
    rd_sample: Vec<u64>,
    rd: Option<RdEncoder>,
}

/// What level 1 decided for a row-group, with what its vectors encode under.
enum Plan<'a> {
    /// ALP, each vector under one of these candidates (level 2 picks).
    Alp(&'a [Combination]),
    /// ALP_rd under the encoder's cut.
    Rd(&'a RdEncoder),
}

/// The ALP compressor. Construct once (optionally with custom
/// [`SamplerParams`]) and reuse across columns.
#[derive(Debug, Clone, Default)]
pub struct Compressor {
    params: SamplerParams,
}

impl Compressor {
    /// Compressor with the paper's default sampling parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compressor with custom sampling parameters.
    ///
    /// Returns [`ConfigError`] when any count in `params` is zero — a zero
    /// `vectors_per_rowgroup` used to be silently clamped to one vector per
    /// row-group, which hid misconfiguration behind a 100× size change.
    pub fn with_params(params: SamplerParams) -> Result<Self, ConfigError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The active sampling parameters.
    pub fn params(&self) -> &SamplerParams {
        &self.params
    }

    /// Values per row-group under the active parameters (`w × 1024`).
    pub(crate) fn rowgroup_values(&self) -> usize {
        // Nonzero by construction: every constructor validates the params.
        self.params.vectors_per_rowgroup * VECTOR_SIZE
    }

    /// Level-1 sampling and the scheme decision for one row-group — what
    /// [`Compressor::encode_rowgroup_body`] runs before it encodes anything —
    /// counted in `stats` (`rowgroups_alp`, `rowgroups_rd`, `rd_proven`).
    /// Sampling state is strictly row-group-local (level 1 runs on `rg_data`
    /// alone; level 2 only ever *adds* to `stats`), which is what makes the
    /// parallel paths byte-exact: each worker decides what the serial loop
    /// would.
    ///
    /// The decision comes first: each sampled vector is searched under the
    /// rd rule's own cap, and when all of them are above it the rule holds
    /// for the pooled sample too, so the row-group goes ALP_rd without
    /// finishing level 1 (`rd_proven`). Otherwise level 1 finishes, exactly
    /// as [`crate::sampler::first_level`] would, and the rule decides on its
    /// figures.
    pub fn choose_scheme<F: AlpFloat>(
        &self,
        rg_data: &[F],
        scratch: &mut EncodeScratch,
        stats: &mut SamplerStats,
    ) -> Scheme {
        let level1 = &mut scratch.level1;
        let proven = level1.search(rg_data, &self.params, rd_cap::<F>);
        let rd = proven || {
            let (estimated_bits_per_value, exception_fraction) =
                level1.finish(rg_data, &self.params);
            prefers_rd::<F>(estimated_bits_per_value, exception_fraction)
        };
        if rd {
            stats.rowgroups_rd += 1;
            stats.rd_proven += usize::from(proven);
            Scheme::AlpRd
        } else {
            stats.rowgroups_alp += 1;
            Scheme::Alp
        }
    }

    /// [`Compressor::choose_scheme`], with what the vectors encode under.
    fn plan_rowgroup<'a, F: AlpFloat>(
        &self,
        rg_data: &[F],
        scratch: &'a mut EncodeScratch,
        stats: &mut SamplerStats,
    ) -> Plan<'a> {
        match self.choose_scheme(rg_data, scratch, stats) {
            Scheme::AlpRd => {
                let sample_size = self.params.sample_vectors * self.params.sample_values;
                let cut = choose_cut_with::<F>(rg_data, sample_size, &mut scratch.rd_sample);
                Plan::Rd(match &mut scratch.rd {
                    Some(encoder) => {
                        encoder.set_cut(cut);
                        encoder
                    }
                    none => none.insert(RdEncoder::for_cut(cut)),
                })
            }
            Scheme::Alp => {
                scratch.candidates.clear();
                scratch.candidates.extend(scratch.level1.winners.iter().map(|&(c, _)| c));
                Plan::Alp(&scratch.candidates)
            }
        }
    }

    /// Compresses one row-group's worth of values into an owned [`RowGroup`].
    fn compress_rowgroup<F: AlpFloat>(
        &self,
        rg_data: &[F],
        scratch: &mut EncodeScratch,
        stats: &mut SamplerStats,
    ) -> RowGroup {
        let vectors = rg_data.chunks(VECTOR_SIZE);
        match self.plan_rowgroup(rg_data, scratch, stats) {
            Plan::Rd(encoder) => RowGroup::Rd(
                encoder.cut().to_meta(),
                vectors.map(|chunk| encoder.encode_owned(chunk)).collect(),
            ),
            Plan::Alp(candidates) => {
                let mut group =
                    AlpGroup { vectors: Vec::with_capacity(vectors.len()), ..AlpGroup::default() };
                for chunk in vectors {
                    let combo = second_level(chunk, candidates, &self.params, stats);
                    group.vectors.push(encode_vector_into(
                        chunk,
                        combo.e,
                        combo.f,
                        &mut group.exceptions,
                    ));
                }
                RowGroup::Alp(group)
            }
        }
    }

    /// Appends the serialized body of one row-group of `rg_data` (at most
    /// `vectors_per_rowgroup × 1024` values) to `body`: byte for byte what
    /// [`crate::format::write_rowgroup`] writes for [`Compressor::compress`]'s
    /// row-group, without building it ([`encode_alp_body`] /
    /// [`encode_rd_body`]). Allocates nothing once `body` and `scratch` are
    /// warm.
    pub fn encode_rowgroup_body<F: AlpFloat>(
        &self,
        rg_data: &[F],
        body: &mut Vec<u8>,
        scratch: &mut EncodeScratch,
        stats: &mut SamplerStats,
    ) {
        match self.plan_rowgroup(rg_data, scratch, stats) {
            Plan::Rd(encoder) => encode_rd_body(body, encoder, rg_data),
            Plan::Alp(candidates) => encode_alp_body(body, rg_data, |vector| {
                second_level(vector, candidates, &self.params, stats)
            }),
        }
    }

    /// Compresses a column of floats (on the calling thread).
    pub fn compress<F: AlpFloat>(&self, data: &[F]) -> Compressed<F> {
        self.compress_parallel(data, 1)
    }

    /// Compresses a column on up to `threads` morsel-claiming workers, one
    /// row-group per morsel and one [`EncodeScratch`] per worker (at
    /// `threads <= 1` the scheduler runs inline on the caller). The output —
    /// row-groups, exception arenas, and sampling statistics — is
    /// byte-identical at every thread count: sampling is row-group-local and
    /// the per-worker [`SamplerStats`] partials are pure sums (see
    /// [`SamplerStats::merge`]).
    pub fn compress_parallel<F: AlpFloat>(&self, data: &[F], threads: usize) -> Compressed<F> {
        let rg_values = self.rowgroup_values();
        let morsels = data.len().div_ceil(rg_values);
        let pieces =
            crate::par::map_morsels(threads, morsels, EncodeScratch::default, |scratch, m| {
                let rowgroup = data.chunks(rg_values).nth(m).unwrap_or_default();
                let mut stats = SamplerStats::default();
                let rg = self.compress_rowgroup(rowgroup, scratch, &mut stats);
                (rg, stats)
            });
        let mut stats = SamplerStats::default();
        let mut rowgroups = Vec::with_capacity(pieces.len());
        for (rg, partial) in pieces {
            stats.merge(&partial);
            rowgroups.push(rg);
        }
        Compressed { rowgroups, len: data.len(), stats, _marker: core::marker::PhantomData }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_vector_unfused;

    /// Round-trips `data` bit for bit, and holds each row-group's
    /// `compressed_bits` to the bytes its body serializes to.
    fn assert_lossless<F: AlpFloat>(data: &[F]) -> Compressed<F> {
        let c = Compressor::new().compress(data);
        let back = c.decompress();
        assert_eq!(back.len(), data.len());
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "idx {i}");
        }
        for (i, rg) in c.rowgroups.iter().enumerate() {
            let mut body = Vec::new();
            crate::format::write_rowgroup::<F>(&mut body, rg);
            assert_eq!(rg.compressed_bits::<F>(), 8 * body.len(), "row-group {i}");
        }
        c
    }

    #[test]
    fn empty_column() {
        let c = Compressor::new().compress::<f64>(&[]);
        assert_eq!(c.len, 0);
        assert!(c.decompress().is_empty());
        assert_eq!(c.bits_per_value(), 0.0);
    }

    #[test]
    fn decimal_column_compresses_well() {
        let data: Vec<f64> = (0..250_000).map(|i| ((i % 9973) as f64) / 100.0).collect();
        let c = assert_lossless(&data);
        assert_eq!(c.stats.rowgroups_rd, 0);
        assert!(c.bits_per_value() < 22.0, "bpv {}", c.bits_per_value());
    }

    #[test]
    fn real_double_column_switches_to_rd() {
        let data: Vec<f64> = (0..120_000).map(|i| (i as f64 * 0.577).sin() * 0.001).collect();
        let c = assert_lossless(&data);
        assert!(c.stats.rowgroups_rd > 0, "{:?}", c.stats);
        // ALP_rd achieves at most modest compression on real doubles.
        assert!(c.bits_per_value() <= 64.0 + 1.0);
    }

    #[test]
    fn mixed_rowgroups_pick_schemes_independently() {
        let mut data: Vec<f64> = (0..102_400).map(|i| (i % 1000) as f64 * 0.25).collect();
        data.extend((0..102_400).map(|i| ((i as f64) * 0.31).cos() * 1e-5));
        let c = assert_lossless(&data);
        assert_eq!(c.rowgroups.len(), 2);
        assert_eq!(c.rowgroups[0].scheme(), Scheme::Alp);
        assert_eq!(c.rowgroups[1].scheme(), Scheme::AlpRd);
    }

    #[test]
    fn with_params_rejects_zero_counts() {
        let p = SamplerParams { vectors_per_rowgroup: 0, ..SamplerParams::default() };
        let err = Compressor::with_params(p).unwrap_err();
        assert_eq!(err.param, "vectors_per_rowgroup");

        let p = SamplerParams { sample_values: 0, ..SamplerParams::default() };
        assert_eq!(Compressor::with_params(p).unwrap_err().param, "sample_values");

        assert!(Compressor::with_params(SamplerParams::default()).is_ok());
    }

    #[test]
    fn parallel_compress_is_identical_to_serial() {
        // Mixed schemes across three row-groups plus a tail row-group.
        let mut data: Vec<f64> = (0..102_400).map(|i| (i % 1000) as f64 * 0.25).collect();
        data.extend((0..102_400).map(|i| ((i as f64) * 0.31).cos() * 1e-5));
        data.extend((0..5_000).map(|i| (i as f64) / 64.0));
        let comp = Compressor::new();
        let serial = comp.compress(&data);
        for threads in [1, 2, 7] {
            let par = comp.compress_parallel(&data, threads);
            assert_eq!(par.len, serial.len);
            assert_eq!(par.rowgroups.len(), serial.rowgroups.len());
            assert_eq!(par.compressed_bits(), serial.compressed_bits(), "t={threads}");
            assert_eq!(par.decompress(), serial.decompress(), "t={threads}");
            assert_eq!(par.stats, serial.stats, "t={threads}");
        }
    }

    #[test]
    fn special_values_roundtrip_anywhere() {
        let mut data: Vec<f64> = (0..8000).map(|i| (i as f64) / 8.0).collect();
        data[0] = f64::NAN;
        data[1] = -0.0;
        data[4000] = f64::INFINITY;
        data[7999] = f64::MIN_POSITIVE / 2.0; // subnormal
        assert_lossless(&data);
    }

    #[test]
    fn unfused_decode_is_identical() {
        let data: Vec<f64> = (0..50_000).map(|i| ((i * 7) % 99991) as f64 / 1000.0).collect();
        let c = Compressor::new().compress(&data);
        // The Figure 5 baseline kernel, vector by vector.
        let mut unfused = Vec::new();
        let (mut ints, mut buf) = (vec![0i64; VECTOR_SIZE], vec![0.0f64; VECTOR_SIZE]);
        for rg in &c.rowgroups {
            let RowGroup::Alp(g) = rg else { panic!("decimal data must pick the ALP scheme") };
            for v in &g.vectors {
                let n = decode_vector_unfused(v, g.view(v), &mut ints, &mut buf);
                unfused.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(c.decompress(), unfused);
    }

    #[test]
    fn f32_column_roundtrips() {
        let data: Vec<f32> = (0..30_000).map(|i| ((i % 2048) as f32) / 4.0).collect();
        let c = assert_lossless(&data);
        assert!(c.bits_per_value() < 32.0);
        // Exception-heavy: every 16th value has no short decimal form.
        let data: Vec<f32> = (0..30_000)
            .map(|i| if i % 16 == 0 { (i as f32).sqrt() } else { ((i % 2048) as f32) / 4.0 })
            .collect();
        let c = assert_lossless(&data);
        let exceptions = c.rowgroups.iter().map(|rg| match rg {
            RowGroup::Alp(g) => g.vectors.iter().map(AlpVector::exception_count).sum(),
            RowGroup::Rd(..) => 0,
        });
        assert!(exceptions.sum::<usize>() > 1000);
    }

    #[test]
    fn f32_real_floats_use_rd() {
        let data: Vec<f32> = (0..120_000).map(|i| ((i as f32) * 0.113).sin() * 0.02).collect();
        let c = assert_lossless(&data);
        assert!(c.stats.rowgroups_rd > 0);
    }
}
