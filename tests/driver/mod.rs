//! The differential driver's engine: the inputs, the paths and the three
//! invariants, each written once. `tests/differential.rs` runs the whole
//! table; DESIGN.md §17 states the invariants and maps every older
//! per-feature test to the axis that replaced it.
//!
//! * **Invariant 1 — lossless** ([`assert_lossless`]): every rendition any
//!   [`Path`] decodes from what it wrote holds the input's bits.
//! * **Invariant 2 — aggregates** ([`assert_aggregates`]): every operator over
//!   a stored column answers what [`scan_values`] answers over the plain
//!   values, bit for bit.
//! * **Invariant 3 — written bytes** ([`assert_bytes_identical`]): what a
//!   [`Writer`] writes (and reports) does not depend on the thread count or
//!   the pipeline depth.
//!
//! Plus the reader contract over arbitrary bytes ([`assert_total`]): a typed
//! error or a value, never a panic, and no single allocation request beyond
//! its [`Layout::ceiling`].
//!
//! The thread sweep is `{1, 2, 4, ALP_THREADS}` ([`thread_counts`]); every
//! seed derives from `ALP_FAULT_SEED` ([`seed`]).

#![allow(dead_code, reason = "every suite that includes this module drives a slice of it")]

#[path = "../common/mod.rs"]
pub mod common;

use std::sync::Arc;

use alp::archive::{self, Verdict};
use alp::format::{
    from_bytes, from_bytes_salvage_parallel, to_bytes, to_bytes_with_parity, BodyColumn,
    RowGroupView,
};
use alp::pipeline::{PipelineConfig, PipelinedColumnWriter};
use alp::stream::{ColumnReader, ColumnWriter, StreamError};
use alp::{AlpFloat, Compressor, ParityConfig, SamplerParams, VECTOR_SIZE};
use alp_core::scan::{scan_values, ScanAgg, ScanPredicate, ScanResult};
use alp_core::{Capabilities, ColumnCodec, CoreError, Registry, Scratch};
use alp_repro::corruption::{
    corpus, fault_seed, frame_spans, parity_fault_family, Case, ParityExpectation, SplitMix64,
};
use vectorq::cache::CacheConfig;
use vectorq::service::{QueryOptions, Service, ServiceConfig, Store};
use vectorq::{Column, Format};

/// One parity frame per two data frames: small inputs still fill whole groups.
pub const PARITY: ParityConfig = ParityConfig { group_size: 2 };
/// Pipeline depths every pipelined write is swept over.
pub const DEPTHS: [usize; 3] = [1, 2, 4];
/// Bytes before the first frame of an `"ALP2"` column / an `"ALPT"` stream.
pub const COLUMN_HEADER: usize = 4 + 1 + 8 + 4;
pub const STREAM_HEADER: usize = 4 + 1;

/// The base seed of every generated case: `ALP_FAULT_SEED`, or a fixed default.
pub fn seed() -> u64 {
    fault_seed(0xD1FF)
}

/// `{1, 2, 4, ALP_THREADS}` (the last falls back to the host's parallelism).
pub fn thread_counts() -> Vec<usize> {
    let mut threads = vec![1, 2, 4, alp::par::resolve_threads(None)];
    threads.sort_unstable();
    threads.dedup();
    threads
}

// ---------------------------------------------------------------------------
// Widths
// ---------------------------------------------------------------------------

/// A float width the driver sweeps: what ALP needs plus the registry's
/// per-width entry points.
pub trait Float: AlpFloat {
    /// The generated double narrowed to this width.
    fn of(x: f64) -> Self;
    /// Whether `codec` serializes this width.
    fn speaks(codec: &dyn ColumnCodec) -> bool;
    fn compress(c: &dyn ColumnCodec, data: &[Self], out: &mut Vec<u8>) -> Result<(), CoreError>;
    fn decompress(c: &dyn ColumnCodec, bytes: &[u8], n: usize) -> Result<Vec<Self>, CoreError>;
}

macro_rules! float {
    ($f:ty, $speaks:expr, $compress:ident, $decompress:ident) => {
        impl Float for $f {
            fn of(x: f64) -> Self {
                x as $f
            }
            fn speaks(codec: &dyn ColumnCodec) -> bool {
                $speaks(codec.caps())
            }
            fn compress(
                c: &dyn ColumnCodec,
                data: &[$f],
                out: &mut Vec<u8>,
            ) -> Result<(), CoreError> {
                c.$compress(data, out, &mut Scratch::new())
            }
            fn decompress(
                c: &dyn ColumnCodec,
                bytes: &[u8],
                n: usize,
            ) -> Result<Vec<$f>, CoreError> {
                let mut out = Vec::new();
                c.$decompress(bytes, n, &mut out, &mut Scratch::new()).map(|()| out)
            }
        }
    };
}
float!(f64, |caps: Capabilities| !caps.ratio_only, try_compress_into, try_decompress_into);
float!(f32, |caps: Capabilities| caps.f32, try_compress_f32_into, try_decompress_f32_into);

fn bits<F: Float>(values: &[F]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits_u64())
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One column of the input axis.
pub struct Input<F> {
    pub name: String,
    pub values: Vec<F>,
    /// Vectors per ALP row-group the paths write it under: small, so a few
    /// thousand values already cross row-group (and parity-group) boundaries;
    /// the paper's 100 for the lengths that straddle it.
    pub rowgroup_vectors: usize,
}

impl<F> Input<F> {
    pub fn new(name: impl Into<String>, values: Vec<F>) -> Self {
        Input { name: name.into(), values, rowgroup_vectors: 2 }
    }
}

/// The special bit patterns of a width, by class.
fn special_bits<F: Float>() -> [(&'static str, Vec<u64>); 4] {
    let mantissa = if F::BITS == 64 { 52 } else { 23 };
    let sign = 1u64 << (F::BITS - 1);
    let frac = (1u64 << mantissa) - 1;
    let exp = (sign - 1) & !frac; // all exponent bits: infinity
    let quiet = 1u64 << (mantissa - 1);
    [
        (
            "NaN payloads",
            vec![exp | 1, exp | quiet, exp | quiet | 0x1234, exp | frac, sign | exp | 0x5A5A5],
        ),
        ("signed zeros", vec![0, sign]),
        ("subnormals", vec![1, 2, frac, frac >> 1, sign | 1, sign | frac]),
        ("infinities and extremes", vec![exp, sign | exp, exp - 1, sign | (exp - 1), frac + 1]),
    ]
}

/// Every bit-pattern class: each alone (a short column and one that fills
/// vectors), and all of them sprinkled over decimals so they land as
/// exceptions inside otherwise well-behaved ALP vectors.
pub fn bit_patterns<F: Float>() -> Vec<Input<F>> {
    let mut inputs = Vec::new();
    let mut all = Vec::new();
    for (class, patterns) in special_bits::<F>() {
        let cycle = |n: usize| (0..n).map(|i| F::from_bits_u64(patterns[i % patterns.len()]));
        inputs.push(Input::new(format!("{class}, alone"), cycle(patterns.len()).collect()));
        inputs.push(Input::new(format!("{class}, two vectors and a tail"), cycle(2100).collect()));
        all.extend(patterns);
    }
    let sprinkled = (0..5 * VECTOR_SIZE + 333).map(|i| match i % 97 {
        0 => F::from_bits_u64(all[(i / 97) % all.len()]),
        _ => F::of((i % 1009) as f64 * 0.25 - 100.0),
    });
    inputs.push(Input::new("every class amid decimals", sprinkled.collect()));
    inputs
}

/// Two-decimal values, `n` of them.
pub fn ramp<F: Float>(n: usize) -> Vec<F> {
    (0..n).map(|i| F::of((i % 7919) as f64 / 100.0 - 9.5)).collect()
}

/// Lengths 0, 1 and straddling the canonical sum's 64-value block and the
/// 1 024-value vector.
pub fn vector_lengths<F: Float>() -> Vec<Input<F>> {
    let lengths = [0, 1, 63, 64, 65, VECTOR_SIZE - 1, VECTOR_SIZE, VECTOR_SIZE + 1];
    lengths.map(|n| Input::new(format!("length {n}"), ramp(n))).into()
}

/// Lengths straddling the 102 400-value row-group, under the paper's
/// 100-vector row-groups.
pub fn rowgroup_lengths<F: Float>() -> Vec<Input<F>> {
    let lengths = [102_399, 102_400, 102_401];
    lengths
        .map(|n| Input { rowgroup_vectors: 100, ..Input::new(format!("length {n}"), ramp(n)) })
        .into()
}

/// The `f32`-native ML weights (widened exactly for `f64`).
pub fn ml_weights<F: Float>(n: usize) -> Input<F> {
    let weights = datagen::ml_weights_f32(n, seed());
    Input::new("ML weights", weights.into_iter().map(|w| F::of(f64::from(w))).collect())
}

/// Every `datagen::DATASETS` shape (narrowed for `f32`), plus [`ml_weights`].
pub fn datasets<F: Float>(n: usize) -> Vec<Input<F>> {
    let shape = |name| {
        Input::new(name, datagen::generate(name, n, seed()).into_iter().map(F::of).collect())
    };
    let mut inputs: Vec<Input<F>> = datagen::DATASETS.iter().map(|ds| shape(ds.name)).collect();
    inputs.push(ml_weights(n));
    inputs
}

/// The named `datagen` shape alone.
pub fn dataset<F: Float>(name: &str, n: usize) -> Input<F> {
    Input::new(name, datagen::generate(name, n, seed()).into_iter().map(F::of).collect())
}

/// Columns where NaN is the rule: every other value of three vectors and a
/// tail NaN, behind an all-NaN first vector; and nothing but NaN.
pub fn nan_shapes<F: Float>() -> Vec<Input<F>> {
    let n = 3 * VECTOR_SIZE + 100;
    let dense = (0..n).map(|i| match i {
        _ if i < VECTOR_SIZE || i % 2 == 0 => F::of(f64::NAN),
        _ => F::of((i % 997) as f64 / 10.0),
    });
    vec![
        Input::new("NaN-dense behind an all-NaN vector", dense.collect()),
        Input::new("all NaN", vec![F::of(f64::NAN); 2 * VECTOR_SIZE + 100]),
    ]
}

/// FCBench's four domains (PAPERS.md), one or two shapes each that
/// `datagen`'s Table 2 stand-ins do not have.
pub fn fcbench<F: Float>(n: usize) -> Vec<Input<F>> {
    let mut rng = SplitMix64::new(seed() ^ 0xFCBE);
    let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let side = (n as f64).sqrt().ceil() as usize;
    let shape = |name: &str, f: &mut dyn FnMut(usize) -> f64| {
        Input::new(format!("FCBench {name}"), (0..n).map(|i| F::of(f(i))).collect())
    };
    let (mut counter, mut walk, mut clock) = (0.0f64, 2048i64, 1.7e9f64);
    vec![
        // HPC: a smooth full-precision 2-D field in row-major order, and a
        // checkpoint of it (the same field, perturbed in the last digits).
        shape("HPC grid", &mut |i| {
            let (x, y) = ((i % side) as f64 / side as f64, (i / side) as f64 / side as f64);
            (6.3 * x).sin() * (3.1 * y).cos() * 1e3
        }),
        shape("HPC checkpoint", &mut |i| {
            let (x, y) = ((i % side) as f64 / side as f64, (i / side) as f64 / side as f64);
            (6.3 * x).sin() * (3.1 * y).cos() * 1e3 * (1.0 + unit() * 1e-12)
        }),
        // Observability: a monotonic counter with resets, and a gauge that
        // sits on plateaus, spikes, and reports NaN for missed scrapes.
        shape("metrics counter", &mut |i| {
            counter = if i % 4001 == 4000 { 0.0 } else { counter + (unit() * 50.0).floor() };
            counter
        }),
        shape("metrics gauge", &mut |i| match i % 500 {
            499 => f64::NAN,
            250 => 97.5 + (unit() * 250.0).floor() / 100.0,
            _ => 12.25 + (i / 500 % 7) as f64,
        }),
        // Time series: an ADC-quantized sensor walk, and millisecond
        // timestamps with jitter (large magnitude, tiny deltas).
        shape("sensor walk", &mut |_| {
            walk = (walk + (unit() * 9.0) as i64 - 4).clamp(0, 4095);
            walk as f64 * 0.125
        }),
        shape("timestamps", &mut |_| {
            clock += 1.0 + (unit() * 3.0).floor() / 1000.0;
            (clock * 1000.0).round() / 1000.0
        }),
        // Database columns: skewed two-decimal prices of both signs, and a
        // low-cardinality key next to surrogate ids around 2^53.
        shape("prices", &mut |_| {
            let cents = ((1.0 / (unit() + 1e-4)) * 37.0).floor();
            (if unit() < 0.1 { -cents } else { cents }) / 100.0
        }),
        shape("keys and ids", &mut |i| match i % 2 {
            0 => [10.0, 20.0, 30.0, 45.5][(unit() * 4.0) as usize % 4],
            _ => 9_007_199_254_740_000.0 + (i as f64),
        }),
    ]
}

/// Seeded arbitrary columns (what the property suites drew), of random
/// lengths up to `max_len`, cycling through three kinds: decimals at random
/// scales, the same with one value in five a raw bit pattern, and pure noise.
pub fn arbitrary<F: Float>(cases: usize, max_len: usize) -> Vec<Input<F>> {
    let mut rng = SplitMix64::new(seed() ^ 0xA5B1);
    let noise = |rng: &mut SplitMix64| F::from_bits_u64(rng.next_u64() >> (64 - F::BITS));
    (0..cases)
        .map(|case| {
            let len = rng.below(max_len + 1);
            let (kind, noisy_one_in) = [("decimals", 0), ("mixed", 5), ("noise", 1)][case % 3];
            let values = (0..len).map(|_| {
                if noisy_one_in != 0 && rng.below(noisy_one_in) == 0 {
                    noise(&mut rng)
                } else {
                    let digits = rng.next_u64() as i32 as f64;
                    F::of(digits / 10f64.powi(rng.below(10) as i32))
                }
            });
            Input::new(format!("arbitrary {kind} {case} ({len} values)"), values.collect())
        })
        .collect()
}

/// `cases` columns of one kind of [`arbitrary`]: `"decimals"`, `"mixed"` or
/// `"noise"`.
pub fn arbitrary_of<F: Float>(kind: &str, cases: usize, max_len: usize) -> Vec<Input<F>> {
    let all = arbitrary::<F>(3 * cases, max_len);
    all.into_iter().filter(|input| input.name.contains(kind)).collect()
}

// ---------------------------------------------------------------------------
// Invariant 1: decoded bits equal the input
// ---------------------------------------------------------------------------

/// What a path runs under: the swept thread count and the input's row-groups.
pub struct Ctx {
    pub threads: usize,
    pub rowgroup_vectors: usize,
}

impl Ctx {
    pub fn params(&self) -> SamplerParams {
        let default = SamplerParams::default();
        SamplerParams {
            vectors_per_rowgroup: self.rowgroup_vectors,
            sample_vectors: default.sample_vectors.min(self.rowgroup_vectors),
            ..default
        }
    }
    fn compressor(&self) -> Compressor {
        Compressor::with_params(self.params()).expect("valid params")
    }
}

/// Every rendition of the input a path decoded, labelled by the reader.
pub type Renditions<F> = Vec<(String, Vec<F>)>;
/// `(ctx, values) →` the renditions.
pub type Decode<F> = dyn Fn(&Ctx, &[F]) -> Renditions<F>;

/// One way from values to bytes (or a compressed form) and back.
pub struct Path<F: Float> {
    pub name: String,
    /// Whether anything in it takes a thread count (else it runs once).
    pub threaded: bool,
    pub decode: Box<Decode<F>>,
}

impl<F: Float> Path<F> {
    pub fn new(
        name: impl Into<String>,
        threaded: bool,
        decode: impl Fn(&Ctx, &[F]) -> Renditions<F> + 'static,
    ) -> Self {
        Path { name: name.into(), threaded, decode: Box::new(decode) }
    }
}

/// Invariant 1, written once: every rendition holds the input's bits.
pub fn assert_lossless<F: Float>(path: &Path<F>, input: &Input<F>, threads: usize) {
    let ctx = Ctx { threads, rowgroup_vectors: input.rowgroup_vectors };
    for (reader, got) in (path.decode)(&ctx, &input.values) {
        let what = format!(
            "{} / {reader} on {:?} ({}, {threads} threads)",
            path.name,
            input.name,
            F::NAME
        );
        assert_eq!(got.len(), input.values.len(), "{what}: length");
        if let Some(i) = bits(&got).zip(bits(&input.values)).position(|(a, b)| a != b) {
            panic!("{what}: value {i} decoded as {:?}, was {:?}", got[i], input.values[i]);
        }
    }
}

impl<F> Input<F> {
    /// The thread counts worth sweeping: all of them, unless the column is a
    /// single row-group — one morsel, which the scheduler runs inline whatever
    /// the count.
    fn thread_sweep(&self) -> Vec<usize> {
        let one_morsel = self.values.len() <= self.rowgroup_vectors * VECTOR_SIZE;
        if one_morsel {
            vec![1]
        } else {
            thread_counts()
        }
    }
}

/// [`assert_lossless`] over `paths` × `inputs` × the thread sweep.
pub fn lossless<F: Float>(paths: &[Path<F>], inputs: &[Input<F>]) {
    for input in inputs {
        for path in paths {
            let sweep = if path.threaded { input.thread_sweep() } else { vec![1] };
            for threads in sweep {
                assert_lossless(path, input, threads);
            }
        }
    }
}

/// `name: width, paths, inputs;` rows, one `#[test]` each running [`lossless`]
/// — how the suites whose test names the floor pins spell their slices.
#[macro_export]
macro_rules! lossless_tests {
    ($($name:ident: $width:ty, $paths:expr, $inputs:expr;)*) => {
        $(#[test]
        fn $name() {
            lossless::<$width>(&$paths, &$inputs);
        })*
    };
}

/// Registry round trip of one codec. A ratio-only scheme has no bytes: it
/// decodes from its own compressed form.
pub fn codec<F: Float>(codec: &'static dyn ColumnCodec) -> Path<F> {
    Path::new(format!("codec {}", codec.id()), false, move |_, data: &[F]| {
        let back = if codec.caps().ratio_only {
            alp::cascade::CascadeCompressor::new().compress(data).decompress()
        } else {
            let mut bytes = Vec::new();
            F::compress(codec, data, &mut bytes).expect("compress");
            F::decompress(codec, &bytes, data.len()).expect("decompress")
        };
        vec![("round trip".into(), back)]
    })
}

/// [`codec`] by registry id.
pub fn codec_named<F: Float>(id: &str) -> Path<F> {
    codec(Registry::get(id).expect("a registered id"))
}

/// Every registry codec that speaks this width (plus, for `f64`, the
/// ratio-only cascade).
pub fn codecs<F: Float>() -> Vec<Path<F>> {
    let mut paths = Vec::new();
    for &entry in Registry::all() {
        if F::speaks(entry) || (F::BITS == 64 && entry.caps().ratio_only) {
            paths.push(codec(entry));
        }
    }
    paths
}

/// Every registry codec with a byte format.
fn serializable() -> impl Iterator<Item = &'static dyn ColumnCodec> {
    Registry::all().iter().copied().filter(|codec| !codec.caps().ratio_only)
}

/// `par_compress` → `par_decompress` in vector-aligned chunks, per codec.
pub fn codec_chunks() -> Vec<Path<f64>> {
    let chunked = |codec: &'static dyn ColumnCodec| {
        Path::new(format!("chunks {}", codec.id()), true, move |ctx: &Ctx, data: &[f64]| {
            let blocks = codec.par_compress(data, 2 * VECTOR_SIZE, ctx.threads).expect("compress");
            assert_eq!(blocks.len(), data.len().div_ceil(2 * VECTOR_SIZE), "chunk layout");
            let back = codec.par_decompress(&blocks, ctx.threads).expect("decompress");
            vec![("par_decompress".into(), back)]
        })
    };
    serializable().map(chunked).collect()
}

/// `Compressor::compress_parallel` → `decompress`, and `encode_rowgroup_body`
/// per row-group → `BodyColumn`'s threaded decode and `BodyColumn::vector`
/// one vector at a time.
pub fn alp_column<F: Float>() -> Path<F> {
    Path::new("ALP column", true, |ctx, data: &[F]| {
        let compressor = ctx.compressor();
        let column = compressor.compress_parallel(data, ctx.threads);
        let (mut scratch, mut stats) = (Default::default(), Default::default());
        let bodies = data.chunks(ctx.rowgroup_vectors * VECTOR_SIZE).map(|rowgroup| {
            let mut body = Vec::new();
            compressor.encode_rowgroup_body(rowgroup, &mut body, &mut scratch, &mut stats);
            body
        });
        let bodies = BodyColumn::<F>::from_bodies(bodies.collect()).expect("bodies just encoded");
        let mut buf = vec![F::of(0.0); VECTOR_SIZE];
        let mut by_vector = Vec::new();
        for v in 0..bodies.vector_count() {
            let n = bodies.vector(v).expect("in range").decode(&mut buf);
            by_vector.extend_from_slice(&buf[..n]);
        }
        vec![
            ("decompress".into(), column.decompress()),
            ("BodyColumn::decompress".into(), bodies.decompress(ctx.threads)),
            ("BodyColumn::vector".into(), by_vector),
        ]
    })
}

/// Writes `data` as an `"ALP2"` column on `ctx.threads` workers. Returns the
/// bytes and the sampler statistics, rendered (see [`write_stream`]).
pub fn write_column<F: Float>(ctx: &Ctx, parity: bool, data: &[F]) -> (Vec<u8>, String) {
    let column = ctx.compressor().compress_parallel(data, ctx.threads);
    let bytes = match parity {
        true => to_bytes_with_parity(&column, PARITY).expect("valid parity"),
        false => to_bytes(&column),
    };
    (bytes, format!("{:?}", column.stats))
}

/// `archive::open` → the whole column, which only a complete verdict hands out
/// (what `alp decompress` does with a file of either layout).
fn open_complete<F: Float>(bytes: &[u8], threads: usize, verdict: Verdict) -> Vec<F> {
    let opened = archive::open::<F>(bytes, threads).expect("header");
    assert_eq!(opened.verdict, verdict, "lost {:?}", opened.lost);
    opened.complete_values(threads).expect("complete")
}

/// `to_bytes{,_with_parity}` → `from_bytes{,_salvage_parallel}`,
/// `archive::open`, and the borrowed
/// [`RowGroupView`] over each frame body; with parity, also one damaged frame
/// per group repaired on read.
pub fn alp_bytes<F: Float>(parity: bool) -> Path<F> {
    let name = if parity { "\"ALP2\" bytes with parity" } else { "\"ALP2\" bytes" };
    Path::new(name, true, move |ctx, data: &[F]| {
        let (bytes, _) = write_column(ctx, parity, data);
        let salvaged = |bytes: &[u8], threads| {
            let salvage = from_bytes_salvage_parallel::<F>(bytes, threads).expect("header");
            assert!(salvage.is_complete(), "lost {:?}", salvage.lost_rowgroups);
            (salvage.column.decompress(threads), salvage.repaired_rowgroups)
        };
        let spans = frame_spans(&bytes, COLUMN_HEADER);
        let mut viewed = Vec::new();
        for &(start, end, _) in spans.iter().filter(|span| !span.2) {
            let body = &bytes[start + alp::frame::PREFIX_LEN..end];
            RowGroupView::<F>::parse_exact(body).expect("a pristine body").decode_into(&mut viewed);
        }
        let mut renditions = vec![
            ("from_bytes".into(), from_bytes::<F>(&bytes).expect("pristine").decompress()),
            ("from_bytes_salvage_parallel".into(), {
                let (values, repaired) = salvaged(&bytes, ctx.threads);
                assert!(repaired.is_empty(), "nothing to repair");
                values
            }),
            ("RowGroupView::decode_into".into(), viewed),
            ("archive::open".into(), open_complete(&bytes, ctx.threads, Verdict::Clean)),
        ];
        if parity && !data.is_empty() {
            let damaged = one_damaged_frame_per_group(&bytes, &spans);
            let (values, repaired) = salvaged(&damaged.bytes, ctx.threads);
            assert_eq!(repaired, damaged.damaged, "{}", damaged.label);
            renditions.push(("salvage after repair".into(), values));
            let opened = open_complete(&damaged.bytes, ctx.threads, Verdict::Repaired);
            renditions.push(("archive::open after repair".into(), opened));
        }
        renditions
    })
}

/// The repairable member of [`parity_fault_family`]: one data frame per
/// parity group damaged.
fn one_damaged_frame_per_group(
    bytes: &[u8],
    spans: &[(usize, usize, bool)],
) -> alp_repro::corruption::ParityCase {
    let mut family = parity_fault_family(bytes, spans, seed());
    let case = family.swap_remove(0);
    assert_eq!(case.expect, ParityExpectation::Repairs);
    case
}

/// Writes `data` as an `"ALPT"` stream: through the serial [`ColumnWriter`]
/// at depth 0, else through the [`PipelinedColumnWriter`] in ragged pushes.
/// Returns the sink with the writer's summary rendered after it, so that what
/// a writer reports is part of what invariant 3 compares.
pub fn write_stream<F: Float>(
    ctx: &Ctx,
    depth: usize,
    parity: bool,
    data: &[F],
) -> (Vec<u8>, String) {
    let mut sink = Vec::new();
    let parity = parity.then_some(PARITY);
    let summary = if depth == 0 {
        let mut writer = match parity {
            Some(p) => ColumnWriter::<F, _>::with_params_and_parity(&mut sink, ctx.params(), p),
            None => ColumnWriter::<F, _>::with_params(&mut sink, ctx.params()),
        }
        .expect("valid config");
        writer.push(data).expect("push");
        writer.finish().expect("finish")
    } else {
        let config = PipelineConfig { threads: ctx.threads, depth, panic_at: None };
        let mut writer = match parity {
            Some(p) => PipelinedColumnWriter::<F, _>::with_params_and_parity(
                &mut sink,
                ctx.params(),
                config,
                p,
            ),
            None => PipelinedColumnWriter::<F, _>::with_params(&mut sink, ctx.params(), config),
        }
        .expect("valid config");
        // Ragged pushes: 1, 778, 1555, … values, so row-groups fill across calls.
        let mut rest = data;
        let mut step = 1;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(step.min(rest.len()));
            writer.push(head).expect("push");
            (rest, step) = (tail, step + 777);
        }
        writer.finish().expect("finish")
    };
    assert_eq!((summary.values, summary.total_bytes), (data.len(), sink.len()));
    (sink, format!("{summary:?}"))
}

/// Everything a [`ColumnReader`] can be asked for, until the stream ends.
fn read_stream<F: Float>(bytes: &[u8], how: &str) -> Result<Vec<F>, StreamError> {
    let mut reader = ColumnReader::<F, _>::new(bytes)?;
    let mut values = Vec::new();
    let mut part = Vec::new();
    let mut buf = vec![F::of(0.0); VECTOR_SIZE];
    loop {
        let more = match how {
            "next_rowgroup" => reader.next_rowgroup()?.map(|v| part = v).is_some(),
            "next_rowgroup_into" => reader.next_rowgroup_into(&mut part)?,
            "next_rowgroup_compressed" => {
                part.clear();
                reader
                    .next_rowgroup_compressed()?
                    .map(|rg| rg.decode_into(&mut buf, &mut part))
                    .is_some()
            }
            _ => reader.next_rowgroup_salvaged()?.map(|v| part = v).is_some(),
        };
        if !more {
            return Ok(values);
        }
        values.extend_from_slice(&part);
    }
}
const STREAM_READS: [&str; 4] =
    ["next_rowgroup", "next_rowgroup_into", "next_rowgroup_compressed", "next_rowgroup_salvaged"];

/// The `"ALPT"` stream → every [`ColumnReader`] read and `archive::open`; with
/// parity, also one damaged frame per group repaired by the salvaging read. Written by the
/// serial writer: invariant 3 holds the pipelined writer to the same bytes at
/// every thread count and depth.
pub fn alp_stream<F: Float>(parity: bool) -> Path<F> {
    let name = if parity { "\"ALPT\" stream with parity" } else { "\"ALPT\" stream" };
    // With parity, `archive::open` salvages on the thread count under test.
    Path::new(name, parity, move |ctx, data: &[F]| {
        let (bytes, _) = write_stream(ctx, 0, parity, data);
        let read = |how: &str| (how.to_string(), read_stream::<F>(&bytes, how).expect("pristine"));
        let mut renditions: Renditions<F> = STREAM_READS.map(read).into();
        renditions.push(("archive::open".into(), open_complete(&bytes, 1, Verdict::Clean)));
        if parity && !data.is_empty() {
            let spans = frame_spans(&bytes, STREAM_HEADER);
            let damaged = one_damaged_frame_per_group(&bytes, &spans);
            let mut reader = ColumnReader::<F, _>::new(&damaged.bytes[..]).expect("header");
            let mut values = Vec::new();
            while let Some(part) = reader.next_rowgroup_salvaged().expect("salvage is total") {
                values.extend(part);
            }
            assert!(reader.lost_rowgroups().is_empty() && reader.is_committed());
            assert_eq!(reader.repaired_rowgroups(), damaged.damaged, "{}", damaged.label);
            renditions.push(("salvage after repair".into(), values));
            let opened = open_complete(&damaged.bytes, ctx.threads, Verdict::Repaired);
            renditions.push(("archive::open after repair".into(), opened));
        }
        renditions
    })
}

/// The `"ALPC"` container around each serializable codec: strict read, and
/// the salvaging read of the parity-protected envelope.
pub fn containers() -> Vec<Path<f64>> {
    let container = |codec: &'static dyn ColumnCodec| {
        Path::new(format!("\"ALPC\" {}", codec.id()), true, move |ctx: &Ctx, data: &[f64]| {
            let mut scratch = Scratch::new();
            let (mut strict, mut salvaged) = (Vec::new(), Vec::new());
            let plain = alp_core::write_container(codec, data, &mut scratch).expect("write");
            let read = alp_core::try_read_container_into(&plain, &mut strict, &mut scratch);
            assert_eq!(read.expect("pristine").id(), codec.id());
            let protected =
                alp_core::write_container_with_parity(codec, data, &mut scratch, PARITY)
                    .expect("write");
            let read = alp_core::container::try_read_container_salvaged(
                &protected,
                &mut salvaged,
                &mut scratch,
                ctx.threads,
            );
            assert!(read.expect("pristine").repaired_chunks.is_empty());
            vec![("try_read_container_into".into(), strict), ("…_salvaged".into(), salvaged)]
        })
    };
    serializable().map(container).collect()
}

/// Every storage a `vectorq::Column` can sit on.
pub fn formats() -> Vec<Format> {
    vec![Format::Uncompressed, Format::alp()]
}

/// A stored `vectorq::Column`, read back vector by vector.
pub fn stored_columns() -> Vec<Path<f64>> {
    let stored = |format: Format| {
        Path::new(format!("Column on {}", format.name()), true, move |ctx: &Ctx, data: &[f64]| {
            let column = Column::from_f64_parallel(data, format, ctx.threads);
            let (mut scratch, mut vector, mut values) = (Scratch::new(), Vec::new(), Vec::new());
            for v in 0..column.zone_maps().len() {
                column.try_decompress_vector_at(v, &mut vector, &mut scratch).expect("in range");
                values.extend_from_slice(&vector);
            }
            vec![("try_decompress_vector_at".into(), values)]
        })
    };
    formats().into_iter().map(stored).collect()
}

/// Every ALP-native path of a width: column, bytes and streams, each with
/// and without parity.
pub fn alp_paths<F: Float>() -> Vec<Path<F>> {
    vec![alp_column(), alp_bytes(false), alp_bytes(true), alp_stream(false), alp_stream(true)]
}

// ---------------------------------------------------------------------------
// Invariant 2: aggregates equal the oracle
// ---------------------------------------------------------------------------

/// Predicate bands every aggregate is asked over: everything, a half line,
/// the zeros alone, a mid-range band, a sliver above zero, and nothing.
pub const BANDS: [(f64, f64); 6] = [
    (f64::NEG_INFINITY, f64::INFINITY),
    (0.0, f64::INFINITY),
    (-0.0, 0.0),
    (-100.25, 37.5),
    (0.0, 1e-300),
    (1e18, 2e18),
];

/// The one oracle: [`scan_values`] over the plain values.
pub fn oracle(data: &[f64], lo: f64, hi: f64) -> ScanResult {
    let mut result = ScanResult::new();
    scan_values(data, ScanPredicate { lo, hi }, ScanAgg::All, &mut result);
    result
}

/// Invariant 2, written once. Every way of asking "how many rows fall in
/// `lo..=hi`, and what do they add up to" — the column's own sum and
/// every service route (fully and half resident, cold and warm;
/// compressed-domain; materialize-and-drop) at every thread count — answers
/// with the oracle's bits. `exact_sums` says every partial sum of `data` is
/// exact, so the column's one running total and the service's page-ordered
/// fold, which differ only in association, are held to the same bits too.
pub fn assert_aggregates(data: &[f64], exact_sums: bool, format: Format, what: &str) {
    let name = format!("{} over {what}", format.name());
    let column = Column::from_f64(data, format);
    let mut directs = Vec::new();
    for (lo, hi) in BANDS {
        let label = format!("{name} [{lo}, {hi}]");
        let want = oracle(data, lo, hi);
        let direct = column.sum_where(lo, hi);
        assert_eq!(direct.sum.to_bits(), want.sum.to_bits(), "{label}: sum_where");
        assert_eq!(direct.matches, want.matches, "{label}: sum_where matches");
        assert_eq!(
            (direct.valid, direct.invalid),
            scanned_validity(data, lo, hi),
            "{label}: validity"
        );
        directs.push(direct);
    }

    // Pages of the paper's 100 vectors for a column longer than that, of two
    // for a shorter one, so that it too spans several.
    let page_vectors = if data.len() > vectorq::ROWGROUP_VALUES { 100 } else { 2 };
    let paged =
        CacheConfig { page_size_rows: page_vectors * VECTOR_SIZE, ..CacheConfig::default_config() };
    // A byte budget for half the pages, rounded up: the rest never fit.
    let pages = data.len().div_ceil(page_vectors * VECTOR_SIZE);
    let half =
        CacheConfig { max_bytes: pages.div_ceil(2) * page_vectors * VECTOR_SIZE * 8, ..paged };
    let service = |threads, cache| {
        let column = Column::from_f64_parallel(data, format, threads);
        Service::new(Arc::new(Store::new(column, cache)), ServiceConfig::default())
    };
    let uncached = service(1, CacheConfig { max_entries: 0, ..paged });
    // The service's sum is the fold of its page partials in page order
    // (DESIGN.md §14): the oracle, page by page.
    let paged_oracle = |(lo, hi)| {
        let pages = data.chunks(page_vectors * VECTOR_SIZE).map(|page| oracle(page, lo, hi));
        pages.fold((0.0, 0), |(sum, matches), page| (sum + page.sum, matches + page.matches))
    };
    let wants = BANDS.map(paged_oracle);
    for threads in thread_counts() {
        let cached = service(threads, paged);
        let half_resident = service(threads, half);
        let fused = QueryOptions { threads: Some(threads), ..QueryOptions::default() };
        let no_fused = QueryOptions { no_fused: true, ..fused };
        // Each store with room twice: the first query fills the resident
        // set, the second hits it.
        let routes = [
            ("cached, cold", &cached, fused),
            ("cached, warm", &cached, fused),
            ("half-resident, cold", &half_resident, fused),
            ("half-resident, warm", &half_resident, fused),
            ("fused", &uncached, fused),
            ("no_fused", &uncached, no_fused),
        ];
        for (((lo, hi), direct), (want_sum, want_matches)) in
            BANDS.into_iter().zip(&directs).zip(wants)
        {
            for (route, service, options) in routes {
                let label = format!("{name} [{lo}, {hi}] {route} at {threads} threads");
                let before = service.cache_stats();
                let result = service.sum_where(lo, hi, &options).expect("admitted");
                assert!(result.loss.is_complete(), "{label}");
                assert_eq!(result.value.sum.to_bits(), want_sum.to_bits(), "{label}: sum");
                assert_eq!(result.value.matches, want_matches, "{label}: matches");
                if exact_sums {
                    let column_sum = direct.sum.to_bits();
                    assert_eq!(result.value.sum.to_bits(), column_sum, "{label}: column's sum");
                }
                // Every route skips and counts per vector.
                let counters = |value| vectorq::FilteredSum { sum: 0.0, ..value };
                assert_eq!(counters(result.value), counters(*direct), "{label}: counters");
                // The column fits the default set, so a warm query hits every
                // page it reads. Under the half budget it hits the resident
                // pages it touches, and every miss found no room: the pages
                // that did not fit run fused. The zero-entry set is never
                // consulted: every page runs fused unless asked not to.
                let after = service.cache_stats();
                let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
                match route {
                    "cached, warm" => {
                        assert_eq!(result.pages_fused, 0, "{label}: served from the set");
                        assert_eq!(hits, result.pages_materialized as u64, "{label}: all hits");
                    }
                    "half-resident, warm" => {
                        assert_eq!(after.bypasses - before.bypasses, misses, "{label}: no room");
                        let served = (result.pages_fused + result.pages_materialized) as u64;
                        assert_eq!(hits + misses, served, "{label}: every page looked up");
                        assert_eq!(result.pages_fused as u64, misses, "{label}: misses fuse");
                        assert!(after.bytes_peak <= half.max_bytes, "{label}: {after:?}");
                    }
                    "fused" => {
                        assert_eq!(result.pages_materialized, 0, "{label}: runs fused");
                        if want_matches > 0 {
                            assert!(result.pages_fused > 0, "{label}: runs fused")
                        }
                    }
                    "no_fused" => assert_eq!(result.pages_fused, 0, "{label}: must materialize"),
                    _ => {}
                }
            }
        }
    }
    let untouched = uncached.cache_stats() == vectorq::cache::CacheStats::default();
    assert!(untouched, "{name}: a zero-entry set is never consulted");
}

/// The non-NaN `(min, max)` of every vector of `data` that holds a non-NaN
/// value, found by looking at each value.
fn vector_ranges(data: &[f64]) -> Vec<(f64, f64)> {
    data.chunks(VECTOR_SIZE).map(live_range).filter(|(min, max)| min <= max).collect()
}

/// The non-NaN `(min, max)` of `values`, found by looking at each value
/// (`(+inf, -inf)` when there is none).
fn live_range(values: &[f64]) -> (f64, f64) {
    let live = values.iter().copied().filter(|x| !x.is_nan());
    live.fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), x| (a.min(x), b.max(x)))
}

/// [`BANDS`] plus bands cut from `data`'s own vectors, so that each zone
/// verdict occurs: the first live vector's exact range (inside, bounds equal),
/// the whole live range (every NaN-free vector inside), from the first
/// vector's low end to the middle of the last one (inside, then across), and
/// from the middle of the first to the top (across, then inside). Then the
/// same at 64-value block granularity ([`block_bands`]).
pub fn zone_bands(data: &[f64]) -> Vec<(f64, f64)> {
    let mut bands = BANDS.to_vec();
    let ranges = vector_ranges(data);
    if let (Some(&first), Some(&last)) = (ranges.first(), ranges.last()) {
        let (min, max) = ranges.iter().fold(first, |(a, b), &(lo, hi)| (a.min(lo), b.max(hi)));
        let middle = |(lo, hi): (f64, f64)| lo / 2.0 + hi / 2.0;
        bands.extend([first, (min, max), (first.0, middle(last)), (middle(first), max)]);
    }
    bands.extend(block_bands(data));
    bands
}

/// Bands whose edges sit at the 64-value block boundaries of `data`'s first,
/// middle and last vector, for each of them that spans three blocks or more:
/// from the second block's min to the next-to-last block's max (edges
/// exactly on a block's end values), the same moved one ulp inwards (just
/// inside), and from between the first two blocks' ranges to between the last
/// two (between blocks). On data that ascends within a vector, the first
/// kind leaves every block inside or outside the band; the others make the
/// edge blocks straddle it.
pub fn block_bands(data: &[f64]) -> Vec<(f64, f64)> {
    let vectors: Vec<&[f64]> = data.chunks(VECTOR_SIZE).collect();
    let picks = [0, vectors.len() / 2, vectors.len().saturating_sub(1)];
    let mut bands = Vec::new();
    for (i, vector) in vectors.iter().enumerate() {
        if !picks.contains(&i) || vector.len() <= 2 * 64 {
            continue;
        }
        let blocks: Vec<(f64, f64)> = vector.chunks(64).map(live_range).collect();
        let (first, second) = (blocks[0], blocks[1]);
        let (next_to_last, last) = (blocks[blocks.len() - 2], blocks[blocks.len() - 1]);
        let between = |below: f64, above: f64| below / 2.0 + above / 2.0;
        bands.extend([
            (second.0, next_to_last.1),
            (second.0.next_up(), next_to_last.1.next_down()),
            (between(first.1, second.0), between(next_to_last.1, last.0)),
        ]);
    }
    bands
}

/// Columns where block zones decide the answer ([`block_bands`] cuts their
/// bands): decimals that ascend within every vector, each 64-value block
/// holding a value the decimal encoding cannot take (an ALP exception, found
/// behind every skipped or stored block), with a ragged tail of 333 values
/// and one shorter than a block; a block of alternating `±0.0` between
/// negative and positive decimals; vectors holding `+∞` and `−∞`, NaN-free and
/// beside a NaN; and a NaN in the middle of the middle vector, whose blocks
/// would otherwise plan.
pub fn block_shapes() -> Vec<Input<f64>> {
    // Block `b` spans `16 b ..= 16 b + 0.63` in hundredths, `16 b + 1/3` among them.
    let ascending = |n: usize| -> Vec<f64> {
        let value = |i: usize| match i % 64 {
            17 => (i / 64 * 16) as f64 + 1.0 / 3.0,
            j => (i / 64 * 1600 + j) as f64 * 0.01,
        };
        (0..n).map(value).collect()
    };
    let n = 3 * VECTOR_SIZE + 333;
    let mut zeros: Vec<f64> = (0..n).map(|i| (i as f64 - 1500.0) * 0.125).collect();
    for (i, x) in zeros.iter_mut().enumerate().skip(1472).take(64) {
        *x = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    let mut infinities = ascending(n);
    (infinities[70], infinities[900]) = (f64::NEG_INFINITY, f64::INFINITY);
    let v = VECTOR_SIZE;
    (infinities[v + 130], infinities[v + 700], infinities[v + 701]) =
        (f64::NEG_INFINITY, f64::INFINITY, f64::NAN);
    let mut nan = ascending(n);
    nan[2 * v + 5 * 64 + 9] = f64::NAN;
    vec![
        Input::new("ascending decimals, tail of 333", ascending(n)),
        Input::new("ascending decimals, tail of 40", ascending(2 * VECTOR_SIZE + 40)),
        Input::new("signed zeros filling a block", zeros),
        Input::new("infinities, NaN-free and beside a NaN", infinities),
        Input::new("a NaN amid ascending decimals", nan),
    ]
}

/// The zone-answered and block-planned routes, against the oracle. A vector
/// whose zone map lies inside the band is answered from its stored sum, and a
/// NaN-free one that straddles it is summed block by block from its block
/// zones, by `Column::sum_where` and the service's fused pages — resident or
/// not, the first query on a half-resident store and the next —; `no_fused`
/// decodes and predicates every value, on pages resident or not. All answer
/// with the oracle's bits (the service page by page), and count as inside the
/// band exactly the vectors whose every value is a member of it, found by
/// looking at each value. The scanned-vector and validity counts are the
/// ones a scan of every overlapping vector reports.
pub fn assert_zone_answers(data: &[f64], format: Format, what: &str) {
    let name = format!("{} over {what}", format.name());
    let column = Column::from_f64(data, format);
    let page_vectors = 2;
    let paged =
        CacheConfig { page_size_rows: page_vectors * VECTOR_SIZE, ..CacheConfig::default_config() };
    let pages = data.len().div_ceil(page_vectors * VECTOR_SIZE);
    let half =
        CacheConfig { max_bytes: pages.div_ceil(2) * page_vectors * VECTOR_SIZE * 8, ..paged };
    let service = |cache| {
        let store = Store::new(Column::from_f64(data, format), cache);
        Service::new(Arc::new(store), ServiceConfig::default())
    };
    let uncached = service(CacheConfig { max_entries: 0, ..paged });
    let fused = QueryOptions { threads: Some(1), ..QueryOptions::default() };
    let no_fused = QueryOptions { no_fused: true, ..fused };
    for (lo, hi) in zone_bands(data) {
        let label = format!("{name} [{lo}, {hi}]");
        let inside =
            data.chunks(VECTOR_SIZE).filter(|v| v.iter().all(|&x| x >= lo && x <= hi)).count();
        let overlapping =
            vector_ranges(data).into_iter().filter(|&(min, max)| min <= hi && max >= lo).count();
        let want = oracle(data, lo, hi);
        let direct = column.sum_where(lo, hi);
        assert_eq!(
            (direct.sum.to_bits(), direct.matches, direct.vectors_all_in),
            (want.sum.to_bits(), want.matches, inside),
            "{label}: sum_where (sum, matches, inside the band)"
        );
        assert_eq!(direct.vectors_scanned, overlapping, "{label}: vectors scanned");
        let validity = (direct.valid, direct.invalid);
        assert_eq!(validity, scanned_validity(data, lo, hi), "{label}: validity");
        let pages = data.chunks(page_vectors * VECTOR_SIZE).map(|page| oracle(page, lo, hi));
        let (sum, matches) = pages.fold((0.0, 0), |(s, m), page| (s + page.sum, m + page.matches));
        // A store of its own per band, so that its first query is cold.
        let half_resident = service(half);
        let routes = [
            ("fused", &uncached, fused),
            ("no_fused", &uncached, no_fused),
            ("half-resident, cold", &half_resident, fused),
            ("half-resident, warm", &half_resident, fused),
            ("half-resident, no_fused", &half_resident, no_fused),
        ];
        for (route, service, options) in routes {
            let got = service.sum_where(lo, hi, &options).expect("admitted");
            assert!(got.loss.is_complete(), "{label} {route}");
            assert_eq!(
                (got.value.sum.to_bits(), got.value.matches, got.value.vectors_all_in),
                (sum.to_bits(), matches, inside),
                "{label} {route}: service (sum, matches, inside the band)"
            );
            let counters = |value| vectorq::FilteredSum { sum: 0.0, ..value };
            assert_eq!(counters(got.value), counters(direct), "{label} {route}: counters");
        }
        assert!(half_resident.cache_stats().bytes_peak <= half.max_bytes, "{label}");
    }
}

/// `(valid, invalid)` a scan of `lo..=hi` reports: the non-NaN
/// and NaN counts of every vector whose non-NaN range overlaps the band.
fn scanned_validity(data: &[f64], lo: f64, hi: f64) -> (usize, usize) {
    let (mut valid, mut invalid) = (0, 0);
    for vector in data.chunks(VECTOR_SIZE) {
        let live = vector.iter().copied().filter(|x| !x.is_nan());
        let (min, max) =
            live.clone().fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), x| (a.min(x), b.max(x)));
        if min <= max && min <= hi && max >= lo {
            let live = live.count();
            valid += live;
            invalid += vector.len() - live;
        }
    }
    (valid, invalid)
}

/// One column holding every bit-pattern class at chosen places, whose values
/// are multiples of 0.25 (so every partial sum is exact), with an all-NaN
/// vector every predicate zone-prunes and a ragged tail. It crosses the
/// 100-vector row-group boundary into a short second row-group, which is both
/// storages' block, so one column serves every `Format`.
pub fn exact_column(_format: Format) -> Vec<f64> {
    let first_block = vectorq::ROWGROUP_VALUES;
    let n = first_block + 3 * VECTOR_SIZE + 700;
    let mut data: Vec<f64> = (0..n).map(|i| ((i * 7919) % 4001) as f64 * 0.25 - 500.0).collect();
    data[5] = f64::from_bits(0x7ff8_0000_0000_1234);
    data[2 * VECTOR_SIZE + 17] = f64::from_bits(0xfff8_dead_beef_0001);
    (data[9], data[10]) = (0.0, -0.0);
    data[VECTOR_SIZE + 1] = f64::INFINITY;
    data[first_block + 40] = f64::NEG_INFINITY;
    data[n - 3] = f64::MIN_POSITIVE / 2.0;
    data[7 * VECTOR_SIZE..8 * VECTOR_SIZE].fill(f64::NAN);
    data
}

// ---------------------------------------------------------------------------
// Invariant 3: written bytes do not depend on threads or depth
// ---------------------------------------------------------------------------

/// `(ctx, depth, values) →` everything a writer wrote and reported.
pub type Write<F> = dyn Fn(&Ctx, usize, &[F]) -> Vec<u8>;

/// One writer.
pub struct Writer<F: Float> {
    pub name: String,
    /// Pipeline depths to sweep; `[0]` for writers that have none (for the
    /// stream writers, depth 0 is the serial [`ColumnWriter`]).
    pub depths: Vec<usize>,
    pub write: Box<Write<F>>,
}

/// Invariant 3, written once: at every thread count and depth the writer's
/// bytes are those of one thread at its first depth.
pub fn assert_bytes_identical<F: Float>(writer: &Writer<F>, input: &Input<F>) {
    let ctx = |threads| Ctx { threads, rowgroup_vectors: input.rowgroup_vectors };
    let reference = (writer.write)(&ctx(1), writer.depths[0], &input.values);
    for threads in input.thread_sweep() {
        for &depth in
            writer.depths.iter().filter(|&&depth| (threads, depth) != (1, writer.depths[0]))
        {
            let written = (writer.write)(&ctx(threads), depth, &input.values);
            let same = written == reference;
            let at = written.iter().zip(&reference).position(|(a, b)| a != b);
            assert!(
                same,
                "{} on {:?} ({}): {threads} threads at depth {depth} wrote {} bytes against {}, first difference at {at:?}",
                writer.name, input.name, F::NAME, written.len(), reference.len(),
            );
        }
    }
}

/// [`assert_bytes_identical`] over `writers` × `inputs`.
pub fn same_bytes<F: Float>(writers: &[Writer<F>], inputs: &[Input<F>]) {
    for input in inputs {
        writers.iter().for_each(|writer| assert_bytes_identical(writer, input));
    }
}

/// The `"ALP2"` column writer (with its sampler statistics) and the `"ALPT"`
/// stream writers (with their summaries), with and without parity.
pub fn alp_writers<F: Float>() -> Vec<Writer<F>> {
    let column = |parity: bool| Writer {
        name: format!("\"ALP2\" column{}", if parity { " with parity" } else { "" }),
        depths: vec![0],
        write: Box::new(move |ctx: &Ctx, _, data: &[F]| {
            let (mut bytes, stats) = write_column(ctx, parity, data);
            bytes.extend_from_slice(stats.as_bytes());
            bytes
        }),
    };
    let stream = |parity: bool| Writer {
        name: format!("\"ALPT\" stream{}", if parity { " with parity" } else { "" }),
        depths: [0].into_iter().chain(DEPTHS).collect(),
        write: Box::new(move |ctx: &Ctx, depth, data: &[F]| {
            let (mut bytes, summary) = write_stream(ctx, depth, parity, data);
            bytes.extend_from_slice(summary.as_bytes());
            bytes
        }),
    };
    vec![column(false), column(true), stream(false), stream(true)]
}

/// `par_compress` per registry codec: the chunk list, flattened.
pub fn chunk_writers() -> Vec<Writer<f64>> {
    let chunked = |codec: &'static dyn ColumnCodec| Writer {
        name: format!("chunks {}", codec.id()),
        depths: vec![0],
        write: Box::new(move |ctx: &Ctx, _, data: &[f64]| {
            let blocks = codec.par_compress(data, 2 * VECTOR_SIZE, ctx.threads).expect("compress");
            blocks.iter().flat_map(|(bytes, n)| [&n.to_le_bytes()[..], bytes].concat()).collect()
        }),
    };
    serializable().map(chunked).collect()
}

// ---------------------------------------------------------------------------
// Readers are total over arbitrary bytes
// ---------------------------------------------------------------------------

/// `(bytes, threads) →` how many values were decoded, or the typed error.
pub type Read = dyn Fn(&[u8], usize) -> Result<usize, String>;

/// One reader of a layout.
pub struct Reader {
    pub name: &'static str,
    /// A strict reader of a checksummed layout: must refuse every one-bit flip.
    pub strict: bool,
    /// Whether it takes a thread count (else it runs once per case).
    pub threaded: bool,
    pub read: Box<Read>,
}

/// `archive::open` as a reader of either file layout: the whole column or the
/// strict read's error — so it refuses whatever a strict reader refuses,
/// unless parity repairs it.
fn archive_reader<F: Float>(strict: bool) -> Reader {
    reader("archive::open", strict, true, |b, threads| {
        let opened = archive::open::<F>(b, threads).map_err(|e| e.to_string())?;
        opened.complete_values(threads).map(|values| values.len()).map_err(|e| e.to_string())
    })
}

fn reader<E: core::fmt::Display>(
    name: &'static str,
    strict: bool,
    threaded: bool,
    read: impl Fn(&[u8], usize) -> Result<usize, E> + 'static,
) -> Reader {
    let read =
        Box::new(move |bytes: &[u8], threads| read(bytes, threads).map_err(|e| e.to_string()));
    Reader { name, strict, threaded, read }
}

/// One readable layout: pristine bytes and every reader that accepts them.
pub struct Layout {
    pub name: String,
    pub pristine: Vec<u8>,
    /// Where its frames start; `None` for the unframed legacy layouts.
    pub frames_at: Option<usize>,
    /// The largest single allocation request a reader may make on bytes
    /// derived from this file ([`ceiling`]) — never a figure read from them.
    pub ceiling: usize,
    pub readers: Vec<Reader>,
}

/// What a framed reader may ask for beyond the values: the frame layer's
/// 1 MiB read step, doubled once.
const FRAMED_SLACK: usize = 2 << 20;
/// What a bare decoder may: gpzip reserves for the length its own header
/// claims, up to a fixed 16 MiB.
const BARE_SLACK: usize = 16 << 20;

/// Twice what the pristine file decodes to (a growing `Vec` overshoots by at
/// most that) over the layout's fixed slack.
fn ceiling<F: Float>(slack: usize, values: usize) -> usize {
    slack + 2 * values * (F::BITS as usize / 8)
}

/// An `"ALP2"` / `"ALP1"` column file under the column readers. The strict
/// reader of a checksummed, unprotected file refuses every one-bit flip (one
/// inside a parity section leaves the data path clean, by design).
pub fn column_layout<F: Float>(name: &str, pristine: Vec<u8>, values: usize) -> Layout {
    let checksummed = pristine.starts_with(alp::format::MAGIC);
    let strict = checksummed && !name.contains("parity");
    Layout {
        name: format!("{name} ({})", F::NAME),
        frames_at: checksummed.then_some(COLUMN_HEADER),
        ceiling: ceiling::<F>(FRAMED_SLACK, values),
        pristine,
        readers: vec![
            reader("from_bytes", strict, false, |b, _| {
                from_bytes::<F>(b).map(|column| column.decompress().len())
            }),
            reader("from_bytes_salvage_parallel", false, true, |b, threads| {
                from_bytes_salvage_parallel::<F>(b, threads).map(|salvage| {
                    let values = salvage.column.decompress(1);
                    assert_eq!(values.len(), salvage.column.len(), "decodes to its own length");
                    values.len()
                })
            }),
            archive_reader::<F>(strict),
        ],
    }
}

/// An `"ALPT"` / `"ALPS"` stream file under the four stream reads.
pub fn stream_layout<F: Float>(name: &str, pristine: Vec<u8>, values: usize) -> Layout {
    let checksummed = pristine.starts_with(alp::stream::STREAM_MAGIC);
    let read = |how: &'static str| {
        let strict = checksummed && !name.contains("parity") && how != "next_rowgroup_salvaged";
        reader(how, strict, false, move |b, _| read_stream::<F>(b, how).map(|values| values.len()))
    };
    let mut readers: Vec<Reader> = STREAM_READS.map(read).into();
    readers.push(archive_reader::<F>(checksummed && !name.contains("parity")));
    Layout {
        name: format!("{name} ({})", F::NAME),
        frames_at: checksummed.then_some(STREAM_HEADER),
        ceiling: ceiling::<F>(FRAMED_SLACK, values),
        pristine,
        readers,
    }
}

/// An `"ALPC"` container around `codec`, plain or parity-protected, under
/// its two readers.
pub fn container_layout(codec: &'static dyn ColumnCodec, data: &[f64], parity: bool) -> Layout {
    let mut scratch = Scratch::new();
    let pristine = match parity {
        true => alp_core::write_container_with_parity(codec, data, &mut scratch, PARITY),
        false => alp_core::write_container(codec, data, &mut scratch),
    };
    Layout {
        name: format!("\"ALPC\" {}{}", codec.id(), if parity { " with parity" } else { "" }),
        frames_at: Some(4 + 1 + codec.id().len() + 8 + 8 + 8),
        ceiling: ceiling::<f64>(FRAMED_SLACK, data.len()),
        pristine: pristine.expect("write"),
        readers: vec![
            reader("try_read_container_into", !parity, false, |b, _| {
                let mut out = Vec::new();
                alp_core::try_read_container_into(b, &mut out, &mut Scratch::new())
                    .map(|_| out.len())
            }),
            reader("try_read_container_salvaged", false, true, |b, threads| {
                let (mut out, mut scratch) = (Vec::new(), Scratch::new());
                alp_core::container::try_read_container_salvaged(b, &mut out, &mut scratch, threads)
                    .map(|_| out.len())
            }),
        ],
    }
}

/// A codec's bare bytes (no envelope, no checksum) under its own decoder,
/// which is told the true count.
pub fn codec_layout<F: Float>(codec: &'static dyn ColumnCodec, data: &[F]) -> Layout {
    let mut pristine = Vec::new();
    F::compress(codec, data, &mut pristine).expect("compress");
    let count = data.len();
    let read = move |b: &[u8], _| F::decompress(codec, b, count).map(|values| values.len());
    Layout {
        name: format!("bare {} ({})", codec.id(), F::NAME),
        frames_at: None,
        ceiling: ceiling::<F>(BARE_SLACK, count),
        pristine,
        readers: vec![reader("try_decompress_into", false, false, read)],
    }
}

/// A column for the mutation loop: `alp_vectors` of decimals (ALP row-groups),
/// one ALP_rd row-group and one with every special value — short, so that
/// thousands of reads stay cheap.
pub fn mutation_column<F: Float>(alp_vectors: usize) -> Input<F> {
    let mut values: Vec<F> =
        (0..alp_vectors * VECTOR_SIZE).map(|i| F::of(i as f64 / 8.0)).collect();
    values.extend((0..2 * VECTOR_SIZE).map(|i| F::of((i as f64 * 0.377).sin() * 1e-4)));
    let specials = bit_patterns::<F>().pop().expect("the sprinkled column").values;
    values.extend(&specials[..1500]);
    Input::new("mutation column", values)
}

/// `input` in the two layouts that have writers, each plain and
/// parity-protected: `["ALP2", "ALP2" + parity, "ALPT", "ALPT" + parity]`.
pub fn written_layouts<F: Float>(input: &Input<F>) -> [Layout; 4] {
    let ctx = Ctx { threads: 1, rowgroup_vectors: input.rowgroup_vectors };
    let n = input.values.len();
    [
        column_layout::<F>("\"ALP2\"", write_column(&ctx, false, &input.values).0, n),
        column_layout::<F>("\"ALP2\" with parity", write_column(&ctx, true, &input.values).0, n),
        stream_layout::<F>("\"ALPT\"", write_stream(&ctx, 0, false, &input.values).0, n),
        stream_layout::<F>("\"ALPT\" with parity", write_stream(&ctx, 0, true, &input.values).0, n),
    ]
}

/// The frozen layouts have no writer left: the golden files are the pristine
/// inputs. `["ALP1", "ALPS"]`.
pub fn legacy_layouts() -> [Layout; 2] {
    let golden = |name: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let values = from_bytes::<f64>(&golden("alp1_f64.bin")).expect("golden").len;
    [
        column_layout::<f64>("\"ALP1\"", golden("alp1_f64.bin"), values),
        stream_layout::<f64>("\"ALPS\"", golden("alps_f64.bin"), values),
    ]
}

/// The seeded mutation corpus of one layout: `corruption::corpus`
/// (truncations, bit flips, garbage), then the structure-aware cases — every
/// bit of the header flipped and every 4- and 8-byte window of it saturated
/// (whatever length or count field lives there), every frame's length prefix set to each boundary
/// value, and every leading field of every frame body saturated *under a
/// recomputed checksum*, so the mutation reaches the body parser (frames: the
/// first and the last three).
pub fn mutations(layout: &Layout, seed: u64) -> Vec<Case> {
    let pristine = &layout.pristine;
    let mut cases = corpus(pristine, seed);
    let mut edited = |label: String, edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = pristine.clone();
        edit(&mut bytes);
        cases.push(Case { label, bytes });
    };
    let saturate = |bytes: &mut Vec<u8>, at: usize, width: usize| {
        let end = (at + width).min(bytes.len());
        bytes[at..end].fill(0xFF);
    };
    let spans = layout.frames_at.map_or(Vec::new(), |at| frame_spans(pristine, at));
    let header = layout.frames_at.unwrap_or(48).min(pristine.len());
    for at in 0..header {
        for width in [4, 8] {
            edited(format!("header bytes {at}..+{width} saturated"), &|b| saturate(b, at, width));
        }
        // Where a strict reader must refuse every flip, every header bit.
        for bit in (0..8).filter(|_| layout.readers.iter().any(|r| r.strict)) {
            edited(format!("flip bit {bit} of byte {at}"), &|b| b[at] ^= 1 << bit);
        }
    }
    // The first and the last three frames: the ones between are alike.
    let edge = |f: &usize| *f < 3 || *f + 3 >= spans.len();
    for (f, &(start, end, _)) in spans.iter().enumerate().filter(|(f, _)| edge(f)) {
        let len = (end - start - alp::frame::PREFIX_LEN) as u32;
        for lie in [0, 1, len - 1, len + 1, 0x4000_0000, u32::MAX] {
            edited(format!("frame {f} claims {lie} bytes"), &|b| {
                b[start..start + 4].copy_from_slice(&lie.to_le_bytes());
            });
        }
        let body = start + alp::frame::PREFIX_LEN;
        for at in body..end.min(body + 16) {
            edited(
                format!("frame {f} body byte {}..+4 saturated, re-checksummed", at - body),
                &|b| {
                    saturate(b, at, 4.min(end - at));
                    let sum = alp::hash::xxh64(&b[body..end], alp::hash::CHECKSUM_SEED);
                    b[start + 4..body].copy_from_slice(&sum.to_le_bytes());
                },
            );
        }
    }
    cases
}

/// The reader contract, written once: over every mutation every reader
/// *returns* — a value or a typed error, at every thread count; on the calling
/// thread (one thread, where the gauge sees every request) no single
/// allocation exceeds the layout's `ceiling`; the pristine bytes still read; a
/// strict reader of a checksummed layout refuses every single-bit flip; and a
/// reader that does not salvage refuses a file cut to half or less.
pub fn assert_total(layout: &Layout, seed: u64) {
    let ceiling = layout.ceiling;
    let cases = mutations(layout, seed);
    for reader in &layout.readers {
        let what = format!("{} / {}", layout.name, reader.name);
        if let Err(e) = (reader.read)(&layout.pristine, 1) {
            panic!("{what}: refuses its pristine input: {e}");
        }
        let sweep = if reader.threaded { thread_counts() } else { vec![1] };
        for case in &cases {
            for &threads in &sweep {
                let (result, _, largest) = common::gauge(|| (reader.read)(&case.bytes, threads));
                assert!(
                    threads > 1 || largest <= ceiling,
                    "{what}: {}: one request of {largest} bytes (ceiling {ceiling})",
                    case.label
                );
                let cut_short = case.label.starts_with("truncate to")
                    && case.bytes.len() <= layout.pristine.len() / 2;
                let refuses = (reader.strict && case.label.starts_with("flip bit "))
                    || (cut_short && !reader.name.contains("salvage"));
                assert!(!refuses || result.is_err(), "{what}: {} went undetected", case.label);
            }
        }
    }
}
