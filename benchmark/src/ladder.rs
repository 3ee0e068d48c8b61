//! The layer ladder: under each journey step of a traced round, the step's
//! own data is replayed through each layer's public function in isolation,
//! from outside the crates. Every `_mbps` is raw-equivalent — 8 B × values
//! carried ÷ seconds — so the reciprocals of rungs add up to the journey
//! above them and compare across layers.
//!
//! The replayed data is a sample of the workload's own row-groups (whole
//! journey row-groups, evenly spaced over the column), so each rung sees the
//! bit widths, exception rates and schemes the journey sees.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use alp::decode::{decode_vector, decode_vector_unfused, scan_decoded, scan_vector, VectorScan};
use alp::encode::{encode_vector_into, ExcArena};
use alp::format::{from_bytes, to_bytes, write_rowgroup};
use alp::hash::xxh64;
use alp::rd::{choose_cut, decode_rd_vector, encode_rd_vector};
use alp::rowgroup::{AlpGroup, Scheme};
use alp::sampler::{first_level, second_level, FirstLevelOutcome};
use alp::stream::ColumnReader;
use alp::{Compressed, Compressor, ParityConfig, RowGroup, SamplerParams, SamplerStats};
use alp_core::scan::{scan_values, ScanAgg, ScanPredicate, ScanResult};
use alp_core::{Registry, Scratch};
use fastlanes::{bitpack, ffor, fused, interleaved, VECTOR_SIZE};
use vectorq::cache::{CacheConfig, PageCache};
use vectorq::scrub::ScrubOptions;
use vectorq::service::{PoisonPlan, QueryOptions, Service, ServiceConfig, Store};
use vectorq::{Column, Format};

use crate::journey::Bench;
use crate::spec::{Workload, BUILD_THREADS, LADDER_ROWGROUPS};
use crate::trace::Trace;
use crate::workload::{pipelined_stream, serial_stream};

const FORCED_ALP: &str =
    "off the journey: every row-group of this workload is ALP_rd; measured on \
                          a forced ALP encoding of sampled row-groups";
const FORCED_RD: &str = "off the journey: every row-group of this workload is ALP; measured on a \
                         forced ALP_rd encoding of sampled row-groups";

/// Sampled row-groups re-encoded under a scheme the journey never picks, so
/// that scheme's rungs read a number on every workload (the driver's result
/// line carries the same metrics for all of them).
const FORCED_ROWGROUPS: usize = 4;

/// One ALP vector of the sample and the input values it encodes.
struct AlpItem {
    rowgroup: usize,
    vector: usize,
    input: Range<usize>,
}

/// Exact scheme counts over *all* of the journey's row-groups.
struct SchemeCounts {
    rowgroups: usize,
    rd_rowgroups: usize,
    width_sum: f64,
    vectors: usize,
    stats: SamplerStats,
    alp_values: usize,
    alp_exceptions: usize,
}

/// One sample per round and rung, keyed by metric name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub struct Ladder {
    w: &'static Workload,
    dir: PathBuf,
    /// The sampled row-groups' values, concatenated.
    flat: Vec<f64>,
    /// `rg_ranges`, `rowgroups` and `outcomes` are parallel: the first
    /// `journey` entries are the sample as the journey compresses it, the
    /// rest are forced re-encodings of its first row-groups.
    journey: usize,
    /// The schemes whose vectors here are forced ones, not the journey's.
    alp_forced: bool,
    rd_forced: bool,
    forced_stats: SamplerStats,
    rg_ranges: Vec<Range<usize>>,
    /// One range per replayed stream: the whole sample, or — where the
    /// journey writes one stream per row-group — each sampled row-group.
    stream_ranges: Vec<Range<usize>>,
    rowgroups: Vec<RowGroup>,
    singles: Vec<Compressed<f64>>,
    sample_column: Compressed<f64>,
    outcomes: Vec<FirstLevelOutcome>,
    alp: Vec<AlpItem>,
    /// Per ALP vector: FOR residuals, encoded integers, and the residuals in
    /// the interleaved layout the fused scan kernel reads.
    residuals: Vec<u64>,
    ints: Vec<i64>,
    interleaved: Vec<Vec<u64>>,
    /// Per ALP_rd vector: `(row-group, vector, input)` plus unpacked parts.
    rd: Vec<AlpItem>,
    rd_codes: Vec<u64>,
    rd_rights: Vec<u64>,
    bodies: Vec<Vec<u8>>,
    column_bytes: Vec<u8>,
    stream_bytes: Vec<Vec<u8>>,
    parity_bytes: Vec<Vec<u8>>,
    container_bytes: Vec<u8>,
    column: Column,
    pages: Vec<Arc<Vec<f64>>>,
    poison_seed: u64,
    counts: SchemeCounts,
    params: SamplerParams,
    samples: Samples,
}

/// Times `work` as a span named `span` under whatever is open.
fn timed<R>(trace: &mut Trace, span: &str, work: impl FnOnce() -> R) -> (f64, R) {
    trace.enter(span);
    let out = work();
    (trace.exit(), out)
}

fn mb(values: usize) -> f64 {
    (values * 8) as f64 / 1e6
}

fn items_mb(items: &[AlpItem]) -> f64 {
    mb(items.iter().map(|a| a.input.len()).sum())
}

fn force_alp(
    values: &[f64],
    outcome: &FirstLevelOutcome,
    params: &SamplerParams,
    stats: &mut SamplerStats,
) -> RowGroup {
    let mut exceptions = ExcArena::new();
    let vectors = values
        .chunks(VECTOR_SIZE)
        .map(|chunk| {
            let c = second_level(chunk, &outcome.combinations, params, stats);
            encode_vector_into(chunk, c.e, c.f, &mut exceptions)
        })
        .collect();
    RowGroup::Alp(AlpGroup { vectors, exceptions })
}

fn force_rd(values: &[f64], params: &SamplerParams) -> RowGroup {
    let meta = choose_cut::<f64>(values, params.sample_vectors * params.sample_values);
    let vectors = values.chunks(VECTOR_SIZE).map(|chunk| encode_rd_vector(chunk, &meta)).collect();
    RowGroup::Rd(meta, vectors)
}

impl Ladder {
    /// Samples the workload's row-groups and prepares every rung's inputs.
    pub fn prepare(bench: &Bench, dir: PathBuf, seed: u64) -> Ladder {
        let params = SamplerParams::default();
        let compressor = Compressor::new();
        let rg_values = params.vectors_per_rowgroup * VECTOR_SIZE;

        // Every journey row-group, for the exact counts; the sample keeps
        // every k-th.
        let mut all: Vec<Range<usize>> = Vec::new();
        for stream in &bench.streams {
            let mut at = stream.start;
            while at < stream.end {
                let end = (at + rg_values).min(stream.end);
                all.push(at..end);
                at = end;
            }
        }
        let mut counts = SchemeCounts {
            rowgroups: all.len(),
            rd_rowgroups: 0,
            width_sum: 0.0,
            vectors: 0,
            stats: SamplerStats::default(),
            alp_values: 0,
            alp_exceptions: 0,
        };
        for stream in &bench.streams {
            let c = compressor.compress_parallel(&bench.data[stream.clone()], BUILD_THREADS);
            counts.stats.merge(&c.stats);
            for rg in &c.rowgroups {
                match rg {
                    RowGroup::Alp(g) => {
                        for v in &g.vectors {
                            counts.vectors += 1;
                            counts.width_sum += v.bit_width as f64;
                            counts.alp_values += v.len as usize;
                            counts.alp_exceptions += v.exc_count as usize;
                        }
                    }
                    RowGroup::Rd(meta, vs) => {
                        counts.rd_rowgroups += 1;
                        counts.vectors += vs.len();
                        counts.width_sum += vs.len() as f64
                            * (meta.right_width::<f64>() + meta.code_width as usize) as f64;
                    }
                }
            }
        }

        let k = LADDER_ROWGROUPS.min(all.len());
        let picked: Vec<Range<usize>> = (0..k).map(|i| all[i * all.len() / k].clone()).collect();
        let mut flat = Vec::with_capacity(picked.iter().map(|r| r.len()).sum());
        let mut rg_ranges = Vec::with_capacity(k);
        for r in &picked {
            rg_ranges.push(flat.len()..flat.len() + r.len());
            flat.extend_from_slice(&bench.data[r.clone()]);
        }
        let stream_ranges = if bench.streams.len() > 1 {
            rg_ranges.clone()
        } else {
            std::iter::once(0..flat.len()).collect()
        };

        let mut rowgroups = Vec::with_capacity(k);
        let mut outcomes = Vec::with_capacity(k);
        for r in &rg_ranges {
            let mut c = compressor.compress(&flat[r.clone()]);
            assert_eq!(c.rowgroups.len(), 1, "a sampled range is one row-group");
            rowgroups.push(c.rowgroups.remove(0));
            outcomes.push(first_level(&flat[r.clone()], &params));
        }
        let singles: Vec<Compressed<f64>> = rowgroups
            .iter()
            .zip(&rg_ranges)
            .map(|(rg, r)| Compressed::from_rowgroups(vec![rg.clone()], r.len()))
            .collect();
        let sample_column = Compressed::from_rowgroups(rowgroups.clone(), flat.len());
        let bodies: Vec<Vec<u8>> = rowgroups
            .iter()
            .map(|rg| {
                let mut body = Vec::new();
                write_rowgroup::<f64>(&mut body, rg);
                body
            })
            .collect();

        let journey = rowgroups.len();
        let alp_forced = rowgroups.iter().all(|rg| rg.scheme() == Scheme::AlpRd);
        let rd_forced = rowgroups.iter().all(|rg| rg.scheme() == Scheme::Alp);
        let mut forced_stats = SamplerStats::default();
        for i in 0..FORCED_ROWGROUPS.min(journey) {
            let values = &flat[rg_ranges[i].clone()];
            let forced = if alp_forced {
                force_alp(values, &outcomes[i], &params, &mut forced_stats)
            } else if rd_forced {
                force_rd(values, &params)
            } else {
                break;
            };
            rowgroups.push(forced);
            rg_ranges.push(rg_ranges[i].clone());
            outcomes.push(outcomes[i].clone());
        }

        let (mut alp, mut rd) = (Vec::new(), Vec::new());
        let (mut residuals, mut ints, mut lanes) = (Vec::new(), Vec::new(), Vec::new());
        let (mut rd_codes, mut rd_rights) = (Vec::new(), Vec::new());
        let mut buf_u = vec![0u64; VECTOR_SIZE];
        let mut buf_i = vec![0i64; VECTOR_SIZE];
        for (i, (rg, r)) in rowgroups.iter().zip(&rg_ranges).enumerate() {
            let input = |vector: usize, len: usize| {
                let start = r.start + vector * VECTOR_SIZE;
                start..start + len
            };
            match rg {
                RowGroup::Alp(g) => {
                    for (j, v) in g.vectors.iter().enumerate() {
                        alp.push(AlpItem {
                            rowgroup: i,
                            vector: j,
                            input: input(j, v.len as usize),
                        });
                        bitpack::unpack(&v.packed, v.bit_width as usize, &mut buf_u);
                        residuals.extend_from_slice(&buf_u);
                        lanes.push(interleaved::pack(&buf_u, v.bit_width as usize));
                        ffor::ffor_unpack(&v.packed, v.for_base, v.bit_width as usize, &mut buf_i);
                        ints.extend_from_slice(&buf_i);
                    }
                }
                RowGroup::Rd(meta, vs) => {
                    for (j, v) in vs.iter().enumerate() {
                        rd.push(AlpItem {
                            rowgroup: i,
                            vector: j,
                            input: input(j, v.len as usize),
                        });
                        bitpack::unpack(&v.packed_codes, meta.code_width as usize, &mut buf_u);
                        rd_codes.extend_from_slice(&buf_u);
                        bitpack::unpack(&v.packed_right, meta.right_width::<f64>(), &mut buf_u);
                        rd_rights.extend_from_slice(&buf_u);
                    }
                }
            }
        }

        let column_bytes = to_bytes(&sample_column);
        let stream_bytes: Vec<Vec<u8>> =
            stream_ranges.iter().map(|r| serial_stream(&flat[r.clone()], None)).collect();
        let parity_bytes: Vec<Vec<u8>> = stream_ranges
            .iter()
            .map(|r| serial_stream(&flat[r.clone()], Some(ParityConfig { group_size: 8 })))
            .collect();
        let codec = Registry::get("alp").expect("alp is registered");
        let container_bytes =
            alp_core::container::write_container(codec, &flat, &mut Scratch::new())
                .expect("alp compresses any f64 column");
        let column = Column::from_f64_parallel(&flat, Format::alp(), BUILD_THREADS);
        let page_rows = bench.w.cache_config().rows_per_page();
        let pages = flat.chunks(page_rows).map(|p| Arc::new(p.to_vec())).collect();

        // Small pages so the sample spans enough of them for the ~25 % poison
        // rate to hit; the seed follows the run's seed, not the environment.
        let scrub_pages = flat.len().div_ceil(SCRUB_PAGE_ROWS);
        let poison_seed = (1..=64u64)
            .map(|i| seed.wrapping_add(i).max(1))
            .find(|&s| (0..scrub_pages).any(|p| PoisonPlan::seeded(s).poisons(p)))
            .expect("one of 64 seeds poisons a page");

        Ladder {
            w: bench.w,
            dir,
            flat,
            journey,
            alp_forced,
            rd_forced,
            forced_stats,
            rg_ranges,
            stream_ranges,
            rowgroups,
            singles,
            sample_column,
            outcomes,
            alp,
            residuals,
            ints,
            interleaved: lanes,
            rd,
            rd_codes,
            rd_rights,
            bodies,
            column_bytes,
            stream_bytes,
            parity_bytes,
            container_bytes,
            column,
            pages,
            poison_seed,
            counts,
            params,
            samples: BTreeMap::new(),
        }
    }

    pub fn sample_values(&self) -> usize {
        self.flat.len()
    }

    pub fn alp_vectors(&self) -> usize {
        self.alp.len()
    }

    pub fn rd_vectors(&self) -> usize {
        self.rd.len()
    }

    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::spec::per_layer(name).is_some(), "{name} is not in the table");
        self.samples.entry(name).or_default().push(value);
    }

    fn alp_mb(&self) -> f64 {
        items_mb(&self.alp)
    }

    fn rd_mb(&self) -> f64 {
        items_mb(&self.rd)
    }

    /// The ALP and ALP_rd vectors the journey itself produces: the lists
    /// without the forced re-encodings.
    fn journey_items(&self) -> (&[AlpItem], &[AlpItem]) {
        (if self.alp_forced { &[] } else { &self.alp }, if self.rd_forced { &[] } else { &self.rd })
    }

    fn alp_vector(&self, item: &AlpItem) -> (&alp::AlpVector, alp::ExcView<'_>) {
        match &self.rowgroups[item.rowgroup] {
            RowGroup::Alp(g) => (&g.vectors[item.vector], g.view(&g.vectors[item.vector])),
            RowGroup::Rd(..) => unreachable!("ALP items index ALP row-groups"),
        }
    }

    fn rd_vector(&self, item: &AlpItem) -> (&alp::rd::RdMeta, &alp::rd::RdVector) {
        match &self.rowgroups[item.rowgroup] {
            RowGroup::Rd(meta, vs) => (meta, &vs[item.vector]),
            RowGroup::Alp(_) => unreachable!("rd items index ALP_rd row-groups"),
        }
    }

    /// Encode-direction rungs, under the round's `ingest` span.
    pub fn replay_ingest(&mut self, trace: &mut Trace) {
        let all_mb = mb(self.flat.len());

        let mut dst = vec![0.0f64; self.flat.len()];
        let (s, ()) = timed(trace, "host.memcpy", || {
            dst.copy_from_slice(&self.flat);
            black_box(&mut dst);
        });
        self.push("host.memcpy_mbps", all_mb / s);
        drop(dst);

        let paths: Vec<PathBuf> = (0..self.stream_bytes.len())
            .map(|i| self.dir.join(format!("ladder-{i}.bin")))
            .collect();
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        let (s, ()) = timed(trace, "host.file_write", || {
            for (bytes, path) in self.stream_bytes.iter().zip(&paths) {
                let mut out = BufWriter::new(File::create(path).expect("create ladder file"));
                out.write_all(bytes).expect("write ladder file");
                out.flush().expect("flush ladder file");
            }
        });
        self.push("host.file_write_mbps", all_mb / s);

        let (s, ()) = timed(trace, "alp.sampler.first_level", || {
            for r in &self.rg_ranges[..self.journey] {
                black_box(first_level(&self.flat[r.clone()], &self.params));
            }
        });
        self.push("alp.sampler.first_level_us", s * 1e6 / self.journey as f64);

        let mut stats = SamplerStats::default();
        let (s, ()) = timed(trace, "alp.sampler.second_level", || {
            for a in &self.alp {
                let candidates = &self.outcomes[a.rowgroup].combinations;
                let values = &self.flat[a.input.clone()];
                black_box(second_level(values, candidates, &self.params, &mut stats));
            }
        });
        self.push("alp.sampler.second_level_ns", s * 1e9 / self.alp.len() as f64);

        let mut arena = ExcArena::new();
        let (s, ()) = timed(trace, "alp.encode.vector", || {
            for a in &self.alp {
                let (v, _) = self.alp_vector(a);
                let values = &self.flat[a.input.clone()];
                black_box(encode_vector_into(values, v.exponent, v.factor, &mut arena));
            }
        });
        self.push("alp.encode.vector_mbps", self.alp_mb() / s);

        let (s, ()) = timed(trace, "fastlanes.ffor_pack", || {
            for (a, ints) in self.alp.iter().zip(self.ints.chunks(VECTOR_SIZE)) {
                let (v, _) = self.alp_vector(a);
                black_box(ffor::ffor_pack(ints, v.for_base, v.bit_width as usize));
            }
        });
        self.push("fastlanes.ffor_pack_mbps", self.alp_mb() / s);

        // The journey's own vectors only: at each one's own width.
        let (alp, rd) = self.journey_items();
        let (s, ()) = timed(trace, "fastlanes.pack", || {
            for (a, residuals) in alp.iter().zip(self.residuals.chunks(VECTOR_SIZE)) {
                let (v, _) = self.alp_vector(a);
                black_box(bitpack::pack(residuals, v.bit_width as usize));
            }
            let parts = self.rd_codes.chunks(VECTOR_SIZE).zip(self.rd_rights.chunks(VECTOR_SIZE));
            for (a, (codes, rights)) in rd.iter().zip(parts) {
                let (meta, _) = self.rd_vector(a);
                black_box(bitpack::pack(codes, meta.code_width as usize));
                black_box(bitpack::pack(rights, meta.right_width::<f64>()));
            }
        });
        let packed_mb = items_mb(alp) + items_mb(rd);
        self.push("fastlanes.pack_mbps", packed_mb / s);

        let rd_rowgroups: Vec<&Range<usize>> = self
            .rowgroups
            .iter()
            .zip(&self.rg_ranges)
            .filter(|(rg, _)| matches!(rg, RowGroup::Rd(..)))
            .map(|(_, r)| r)
            .collect();
        let sample = self.params.sample_vectors * self.params.sample_values;
        let (s, ()) = timed(trace, "alp.rd.choose_cut", || {
            for r in &rd_rowgroups {
                black_box(choose_cut::<f64>(&self.flat[(*r).clone()], sample));
            }
        });
        let n = rd_rowgroups.len() as f64;
        self.push("alp.rd.choose_cut_us", s * 1e6 / n);

        let (s, ()) = timed(trace, "alp.rd.encode", || {
            for a in &self.rd {
                let (meta, _) = self.rd_vector(a);
                black_box(encode_rd_vector(&self.flat[a.input.clone()], meta));
            }
        });
        self.push("alp.rd.encode_mbps", self.rd_mb() / s);

        let compressor = Compressor::new();
        let (s, ()) = timed(trace, "alp.rowgroup.compress", || {
            for r in &self.rg_ranges[..self.journey] {
                black_box(compressor.compress(&self.flat[r.clone()]));
            }
        });
        self.push("alp.rowgroup.compress_mbps", all_mb / s);

        let (s, bytes) = timed(trace, "alp.format.to_bytes", || to_bytes(&self.sample_column));
        assert_eq!(bytes, self.column_bytes, "to_bytes is deterministic");
        self.push("alp.format.to_bytes_mbps", all_mb / s);

        let (s, streams) = timed(trace, "alp.stream.write_serial", || {
            self.stream_ranges
                .iter()
                .map(|r| serial_stream(&self.flat[r.clone()], None))
                .collect::<Vec<_>>()
        });
        assert_eq!(streams, self.stream_bytes, "the serial writer is deterministic");
        let serial_mbps = all_mb / s;
        self.push("alp.stream.write_serial_mbps", serial_mbps);

        let parity = Some(ParityConfig { group_size: 8 });
        let (s, streams) = timed(trace, "alp.stream.write_parity", || {
            self.stream_ranges
                .iter()
                .map(|r| serial_stream(&self.flat[r.clone()], parity))
                .collect::<Vec<_>>()
        });
        assert_eq!(streams, self.parity_bytes, "the parity writer is deterministic");
        self.push("alp.stream.write_parity_mbps", all_mb / s);

        let (s, streams) = timed(trace, "alp.pipeline.write", || {
            self.stream_ranges
                .iter()
                .map(|r| pipelined_stream(&self.flat[r.clone()]))
                .collect::<Vec<_>>()
        });
        assert_eq!(streams, self.stream_bytes, "pipelined bytes equal serial bytes");
        self.push("alp.pipeline.write_mbps", all_mb / s);
        self.push("alp.pipeline.speedup_vs_serial", all_mb / s / serial_mbps);

        let codec = Registry::get("alp").expect("alp is registered");
        let mut scratch = Scratch::new();
        let (s, bytes) = timed(trace, "core.container_write", || {
            alp_core::container::write_container(codec, &self.flat, &mut scratch)
                .expect("alp compresses any f64 column")
        });
        assert_eq!(bytes, self.container_bytes, "the container writer is deterministic");
        self.push("core.container_write_mbps", all_mb / s);

        let (s, column) = timed(trace, "vectorq.column_build", || {
            Column::from_f64_parallel(&self.flat, Format::alp(), BUILD_THREADS)
        });
        assert_eq!(column.len(), self.flat.len());
        self.push("vectorq.column_build_mbps", all_mb / s);
    }

    /// Decode-direction rungs, under the round's `read` span.
    pub fn replay_read(&mut self, trace: &mut Trace) {
        let all_mb = mb(self.flat.len());

        let mut buf = vec![0u8; self.stream_bytes.iter().map(Vec::len).max().unwrap_or(0)];
        let (s, ()) = timed(trace, "host.file_read", || {
            for (i, bytes) in self.stream_bytes.iter().enumerate() {
                let path = self.dir.join(format!("ladder-{i}.bin"));
                let mut input = BufReader::new(File::open(path).expect("open ladder file"));
                input.read_exact(&mut buf[..bytes.len()]).expect("read ladder file");
                black_box(&mut buf);
            }
        });
        self.push("host.file_read_mbps", all_mb / s);
        drop(buf);

        let (s, values) = timed(trace, "alp.stream.read_mem", || {
            let mut values = 0usize;
            for bytes in &self.stream_bytes {
                let mut reader =
                    ColumnReader::<f64, _>::new(&bytes[..]).expect("own stream header");
                while let Some(rg) = reader.next_rowgroup().expect("own stream decodes") {
                    values += black_box(rg).len();
                }
            }
            values
        });
        assert_eq!(values, self.flat.len());
        self.push("alp.stream.read_mem_mbps", all_mb / s);

        let (s, values) = timed(trace, "alp.stream.read_compressed", || {
            let mut values = 0usize;
            for bytes in &self.stream_bytes {
                let mut reader =
                    ColumnReader::<f64, _>::new(&bytes[..]).expect("own stream header");
                while let Some(rg) = reader.next_rowgroup_compressed().expect("own stream parses") {
                    values += black_box(rg).len();
                }
            }
            values
        });
        assert_eq!(values, self.flat.len());
        self.push("alp.stream.read_compressed_mbps", all_mb / s);

        let (s, values) = timed(trace, "alp.stream.read_salvaged", || {
            let mut values = 0usize;
            for bytes in &self.parity_bytes {
                let mut reader =
                    ColumnReader::<f64, _>::new(&bytes[..]).expect("own stream header");
                while let Some(rg) = reader.next_rowgroup_salvaged().expect("own stream salvages") {
                    values += black_box(rg).len();
                }
                assert!(
                    reader.lost_rowgroups().is_empty() && reader.repaired_rowgroups().is_empty()
                );
            }
            values
        });
        assert_eq!(values, self.flat.len());
        self.push("alp.stream.read_salvaged_mbps", all_mb / s);

        let (s, ()) = timed(trace, "alp.hash.xxh64", || {
            for body in &self.bodies {
                black_box(xxh64(body, alp::hash::CHECKSUM_SEED));
            }
        });
        self.push("alp.hash.xxh64_mbps", all_mb / s);

        let (s, column) = timed(trace, "alp.format.from_bytes", || {
            from_bytes::<f64>(&self.column_bytes).expect("own column bytes parse")
        });
        assert_eq!(column.len, self.flat.len());
        self.push("alp.format.from_bytes_mbps", all_mb / s);

        let (s, ()) = timed(trace, "alp.rowgroup.decompress", || {
            for single in &self.singles {
                black_box(single.decompress());
            }
        });
        self.push("alp.rowgroup.decompress_mbps", all_mb / s);

        let mut out_f = vec![0.0f64; VECTOR_SIZE];
        let mut out_u = vec![0u64; VECTOR_SIZE];
        let mut out_i = vec![0i64; VECTOR_SIZE];
        let (s, ()) = timed(trace, "alp.decode.vector", || {
            for a in &self.alp {
                let (v, exc) = self.alp_vector(a);
                black_box(decode_vector(v, exc, &mut out_f));
            }
        });
        self.push("alp.decode.vector_mbps", self.alp_mb() / s);

        let (s, ()) = timed(trace, "alp.decode.unfused", || {
            for a in &self.alp {
                let (v, exc) = self.alp_vector(a);
                black_box(decode_vector_unfused(v, exc, &mut out_i, &mut out_f));
            }
        });
        self.push("alp.decode.unfused_mbps", self.alp_mb() / s);

        let (s, ()) = timed(trace, "fastlanes.ffor_unpack", || {
            for a in &self.alp {
                let (v, _) = self.alp_vector(a);
                ffor::ffor_unpack(&v.packed, v.for_base, v.bit_width as usize, &mut out_i);
                black_box(&mut out_i);
            }
        });
        self.push("fastlanes.ffor_unpack_mbps", self.alp_mb() / s);

        let (s, ()) = timed(trace, "fastlanes.for_unfused", || {
            for a in &self.alp {
                let (v, _) = self.alp_vector(a);
                bitpack::unpack(&v.packed, v.bit_width as usize, &mut out_u);
                ffor::for_decode(&out_u, v.for_base, &mut out_i);
                black_box(&mut out_i);
            }
        });
        self.push("fastlanes.for_unfused_mbps", self.alp_mb() / s);

        let (alp, rd) = self.journey_items();
        let (s, ()) = timed(trace, "fastlanes.unpack", || {
            for a in alp {
                let (v, _) = self.alp_vector(a);
                bitpack::unpack(&v.packed, v.bit_width as usize, &mut out_u);
                black_box(&mut out_u);
            }
            for a in rd {
                let (meta, v) = self.rd_vector(a);
                bitpack::unpack(&v.packed_codes, meta.code_width as usize, &mut out_u);
                black_box(&mut out_u);
                bitpack::unpack(&v.packed_right, meta.right_width::<f64>(), &mut out_u);
                black_box(&mut out_u);
            }
        });
        let unpacked_mb = items_mb(alp) + items_mb(rd);
        self.push("fastlanes.unpack_mbps", unpacked_mb / s);

        let (s, ()) = timed(trace, "alp.rd.decode", || {
            for a in &self.rd {
                let (meta, v) = self.rd_vector(a);
                black_box(decode_rd_vector(v, meta, &mut out_f));
            }
        });
        self.push("alp.rd.decode_mbps", self.rd_mb() / s);

        let mut scratch = Scratch::new();
        let mut out = Vec::with_capacity(self.flat.len());
        let (s, ()) = timed(trace, "core.container_read", || {
            alp_core::container::try_read_container_into(
                &self.container_bytes,
                &mut out,
                &mut scratch,
            )
            .expect("own container reads");
        });
        assert_eq!(out.len(), self.flat.len());
        self.push("core.container_read_mbps", all_mb / s);
    }

    /// Scan- and service-side rungs, under the round's `query.ladder` span.
    pub fn replay_query(&mut self, bench: &mut Bench, trace: &mut Trace) {
        let all_mb = mb(self.flat.len());
        let (lo, hi) = (bench.oracle.mid.lo, bench.oracle.mid.hi);

        let (s, sum) = timed(trace, "host.sum_f64", || self.flat.iter().sum::<f64>());
        black_box(sum);
        self.push("host.sum_f64_mbps", all_mb / s);

        let mut result = ScanResult::new();
        let (s, ()) = timed(trace, "core.scan_values", || {
            scan_values(&self.flat, ScanPredicate { lo, hi }, ScanAgg::SumCount, &mut result);
        });
        let reference = (result.sum.to_bits(), result.matches);
        self.push("core.scan_values_mbps", all_mb / s);

        let (s, ()) = timed(trace, "alp.decode.scan_decoded", || {
            for chunk in self.flat.chunks(VECTOR_SIZE) {
                let mut scan = VectorScan::empty(chunk.len());
                scan_decoded(chunk, lo, hi, false, &mut scan);
                black_box(scan);
            }
        });
        self.push("alp.decode.scan_decoded_mbps", all_mb / s);

        let (s, ()) = timed(trace, "alp.decode.scan_vector", || {
            for a in &self.alp {
                let (v, exc) = self.alp_vector(a);
                black_box(scan_vector::<f64>(v, exc, lo, hi, false));
            }
        });
        self.push("alp.decode.scan_vector_mbps", self.alp_mb() / s);

        // The integer kernel's predicate: the middle half of each
        // vector's own frame, so it selects like the float band does.
        let mut matches = [0u64; fused::MATCH_WORDS];
        let (s, ()) = timed(trace, "fastlanes.fused_scan", || {
            for (a, packed) in self.alp.iter().zip(&self.interleaved) {
                let (v, _) = self.alp_vector(a);
                let width = v.bit_width as usize;
                let span = if width >= 63 { i64::MAX } else { (1i64 << width) - 1 };
                let (ilo, ihi) =
                    (v.for_base.saturating_add(span / 4), v.for_base.saturating_add(span / 4 * 3));
                black_box(fused::ffor_unpack_cmp_agg(
                    packed,
                    v.for_base,
                    width,
                    ilo,
                    ihi,
                    &mut matches,
                ));
            }
        });
        self.push("fastlanes.fused_scan_mbps", self.alp_mb() / s);

        let (s, answer) = timed(trace, "vectorq.sum_where", || self.column.sum_where(lo, hi));
        assert_eq!(
            (answer.sum.to_bits(), answer.matches),
            reference,
            "Column::sum_where equals the reference fold"
        );
        self.push("vectorq.sum_where_mbps", all_mb / s);

        let vectors = self.column.zone_maps().len();
        let mut scratch = Scratch::new();
        let (s, ()) = timed(trace, "vectorq.scan_fused", || {
            for v in 0..vectors {
                black_box(
                    self.column.try_scan_vector_fused(v, lo, hi, &mut scratch).expect("in range"),
                );
            }
        });
        self.push("vectorq.scan_fused_mbps", all_mb / s);

        let mut out = Vec::with_capacity(VECTOR_SIZE);
        let (s, ()) = timed(trace, "vectorq.decompress_vector", || {
            for v in 0..vectors {
                self.column.try_decompress_vector_at(v, &mut out, &mut scratch).expect("in range");
                black_box(&mut out);
            }
        });
        self.push("vectorq.decompress_vector_mbps", all_mb / s);

        // The cache under the workload's own ceilings: twice as many page
        // ids as its sample holds, so a bounded cache evicts, a roomy one
        // refreshes and a zero-entry one refuses.
        let cache = PageCache::new(&self.w.cache_config());
        let ids = self.pages.len() * 2 * CACHE_REPEATS;
        let (s, ()) = timed(trace, "vectorq.cache.insert", || {
            for id in 0..ids {
                let page = &self.pages[id % self.pages.len()];
                black_box(cache.insert(id % (self.pages.len() * 2 + 61), Arc::clone(page)));
            }
        });
        self.push("vectorq.cache.insert_us", s * 1e6 / ids as f64);
        let (s, ()) = timed(trace, "vectorq.cache.get", || {
            for id in 0..ids {
                black_box(cache.get(id % (self.pages.len() * 2 + 61)));
            }
        });
        self.push("vectorq.cache.get_ns", s * 1e9 / ids as f64);

        let (s, ()) = timed(trace, "vectorq.service.admit", || {
            for _ in 0..ADMITS {
                drop(black_box(bench.service.admit().expect("an idle gate admits")));
            }
        });
        self.push("vectorq.service.admit_ns", s * 1e9 / ADMITS as f64);

        // A band above the maximum: every page is pruned, what is left is
        // the service's own cost per query.
        let above = (bench.oracle.max + 1.0, bench.oracle.max + 2.0);
        let opts = QueryOptions { deadline: None, threads: Some(1), no_fused: false };
        let (s, ()) = timed(trace, "vectorq.service.overhead", || {
            for _ in 0..PRUNED_QUERIES {
                let r = bench.service.sum_where(above.0, above.1, &opts).expect("admitted");
                assert_eq!(r.value.matches, 0);
            }
        });
        self.push("vectorq.service.overhead_us", s * 1e6 / PRUNED_QUERIES as f64);

        // The runner a query goes through (`run_morsels_governed`: panic
        // containment and a cancel poll per morsel), one morsel per page, on
        // the query's own thread count, with nothing to do per morsel.
        let pages = bench.service.store().pages();
        let token = alp::par::CancelToken::new();
        let (s, ()) = timed(trace, "alp.par.morsel_overhead", || {
            for _ in 0..MORSEL_CALLS {
                black_box(alp::par::run_morsels_governed(1, pages, &token, || (), |(), m| m));
            }
        });
        self.push("alp.par.morsel_overhead_us", s * 1e6 / MORSEL_CALLS as f64);

        trace.enter("vectorq.service.nofused");
        let pass = bench.query_mix(true);
        trace.exit();
        assert!(pass.failures.is_empty(), "no_fused mix: {:?}", pass.failures);
        self.push("vectorq.service.nofused_qps", pass.answers.len() as f64 / pass.seconds);

        // Detect, contain, heal, then time one scrub pass (a fresh store per
        // round: a successful scrub drains the quarantine it measures).
        let cache = CacheConfig { page_size_rows: SCRUB_PAGE_ROWS, ..self.w.cache_config() };
        let column = Column::from_f64_parallel(&self.flat, Format::alp(), BUILD_THREADS);
        let store =
            Arc::new(Store::with_poison(column, cache, PoisonPlan::seeded(self.poison_seed)));
        let service = Service::new(Arc::clone(&store), ServiceConfig::default());
        // The poison is a panic the service contains; its message is expected
        // here and kept off stderr.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let scan = service.sum_where(f64::NEG_INFINITY, f64::INFINITY, &opts);
        std::panic::set_hook(hook);
        let scan = scan.expect("the quarantining scan is admitted");
        assert!(!scan.loss.is_complete(), "the seeded poison quarantines pages");
        let bad = store.quarantined_pages().len();
        store.heal_poison();
        let (s, report) = timed(trace, "vectorq.scrub.pass", || {
            service.scrub_once(&ScrubOptions { deadline: None, threads: Some(1) })
        });
        assert_eq!(report.pages_repaired, bad, "healed pages all repair");
        self.push("vectorq.scrub.pass_ms", s * 1e3);
        self.push("vectorq.scrub.pages_repaired", report.pages_repaired as f64);
    }

    /// Medians over the rounds for every timed rung, the exact counts, and
    /// the reason for each rung that was measured off the journey.
    pub fn finish(&mut self) -> (Samples, Vec<(&'static str, &'static str)>) {
        let c = &self.counts;
        let rd_share = c.rd_rowgroups as f64 / c.rowgroups as f64;
        let mean_width = c.width_sum / c.vectors as f64;
        // Exact over the whole journey; over the forced vectors where the
        // journey has no ALP vector to count.
        let (stats, values, exceptions) = if self.alp_forced {
            let exceptions = self.alp.iter().map(|a| self.alp_vector(a).0.exc_count as usize).sum();
            (&self.forced_stats, self.alp.iter().map(|a| a.input.len()).sum(), exceptions)
        } else {
            (&c.stats, c.alp_values, c.alp_exceptions)
        };
        let early_exit = stats.second_level_skipped as f64 / stats.vectors_encoded as f64;
        let exception_share = exceptions as f64 / values as f64;
        self.push("alp.rowgroup.rd_share", rd_share);
        self.push("alp.rowgroup.mean_bit_width", mean_width);
        self.push("alp.sampler.early_exit_share", early_exit);
        self.push("alp.encode.exception_share", exception_share);
        let off_journey = crate::spec::PER_LAYER
            .iter()
            .filter_map(|m| match m.scheme {
                Some(Scheme::Alp) if self.alp_forced => Some((m.name, FORCED_ALP)),
                Some(Scheme::AlpRd) if self.rd_forced => Some((m.name, FORCED_RD)),
                _ => None,
            })
            .collect();
        (std::mem::take(&mut self.samples), off_journey)
    }
}

const SCRUB_PAGE_ROWS: usize = 10 * 1024;
const CACHE_REPEATS: usize = 8;
const ADMITS: usize = 20_000;
const PRUNED_QUERIES: usize = 500;
const MORSEL_CALLS: usize = 2_000;
