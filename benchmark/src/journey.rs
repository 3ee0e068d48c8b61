//! The two user journeys, one round at a time: values in memory → committed
//! `"ALPT"` file(s) → every value read back, and the store → the answers of
//! the workload's query mix. Each operation returns its wall time and the
//! failures its correctness checks found; the checks run outside the time.
//!
//! Flush policy, the same on both sides of any comparison: `BufWriter<File>`
//! in a directory of this run's own, `finish()` then drop, no `fsync`; reads
//! come from the operating system's page cache.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use alp::hash::xxh64;
use alp::stream::{ColumnReader, ColumnWriter};
use vectorq::service::{QueryOptions, QueryResult, Service, ServiceConfig, ServiceError, Store};
use vectorq::{Column, Format};

use crate::spec::{Workload, BUILD_THREADS, PUSH_CHUNK};
use crate::workload::{combine_hashes, stream_ranges, Band, Oracle};

/// Threads each query may use; the clients are the parallelism.
const QUERY_THREADS: usize = 1;

/// One workload set up for rounds: the column in memory, the service over
/// it, and the files the ingest journey (re)writes.
pub struct Bench<'a> {
    pub w: &'static Workload,
    pub oracle: &'a Oracle,
    pub data: Vec<f64>,
    pub streams: Vec<Range<usize>>,
    paths: Vec<PathBuf>,
    pub service: Service,
    /// Bit pattern of each query's sum under `no_fused: true`, recorded by
    /// the reference pass; every later default-path answer must match it.
    reference_sums: Vec<Vec<u64>>,
}

/// Wall time of one operation plus what its checks found wrong.
#[derive(Debug)]
pub struct Op {
    pub started: Instant,
    pub seconds: f64,
    pub failures: Vec<String>,
}

/// One query as a client saw it.
pub struct Answer {
    pub client: usize,
    pub index: usize,
    pub started: Instant,
    pub seconds: f64,
    pub result: Result<QueryResult, ServiceError>,
}

/// One pass of the query mix: every client's list once, closed loop.
pub struct MixPass {
    pub seconds: f64,
    pub answers: Vec<Answer>,
    pub failures: Vec<String>,
    pub counters: Counters,
}

/// Exact counts gathered where the work happens: query results and the
/// cache's own counters, as deltas over the pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub queries: u64,
    pub refused: u64,
    pub vectors_scanned: u64,
    pub vectors_skipped: u64,
    pub pages_fused: u64,
    pub pages_materialized: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_bypasses: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.queries += o.queries;
        self.refused += o.refused;
        self.vectors_scanned += o.vectors_scanned;
        self.vectors_skipped += o.vectors_skipped;
        self.pages_fused += o.pages_fused;
        self.pages_materialized += o.pages_materialized;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evictions += o.cache_evictions;
        self.cache_bypasses += o.cache_bypasses;
    }
}

/// Measurements of one round, in the order the round runs them.
pub struct Round {
    pub ingest: Op,
    pub read: Op,
    pub mix: MixPass,
    pub file_bytes: u64,
}

impl Round {
    /// Operations attempted: one ingest, one read-back, each query.
    pub fn attempted(&self) -> usize {
        2 + self.mix.answers.len()
    }

    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.ingest.failures.iter().chain(&self.read.failures).chain(&self.mix.failures)
    }
}

impl<'a> Bench<'a> {
    /// Builds the store and the service over `data` — the product half of
    /// set-up. `dir` must exist and belong to this run.
    pub fn build(w: &'static Workload, oracle: &'a Oracle, data: Vec<f64>, dir: &Path) -> Self {
        let streams = stream_ranges(w, data.len());
        let paths = (0..streams.len()).map(|i| dir.join(format!("stream-{i}.alpt"))).collect();
        let column = Column::from_f64_parallel(&data, Format::alp(), BUILD_THREADS);
        let store = Arc::new(Store::new(column, w.cache_config()));
        let service =
            Service::new(store, ServiceConfig { threads: QUERY_THREADS, ..Default::default() });
        Bench { w, oracle, data, streams, paths, service, reference_sums: Vec::new() }
    }

    pub fn raw_mb(&self) -> f64 {
        (self.data.len() * 8) as f64 / 1e6
    }

    pub fn queries_per_pass(&self) -> usize {
        self.oracle.queries.iter().map(Vec::len).sum()
    }

    /// Values in memory → committed file(s), through the serial writer.
    pub fn ingest(&self) -> Op {
        for path in &self.paths {
            let _ = std::fs::remove_file(path);
        }
        let mut failures = Vec::new();
        let started = Instant::now();
        for (range, path) in self.streams.iter().zip(&self.paths) {
            if let Err(e) = write_stream(&self.data[range.clone()], path) {
                failures.push(format!("ingest {}: {e}", path.display()));
            }
        }
        Op { started, seconds: started.elapsed().as_secs_f64(), failures }
    }

    /// Committed file(s) → every value, through the strict checksum-verifying
    /// reader, one row-group at a time as a streaming consumer would: each
    /// row-group is compared bit for bit with the input and dropped before
    /// the next is read, and the clock stops while it is compared. Then the
    /// remaining checks: commit flags, and byte-identity of the files with
    /// what the serial writer produces. Returns the op and the bytes on disk.
    pub fn read_back(&self) -> (Op, u64) {
        let mut failures = Vec::new();
        let started = Instant::now();
        let mut seconds = 0.0;
        for (range, path) in self.streams.iter().zip(&self.paths) {
            match read_stream(path, &self.data[range.clone()]) {
                Ok(s) => seconds += s,
                Err(e) => failures.push(format!("read {}: {e}", path.display())),
            }
        }
        let mut hashes = Vec::with_capacity(self.paths.len());
        let mut file_bytes = 0u64;
        for path in &self.paths {
            match std::fs::read(path) {
                Ok(bytes) => {
                    file_bytes += bytes.len() as u64;
                    hashes.push(xxh64(&bytes, 0));
                }
                Err(e) => failures.push(format!("hash {}: {e}", path.display())),
            }
        }
        if combine_hashes(&hashes) != self.oracle.files_hash {
            failures.push("committed bytes differ from the oracle's".to_string());
        }
        (Op { started, seconds, failures }, file_bytes)
    }

    /// One pass of the mix through `Service::sum_where`. The reference pass
    /// (`no_fused: true`) records each query's sum; every other pass is
    /// checked against it bit for bit, and every pass against the oracle's
    /// exact counts.
    pub fn query_mix(&mut self, no_fused: bool) -> MixPass {
        let opts = QueryOptions { deadline: None, threads: Some(QUERY_THREADS), no_fused };
        let before = self.service.cache_stats();
        assert!(no_fused || !self.reference_sums.is_empty(), "the reference pass runs first");
        let oracle: &'a Oracle = self.oracle;
        let lists = &oracle.queries;
        let service = &self.service;
        let started;
        let mut answers: Vec<Answer>;
        if lists.len() == 1 {
            started = Instant::now();
            answers = run_client(service, 0, &lists[0], &opts);
        } else {
            // All clients leave the barrier together; the pass lasts until
            // the last one is done.
            let barrier = Barrier::new(lists.len() + 1);
            let (t0, per_client) = std::thread::scope(|scope| {
                let handles: Vec<_> = lists
                    .iter()
                    .enumerate()
                    .map(|(client, list)| {
                        let barrier = &barrier;
                        let opts = &opts;
                        scope.spawn(move || {
                            barrier.wait();
                            run_client(service, client, list, opts)
                        })
                    })
                    .collect();
                barrier.wait();
                let t0 = Instant::now();
                let per_client: Vec<Vec<Answer>> = handles
                    .into_iter()
                    .map(|h| h.join().expect("a query client panicked"))
                    .collect();
                (t0, per_client)
            });
            started = t0;
            answers = per_client.into_iter().flatten().collect();
        }
        let seconds = started.elapsed().as_secs_f64();
        answers.sort_by_key(|a| (a.client, a.index));

        let after = self.service.cache_stats();
        let mut counters = Counters {
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            cache_evictions: after.evictions - before.evictions,
            cache_bypasses: after.bypasses - before.bypasses,
            ..Counters::default()
        };
        let recording = no_fused && self.reference_sums.is_empty();
        if recording {
            self.reference_sums = lists.iter().map(|l| vec![0; l.len()]).collect();
        }
        let mut failures = Vec::new();
        for a in &answers {
            counters.queries += 1;
            let band = &lists[a.client][a.index];
            match &a.result {
                Err(ServiceError::Overloaded { .. }) => {
                    counters.refused += 1;
                    failures.push(format!("query {}/{}: refused", a.client, a.index));
                }
                Err(e) => failures.push(format!("query {}/{}: {e}", a.client, a.index)),
                Ok(r) => {
                    counters.vectors_scanned += r.value.vectors_scanned as u64;
                    counters.vectors_skipped += r.value.vectors_skipped as u64;
                    counters.pages_fused += r.pages_fused as u64;
                    counters.pages_materialized += r.pages_materialized as u64;
                    let slot = &mut self.reference_sums[a.client][a.index];
                    if recording {
                        *slot = r.value.sum.to_bits();
                    }
                    if let Some(why) = check_answer(band, r, *slot) {
                        failures.push(format!("query {}/{}: {why}", a.client, a.index));
                    }
                }
            }
        }
        MixPass { seconds, answers, failures, counters }
    }

    /// One round: ingest, read-back, the mix, in that order, so a noisy
    /// interval on a shared host lands on every metric alike.
    pub fn round(&mut self, no_fused: bool) -> Round {
        let ingest = self.ingest();
        let (read, file_bytes) = self.read_back();
        let mix = self.query_mix(no_fused);
        Round { ingest, read, mix, file_bytes }
    }
}

/// Writes one committed stream through `ColumnWriter`, on the caller's
/// thread. Not through `PipelinedColumnWriter`: with its caller and its worker
/// on this host's two virtual cores it reads one of two values, 15-25 % apart,
/// for tens of minutes each (README, "Why the serial writer"), so it is
/// measured as the traced run's `alp.pipeline.*` rungs, and the oracle checks
/// once per run that it writes these same bytes.
fn write_stream(values: &[f64], path: &Path) -> Result<(), String> {
    let sink = BufWriter::new(File::create(path).map_err(|e| e.to_string())?);
    let mut writer = ColumnWriter::<f64, _>::new(sink);
    for chunk in values.chunks(PUSH_CHUNK) {
        writer.push(chunk).map_err(|e| e.to_string())?;
    }
    // `finish` writes the footer, flushes the BufWriter and drops it.
    let summary = writer.finish().map_err(|e| e.to_string())?;
    if summary.values != values.len() {
        return Err(format!("summary counts {} of {} values", summary.values, values.len()));
    }
    Ok(())
}

/// Reads one stream back and returns the seconds spent opening it and
/// inside `next_rowgroup`.
fn read_stream(path: &Path, expected: &[f64]) -> Result<f64, String> {
    let mut clock = Instant::now();
    let file = File::open(path).map_err(|e| e.to_string())?;
    let mut reader =
        ColumnReader::<f64, _>::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut seconds = clock.elapsed().as_secs_f64();
    let mut rest = expected;
    loop {
        clock = Instant::now();
        let next = reader.next_rowgroup();
        seconds += clock.elapsed().as_secs_f64();
        let Some(values) = next.map_err(|e| e.to_string())? else { break };
        if values.len() > rest.len() {
            return Err("more values than were written".to_string());
        }
        let (head, tail) = rest.split_at(values.len());
        if !values.iter().zip(head).all(|(a, b)| a.to_bits() == b.to_bits()) {
            return Err("values differ from the input".to_string());
        }
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(format!("{} values missing", rest.len()));
    }
    if !reader.is_committed() {
        return Err("stream is not committed".to_string());
    }
    Ok(seconds)
}

fn run_client(service: &Service, client: usize, list: &[Band], opts: &QueryOptions) -> Vec<Answer> {
    list.iter()
        .enumerate()
        .map(|(index, band)| {
            let started = Instant::now();
            let result = service.sum_where(band.lo, band.hi, opts);
            Answer { client, index, started, seconds: started.elapsed().as_secs_f64(), result }
        })
        .collect()
}

fn check_answer(band: &Band, r: &QueryResult, reference_sum: u64) -> Option<String> {
    if !r.loss.is_complete() {
        return Some(format!("partial result, {} rows lost", r.loss.rows_lost()));
    }
    if r.value.matches != band.matches {
        return Some(format!("{} matches, the raw values have {}", r.value.matches, band.matches));
    }
    if r.value.sum.to_bits() != reference_sum {
        return Some("sum differs from the no_fused reference".to_string());
    }
    None
}
