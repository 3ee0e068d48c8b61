//! Pipelined column ingestion: overlap row-group compression with source
//! fill, keeping the on-disk stream byte-identical to the serial writer.
//!
//! [`crate::stream::ColumnWriter::push`] compresses every full row-group
//! inline on the caller's thread, so loading and compressing serialize even
//! though ALP compression is embarrassingly parallel across row-groups
//! (two-level sampling is strictly row-group-local). The
//! [`PipelinedColumnWriter`] splits that loop in two:
//!
//! - the **caller thread** fills row-group buffers from the source and
//!   commits finished frames to the sink, in row-group order, through the
//!   serial writer's own retry machinery;
//! - a small **worker pool** compresses and frame-encodes row-groups, each
//!   inside the morsel scheduler's panic containment seam
//!   ([`crate::par::run_morsels_governed`], with a token that never fires).
//!
//! Three invariants make the overlap safe:
//!
//! 1. **Ordered commit.** Frames reach the sink strictly in row-group
//!    sequence order, whole, so the `"ALPT"` layout — header, frames,
//!    terminator, commit footer — is byte-identical to the serial
//!    [`ColumnWriter`] at every thread count
//!    and pipeline depth. Both paths share one values → frame encoder
//!    ([`crate::stream`]'s `encode_frames`), so identity holds by
//!    construction, not by luck.
//! 2. **Bounded in-flight frames.** At most `depth` row-groups may be
//!    queued or compressing at once; a full pipeline makes
//!    [`PipelinedColumnWriter::push`] block committing finished frames
//!    (back-pressure) rather than queueing without bound.
//! 3. **Quarantined panics.** A worker panic is contained at the morsel
//!    boundary and surfaces as [`IngestError::Poisoned`] from `push` or
//!    `finish` — the poisoned frame is never written, so the sink holds a
//!    committed-prefix-only torn tail, exactly the failure shape
//!    [`ColumnReader::next_rowgroup_salvaged`](crate::stream::ColumnReader::next_rowgroup_salvaged)
//!    already recovers.
//!
//! Transient sink faults are absorbed by the inner writer's
//! [`RetryPolicy`] exactly as in the serial path:
//! all sink I/O stays on the caller thread.
//!
//! # Example
//! ```
//! use alp::pipeline::{PipelineConfig, PipelinedColumnWriter};
//!
//! let mut file = Vec::new();
//! let config = PipelineConfig { threads: 4, depth: 2, ..PipelineConfig::default() };
//! let mut writer = PipelinedColumnWriter::<f64, _>::new(&mut file, config);
//! for chunk in (0..400_000).map(|i| (i % 1000) as f64 / 10.0).collect::<Vec<_>>().chunks(37_000) {
//!     writer.push(chunk).unwrap();
//! }
//! let summary = writer.finish().unwrap();
//! assert_eq!(summary.values, 400_000);
//! assert_eq!(summary.total_bytes, file.len());
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::frame::ParityConfig;
use crate::io::RetryPolicy;
use crate::par::{resolve_threads, run_morsels_governed, CancelToken, MorselFailure};
use crate::rowgroup::{Compressor, EncodeScratch};
use crate::sampler::{ConfigError, SamplerParams, SamplerStats};
use crate::stream::{encode_frames, ColumnWriter, StreamSummary};
use crate::traits::AlpFloat;

/// Default bound on in-flight row-groups: one compressing, one queued —
/// enough to overlap fill with compression without hoarding buffers.
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Shape of a [`PipelinedColumnWriter`]'s worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Total threads the ingest path may use, caller thread included.
    /// `<= 1` disables the pool: the writer degrades to the serial
    /// [`ColumnWriter`] inline path.
    pub threads: usize,
    /// Maximum row-groups in flight (queued or compressing). Clamped to at
    /// least 1; a full pipeline blocks `push` until a frame commits.
    pub depth: usize,
    /// Fault injection: the worker compressing this row-group sequence
    /// number panics instead, exercising the quarantine path (the pipelined
    /// analogue of [`crate::io::FaultPlan`]). `None` outside tests.
    pub panic_at: Option<u64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::resolve(None, None)
    }
}

impl PipelineConfig {
    /// Resolves a config from optional explicit requests: `threads` falls
    /// back to `ALP_THREADS` and then the machine (see [`resolve_threads`]),
    /// an absent or zero `depth` to [`DEFAULT_PIPELINE_DEPTH`].
    pub fn resolve(threads: Option<usize>, depth: Option<usize>) -> Self {
        Self {
            threads: resolve_threads(threads),
            depth: depth.filter(|&d| d > 0).unwrap_or(DEFAULT_PIPELINE_DEPTH),
            panic_at: None,
        }
    }
}

/// Errors surfaced by the pipelined ingest path.
#[derive(Debug)]
pub enum IngestError {
    /// The sink failed under the inner writer's retry policy.
    Io(io::Error),
    /// A compression worker panicked; the morsel scheduler quarantined it
    /// ([`MorselFailure`] carries the row-group sequence number and the
    /// rendered panic message). The poisoned frame was never written: the
    /// sink ends at the last committed frame.
    Poisoned(MorselFailure),
}

impl core::fmt::Display for IngestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "pipelined ingest I/O error: {e}"),
            IngestError::Poisoned(m) => {
                write!(f, "pipelined ingest worker poisoned: {m}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// One compressed-and-framed row-group batch, ready for ordered commit.
struct EncodedFrames {
    /// Complete frames (length prefix, checksum, body), concatenated.
    bytes: Vec<u8>,
    /// Source values the batch covers.
    values: usize,
    /// What the encoder decided for them.
    stats: SamplerStats,
}

/// State shared between the caller thread and the worker pool.
struct PipeState<F> {
    /// Row-group buffers waiting for a worker, with their sequence numbers.
    pending: VecDeque<(u64, Vec<F>)>,
    /// Finished batches (or quarantined failures) keyed by sequence number.
    done: BTreeMap<u64, Result<EncodedFrames, MorselFailure>>,
    /// Set once by the pool's `Drop`: workers exit when they see it.
    shutdown: bool,
}

struct Shared<F> {
    state: Mutex<PipeState<F>>,
    /// Workers wait here for pending jobs (or shutdown).
    jobs_cv: Condvar,
    /// The caller thread waits here for the next in-order batch.
    done_cv: Condvar,
}

/// Locks the pipe state, recovering a poisoned mutex: the panic that
/// poisoned it was already quarantined into a `MorselFailure`, so the state
/// itself is consistent (every mutation is a single push/insert).
fn lock_state<F>(shared: &Shared<F>) -> MutexGuard<'_, PipeState<F>> {
    match shared.state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The compression worker pool plus the caller-side sequence bookkeeping.
struct Pool<F> {
    shared: Arc<Shared<F>>,
    workers: Vec<JoinHandle<()>>,
    depth: usize,
    /// Sequence number the next submitted row-group receives.
    next_seq: u64,
    /// Sequence number of the next frame to commit to the sink.
    next_commit: u64,
}

impl<F: AlpFloat> Pool<F> {
    fn spawn(compressor: Compressor, threads: usize, depth: usize, panic_at: Option<u64>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PipeState {
                pending: VecDeque::new(),
                done: BTreeMap::new(),
                shutdown: false,
            }),
            jobs_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        // More workers than in-flight slots can never all be busy; the
        // caller thread is reserved for fill + commit.
        let workers = (threads - 1).clamp(1, depth);
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let compressor = compressor.clone();
                std::thread::spawn(move || worker_loop::<F>(&shared, &compressor, panic_at))
            })
            .collect();
        Self { shared, workers: handles, depth, next_seq: 0, next_commit: 0 }
    }

    /// Row-groups submitted but not yet committed.
    fn in_flight(&self) -> usize {
        (self.next_seq - self.next_commit) as usize
    }

    /// Hands a full row-group buffer to the pool.
    fn enqueue(&mut self, data: Vec<F>) {
        {
            let mut state = lock_state(&self.shared);
            state.pending.push_back((self.next_seq, data));
        }
        self.next_seq += 1;
        self.shared.jobs_cv.notify_one();
    }

    /// Blocks until the next in-order batch is finished and returns it.
    fn take_next_done(&mut self) -> Result<EncodedFrames, MorselFailure> {
        let seq = self.next_commit;
        let outcome = {
            let mut state = lock_state(&self.shared);
            loop {
                if let Some(outcome) = state.done.remove(&seq) {
                    break outcome;
                }
                state = match self.shared.done_cv.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        self.next_commit += 1;
        outcome
    }
}

impl<F> Drop for Pool<F> {
    fn drop(&mut self) {
        {
            let mut state = lock_state(&self.shared);
            state.shutdown = true;
            // Nobody will commit the still-pending batches: don't burn
            // cycles compressing them on the way out.
            state.pending.clear();
        }
        self.shared.jobs_cv.notify_all();
        for worker in self.workers.drain(..) {
            // A worker can only panic inside the containment seam; a join
            // error here means the unwind escaped it, which `worker_loop`
            // does not allow — but degrading beats aborting the caller.
            let _ = worker.join();
        }
    }
}

/// Body of one pool worker: claim the oldest pending row-group, compress and
/// frame it inside the containment seam, publish the outcome, repeat.
fn worker_loop<F: AlpFloat>(shared: &Shared<F>, compressor: &Compressor, panic_at: Option<u64>) {
    loop {
        let job = {
            let mut state = lock_state(shared);
            loop {
                if let Some(job) = state.pending.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = match shared.jobs_cv.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some((seq, data)) = job else { return };
        let outcome = encode_contained::<F>(seq, &data, compressor, panic_at);
        {
            let mut state = lock_state(shared);
            state.done.insert(seq, outcome);
        }
        // The committer may be waiting for any sequence number: wake it.
        shared.done_cv.notify_all();
    }
}

/// Compresses one row-group buffer into ready-to-commit frames, inside the
/// morsel scheduler's panic containment seam: a panic (the compressor's or
/// the injected `panic_at`) becomes a [`MorselFailure`] carrying `seq`.
#[expect(clippy::panic, reason = "the injected fault is a panic by design")]
fn encode_contained<F: AlpFloat>(
    seq: u64,
    data: &[F],
    compressor: &Compressor,
    panic_at: Option<u64>,
) -> Result<EncodedFrames, MorselFailure> {
    let mut run =
        run_morsels_governed(1, 1, &CancelToken::new(), EncodeScratch::default, |scratch, _| {
            if panic_at == Some(seq) {
                panic!("injected pipeline fault at row-group {seq}");
            }
            let (mut bytes, mut stats) = (Vec::new(), SamplerStats::default());
            encode_frames(compressor, data, scratch, &mut stats, &mut bytes);
            EncodedFrames { bytes, values: data.len(), stats }
        });
    if let Some((_, frames)) = run.completed.pop() {
        return Ok(frames);
    }
    let message = run
        .failures
        .pop()
        .map(|f| f.message)
        .unwrap_or_else(|| "worker produced neither result nor failure".to_string());
    Err(MorselFailure { morsel: seq as usize, message })
}

/// Double-buffered, pool-backed column writer: same stream bytes as
/// [`ColumnWriter`], with row-group N
/// compressing while row-group N+1 fills. See the module docs for the
/// ordering, back-pressure, and fault contract.
pub struct PipelinedColumnWriter<F: AlpFloat, W: Write> {
    inner: ColumnWriter<F, W>,
    buffer: Vec<F>,
    rowgroup_values: usize,
    /// `None` when `threads <= 1`: push/finish delegate straight to `inner`.
    pool: Option<Pool<F>>,
    /// The first quarantined failure; once set, every later call fails.
    poisoned: Option<MorselFailure>,
}

impl<F: AlpFloat, W: Write> PipelinedColumnWriter<F, W> {
    /// Pipelined writer with the paper's default sampling parameters.
    pub fn new(sink: W, config: PipelineConfig) -> Self {
        Self::build(ColumnWriter::new(sink), config)
    }

    /// Pipelined writer with custom sampling parameters. Returns
    /// [`ConfigError`] when any count in `params` is zero.
    pub fn with_params(
        sink: W,
        params: SamplerParams,
        config: PipelineConfig,
    ) -> Result<Self, ConfigError> {
        Ok(Self::build(ColumnWriter::with_params(sink, params)?, config))
    }

    /// Pipelined writer with erasure protection (see
    /// [`ColumnWriter::with_parity`](crate::stream::ColumnWriter::with_parity)).
    /// Workers only compress; parity is folded in on the caller thread from
    /// the already-encoded frame bytes inside the shared commit seam, so the
    /// stream stays byte-identical to the serial parity writer at every
    /// thread count and pipeline depth.
    pub fn with_parity(
        sink: W,
        config: PipelineConfig,
        parity: ParityConfig,
    ) -> Result<Self, ConfigError> {
        Ok(Self::build(ColumnWriter::with_parity(sink, parity)?, config))
    }

    /// Pipelined writer with custom sampling parameters *and* erasure
    /// protection. Returns [`ConfigError`] when any count in `params` is
    /// zero or the parity group size is out of range.
    pub fn with_params_and_parity(
        sink: W,
        params: SamplerParams,
        config: PipelineConfig,
        parity: ParityConfig,
    ) -> Result<Self, ConfigError> {
        Ok(Self::build(ColumnWriter::with_params_and_parity(sink, params, parity)?, config))
    }

    fn build(inner: ColumnWriter<F, W>, config: PipelineConfig) -> Self {
        let rowgroup_values = inner.rowgroup_values();
        let pool = (config.threads > 1).then(|| {
            Pool::spawn(
                inner.compressor().clone(),
                config.threads,
                config.depth.max(1),
                config.panic_at,
            )
        });
        Self {
            inner,
            buffer: Vec::with_capacity(rowgroup_values),
            rowgroup_values,
            pool,
            poisoned: None,
        }
    }

    /// Replaces the sink's transient-fault retry policy; identical semantics
    /// to [`ColumnWriter::set_retry_policy`](crate::stream::ColumnWriter::set_retry_policy)
    /// (all sink I/O runs on the caller thread).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.inner.set_retry_policy(policy);
    }

    /// Appends values. Full row-groups are handed to the worker pool; when
    /// `depth` row-groups are already in flight, blocks committing finished
    /// frames until a slot frees (back-pressure). A previously quarantined
    /// worker panic resurfaces as [`IngestError::Poisoned`].
    pub fn push(&mut self, values: &[F]) -> Result<(), IngestError> {
        self.check_poisoned()?;
        if self.pool.is_none() {
            return self.inner.push(values).map_err(IngestError::Io);
        }
        let mut rest = values;
        while !rest.is_empty() {
            let room = self.rowgroup_values - self.buffer.len();
            let (head, tail) = rest.split_at(room.min(rest.len()));
            self.buffer.extend_from_slice(head);
            rest = tail;
            if self.buffer.len() == self.rowgroup_values {
                let full =
                    core::mem::replace(&mut self.buffer, Vec::with_capacity(self.rowgroup_values));
                self.submit(full)?;
            }
        }
        Ok(())
    }

    /// Drains the pipeline (tail row-group included), then writes the
    /// terminator and commit footer through the inner writer. On error the
    /// stream is left uncommitted with only whole frames on the sink —
    /// salvage-readable, never torn mid-frame.
    pub fn finish(mut self) -> Result<StreamSummary, IngestError> {
        self.check_poisoned()?;
        if !self.buffer.is_empty() {
            let tail = core::mem::take(&mut self.buffer);
            self.submit(tail)?;
        }
        let Self { mut inner, pool, mut poisoned, .. } = self;
        if let Some(mut pool) = pool {
            while pool.next_commit < pool.next_seq {
                commit_next(&mut pool, &mut inner, &mut poisoned)?;
            }
            // Join the workers before committing: the footer must be the
            // last thing the stream sees.
            drop(pool);
        }
        inner.finish().map_err(IngestError::Io)
    }

    /// Enqueues one full row-group buffer, draining finished frames first
    /// when the pipeline is at depth.
    fn submit(&mut self, data: Vec<F>) -> Result<(), IngestError> {
        let Self { inner, pool, poisoned, .. } = self;
        let Some(pool) = pool.as_mut() else {
            return inner.push(&data).map_err(IngestError::Io);
        };
        while pool.in_flight() >= pool.depth {
            commit_next(pool, inner, poisoned)?;
        }
        pool.enqueue(data);
        Ok(())
    }

    fn check_poisoned(&self) -> Result<(), IngestError> {
        match &self.poisoned {
            Some(failure) => Err(IngestError::Poisoned(failure.clone())),
            None => Ok(()),
        }
    }
}

/// Commits the next in-order batch to the sink, or records and surfaces its
/// quarantined failure. Free function (not a method) so callers can hold
/// disjoint borrows of the pool, the inner writer, and the poison slot.
fn commit_next<F: AlpFloat, W: Write>(
    pool: &mut Pool<F>,
    inner: &mut ColumnWriter<F, W>,
    poisoned: &mut Option<MorselFailure>,
) -> Result<(), IngestError> {
    match pool.take_next_done() {
        Ok(frames) => inner
            .commit_encoded_frames(&frames.bytes, frames.values, &frames.stats)
            .map_err(IngestError::Io),
        Err(failure) => {
            *poisoned = Some(failure.clone());
            Err(IngestError::Poisoned(failure))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ColumnReader;
    use fastlanes::VECTOR_SIZE;

    fn small_params() -> SamplerParams {
        SamplerParams { vectors_per_rowgroup: 4, ..SamplerParams::default() }
    }

    fn serial_bytes(data: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut writer =
            crate::stream::ColumnWriter::<f64, _>::with_params(&mut out, small_params()).unwrap();
        writer.push(data).unwrap();
        writer.finish().unwrap();
        out
    }

    #[test]
    fn pipelined_output_is_byte_identical_to_serial() {
        // 6.5 row-groups with the small config: exercises ordered commit
        // and a ragged tail.
        let data: Vec<f64> =
            (0..4 * VECTOR_SIZE * 6 + 2048).map(|i| (i % 333) as f64 / 8.0).collect();
        let serial = serial_bytes(&data);
        for threads in [1usize, 2, 7] {
            for depth in [1usize, 2, 4] {
                let config = PipelineConfig { threads, depth, panic_at: None };
                let mut out = Vec::new();
                let mut writer =
                    PipelinedColumnWriter::<f64, _>::with_params(&mut out, small_params(), config)
                        .unwrap();
                for chunk in data.chunks(1500) {
                    writer.push(chunk).unwrap();
                }
                let summary = writer.finish().unwrap();
                assert_eq!(out, serial, "threads={threads} depth={depth}");
                assert_eq!(summary.total_bytes, out.len());
            }
        }
    }

    #[test]
    fn injected_worker_panic_is_quarantined_as_typed_error() {
        let data: Vec<f64> = (0..4 * VECTOR_SIZE * 5).map(|i| i as f64).collect();
        let config = PipelineConfig { threads: 4, depth: 2, panic_at: Some(2) };
        let mut out = Vec::new();
        let mut writer =
            PipelinedColumnWriter::<f64, _>::with_params(&mut out, small_params(), config).unwrap();
        let mut poisoned = None;
        for chunk in data.chunks(1000) {
            if let Err(e) = writer.push(chunk) {
                poisoned = Some(e);
                break;
            }
        }
        let err = match poisoned {
            Some(e) => {
                drop(writer);
                e
            }
            None => match writer.finish() {
                Err(e) => e,
                Ok(_) => panic!("injected panic must surface from push or finish"),
            },
        };
        match err {
            IngestError::Poisoned(failure) => {
                assert_eq!(failure.morsel, 2);
                assert!(failure.message.contains("injected pipeline fault"));
            }
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // The sink holds whole frames only: a salvage reader recovers the
        // committed prefix (row-groups 0 and 1 at most) without error.
        let mut reader = ColumnReader::<f64, _>::new(&out[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(!reader.is_committed());
        assert!(restored.len() <= 2 * 4 * VECTOR_SIZE);
        for (a, b) in data.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn poisoned_pipeline_stays_poisoned() {
        let data: Vec<f64> = (0..4 * VECTOR_SIZE * 4).map(|i| i as f64).collect();
        let config = PipelineConfig { threads: 2, depth: 1, panic_at: Some(0) };
        let mut out = Vec::new();
        let mut writer =
            PipelinedColumnWriter::<f64, _>::with_params(&mut out, small_params(), config).unwrap();
        let mut first_error = None;
        for chunk in data.chunks(1000) {
            if let Err(e) = writer.push(chunk) {
                first_error = Some(e);
                break;
            }
        }
        assert!(
            matches!(first_error, Some(IngestError::Poisoned(_))),
            "depth-1 pipeline must surface the poisoned frame from push"
        );
        // Every later call reports the same quarantined failure.
        assert!(matches!(writer.push(&[1.0]), Err(IngestError::Poisoned(_))));
        assert!(matches!(writer.finish(), Err(IngestError::Poisoned(_))));
    }

    #[test]
    fn empty_pipelined_stream_commits() {
        let mut out = Vec::new();
        let config = PipelineConfig { threads: 3, depth: 2, panic_at: None };
        let writer = PipelinedColumnWriter::<f64, _>::new(&mut out, config);
        let summary = writer.finish().unwrap();
        assert_eq!(summary.values, 0);
        assert_eq!(summary.total_bytes, out.len());
        let mut reader = ColumnReader::<f64, _>::new(&out[..]).unwrap();
        assert!(reader.next_rowgroup().unwrap().is_none());
        assert!(reader.is_committed());
    }

    #[test]
    fn depth_resolution_order() {
        // An explicit nonzero request wins; zero and absent mean the default.
        assert_eq!(PipelineConfig::resolve(Some(1), Some(7)).depth, 7);
        assert_eq!(PipelineConfig::resolve(Some(1), Some(0)).depth, DEFAULT_PIPELINE_DEPTH);
        assert_eq!(PipelineConfig::resolve(Some(1), None).depth, DEFAULT_PIPELINE_DEPTH);
    }
}
