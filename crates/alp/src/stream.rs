//! Streaming compression over `std::io` — write a column row-group by
//! row-group without ever materializing it, and read it back incrementally.
//!
//! ```text
//! "ALPT" | bits:u8 | { frame }* | 0:u32
//! "ALPF" | values:u64 | rowgroups:u32 | xxh64:u64            (commit footer)
//! ```
//!
//! Each [frame] holds one serialized row-group (see
//! [`crate::format`]) — the writer encodes a row-group's values straight into
//! its frame's bytes (`encode_frames`; no owned `RowGroup` in between, and no
//! allocation once its buffers are warm), and reports what the encoder
//! decided in [`StreamSummary::stats`] — so a strict reader needs only one
//! row-group of memory at a time, can stop early, and detects payload
//! corruption before handing data out. With a [`ParityConfig`] the writer
//! puts one parity frame after every `group_size` row-group frames (inline
//! placement). Salvage ([`ColumnReader::next_rowgroup_salvaged`]) reads the
//! rest of the stream into one buffer and runs the one salvage walker,
//! [`crate::frame::salvage`], over it: damaged frames are skipped by their
//! length prefix and any single damaged frame per group is *repaired*. Each
//! surviving body is taken into a [`BodyColumn`] where it lies in that
//! buffer — walked once, not decoded — and decoded only when it is handed
//! out. This module owns the header, the terminator, the commit footer and
//! the retry plumbing; the frame, parity placement, the walk and the repair
//! rule are [`crate::frame`]'s.
//!
//! The commit footer is written only by [`ColumnWriter::finish`], so its
//! presence ([`ColumnReader::is_committed`]) distinguishes a cleanly finished
//! stream from one whose writer died mid-row-group: a torn write can never
//! fabricate the footer's magic, counts, and checksum. Both ends absorb
//! *transient* I/O faults under a bounded
//! [`RetryPolicy`] and surface hard faults as
//! [`StreamError::Io`]; see [`crate::io`] for the taxonomy.
//!
//! Legacy `"ALPS"` streams (no per-frame `xxh64`, no commit footer) are still
//! read; nothing writes them (`tests/golden/alps_f64.bin` pins the reader).
//!
//! # Example
//! ```
//! use alp::stream::{ColumnReader, ColumnWriter};
//!
//! let mut file = Vec::new();
//! let mut writer = ColumnWriter::<f64, _>::new(&mut file);
//! for chunk in (0..500_000).map(|i| (i % 1000) as f64 / 10.0).collect::<Vec<_>>().chunks(37_000) {
//!     writer.push(chunk).unwrap();
//! }
//! let summary = writer.finish().unwrap();
//! assert_eq!(summary.values, 500_000);
//!
//! let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
//! let mut restored = Vec::new();
//! while let Some(values) = reader.next_rowgroup().unwrap() {
//!     restored.extend(values);
//! }
//! assert_eq!(restored.len(), 500_000);
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

use std::borrow::Cow;
use std::io::{self, Read, Write};

use fastlanes::VECTOR_SIZE;

use crate::format::{claimed_vectors, decode_rowgroup_into, BodyColumn, FormatError, RowGroupView};
use crate::frame::{self, Frame, FrameRead, ParityAccumulator, ParityConfig};
use crate::hash::{xxh64, CHECKSUM_SEED};
use crate::io::{flush_retry, read_full_retry, write_all_retry, RetryPolicy};
use crate::rowgroup::{Compressor, EncodeScratch, RowGroup};
use crate::sampler::{ConfigError, SamplerParams, SamplerStats};
use crate::traits::AlpFloat;
use crate::wire::{take, PutExt};

/// Magic bytes of a streamed column (current, checksummed format).
pub const STREAM_MAGIC: &[u8; 4] = b"ALPT";

/// Magic bytes of the legacy, pre-checksum stream format (still readable,
/// never written; `tests/golden/alps_f64.bin` pins the reader).
pub const STREAM_MAGIC_V1: &[u8; 4] = b"ALPS";

/// Magic bytes of the commit footer a finished `"ALPT"` stream ends with.
pub const COMMIT_MAGIC: &[u8; 4] = b"ALPF";

/// Serialized size of the commit footer: magic + values + rowgroups + xxh64.
pub const COMMIT_FOOTER_LEN: usize = 4 + 8 + 4 + 8;

/// The commit footer of a cleanly finished stream: what the writer intended
/// the stream to contain, attested by an XXH64 over the footer fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFooter {
    /// Total values the writer emitted.
    pub values: u64,
    /// Row-group frames the writer emitted.
    pub rowgroups: u32,
}

/// Statistics returned by [`ColumnWriter::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total values written.
    pub values: usize,
    /// Row-groups emitted.
    pub rowgroups: usize,
    /// Frame bytes written: every length prefix, per-frame checksum, and
    /// compressed body (parity frames included). Excludes the 5-byte stream
    /// header, the 4-byte terminator, and the commit footer.
    pub payload_bytes: usize,
    /// Every byte written to the sink — header, frames, terminator, and
    /// commit footer. After a successful [`ColumnWriter::finish`] this equals
    /// the sink's length exactly.
    pub total_bytes: usize,
    /// What the encoder decided, summed over the row-groups: how many went
    /// ALP and how many ALP_rd, vectors encoded, level-2 short-circuits and
    /// rescues. Equal at every thread count and pipeline depth.
    pub stats: SamplerStats,
}

/// Appends one frame per row-group of `values` to `out`, each body encoded
/// straight into the frame's bytes ([`Compressor::encode_rowgroup_body`] — no
/// [`RowGroup`] is built), and adds what the encoder decided to `stats`. The
/// single values → frame routine shared by the serial [`ColumnWriter`] and the
/// pipelined ingest workers, so both produce byte-identical streams by
/// construction.
pub(crate) fn encode_frames<F: AlpFloat>(
    compressor: &Compressor,
    values: &[F],
    scratch: &mut EncodeScratch,
    stats: &mut SamplerStats,
    out: &mut Vec<u8>,
) {
    // A frame is rarely larger than its values: one request up front instead
    // of doubling up to it (and past it).
    out.reserve(core::mem::size_of_val(values));
    for rowgroup in values.chunks(compressor.rowgroup_values()) {
        frame::encode(out, |body| compressor.encode_rowgroup_body(rowgroup, body, scratch, stats));
    }
}

/// Incremental column writer: buffers up to one row-group, compresses and
/// frames it, and forwards the bytes to the sink.
pub struct ColumnWriter<F: AlpFloat, W: Write> {
    sink: W,
    compressor: Compressor,
    buffer: Vec<F>,
    /// Values in one full row-group: the flush threshold.
    rowgroup_values: usize,
    header_written: bool,
    summary: StreamSummary,
    /// The current row-group's frame bytes (reused).
    frames: Vec<u8>,
    scratch: EncodeScratch,
    retry: RetryPolicy,
    /// XOR erasure protection: when set, one `"ALPP"` parity frame follows
    /// every `group_size` row-group frames (see [`crate::frame`]).
    parity: Option<ParityAccumulator>,
}

impl<F: AlpFloat, W: Write> ColumnWriter<F, W> {
    /// Writer with the paper's default sampling parameters.
    pub fn new(sink: W) -> Self {
        Self::build(sink, Compressor::new(), None)
    }

    /// Writer with custom sampling parameters.
    ///
    /// Returns [`ConfigError`] when any count in `params` is zero — notably a
    /// zero `vectors_per_rowgroup`, which would make [`ColumnWriter::push`]
    /// flush empty row-groups forever.
    pub fn with_params(sink: W, params: SamplerParams) -> Result<Self, ConfigError> {
        Ok(Self::build(sink, Compressor::with_params(params)?, None))
    }

    /// Writer with erasure protection (see [`crate::frame`]): one parity
    /// frame follows every `parity.group_size` row-group frames.
    ///
    /// Returns [`ConfigError`] when the group size is out of range.
    pub fn with_parity(sink: W, parity: ParityConfig) -> Result<Self, ConfigError> {
        Self::with_params_and_parity(sink, SamplerParams::default(), parity)
    }

    /// Writer with both custom sampling parameters and erasure protection.
    ///
    /// Returns [`ConfigError`] when any count in `params` is zero or the
    /// parity group size is out of range.
    pub fn with_params_and_parity(
        sink: W,
        params: SamplerParams,
        parity: ParityConfig,
    ) -> Result<Self, ConfigError> {
        parity.validate()?;
        Ok(Self::build(sink, Compressor::with_params(params)?, Some(parity)))
    }

    fn build(sink: W, compressor: Compressor, parity: Option<ParityConfig>) -> Self {
        // Nonzero: every `Compressor` constructor validates its params.
        let rowgroup_values = compressor.params().vectors_per_rowgroup * VECTOR_SIZE;
        Self {
            sink,
            compressor,
            buffer: Vec::with_capacity(rowgroup_values),
            rowgroup_values,
            header_written: false,
            summary: StreamSummary::default(),
            frames: Vec::new(),
            scratch: EncodeScratch::default(),
            retry: RetryPolicy::default(),
            parity: parity.map(ParityAccumulator::new),
        }
    }

    /// Replaces the transient-fault retry policy (default:
    /// [`RetryPolicy::default`]). Transient sink faults (`Interrupted`,
    /// `WouldBlock`, short writes) are absorbed up to the policy budget;
    /// hard faults always surface immediately.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Appends values; full row-groups are compressed and flushed eagerly.
    pub fn push(&mut self, values: &[F]) -> io::Result<()> {
        let mut rest = values;
        while !rest.is_empty() {
            let room = self.rowgroup_values - self.buffer.len();
            let (head, tail) = rest.split_at(room.min(rest.len()));
            self.buffer.extend_from_slice(head);
            rest = tail;
            if self.buffer.len() == self.rowgroup_values {
                self.flush_rowgroup()?;
            }
        }
        Ok(())
    }

    /// Flushes any buffered tail, writes the end-of-stream marker, and
    /// commits the stream with the footer — the record a torn write can
    /// never fabricate.
    pub fn finish(mut self) -> io::Result<StreamSummary> {
        if !self.buffer.is_empty() {
            self.flush_rowgroup()?;
        }
        self.ensure_header()?;
        // A partial final group still gets its parity frame, so the stream's
        // tail is as protected as its body.
        if let Some(pframe) = self.parity.as_mut().and_then(ParityAccumulator::flush) {
            self.write_payload(&pframe)?;
        }
        let mut tail = Vec::with_capacity(4 + COMMIT_FOOTER_LEN);
        tail.put_u32_le(0);
        tail.put_slice(COMMIT_MAGIC);
        tail.put_u64_le(self.summary.values as u64);
        tail.put_u32_le(self.summary.rowgroups as u32);
        let checksum = xxh64(tail.split_at(4).1, CHECKSUM_SEED);
        tail.put_u64_le(checksum);
        write_all_retry(&mut self.sink, &tail, &self.retry)?;
        self.summary.total_bytes += tail.len();
        flush_retry(&mut self.sink, &self.retry)?;
        Ok(self.summary)
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            let [m0, m1, m2, m3] = *STREAM_MAGIC;
            let header = [m0, m1, m2, m3, F::BITS as u8];
            write_all_retry(&mut self.sink, &header, &self.retry)?;
            self.header_written = true;
            self.summary.total_bytes += header.len();
        }
        Ok(())
    }

    /// Writes frame bytes to the sink and counts them as payload.
    fn write_payload(&mut self, bytes: &[u8]) -> io::Result<()> {
        write_all_retry(&mut self.sink, bytes, &self.retry)?;
        self.summary.payload_bytes += bytes.len();
        self.summary.total_bytes += bytes.len();
        Ok(())
    }

    /// Encodes the buffered values — one row-group's worth, or the tail —
    /// into their frame and commits it.
    fn flush_rowgroup(&mut self) -> io::Result<()> {
        let mut frames = core::mem::take(&mut self.frames);
        frames.clear();
        let mut stats = SamplerStats::default();
        encode_frames(&self.compressor, &self.buffer, &mut self.scratch, &mut stats, &mut frames);
        let values = self.buffer.len();
        self.buffer.clear();
        let result = self.commit_encoded_frames(&frames, values, &stats);
        self.frames = frames;
        result
    }

    /// Writes pre-encoded frames (see [`encode_frames`]) covering `values`
    /// source values to the sink and folds them, with the encoder's `stats`
    /// for them, into the summary. The commit seam shared with the pipelined
    /// ingest path: frames land on the sink whole and in order, under the
    /// writer's retry policy, and each parity frame lands immediately after
    /// the group it closes — so the layout is independent of who encoded the
    /// frames.
    pub(crate) fn commit_encoded_frames(
        &mut self,
        frames: &[u8],
        values: usize,
        stats: &SamplerStats,
    ) -> io::Result<()> {
        self.ensure_header()?;
        let mut rest = frames;
        while let Some((frame, tail)) = Frame::split(rest) {
            rest = tail;
            self.write_payload(frame.whole)?;
            self.summary.rowgroups += 1;
            if let Some(pframe) = self.parity.as_mut().and_then(|acc| acc.push(frame.whole)) {
                self.write_payload(&pframe)?;
            }
        }
        if !rest.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed encoded frame batch",
            ));
        }
        self.summary.values += values;
        self.summary.stats.merge(stats);
        Ok(())
    }

    /// Values in one full row-group (what a worker is handed at a time).
    pub(crate) fn rowgroup_values(&self) -> usize {
        self.rowgroup_values
    }

    /// The writer's compression parameters (for workers that encode frames
    /// on its behalf).
    pub(crate) fn compressor(&self) -> &Compressor {
        &self.compressor
    }
}

/// Incremental column reader: yields one decompressed row-group at a time.
pub struct ColumnReader<F: AlpFloat, R: Read> {
    source: R,
    /// Reused read buffer: the current frame.
    frame: Vec<u8>,
    done: bool,
    /// `"ALPT"`: frames carry checksums and a commit footer follows the
    /// terminator. `false` for the legacy `"ALPS"` layout, which has neither.
    checksummed: bool,
    /// Index of the next *data* row-group (parity frames are not counted).
    next_index: usize,
    /// Row-group indices skipped by the salvage path.
    lost: Vec<usize>,
    /// Row-group indices the salvage path reconstructed from parity.
    repaired: Vec<usize>,
    /// Whether the stream's commit record was found intact (see
    /// [`ColumnReader::is_committed`]).
    committed: bool,
    /// The parsed commit footer, when one was found and verified.
    footer: Option<StreamFooter>,
    retry: RetryPolicy,
    /// What the salvage walk kept, in stream order, and how many of its
    /// row-groups were handed out.
    survivors: (BodyColumn<F>, usize),
}

/// Errors produced while reading a stream.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid frame.
    Format(FormatError),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Format(e) => write!(f, "stream format error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<FormatError> for StreamError {
    fn from(e: FormatError) -> Self {
        StreamError::Format(e)
    }
}

impl<F: AlpFloat, R: Read> ColumnReader<F, R> {
    /// Opens a stream, validating the header. Accepts both the current
    /// checksummed `"ALPT"` format and the legacy `"ALPS"` one.
    pub fn new(source: R) -> Result<Self, StreamError> {
        Self::with_retry_policy(source, RetryPolicy::default())
    }

    /// Like [`ColumnReader::new`], but with an explicit transient-fault
    /// retry policy covering every read, the 5-byte header included.
    pub fn with_retry_policy(mut source: R, retry: RetryPolicy) -> Result<Self, StreamError> {
        let mut header = [0u8; 5];
        read_full_retry(&mut source, &mut header, &retry)?;
        let checksummed = Self::parse_header(header)?;
        Ok(Self {
            source,
            frame: Vec::new(),
            done: false,
            checksummed,
            next_index: 0,
            lost: Vec::new(),
            repaired: Vec::new(),
            committed: false,
            footer: None,
            retry,
            survivors: (BodyColumn::default(), 0),
        })
    }

    /// Validates the 5-byte stream header: the element width must match `F`,
    /// and the magic says whether frames are checksummed (`"ALPT"`) or the
    /// legacy bare `"ALPS"` kind.
    fn parse_header([magic @ .., bits]: [u8; 5]) -> Result<bool, FormatError> {
        let checksummed = match &magic {
            STREAM_MAGIC => true,
            STREAM_MAGIC_V1 => false,
            _ => return Err(FormatError::BadMagic),
        };
        if u32::from(bits) != F::BITS {
            return Err(FormatError::WidthMismatch { found: bits, expected: F::BITS as u8 });
        }
        Ok(checksummed)
    }

    /// Reads and decompresses the next row-group; `None` at end of stream.
    pub fn next_rowgroup(&mut self) -> Result<Option<Vec<F>>, StreamError> {
        let mut out = Vec::new();
        Ok(self.next_rowgroup_into(&mut out)?.then_some(out))
    }

    /// [`ColumnReader::next_rowgroup`] into a caller-owned buffer: `out` is
    /// cleared and filled with the next row-group's values, decoded straight
    /// from the frame bytes; `false` at end of stream. With `out` reused, a
    /// steady-state read allocates nothing.
    pub fn next_rowgroup_into(&mut self, out: &mut Vec<F>) -> Result<bool, StreamError> {
        out.clear();
        let Some(body) = self.next_body()? else { return Ok(false) };
        decode_rowgroup_into(body, out)?;
        Ok(true)
    }

    /// Reads the next row-group without decompressing it (for servers that
    /// relay or selectively decode).
    pub fn next_rowgroup_compressed(&mut self) -> Result<Option<RowGroup>, StreamError> {
        let Some(body) = self.next_body()? else { return Ok(None) };
        Ok(Some(RowGroupView::<F>::parse_exact(body)?.to_owned()?))
    }

    /// Reads the next frame of either flavor — checksummed, or the legacy
    /// `len:u32 | body` — into `into` at `at`, or else into the reused frame
    /// buffer at its start.
    fn read_next(&mut self, into: Option<(&mut Vec<u8>, usize)>) -> io::Result<FrameRead> {
        let extra = if self.checksummed { frame::PREFIX_LEN - 4 } else { 0 };
        let buf = into.unwrap_or((&mut self.frame, 0));
        frame::read_len_prefixed(&mut self.source, buf, extra, &self.retry)
    }

    /// The strict readers' frame step: reads frames until one holds a
    /// row-group, verifies its checksum, and lends its body out of the
    /// reused frame buffer. `None` at end of stream.
    fn next_body(&mut self) -> Result<Option<&[u8]>, StreamError> {
        loop {
            if self.done {
                return Ok(None);
            }
            let n = match self.read_next(None)? {
                FrameRead::Frame(n) => n,
                FrameRead::Terminator => {
                    self.done = true;
                    self.read_commit_footer();
                    return Ok(None);
                }
                FrameRead::Torn(_) => {
                    let kind = io::ErrorKind::UnexpectedEof;
                    return Err(io::Error::new(kind, "source ended mid-frame").into());
                }
            };
            // The frame is fully consumed from here on: every error below is
            // recoverable by reading the next frame.
            let raw = self.frame.get(..n).unwrap_or(&[]);
            let body_at = if self.checksummed {
                let (frame, _) = Frame::split(raw).ok_or(FormatError::Truncated)?;
                if let Err(mismatch) = frame.check(self.next_index) {
                    self.next_index += 1;
                    return Err(mismatch.into());
                }
                if frame::claims_parity(frame.whole) {
                    // Erasure-protection frame, not a row-group: skip it
                    // without consuming a data index.
                    continue;
                }
                frame::PREFIX_LEN
            } else {
                4
            };
            self.next_index += 1;
            return Ok(Some(self.frame.get(body_at..n).unwrap_or(&[])));
        }
    }

    /// Like [`ColumnReader::next_rowgroup`], but skips damaged frames instead
    /// of failing — and, when the stream carries parity frames
    /// ([`ColumnWriter::with_parity`]), *reconstructs* any single damaged
    /// frame per group and records its index in
    /// [`ColumnReader::repaired_rowgroups`]. Frames that remain unrecoverable
    /// (two or more damaged in one group, or no parity at all) are recorded
    /// in [`ColumnReader::lost_rowgroups`]. A torn tail — the source ending
    /// mid-frame — ends the walk with the cut frame recorded as lost, so the
    /// caller keeps exactly the committed prefix. Hard faults and exhausted
    /// retry budgets still surface as `Err`.
    ///
    /// The first call reads the rest of the source and salvages it in one
    /// walk, which keeps the surviving bodies; each call then decodes the
    /// next of them. Strict reads before it degrade repairs to losses (never
    /// the other way around).
    pub fn next_rowgroup_salvaged(&mut self) -> Result<Option<Vec<F>>, StreamError> {
        if !self.done {
            self.survivors = (self.salvage_rest(1)?, 0);
        }
        let (survivors, handed_out) = &mut self.survivors;
        let Some(rowgroup) = survivors.rowgroup(*handed_out) else { return Ok(None) };
        *handed_out += 1;
        let mut values = Vec::new();
        rowgroup.decode_into(&mut values);
        Ok(Some(values))
    }

    /// The salvage walk over the rest of the source on up to `threads`
    /// morsel workers (the same outcome at every count): the bytes are read
    /// into one buffer, `"ALPT"` frames go through [`frame::salvage`], and
    /// each survivor is taken into the column where it lies (a rebuilt one
    /// appended) or, refused, lost. A verified footer then arbitrates:
    /// trailing "losses" beyond its row-group count were parity frames.
    pub(crate) fn salvage_rest(&mut self, threads: usize) -> Result<BodyColumn<F>, StreamError> {
        if self.done {
            return Ok(BodyColumn::default());
        }
        // Frame by frame, so that `rest` grows only as bytes arrive.
        let mut rest = Vec::new();
        let terminated = loop {
            let at = rest.len();
            let read = self.read_next(Some((&mut rest, at)))?;
            let (FrameRead::Frame(n) | FrameRead::Torn(n)) = read else { break true };
            rest.truncate(at + n);
            if read == FrameRead::Torn(n) {
                break false;
            }
        };
        self.done = true;
        if terminated {
            self.read_commit_footer();
        }
        let (bodies, repaired) = if self.checksummed {
            if terminated {
                rest.reserve_exact(4);
                rest.extend_from_slice(&[0; 4]);
            }
            let walk = frame::salvage(&rest, frame::Placement::Inline, threads);
            (walk.bodies, walk.repaired)
        } else {
            // Legacy frames have no checksum and no parity: every frame is
            // offered to the intake, and a stream short of its terminator
            // ends in one more loss, the torn frame.
            let mut frames = rest.as_slice();
            let legacy = core::iter::from_fn(|| {
                let (len, tail) = frames.split_first_chunk::<4>()?;
                let body;
                (body, frames) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)?;
                Some(Some(Cow::Borrowed(body)))
            });
            (legacy.chain((!terminated).then_some(None)).collect(), Vec::new())
        };
        // Each survivor as its range of `rest`, or the bytes parity rebuilt.
        let at = |body: &[u8]| (body.as_ptr() as usize).wrapping_sub(rest.as_ptr() as usize);
        let claimed = bodies.iter().flatten().map(|body| claimed_vectors(body)).sum();
        let slots: Vec<_> = bodies
            .into_iter()
            .map(|slot| match slot? {
                Cow::Borrowed(body) => Some(Ok(at(body)..at(body) + body.len())),
                Cow::Owned(body) => Some(Err(body)),
            })
            .collect();
        let (first, count) = (self.next_index, slots.len());
        let mut column = BodyColumn::with_capacity(rest, count, claimed);
        let mut taken = |slot: Option<Result<_, Vec<u8>>>| match slot {
            Some(Ok(range)) => column.index(range).is_ok(),
            Some(Err(rebuilt)) => column.push(&rebuilt).is_ok(),
            None => false,
        };
        self.lost.extend((first..).zip(slots).filter_map(|(i, slot)| (!taken(slot)).then_some(i)));
        self.repaired =
            repaired.iter().map(|i| first + i).filter(|i| !self.lost.contains(i)).collect();
        self.next_index = first + count;
        if let Some(footer) = self.footer {
            let total = footer.rowgroups as usize;
            while self.next_index > total && self.lost.last() == Some(&(self.next_index - 1)) {
                self.lost.pop();
                self.next_index -= 1;
            }
            self.committed = total == self.next_index;
        }
        Ok(column)
    }

    /// The strict read of the rest of the source: every frame verified and
    /// every body taken in, in order (the first fault is the error).
    pub(crate) fn strict_rest(&mut self) -> Result<BodyColumn<F>, StreamError> {
        let mut column = BodyColumn::default();
        while let Some(body) = self.next_body()? {
            column.push(body)?;
        }
        Ok(column)
    }

    /// Row-group indices skipped so far by
    /// [`ColumnReader::next_rowgroup_salvaged`].
    pub fn lost_rowgroups(&self) -> &[usize] {
        &self.lost
    }

    /// Row-group indices reconstructed from parity so far by
    /// [`ColumnReader::next_rowgroup_salvaged`]. Repaired row-groups are
    /// byte-identical to what the writer emitted (the reconstruction is
    /// verified against the frame's own checksum before use).
    pub fn repaired_rowgroups(&self) -> &[usize] {
        &self.repaired
    }

    /// Whether the stream's commit record was found intact. Meaningful once
    /// the stream has been drained (a `None` from one of the `next_*`
    /// methods): `true` means the writer's [`ColumnWriter::finish`] ran to
    /// completion and its row-group count matches what this reader walked.
    /// In-place frame damage does *not* clear the flag — a committed stream
    /// with losses was written whole and corrupted later.
    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// The verified commit footer, when the stream had one. Like
    /// [`ColumnReader::is_committed`], populated once the terminator is
    /// reached; legacy `"ALPS"` streams never carry one.
    pub fn footer(&self) -> Option<StreamFooter> {
        self.footer
    }

    /// Best-effort read of the commit record after the terminator frame.
    /// Any defect — missing bytes, wrong magic, checksum mismatch — leaves
    /// the stream uncommitted rather than erroring: an absent footer is the
    /// *signal* a torn write leaves behind, not a failure of this reader.
    fn read_commit_footer(&mut self) {
        if !self.checksummed {
            // The legacy layout has no footer: its terminator is the only
            // commit record there is.
            self.committed = true;
            return;
        }
        let mut raw = [0u8; COMMIT_FOOTER_LEN];
        if read_full_retry(&mut self.source, &mut raw, &self.retry).is_err() {
            return;
        }
        let Some((attested, stored)) = raw.split_last_chunk::<8>() else { return };
        let Some(mut fields) = attested.strip_prefix(COMMIT_MAGIC) else { return };
        if xxh64(attested, CHECKSUM_SEED) != u64::from_le_bytes(*stored) {
            return;
        }
        let (Some(values), Some(rowgroups)) = (take(&mut fields), take(&mut fields)) else {
            return;
        };
        let (values, rowgroups) = (u64::from_le_bytes(values), u32::from_le_bytes(rowgroups));
        self.footer = Some(StreamFooter { values, rowgroups });
        self.committed = rowgroups as usize == self.next_index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_roundtrip(data: &[f64], chunk: usize) {
        assert!(chunk > 0, "test chunking granularity must be nonzero");
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        for c in data.chunks(chunk) {
            writer.push(c).unwrap();
        }
        let summary = writer.finish().unwrap();
        assert_eq!(summary.values, data.len());
        assert_eq!(summary.total_bytes, file.len());
        assert_eq!(summary.total_bytes, 5 + summary.payload_bytes + 4 + COMMIT_FOOTER_LEN);

        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn roundtrip_various_chunkings() {
        let data: Vec<f64> = (0..250_000).map(|i| ((i % 999) as f64) / 4.0).collect();
        for chunk in [1usize << 20, 102_400, 1024, 999, 37] {
            stream_roundtrip(&data, chunk);
        }
    }

    #[test]
    fn zero_rowgroup_config_is_rejected_with_typed_error() {
        let params = SamplerParams { vectors_per_rowgroup: 0, ..SamplerParams::default() };
        let sink: Vec<u8> = Vec::new();
        let err = match ColumnWriter::<f64, _>::with_params(sink, params) {
            Err(e) => e,
            Ok(_) => panic!("zero vectors_per_rowgroup must be rejected"),
        };
        assert_eq!(err.param, "vectors_per_rowgroup");
    }

    #[test]
    fn custom_params_still_roundtrip() {
        let params = SamplerParams { vectors_per_rowgroup: 3, ..SamplerParams::default() };
        let data: Vec<f64> = (0..10_000).map(|i| (i % 777) as f64 / 4.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::with_params(&mut file, params).unwrap();
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.rowgroups, 10_000usize.div_ceil(3 * VECTOR_SIZE));
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn empty_stream() {
        let mut file = Vec::new();
        let writer = ColumnWriter::<f64, _>::new(&mut file);
        let summary = writer.finish().unwrap();
        assert_eq!(summary.values, 0);
        assert_eq!(summary.rowgroups, 0);
        assert_eq!(summary.payload_bytes, 0);
        assert_eq!(summary.total_bytes, file.len());
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(reader.next_rowgroup().unwrap().is_none());
    }

    /// `finish()` on a never-pushed writer emits a *committed* zero-value
    /// stream — that is intended behavior, pinned here for the current
    /// `"ALPT"` layout: the footer attests to zero values and zero
    /// row-groups, and draining yields `None` without error.
    #[test]
    fn never_pushed_v2_commits_an_empty_stream() {
        let mut file = Vec::new();
        let writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.finish().unwrap();
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(reader.next_rowgroup().unwrap().is_none());
        assert!(reader.is_committed());
        assert_eq!(reader.footer(), Some(StreamFooter { values: 0, rowgroups: 0 }));
        // Draining again stays `None` without error.
        assert!(reader.next_rowgroup().unwrap().is_none());
    }

    /// Same pin for the legacy `"ALPS"` layout, hand-written (no V1 writer is
    /// left): header plus terminator. The terminator alone commits it, and
    /// it never carries a footer.
    #[test]
    fn never_pushed_v1_commits_an_empty_stream() {
        let file = [b'A', b'L', b'P', b'S', 64, 0, 0, 0, 0];
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(reader.next_rowgroup().unwrap().is_none());
        assert!(reader.is_committed());
        assert_eq!(reader.footer(), None);
        assert!(reader.next_rowgroup().unwrap().is_none());
    }

    /// Regression for the byte-accounting bug: `total_bytes` must equal the
    /// sink length exactly — header, frames, terminator, and footer all
    /// included — and `payload_bytes` must cover exactly the frame bytes
    /// between header and terminator.
    #[test]
    fn summary_accounting_matches_sink_length() {
        let data: Vec<f64> = (0..150_000).map(|i| ((i % 777) as f64) / 8.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, file.len());
        assert_eq!(summary.payload_bytes, file.len() - 5 - 4 - COMMIT_FOOTER_LEN);
    }

    #[test]
    fn mixed_schemes_stream() {
        let mut data: Vec<f64> = (0..102_400).map(|i| (i % 100) as f64 / 10.0).collect();
        data.extend((0..102_400).map(|i| ((i as f64) * 0.317).sin() * 1e-6));
        stream_roundtrip(&data, 50_000);
    }

    #[test]
    fn f32_stream() {
        let data: Vec<f32> = (0..150_000).map(|i| (i % 512) as f32 / 8.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f32, _>::new(&mut file);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        let mut reader = ColumnReader::<f32, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut file = Vec::new();
        let writer = ColumnWriter::<f32, _>::new(&mut file);
        writer.finish().unwrap();
        assert!(matches!(
            ColumnReader::<f64, _>::new(&file[..]),
            Err(StreamError::Format(FormatError::WidthMismatch { .. }))
        ));
    }

    #[test]
    fn current_streams_use_checksummed_magic() {
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.push(&[1.0, 2.0, 3.0]).unwrap();
        writer.finish().unwrap();
        assert_eq!(&file[..4], STREAM_MAGIC);
        assert_eq!(&file[..4], b"ALPT");
    }

    /// Byte offset of the first frame's body (after the 5-byte stream header
    /// and the frame's 4-byte length + 8-byte checksum).
    const FIRST_BODY: usize = 5 + 4 + 8;

    fn two_rowgroup_stream() -> (Vec<f64>, Vec<u8>) {
        let data: Vec<f64> = (0..150_000).map(|i| ((i % 777) as f64) / 8.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.rowgroups, 2);
        (data, file)
    }

    #[test]
    fn flipped_payload_bit_is_caught_by_frame_checksum() {
        let (_, mut file) = two_rowgroup_stream();
        file[FIRST_BODY + 100] ^= 0x10;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        match reader.next_rowgroup() {
            Err(StreamError::Format(FormatError::ChecksumMismatch { rowgroup, .. })) => {
                assert_eq!(rowgroup, 0);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn salvage_reader_skips_damaged_frame_and_reports_it() {
        let (data, mut file) = two_rowgroup_stream();
        let rowgroup_len = 102_400; // default vectors_per_rowgroup * VECTOR_SIZE
        file[FIRST_BODY + 100] ^= 0x10;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert_eq!(reader.lost_rowgroups(), &[0]);
        // Everything except the damaged first row-group comes back bit-exact.
        assert_eq!(restored.len(), data.len() - rowgroup_len);
        for (a, b) in data[rowgroup_len..].iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn salvage_on_clean_stream_loses_nothing() {
        let (data, file) = two_rowgroup_stream();
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(reader.lost_rowgroups().is_empty());
        assert_eq!(restored.len(), data.len());
    }

    /// The frozen `"ALPS"` file (no V1 writer is left) against the `"ALPT"`
    /// golden of the same column; `tests/golden_wire.rs` holds both to the
    /// generating dataset.
    const GOLDEN_V1: &[u8] = include_bytes!("../../../tests/golden/alps_f64.bin");
    const GOLDEN_V2: &[u8] = include_bytes!("../../../tests/golden/alpt_f64.bin");

    fn drain_strict(file: &[u8]) -> (Vec<f64>, bool, Option<StreamFooter>) {
        let mut reader = ColumnReader::<f64, _>::new(file).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        (restored, reader.is_committed(), reader.footer())
    }

    #[test]
    fn legacy_v1_streams_still_read() {
        assert_eq!(&GOLDEN_V1[..4], b"ALPS");
        let (want, _, _) = drain_strict(GOLDEN_V2);
        let (restored, _, _) = drain_strict(GOLDEN_V1);
        assert_eq!(restored.len(), 3 * 1024 + 333);
        assert_eq!(restored.len(), want.len());
        for (a, b) in want.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (salvaged, lost, repaired, committed) = drain_salvaged(GOLDEN_V1);
        assert!(lost.is_empty() && repaired.is_empty() && committed);
        assert_eq!(salvaged.len(), want.len());
    }

    #[test]
    fn clean_stream_is_committed_with_footer() {
        let (data, file) = two_rowgroup_stream();
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(!reader.is_committed(), "commit is only known once drained");
        while reader.next_rowgroup().unwrap().is_some() {}
        assert!(reader.is_committed());
        let footer = reader.footer().expect("V2 stream must carry a footer");
        assert_eq!(footer.values, data.len() as u64);
        assert_eq!(footer.rowgroups, 2);
    }

    #[test]
    fn torn_stream_salvages_committed_prefix() {
        let (data, file) = two_rowgroup_stream();
        let rowgroup_len = 102_400;
        // Cut inside the second frame's payload: the writer "died" mid-frame.
        let cut = file.len() - COMMIT_FOOTER_LEN - 4 - 1000;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(!reader.is_committed());
        assert!(reader.footer().is_none());
        assert_eq!(reader.lost_rowgroups(), &[1]);
        assert_eq!(restored.len(), rowgroup_len);
        for (a, b) in data[..rowgroup_len].iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn torn_footer_recovers_all_data_but_stays_uncommitted() {
        let (data, file) = two_rowgroup_stream();
        // Cut mid-footer: every frame is intact but the commit record is torn.
        let cut = file.len() - 1;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(reader.lost_rowgroups().is_empty());
        assert_eq!(restored.len(), data.len());
        assert!(!reader.is_committed());
        assert!(reader.footer().is_none());
    }

    #[test]
    fn corrupted_footer_checksum_stays_uncommitted() {
        let (_, mut file) = two_rowgroup_stream();
        let last = file.len() - 1;
        file[last] ^= 0x01;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        while reader.next_rowgroup().unwrap().is_some() {}
        assert!(!reader.is_committed());
        assert!(reader.footer().is_none());
    }

    #[test]
    fn damaged_midframe_stream_is_still_committed() {
        let (_, mut file) = two_rowgroup_stream();
        file[FIRST_BODY + 100] ^= 0x10;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        while reader.next_rowgroup_salvaged().unwrap().is_some() {}
        assert_eq!(reader.lost_rowgroups(), &[0]);
        // The writer finished cleanly; the damage happened in place.
        assert!(reader.is_committed());
        assert_eq!(reader.footer().unwrap().rowgroups, 2);
    }

    #[test]
    fn legacy_v1_commits_at_terminator() {
        let (_, committed, footer) = drain_strict(GOLDEN_V1);
        assert!(committed);
        assert!(footer.is_none(), "V1 streams carry no footer");
        // Cut inside the terminator: uncommitted, and the cut is reported.
        let mut reader = ColumnReader::<f64, _>::new(&GOLDEN_V1[..GOLDEN_V1.len() - 2]).unwrap();
        while reader.next_rowgroup_salvaged().unwrap().is_some() {}
        assert!(!reader.is_committed());
        assert_eq!(reader.lost_rowgroups(), &[4]);
    }

    #[test]
    fn transient_read_faults_are_absorbed() {
        use crate::io::{FaultPlan, FaultyRead};
        let (data, file) = two_rowgroup_stream();
        let plan = FaultPlan::clean(7).with_transients(4).with_short_ops(3);
        let faulty = FaultyRead::new(&file[..], plan);
        let mut reader = ColumnReader::<f64, _>::new(faulty).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(reader.lost_rowgroups().is_empty());
        assert!(reader.is_committed());
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn transient_write_faults_are_absorbed() {
        use crate::io::{FaultPlan, FaultyWrite};
        let data: Vec<f64> = (0..150_000).map(|i| ((i % 777) as f64) / 8.0).collect();
        let mut clean = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut clean);
        writer.push(&data).unwrap();
        writer.finish().unwrap();

        // Retries make the faulty sink byte-identical to the clean one.
        let plan = FaultPlan::clean(11).with_transients(4).with_short_ops(3);
        let mut sink = FaultyWrite::new(Vec::new(), plan);
        let mut writer = ColumnWriter::<f64, _>::new(&mut sink);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        assert_eq!(sink.into_inner(), clean);
    }

    /// Writes `data` as a parity-protected stream with `vectors_per_rowgroup
    /// = 2` (small row-groups, many frames) and the given group size.
    fn parity_stream(data: &[f64], group_size: usize) -> Vec<u8> {
        let params = SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() };
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::with_params_and_parity(
            &mut file,
            params,
            ParityConfig { group_size },
        )
        .unwrap();
        writer.push(data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, file.len());
        file
    }

    /// Byte ranges `(start, len, is_parity)` of every frame in a V2 stream.
    fn frame_spans(file: &[u8]) -> Vec<(usize, usize, bool)> {
        let mut spans = Vec::new();
        let mut at = 5;
        while let Some((frame, _)) = Frame::split(&file[at..]) {
            spans.push((at, frame.whole.len(), frame::claims_parity(frame.whole)));
            at += frame.whole.len();
        }
        spans
    }

    fn drain_salvaged(file: &[u8]) -> (Vec<f64>, Vec<usize>, Vec<usize>, bool) {
        let mut reader = ColumnReader::<f64, _>::new(file).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        (
            restored,
            reader.lost_rowgroups().to_vec(),
            reader.repaired_rowgroups().to_vec(),
            reader.is_committed(),
        )
    }

    #[test]
    fn parity_stream_reads_clean_through_strict_and_salvage_paths() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 333) as f64 / 4.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        let parity_frames = spans.iter().filter(|s| s.2).count();
        let data_frames = spans.len() - parity_frames;
        // 20_000 values / 2048 per row-group = 10 frames → 2 full groups + 1
        // partial (tail) group → 3 parity frames.
        assert_eq!(data_frames, 10);
        assert_eq!(parity_frames, 3);

        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut strict = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            strict.extend(values);
        }
        assert_eq!(strict, data);
        assert!(reader.is_committed());
        assert_eq!(reader.footer().unwrap().rowgroups, 10);

        let (salvaged, lost, repaired, committed) = drain_salvaged(&file);
        assert_eq!(salvaged, data);
        assert!(lost.is_empty());
        assert!(repaired.is_empty());
        assert!(committed);
    }

    #[test]
    fn damaged_parity_frame_costs_no_data() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 999) as f64 / 16.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        for &(start, len, _) in spans.iter().filter(|s| s.2) {
            let mut hurt = file.clone();
            hurt[start + len / 2] ^= 0x01;
            let (restored, lost, repaired, committed) = drain_salvaged(&hurt);
            assert_eq!(restored, data);
            assert!(lost.is_empty());
            assert!(repaired.is_empty());
            assert!(committed);
        }

        // A body that does not parse under a checksum that holds (what a
        // re-checksumming mutation leaves) shares a k = 2 group with row-group
        // 2. The checksum alone makes it an intact member, so a damaged
        // row-group 2 is rebuilt through it and only the forged body is lost;
        // the forged body damaged instead is rebuilt, refused and lost.
        let params = SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() };
        let (mut frames, mut stats) = (Vec::new(), SamplerStats::default());
        let compressor = Compressor::with_params(params).unwrap();
        encode_frames(&compressor, &data, &mut EncodeScratch::default(), &mut stats, &mut frames);
        let mut rest = &frames[..];
        let mut forged = Vec::new();
        for rowgroup in 0.. {
            let Some((frame, tail)) = Frame::split(rest) else { break };
            rest = tail;
            let body = if rowgroup == 3 { &[7, 0, 0, 0, 0][..] } else { frame.body };
            frame::encode(&mut forged, |out| out.extend_from_slice(body));
        }
        let mut file = Vec::new();
        let mut writer =
            ColumnWriter::<f64, _>::with_parity(&mut file, ParityConfig { group_size: 2 }).unwrap();
        writer.commit_encoded_frames(&forged, data.len(), &stats).unwrap();
        writer.finish().unwrap();
        let spans: Vec<_> = frame_spans(&file).into_iter().filter(|s| !s.2).collect();
        let kept = [&data[..3 * 2048], &data[4 * 2048..]].concat();
        for (damaged, want) in [(2, vec![2]), (3, vec![])] {
            let mut hurt = file.clone();
            hurt[spans[damaged].0 + frame::PREFIX_LEN + 2] ^= 0x10;
            let (restored, lost, repaired, committed) = drain_salvaged(&hurt);
            assert_eq!((repaired, lost), (want, vec![3]), "row-group {damaged} damaged");
            assert!(restored == kept && committed, "row-group {damaged} damaged");
        }
    }

    #[test]
    fn truncation_into_tail_parity_keeps_all_data() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 444) as f64 / 4.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        let &(pstart, plen, _) = spans.iter().rfind(|s| s.2).unwrap();
        // Cut mid-way through the final (tail) parity frame: every data
        // frame is intact, so nothing is lost — but the commit record is
        // gone, so the stream reads as uncommitted.
        let cut = pstart + plen / 2;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored, data);
        assert!(reader.lost_rowgroups().is_empty());
        assert!(!reader.is_committed());
    }

    #[test]
    fn parity_accounting_matches_sink_length() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 321) as f64 / 2.0).collect();
        let params = SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() };
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::with_params_and_parity(
            &mut file,
            params,
            ParityConfig { group_size: 4 },
        )
        .unwrap();
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, file.len());
        assert_eq!(summary.total_bytes, 5 + summary.payload_bytes + 4 + COMMIT_FOOTER_LEN);
        // Parity frames count as payload bytes but never as row-groups.
        assert_eq!(summary.rowgroups, 10);
        assert_eq!(summary.values, data.len());
    }

    #[test]
    fn zero_parity_group_size_is_rejected_with_typed_error() {
        let sink: Vec<u8> = Vec::new();
        let err = match ColumnWriter::<f64, _>::with_parity(sink, ParityConfig { group_size: 0 }) {
            Err(e) => e,
            Ok(_) => panic!("zero parity group size must be rejected"),
        };
        assert_eq!(err.param, "parity group_size");
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let data: Vec<f64> = (0..120_000).map(|i| i as f64).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        let cut = file.len() / 2;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let result = loop {
            match reader.next_rowgroup() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err());
    }
}
