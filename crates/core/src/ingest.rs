//! `alp_core::ingest` — the workspace's streaming-ingestion surface.
//!
//! Mirrors [`crate::par`]: the machinery lives in `alp` (the serial
//! [`ColumnWriter`] in `alp::stream`, the pipelined
//! [`PipelinedColumnWriter`] in `alp::pipeline`) and is re-exported here so
//! the CLI, the benches, and downstream engines import ingestion through one
//! module, next to a helper that picks the right mode from resolved knobs.
//!
//! Codecs advertising [`Capabilities::streaming_ingest`](crate::Capabilities)
//! (today: ALP) can ingest unbounded columns through this surface; everything
//! else still goes through the materializing [`ColumnCodec`](crate::ColumnCodec)
//! path.

use std::io::Write;

pub use alp::pipeline::{
    IngestError, PipelineConfig, PipelinedColumnWriter, DEFAULT_PIPELINE_DEPTH,
};
pub use alp::stream::{ColumnReader, ColumnWriter, StreamError, StreamFooter, StreamSummary};
pub use alp::ParityConfig;

use alp::sampler::ConfigError;
use alp::AlpFloat;

/// A pipelined column writer from resolved knobs: `threads` follows the
/// workspace's explicit-request → `ALP_THREADS` → machine chain, an absent
/// `depth` means [`DEFAULT_PIPELINE_DEPTH`]. `threads <= 1` (after
/// resolution) yields the serial inline path with the identical on-disk
/// stream.
pub fn pipelined_writer<F: AlpFloat, W: Write>(
    sink: W,
    threads: Option<usize>,
    depth: Option<usize>,
) -> PipelinedColumnWriter<F, W> {
    PipelinedColumnWriter::new(sink, PipelineConfig::resolve(threads, depth))
}

/// [`pipelined_writer`] with XOR erasure protection: one parity frame per
/// `group_size` row-group frames, making any single damaged frame per group
/// reconstructible on read. Returns [`ConfigError`] when the group size is
/// out of range (zero, or more than 255).
pub fn pipelined_writer_with_parity<F: AlpFloat, W: Write>(
    sink: W,
    threads: Option<usize>,
    depth: Option<usize>,
    group_size: usize,
) -> Result<PipelinedColumnWriter<F, W>, ConfigError> {
    PipelinedColumnWriter::with_parity(
        sink,
        PipelineConfig::resolve(threads, depth),
        ParityConfig { group_size },
    )
}
