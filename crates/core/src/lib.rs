//! The workspace's single compressor abstraction.
//!
//! Every compression scheme in the evaluation — the seven baseline float
//! codecs, ALP itself, the LWC+ALP cascade, and both GPZip modes — implements
//! one trait, [`ColumnCodec`], and is reachable through one table, the
//! [`Registry`]. Consumers (the benchmark harness, the CLI, the `vectorq`
//! query engine, the corruption test suite) iterate the registry instead of
//! keeping hand-maintained scheme lists; adding a codec means one impl plus
//! one registry line (whose unit test pins the list).
//!
//! The trait is built around **caller-owned scratch buffers**: compression
//! and decompression write into `&mut Vec` outputs and stage through a
//! [`Scratch`] the caller reuses across calls, so hot loops perform no
//! per-vector heap allocation once the buffers are warm.
//!
//! [`container`] adds a registry-keyed, checksummed byte envelope so any
//! codec's output can be stored and re-identified without per-codec framing
//! code.

pub mod codec;
pub mod container;
pub mod error;
pub mod impls;
pub mod par;
pub mod registry;
pub mod scan;
pub mod scratch;

pub use codec::{Capabilities, ColumnCodec};
pub use container::{
    try_read_container_into, try_read_container_salvaged, write_container,
    write_container_with_parity, ContainerSalvage,
};
pub use error::CoreError;
pub use registry::{Registry, SPEED_IDS, TABLE4_IDS};
pub use scan::{scan_values, ScanAgg, ScanPredicate, ScanResult, Validity};
pub use scratch::Scratch;
