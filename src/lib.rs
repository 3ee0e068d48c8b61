//! Umbrella crate re-exporting the public surface of the ALP reproduction workspace.
//!
//! Most users want [`alp`] directly; the other crates are the substrates and baselines
//! the paper's evaluation requires. See `DESIGN.md` for the full system inventory.

pub mod corruption;

pub use alp;
pub use alp_core;
pub use bitstream;
pub use codecs;
pub use datagen;
pub use fastlanes;
pub use gpzip;
pub use vectorq;
