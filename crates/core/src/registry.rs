//! The one table every compression scheme is reachable through.
//!
//! Each [`ColumnCodec`] value in [`crate::impls`] — a unit-struct
//! implementation, or a `static` instance of an implementing type such as
//! [`impls::Baseline`] — appears exactly once in `ENTRIES`, one literal per
//! line.

use crate::codec::ColumnCodec;
use crate::impls;

/// Every registered codec, one literal entry per implementation.
static ENTRIES: &[&'static dyn ColumnCodec] = &[
    &impls::GORILLA,
    &impls::CHIMP,
    &impls::CHIMP128,
    &impls::PATAS,
    &impls::PDE,
    &impls::ELF,
    &impls::FPC,
    &impls::Alp,
    &impls::LwcAlp,
    &impls::Gpzip,
    &impls::GpzipFast,
];

/// The nine schemes of the paper's Table 4 (compression-ratio comparison),
/// in presentation order.
pub const TABLE4_IDS: [&str; 9] =
    ["alp", "lwc-alp", "patas", "chimp128", "chimp", "gorilla", "pde", "elf", "gpzip"];

/// The eight byte-serializable schemes of the speed benchmarks
/// (Table 5 / Figure 1), in presentation order.
pub const SPEED_IDS: [&str; 8] =
    ["alp", "patas", "chimp128", "chimp", "gorilla", "pde", "elf", "gpzip"];

/// Static lookup over every registered [`ColumnCodec`].
pub struct Registry;

impl Registry {
    /// Every registered codec, in registration order.
    pub fn all() -> &'static [&'static dyn ColumnCodec] {
        ENTRIES
    }

    /// Looks a codec up by its stable id.
    pub fn get(id: &str) -> Option<&'static dyn ColumnCodec> {
        ENTRIES.iter().copied().find(|c| c.id() == id)
    }

    /// Resolves a list of ids, preserving order. `None` if any id is
    /// unregistered.
    pub fn resolve(ids: &[&str]) -> Option<Vec<&'static dyn ColumnCodec>> {
        ids.iter().map(|id| Self::get(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The eleven entries, in registration order, each once: a codec added
    /// to (or dropped from) `ENTRIES` must be added to (or dropped from) here.
    #[test]
    fn registry_lists_each_codec_once_in_order() {
        let ids: Vec<&str> = Registry::all().iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            [
                "gorilla",
                "chimp",
                "chimp128",
                "patas",
                "pde",
                "elf",
                "fpc",
                "alp",
                "lwc-alp",
                "gpzip",
                "gpzip-fast"
            ]
        );
    }

    #[test]
    fn names_are_unique() {
        let mut seen = HashSet::new();
        for codec in Registry::all() {
            assert!(seen.insert(codec.name()), "duplicate registry name {:?}", codec.name());
        }
    }

    #[test]
    fn table4_ids_resolve() {
        assert!(Registry::resolve(&TABLE4_IDS).is_some());
    }

    #[test]
    fn speed_ids_resolve_and_are_serializable() {
        let codecs = Registry::resolve(&SPEED_IDS).expect("all speed ids registered");
        for codec in codecs {
            assert!(!codec.caps().ratio_only, "{} is ratio-only", codec.id());
        }
    }

    #[test]
    fn get_unknown_id_is_none() {
        assert!(Registry::get("zstd").is_none());
        assert!(Registry::get("").is_none());
    }

    #[test]
    fn lookup_by_id_roundtrips() {
        for codec in Registry::all() {
            let found = Registry::get(codec.id()).expect("id resolves");
            assert_eq!(found.id(), codec.id());
            assert_eq!(found.name(), codec.name());
        }
    }
}
