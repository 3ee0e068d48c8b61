//! ALP's stored footprint ranks as the paper's Table 4 does — a name the test
//! floor pins. The engine's operators over every storage are the differential
//! driver's aggregate axis (`tests/differential.rs`; DESIGN.md §17).

use alp_core::{Registry, Scratch};
use vectorq::{Column, Format};

#[test]
fn compressed_footprints_rank_sensibly_on_decimals() {
    // On a classic decimal dataset ALP must compress, and must beat the
    // XOR codecs clearly (the paper's Table 4 shape).
    let data = datagen::generate("City-Temp", 300_000, 5);
    let raw = Column::from_f64(&data, Format::Uncompressed).compressed_bytes();
    let alp = Column::from_f64(&data, Format::alp()).compressed_bytes();
    let gorilla = Registry::get("gorilla").expect("registered");
    let gorilla =
        gorilla.verified_compressed_bits(&data, &mut Scratch::new()).expect("lossless") / 8;
    assert!(alp * 3 < raw, "ALP {alp} vs raw {raw}");
    assert!(alp < gorilla, "ALP {alp} vs Gorilla {gorilla}");
}
