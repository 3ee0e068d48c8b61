//! Every decoder in the workspace, over corrupt input: a typed error or a
//! value, never a panic, never an allocation sized from the bytes — names the
//! test floor pins, each one a slice of the differential driver's mutation
//! loop (`tests/differential.rs` runs all of it; DESIGN.md §17).

mod driver;

use driver::*;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// One ALP row-group, one ALP_rd, one of specials (the driver mutates four).
fn column<F: Float>() -> Input<F> {
    mutation_column(2)
}

#[test]
fn every_registered_codec_survives_the_corruption_corpus() {
    // Each codec's bare bytes; the checksummed envelope around one (the
    // driver mutates all of them).
    let data = column::<f64>().values;
    for &codec in alp_core::Registry::all().iter().filter(|c| f64::speaks(**c)) {
        assert_total(&codec_layout::<f64>(codec, &data), seed());
    }
    let gorilla = alp_core::Registry::get("gorilla").expect("registered");
    assert_total(&container_layout(gorilla, &data[1000..3000], false), seed());
}

#[test]
fn every_registered_f32_codec_survives_the_corruption_corpus() {
    let data = column::<f32>().values;
    for &codec in alp_core::Registry::all().iter().filter(|c| f32::speaks(**c)) {
        assert_total(&codec_layout::<f32>(codec, &data), seed());
    }
}

fn bare(id: &str) -> Layout {
    let codec = alp_core::Registry::get(id).expect("registered");
    codec_layout::<f64>(codec, &column().values)
}

#[test]
fn gpzip_default_mode_survives_the_corruption_corpus() {
    assert_total(&bare("gpzip"), seed() ^ 0x67707A);
}

#[test]
fn gpzip_fast_mode_survives_the_corruption_corpus() {
    assert_total(&bare("gpzip-fast"), seed() ^ 0x6661);
}

/// The stronger guarantee integrity frames buy: the strict reader of an
/// unprotected `"ALP2"` column refuses *any* one-bit change.
#[test]
fn alp_checksums_catch_every_single_bit_flip() {
    let [plain, ..] = written_layouts(&column::<f64>());
    assert!(plain.readers.iter().any(|reader| reader.strict));
    assert_total(&plain, seed() ^ 0xB117);
}

#[test]
fn alp_salvage_survives_the_corruption_corpus() {
    let [_, protected, ..] = written_layouts(&column::<f64>());
    assert_total(&protected, seed() ^ 0x5A17);
}

#[test]
fn legacy_v1_format_survives_the_corruption_corpus() {
    let [alp1, _] = legacy_layouts();
    assert_total(&alp1, seed() ^ 0xA171);
}

#[test]
fn stream_reader_survives_the_corruption_corpus() {
    let [_, _, plain, protected] = written_layouts(&column::<f64>());
    assert_total(&plain, seed() ^ 0x57EA);
    assert_total(&protected, seed() ^ 0x57EB);
    assert_total(&legacy_layouts()[1], seed() ^ 0x57EC);
}
