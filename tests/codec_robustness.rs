//! Corrupt-input fault injection across every decoder in the workspace.
//!
//! The per-codec coverage is registry-driven: `assert_registry_robust`
//! iterates `alp_core::Registry`, so a newly registered codec is fault-tested
//! automatically with no list to update here. The remaining tests cover the
//! layers the registry cannot express — the gpzip byte-stream API, ALP's
//! integrity/salvage/legacy formats, and the streaming reader. Everything
//! runs the shared corpus from `alp_repro::corruption` — truncations, bit
//! flips, garbage — and must return `Err` or a valid value, never panic.

use alp_repro::corruption::{
    assert_decoder_robust, assert_registry_robust, assert_registry_robust_f32, corpus,
    single_bit_flips,
};

fn sample_f64() -> Vec<f64> {
    // Decimal-looking values, noise, and specials: exercises every scheme
    // and every patch/exception path of the codecs under test.
    let mut data: Vec<f64> = (0..6000).map(|i| (i as f64) / 8.0).collect();
    data.extend((0..4000).map(|i| ((i as f64) * 0.377).sin() * 1e-4));
    data.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324]);
    data
}

fn sample_f32() -> Vec<f32> {
    (0..8000).map(|i| (i % 997) as f32 / 16.0).collect()
}

#[test]
fn every_registered_codec_survives_the_corruption_corpus() {
    assert_registry_robust(&sample_f64(), 0xC0DEC);
}

#[test]
fn every_registered_f32_codec_survives_the_corruption_corpus() {
    assert_registry_robust_f32(&sample_f32(), 0xF32);
}

#[test]
fn gpzip_default_mode_survives_the_corruption_corpus() {
    let raw: Vec<u8> = sample_f64().iter().flat_map(|v| v.to_le_bytes()).collect();
    let bytes = gpzip::compress(&raw);
    assert_decoder_robust(&bytes, 0x67707A, gpzip::try_decompress);
}

#[test]
fn gpzip_fast_mode_survives_the_corruption_corpus() {
    let raw: Vec<u8> = sample_f64().iter().flat_map(|v| v.to_le_bytes()).collect();
    let bytes = gpzip::fast::compress(&raw);
    assert_decoder_robust(&bytes, 0x6661, gpzip::fast::try_decompress);
}

#[test]
fn alp_checksums_catch_every_single_bit_flip() {
    // The stronger guarantee integrity frames buy: unlike the bare codecs,
    // an ALP2 column rejects *any* one-bit change, wherever it lands.
    let data = sample_f64();
    let bytes = alp::format::to_bytes(&alp::Compressor::new().compress(&data));
    for case in single_bit_flips(&bytes, 0xB117, 128) {
        assert!(alp::format::from_bytes::<f64>(&case.bytes).is_err(), "{}", case.label);
    }
}

#[test]
fn alp_salvage_survives_the_corruption_corpus() {
    let data = sample_f64();
    let bytes = alp::format::to_bytes(&alp::Compressor::new().compress(&data));
    for case in corpus(&bytes, 0x5A17) {
        // Salvage may or may not recover data; it must never panic, and
        // whatever it recovers must decompress.
        if let Ok(salvage) = alp::format::from_bytes_salvage::<f64>(&case.bytes) {
            let recovered = salvage.column.decompress();
            assert_eq!(recovered.len(), salvage.column.len, "{}", case.label);
        }
    }
}

#[test]
fn legacy_v1_format_survives_the_corruption_corpus() {
    // No V1 writer is left: the frozen `"ALP1"` golden is the pristine input.
    let bytes = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/alp1_f64.bin"))
        .expect("tests/golden/alp1_f64.bin");
    assert_decoder_robust(&bytes, 0xA171, |b| {
        alp::format::from_bytes::<f64>(b).map(|c| c.decompress())
    });
}

#[test]
fn stream_reader_survives_the_corruption_corpus() {
    let data = sample_f64();
    let mut file = Vec::new();
    let mut writer = alp::stream::ColumnWriter::<f64, _>::new(&mut file);
    writer.push(&data).unwrap();
    writer.finish().unwrap();

    let read_all = |bytes: &[u8]| -> Result<usize, alp::stream::StreamError> {
        let mut reader = alp::stream::ColumnReader::<f64, _>::new(bytes)?;
        let mut total = 0;
        while let Some(values) = reader.next_rowgroup()? {
            total += values.len();
        }
        Ok(total)
    };
    assert_decoder_robust(&file, 0x57EA, read_all);

    // The salvage path must also hold up: skip what it can, never panic.
    for case in corpus(&file, 0x57EB) {
        let Ok(mut reader) = alp::stream::ColumnReader::<f64, _>::new(&case.bytes[..]) else {
            continue;
        };
        while let Ok(Some(_)) = reader.next_rowgroup_salvaged() {}
    }
}
