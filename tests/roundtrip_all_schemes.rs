//! Integration: every compression scheme in the repository must be bit-exact
//! lossless on every synthetic dataset.

use bench_support::assert_bits_eq;

mod bench_support {
    pub fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: value {i}");
        }
    }
}

const N: usize = 20_000;
const SEED: u64 = 99;

#[test]
fn alp_roundtrips_every_dataset() {
    for ds in &datagen::DATASETS {
        let data = datagen::generate(ds.name, N, SEED);
        let compressed = alp::Compressor::new().compress(&data);
        assert_bits_eq(&data, &compressed.decompress(), ds.name);
    }
}

#[test]
fn alp_serialized_roundtrips_every_dataset() {
    for ds in &datagen::DATASETS {
        let data = datagen::generate(ds.name, N, SEED);
        let compressed = alp::Compressor::new().compress(&data);
        let bytes = alp::format::to_bytes(&compressed);
        let restored = alp::format::from_bytes::<f64>(&bytes).expect(ds.name);
        assert_bits_eq(&data, &restored.decompress(), ds.name);
    }
}

#[test]
fn cascade_roundtrips_every_dataset() {
    for ds in &datagen::DATASETS {
        let data = datagen::generate(ds.name, N, SEED);
        let compressed = alp::cascade::CascadeCompressor::new().compress(&data);
        assert_bits_eq(&data, &compressed.decompress(), ds.name);
    }
}

#[test]
fn every_codec_roundtrips_every_dataset() {
    for ds in &datagen::DATASETS {
        let data = datagen::generate(ds.name, N, SEED);
        for codec in codecs::Codec::ALL {
            let bytes = codec.compress_f64(&data);
            let back = codec.try_decompress_f64(&bytes, data.len()).unwrap();
            assert_bits_eq(&data, &back, &format!("{} on {}", codec.name(), ds.name));
        }
    }
}

#[test]
fn gpzip_roundtrips_every_dataset() {
    for ds in &datagen::DATASETS {
        let data = datagen::generate(ds.name, N, SEED);
        let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let z = gpzip::compress(&raw);
        assert_eq!(gpzip::try_decompress(&z).unwrap(), raw, "{}", ds.name);
    }
}

#[test]
fn alp_never_expands_catastrophically() {
    // Even on the worst inputs (real doubles) ALP_rd keeps the footprint close
    // to the raw 64 bits + small headers.
    for ds in &datagen::DATASETS {
        let data = datagen::generate(ds.name, N, SEED);
        let compressed = alp::Compressor::new().compress(&data);
        assert!(
            compressed.bits_per_value() < 68.0,
            "{}: {:.1} bits/value",
            ds.name,
            compressed.bits_per_value()
        );
    }
}

#[test]
fn f32_alp_roundtrips_ml_weights() {
    let weights = datagen::ml_weights_f32(150_000, SEED);
    let compressed = alp::Compressor::new().compress(&weights);
    let back = compressed.decompress();
    for (a, b) in weights.iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(compressed.bits_per_value() < 33.0);
}

#[test]
fn f32_codecs_roundtrip_ml_weights() {
    let weights = datagen::ml_weights_f32(60_000, SEED);
    for codec in [
        codecs::Codec::Gorilla,
        codecs::Codec::Chimp,
        codecs::Codec::Chimp128,
        codecs::Codec::Patas,
    ] {
        let bytes = codec.compress_f32(&weights).unwrap();
        let back = codec.decompress_f32(&bytes, weights.len()).unwrap();
        for (i, (a, b)) in weights.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{} idx {i}", codec.name());
        }
    }
}
