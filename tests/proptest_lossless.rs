//! Every scheme reproduces *arbitrary* bit patterns exactly, whatever the
//! vector boundaries and lengths — names the test floor pins. The codec-level
//! ones are slices of the differential driver's table (`tests/differential.rs`
//! runs all of it; DESIGN.md §17) over its seeded arbitrary columns; the
//! kernel-level ones sweep every width with seeded values.

mod driver;

use alp_repro::corruption::SplitMix64;
use driver::*;

fn noise<F: Float>() -> Vec<Input<F>> {
    arbitrary_of("noise", 16, 3000)
}

fn mixed<F: Float>() -> Vec<Input<F>> {
    arbitrary_of("mixed", 16, 5000)
}

lossless_tests! {
    alp_compressor_is_lossless: f64, [alp_column()], mixed();
    alp_handles_pure_noise: f64, [alp_column()], noise();
    alp_format_roundtrips: f64, [alp_bytes(false)], mixed();
    alp_f32_is_lossless: f32, [alp_column()], noise();
    stream_roundtrips_mixed: f64, [alp_stream(false)], mixed();
    cascade_is_lossless: f64, [codec_named("lwc-alp")], mixed();
    gorilla_is_lossless: f64, [codec_named("gorilla")], noise();
    chimp_is_lossless: f64, [codec_named("chimp")], noise();
    chimp128_is_lossless: f64, [codec_named("chimp128")], noise();
    patas_is_lossless: f64, [codec_named("patas")], noise();
    fpc_is_lossless: f64, [codec_named("fpc")], noise();
    elf_is_lossless: f64, [codec_named("elf")], arbitrary_of("mixed", 16, 800);
    pde_is_lossless: f64, [codec_named("pde")], mixed();
    gpzip_is_lossless: f64, [codec_named("gpzip")], noise();
    gpzip_fast_is_lossless: f64, [codec_named("gpzip-fast")], noise();
    f32_codecs_are_lossless: f32, codecs(), noise();
}

#[test]
fn encode_vector_is_lossless_for_any_combo() {
    let mut rng = SplitMix64::new(seed());
    for input in noise::<f64>().iter().filter(|input| !input.values.is_empty()) {
        let data = &input.values[..input.values.len().min(alp::VECTOR_SIZE)];
        let e = rng.below(22) as u8;
        let f = (rng.below(22) as u8).min(e);
        let vector = alp::encode::encode_vector(data, e, f);
        let mut out = vec![0.0f64; alp::VECTOR_SIZE];
        let n = alp::decode::decode_vector(&vector, vector.view(), &mut out);
        let same = data.iter().zip(&out[..n]).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(n == data.len() && same, "{} at e={e} f={f}", input.name);
    }
}

/// 1024 seeded words masked to `width` bits, for each width `0..=64`.
fn words_at_every_width() -> impl Iterator<Item = (usize, Vec<u64>)> {
    let mut rng = SplitMix64::new(seed());
    (0..=64).map(move |width| {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        (width, (0..1024).map(|_| rng.next_u64() & mask).collect())
    })
}

#[test]
fn bitpack_roundtrips_any_width() {
    for (width, values) in words_at_every_width() {
        let mut out = vec![0u64; 1024];
        fastlanes::bitpack::unpack(&fastlanes::bitpack::pack(&values, width), width, &mut out);
        assert_eq!(out, values, "width {width}");
    }
}

#[test]
fn interleaved_roundtrips_any_width() {
    for (width, values) in words_at_every_width() {
        let mut out = vec![0u64; 1024];
        let packed = fastlanes::interleaved::pack(&values, width);
        fastlanes::interleaved::unpack(&packed, width, &mut out);
        assert_eq!(out, values, "width {width}");
    }
}

#[test]
fn ffor_roundtrips_any_i64() {
    for (width, values) in words_at_every_width() {
        let values: Vec<i64> = values.iter().map(|&v| (v as i64).wrapping_sub(1 << 40)).collect();
        let (base, packed_width, packed) = fastlanes::ffor::ffor(&values);
        let mut out = vec![0i64; 1024];
        fastlanes::ffor::ffor_unpack(&packed, base, packed_width, &mut out);
        assert_eq!(out, values, "range of {width} bits");
    }
}
