//! Property-based losslessness: every scheme must reproduce *arbitrary*
//! `f64`/`f32` bit patterns exactly — NaN payloads, ±0, infinities,
//! subnormals — regardless of vector boundaries and input lengths.

use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary doubles by bit pattern (covers every NaN payload, both zeros,
/// infinities and subnormals — not just "reasonable" values).
fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Decimal-flavored doubles (the data ALP targets).
fn decimal_f64() -> impl Strategy<Value = f64> {
    (any::<i32>(), 0u32..10).prop_map(|(d, p)| d as f64 / 10f64.powi(p as i32))
}

/// Mixed: mostly decimals with arbitrary bit patterns sprinkled in.
fn mixed_f64() -> impl Strategy<Value = f64> {
    prop_oneof![4 => decimal_f64(), 1 => any_f64()]
}

fn assert_bits_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alp_compressor_is_lossless(data in vec(mixed_f64(), 0..5000)) {
        let compressed = alp::Compressor::new().compress(&data);
        assert_bits_eq(&data, &compressed.decompress());
    }

    #[test]
    fn alp_handles_pure_noise(data in vec(any_f64(), 1..3000)) {
        let compressed = alp::Compressor::new().compress(&data);
        assert_bits_eq(&data, &compressed.decompress());
    }

    #[test]
    fn alp_format_roundtrips(data in vec(mixed_f64(), 0..4000)) {
        let compressed = alp::Compressor::new().compress(&data);
        let bytes = alp::format::to_bytes(&compressed);
        let restored = alp::format::from_bytes::<f64>(&bytes).unwrap();
        assert_bits_eq(&data, &restored.decompress());
    }

    #[test]
    fn cascade_is_lossless(data in vec(mixed_f64(), 0..3000)) {
        let compressed = alp::cascade::CascadeCompressor::new().compress(&data);
        assert_bits_eq(&data, &compressed.decompress());
    }

    #[test]
    fn encode_vector_is_lossless_for_any_combo(
        data in vec(any_f64(), 1..1024),
        e in 0u8..=21,
        f_rel in 0u8..=21,
    ) {
        let f = f_rel.min(e);
        let v = alp::encode::encode_vector(&data, e, f);
        let mut out = vec![0.0f64; alp::VECTOR_SIZE];
        let n = alp::decode::decode_vector(&v, v.view(), &mut out);
        assert_eq!(n, data.len());
        assert_bits_eq(&data, &out[..n]);
    }

    #[test]
    fn gorilla_is_lossless(data in vec(any_f64(), 0..2000)) {
        let bytes = codecs::gorilla::compress_f64(&data);
        assert_bits_eq(&data, &codecs::gorilla::try_decompress_f64(&bytes, data.len()).unwrap());
    }

    #[test]
    fn chimp_is_lossless(data in vec(any_f64(), 0..2000)) {
        let bytes = codecs::chimp::compress_f64(&data);
        assert_bits_eq(&data, &codecs::chimp::try_decompress_f64(&bytes, data.len()).unwrap());
    }

    #[test]
    fn chimp128_is_lossless(data in vec(any_f64(), 0..2000)) {
        let bytes = codecs::chimp128::compress_f64(&data);
        assert_bits_eq(&data, &codecs::chimp128::try_decompress_f64(&bytes, data.len()).unwrap());
    }

    #[test]
    fn patas_is_lossless(data in vec(any_f64(), 0..2000)) {
        let bytes = codecs::patas::compress_f64(&data);
        assert_bits_eq(&data, &codecs::patas::try_decompress_f64(&bytes, data.len()).unwrap());
    }

    #[test]
    fn elf_is_lossless(data in vec(mixed_f64(), 0..800)) {
        let bytes = codecs::elf::compress(&data);
        assert_bits_eq(&data, &codecs::elf::try_decompress(&bytes, data.len()).unwrap());
    }

    #[test]
    fn pde_is_lossless(data in vec(mixed_f64(), 0..2000)) {
        let bytes = codecs::pde::compress(&data);
        assert_bits_eq(&data, &codecs::pde::try_decompress(&bytes, data.len()).unwrap());
    }

    #[test]
    fn gpzip_is_lossless(data in vec(any::<u8>(), 0..60_000)) {
        let z = gpzip::compress(&data);
        prop_assert_eq!(gpzip::try_decompress(&z).unwrap(), data);
    }

    #[test]
    fn f32_codecs_are_lossless(bits in vec(any::<u32>(), 0..1500)) {
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        for codec in [codecs::Codec::Gorilla, codecs::Codec::Chimp, codecs::Codec::Chimp128, codecs::Codec::Patas] {
            let bytes = codec.compress_f32(&data).unwrap();
            let back = codec.decompress_f32(&bytes, data.len()).unwrap();
            for (a, b) in data.iter().zip(&back) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", codec.name());
            }
        }
    }

    #[test]
    fn alp_f32_is_lossless(bits in vec(any::<u32>(), 0..3000)) {
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let compressed = alp::Compressor::new().compress(&data);
        let back = compressed.decompress();
        for (a, b) in data.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bitpack_roundtrips_any_width(
        values in vec(any::<u64>(), 1024..=1024),
        width in 0usize..=64,
    ) {
        let mask = if width == 64 { u64::MAX } else if width == 0 { 0 } else { (1 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        let packed = fastlanes::bitpack::pack(&masked, width);
        let mut out = vec![0u64; 1024];
        fastlanes::bitpack::unpack(&packed, width, &mut out);
        prop_assert_eq!(out, masked);
    }

    #[test]
    fn bitpack32_roundtrips_any_width(
        values in vec(any::<u32>(), 1024..=1024),
        width in 0usize..=32,
    ) {
        let mask = if width == 32 { u32::MAX } else if width == 0 { 0 } else { (1 << width) - 1 };
        let masked: Vec<u32> = values.iter().map(|&v| v & mask).collect();
        let packed = fastlanes::bitpack32::pack(&masked, width);
        let mut out = vec![0u32; 1024];
        fastlanes::bitpack32::unpack(&packed, width, &mut out);
        prop_assert_eq!(out, masked);
    }

    #[test]
    fn interleaved_roundtrips_any_width(
        values in vec(any::<u64>(), 1024..=1024),
        width in 0usize..=64,
    ) {
        let mask = if width == 64 { u64::MAX } else if width == 0 { 0 } else { (1 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        let packed = fastlanes::interleaved::pack(&masked, width);
        let mut out = vec![0u64; 1024];
        fastlanes::interleaved::unpack(&packed, width, &mut out);
        prop_assert_eq!(out, masked);
    }

    #[test]
    fn fpc_is_lossless(data in vec(any_f64(), 0..2000)) {
        let bytes = codecs::fpc::compress(&data);
        assert_bits_eq(&data, &codecs::fpc::try_decompress(&bytes, data.len()).unwrap());
    }

    #[test]
    fn gpzip_fast_is_lossless(data in vec(any::<u8>(), 0..60_000)) {
        let z = gpzip::fast::compress(&data);
        prop_assert_eq!(gpzip::fast::try_decompress(&z).unwrap(), data);
    }

    #[test]
    fn stream_roundtrips_mixed(data in vec(mixed_f64(), 0..4000)) {
        let mut file = Vec::new();
        let mut w = alp::stream::ColumnWriter::<f64, _>::new(&mut file);
        w.push(&data).unwrap();
        w.finish().unwrap();
        let mut r = alp::stream::ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = r.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_bits_eq(&data, &restored);
    }

    #[test]
    fn ffor_roundtrips_any_i64(values in vec(any::<i64>(), 1024..=1024)) {
        let (base, width, packed) = fastlanes::ffor::ffor(&values);
        let mut out = vec![0i64; 1024];
        fastlanes::ffor::ffor_unpack(&packed, base, width, &mut out);
        prop_assert_eq!(out, values);
    }
}
