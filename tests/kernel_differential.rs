//! One differential suite for the block-kernel stack: every width of
//! `bitpack` / `bitpack32` / `ffor`, both int→float conversions of the ALP
//! decode and scan kernels, and both passes of the encoder, each held to a
//! value-at-a-time reference written here (runtime-width bit extraction, one
//! float at a time, the cast conversions) or to `decode_vector_scalar`.
//!
//! The inputs sit on the edges the kernels branch on: all-ones residuals,
//! bases at `i64::MIN` / `i64::MAX` / `±2^50 ± 1` / `±2^51` (the per-vector
//! conversion choice flips between them), scaled magnitudes on either side of
//! `2^50` and NaNs (the encoder's fallback), exceptions on block edges, and
//! short tail vectors. Plus a proptest that the pruned `full_search` is the
//! exhaustive one.

use alp::decode::{decode_vector, decode_vector_scalar, decode_vector_unfused, scan_vector};
use alp::encode::{decode_one, encode_one, encode_vector, AlpVector, ExcArena};
use alp::sampler::{full_search, score_sample, Combination, SampleScore};
use alp::{AlpFloat, VECTOR_SIZE};
use fastlanes::{bitpack, bitpack32, ffor, packed_len};
use proptest::collection::vec;
use proptest::prelude::*;

/// Deterministic 64-bit mixer (splitmix64 finalizer).
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mask(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Residual patterns per width: random, all ones, and a ramp that puts a
/// different value next to every word boundary.
fn residual_patterns(width: usize) -> Vec<Vec<u64>> {
    let m = mask(width);
    vec![
        (0..VECTOR_SIZE as u64).map(|i| mix(i ^ (width as u64) << 32) & m).collect(),
        vec![m; VECTOR_SIZE],
        (0..VECTOR_SIZE as u64).map(|i| i.wrapping_mul(0x0101_0101_0101_0101) & m).collect(),
    ]
}

/// Value-at-a-time reference packer: value `i` occupies stream bits
/// `[i * width, (i + 1) * width)`, set one bit at a time.
fn reference_pack(values: &[u64], width: usize) -> Vec<u64> {
    let mut out = vec![0u64; packed_len(width)];
    for (i, &v) in values.iter().enumerate() {
        for b in 0..width {
            let bit = i * width + b;
            out[bit / 64] |= ((v >> b) & 1) << (bit % 64);
        }
    }
    out
}

/// Value-at-a-time reference extraction, one bit at a time.
fn reference_extract(packed: &[u64], width: usize, i: usize) -> u64 {
    (0..width).fold(0, |v, b| {
        let bit = i * width + b;
        v | ((packed[bit / 64] >> (bit % 64)) & 1) << b
    })
}

const BASES: [i64; 14] = [
    0,
    -987_654,
    i64::MIN,
    i64::MAX,
    (1 << 50) - 1,
    1 << 50,
    (1 << 50) + 1,
    -(1 << 50) - 1,
    -(1 << 50),
    -(1 << 50) + 1,
    1 << 51,
    -(1 << 51),
    (1 << 21) - 3,
    -(1 << 22),
];

#[test]
fn pack_and_unpack_match_the_bitwise_reference_at_every_width() {
    for width in 0..=64usize {
        for residuals in residual_patterns(width) {
            let packed = bitpack::pack(&residuals, width);
            assert_eq!(packed, reference_pack(&residuals, width), "pack, width {width}");
            let mut out = vec![u64::MAX; VECTOR_SIZE];
            bitpack::unpack(&packed, width, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, reference_extract(&packed, width, i), "unpack, width {width} [{i}]");
            }
            assert_eq!(out, residuals, "roundtrip, width {width}");
        }
    }
}

#[test]
fn pack_truncates_oversized_values_like_the_reference() {
    for width in 0..64usize {
        let wide: Vec<u64> = (0..VECTOR_SIZE as u64).map(mix).collect();
        let truncated: Vec<u64> = wide.iter().map(|&v| v & mask(width)).collect();
        assert_eq!(bitpack::pack(&wide, width), reference_pack(&truncated, width), "width {width}");
    }
}

#[test]
fn bitpack32_matches_the_bitwise_reference_at_every_width() {
    for width in 0..=32usize {
        for residuals in residual_patterns(width) {
            let narrow: Vec<u32> = residuals.iter().map(|&v| v as u32).collect();
            let packed = bitpack32::pack(&narrow, width);
            assert_eq!(packed.len(), bitpack32::packed_len32(width));
            // The u32 stream is the u64 stream read in halves, pad aside.
            let wide = reference_pack(&residuals, width);
            let halves: Vec<u32> =
                wide.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]).collect();
            assert_eq!(packed[..32 * width], halves[..32 * width], "pack32, width {width}");
            assert_eq!(packed[32 * width], 0, "pad word, width {width}");
            let mut out = vec![u32::MAX; VECTOR_SIZE];
            bitpack32::unpack(&packed, width, &mut out);
            assert_eq!(out, narrow, "unpack32, width {width}");
        }
    }
}

#[test]
fn ffor_matches_the_reference_at_every_width_and_extreme_bases() {
    for width in 0..=64usize {
        for residuals in residual_patterns(width) {
            let want_packed = reference_pack(&residuals, width);
            for base in BASES {
                let ints: Vec<i64> =
                    residuals.iter().map(|&r| r.wrapping_add(base as u64) as i64).collect();
                let packed = ffor::ffor_pack(&ints, base, width);
                assert_eq!(packed, want_packed, "ffor_pack, width {width} base {base}");
                let mut out = vec![0i64; VECTOR_SIZE];
                ffor::ffor_unpack(&packed, base, width, &mut out);
                assert_eq!(out, ints, "ffor_unpack, width {width} base {base}");
            }
        }
    }
}

/// Value-at-a-time scan oracle over decoded values: the contract chain
/// (`sum = sum + if hit { x } else { 0 }`), counts, min/max and both bitmaps.
#[allow(clippy::type_complexity)]
fn reference_scan(
    values: &[f64],
    lo: f64,
    hi: f64,
) -> (u64, usize, Option<u64>, Option<u64>, Vec<u64>, Vec<u64>) {
    let (mut sum, mut matches) = (0.0f64, 0usize);
    let (mut min, mut max): (Option<f64>, Option<f64>) = (None, None);
    let (mut valid, mut hits) = (vec![0u64; VECTOR_SIZE / 64], vec![0u64; VECTOR_SIZE / 64]);
    for (i, &x) in values.iter().enumerate() {
        let hit = x >= lo && x <= hi;
        sum += if hit { x } else { 0.0 };
        if !x.is_nan() {
            valid[i / 64] |= 1 << (i % 64);
        }
        if hit {
            matches += 1;
            hits[i / 64] |= 1 << (i % 64);
            min = Some(min.map_or(x, |m| if m <= x { m } else { x }));
            max = Some(max.map_or(x, |m| if m >= x { m } else { x }));
        }
    }
    (sum.to_bits(), matches, min.map(f64::to_bits), max.map(f64::to_bits), valid, hits)
}

/// Holds all three decoders and the fused scan to `decode_vector_scalar` on
/// one hand-built vector.
fn check_decoders<F: AlpFloat>(v: &AlpVector, arena: &ExcArena, what: &str) {
    let exc = arena.view(v);
    let zero = F::from_i64(0);
    let (mut scalar, mut fused, mut unfused) =
        (vec![zero; VECTOR_SIZE], vec![zero; VECTOR_SIZE], vec![zero; VECTOR_SIZE]);
    let mut scratch = vec![0i64; VECTOR_SIZE];
    let n = decode_vector_scalar(v, exc, &mut scalar);
    assert_eq!(decode_vector(v, exc, &mut fused), n, "{what}");
    assert_eq!(decode_vector_unfused(v, exc, &mut scratch, &mut unfused), n, "{what}");
    for i in 0..n {
        let want = scalar[i].to_bits_u64();
        assert_eq!(fused[i].to_bits_u64(), want, "{what}: decode_vector [{i}]");
        assert_eq!(unfused[i].to_bits_u64(), want, "{what}: decode_vector_unfused [{i}]");
    }
}

fn check_scan(v: &AlpVector, arena: &ExcArena, what: &str) {
    let exc = arena.view(v);
    let mut scalar = vec![0.0f64; VECTOR_SIZE];
    let n = decode_vector_scalar(v, exc, &mut scalar);
    let mut sorted: Vec<f64> = scalar[..n].iter().copied().filter(|x| !x.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    let bands = [
        (f64::NEG_INFINITY, f64::INFINITY),
        (1.0, 0.0),
        match sorted.len() {
            0 => (0.0, 0.0),
            len => (sorted[len / 4], sorted[3 * len / 4]),
        },
    ];
    for (lo, hi) in bands {
        let scan = scan_vector(v, exc, lo, hi, true);
        let (sum, matches, min, max, valid, hits) = reference_scan(&scalar[..n], lo, hi);
        assert_eq!(scan.len, n, "{what}");
        assert_eq!(scan.sum.to_bits(), sum, "{what}: sum over [{lo}, {hi}]");
        assert_eq!(scan.matches, matches, "{what}: matches over [{lo}, {hi}]");
        assert_eq!(scan.min.map(f64::to_bits), min, "{what}: min");
        assert_eq!(scan.max.map(f64::to_bits), max, "{what}: max");
        assert_eq!(scan.valid[..], valid[..], "{what}: validity bitmap");
        assert_eq!(scan.hits[..], hits[..], "{what}: selection bitmap");
    }
}

/// A vector built field by field (no encoder in the loop): `residuals` packed
/// at `width` over `base`, exceptions at `positions`.
fn hand_built(
    residuals: &[u64],
    width: usize,
    base: i64,
    (e, f): (u8, u8),
    len: usize,
    positions: &[u16],
    exception_bits: impl Fn(usize) -> u64,
) -> (AlpVector, ExcArena) {
    let mut arena = ExcArena::new();
    for (k, &p) in positions.iter().enumerate() {
        arena.push(p, exception_bits(k));
    }
    let v = AlpVector {
        exponent: e,
        factor: f,
        bit_width: width as u8,
        for_base: base,
        packed: reference_pack(residuals, width),
        exc_start: 0,
        exc_count: positions.len() as u16,
        len: len as u16,
    };
    (v, arena)
}

/// Exception positions on every side of a block edge, plus the vector's ends.
const EDGE_POSITIONS: [u16; 10] = [0, 1, 62, 63, 64, 65, 127, 128, 959, 1023];

/// Exception payloads: NaNs with payloads, infinities, zeros, a subnormal.
const F64_PAYLOADS: [u64; 7] = [
    0x7FF8_DEAD_BEEF_0001,
    0xFFF0_0000_0000_0001,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x0000_0000_0000_0001,
];

#[test]
fn decode_and_scan_match_the_scalar_decoder_at_every_width_and_base() {
    for width in 0..=64usize {
        let residuals = &residual_patterns(width)[..2];
        for (r, residuals) in residuals.iter().enumerate() {
            for (b, &base) in BASES.iter().enumerate() {
                // Rotate the remaining axes instead of crossing them: every
                // (width, base) pair runs, every (e, f) / length / exception
                // shape runs at many widths.
                let combo = [(14, 12), (0, 0), (21, 3), (6, 6)][(width + b) % 4];
                let len = [VECTOR_SIZE, 1, 63, 65, 1000][(width + b + r) % 5];
                let positions: Vec<u16> = match (width + b) % 3 {
                    0 => Vec::new(),
                    _ => EDGE_POSITIONS.iter().copied().filter(|&p| (p as usize) < len).collect(),
                };
                let payload = |k: usize| F64_PAYLOADS[(k + width) % F64_PAYLOADS.len()];
                let (v, arena) =
                    hand_built(residuals, width, base, combo, len, &positions, payload);
                let what = format!("width {width} base {base} (e,f) {combo:?} len {len}");
                check_decoders::<f64>(&v, &arena, &what);
                check_scan(&v, &arena, &what);
            }
        }
    }
}

#[test]
fn f32_decode_matches_the_scalar_decoder_around_its_conversion_limit() {
    // ±2^21 is where the f32 conversion choice flips; 2^22 is the edge of the
    // f32 sweet spot itself.
    let bases: [i64; 10] = [
        0,
        (1 << 21) - 1,
        1 << 21,
        (1 << 21) + 1,
        -(1 << 21),
        -(1 << 21) - 1,
        1 << 22,
        -(1 << 22),
        i64::MAX,
        i64::MIN,
    ];
    for width in 0..=64usize {
        for residuals in &residual_patterns(width)[..2] {
            for (b, &base) in bases.iter().enumerate() {
                let combo = [(5, 2), (0, 0), (10, 0)][(width + b) % 3];
                let len = [VECTOR_SIZE, 7, 64][(width + b) % 3];
                let positions: Vec<u16> =
                    EDGE_POSITIONS.iter().copied().filter(|&p| (p as usize) < len).collect();
                let payload = |k: usize| [0x7FC0_1234u64, 0x8000_0000, 0x7F80_0000, 1][k % 4];
                let (v, arena) =
                    hand_built(residuals, width, base, combo, len, &positions, payload);
                check_decoders::<f32>(&v, &arena, &format!("f32 width {width} base {base}"));
            }
        }
    }
}

/// The encoder as Algorithm 1 states it, one value at a time through the
/// cast conversions — what `encode_vector_into` must reproduce field for
/// field, whichever pass it takes.
fn reference_encode<F: AlpFloat>(input: &[F], e: u8, f: u8) -> (AlpVector, Vec<u16>, Vec<u64>) {
    let mut encoded: Vec<i64> = input.iter().map(|&n| encode_one(n, e, f)).collect();
    let positions: Vec<u16> = (0..input.len())
        .filter(|&i| {
            let dec: F = decode_one(encoded[i], e, f);
            dec.to_bits_u64() != input[i].to_bits_u64()
        })
        .map(|i| i as u16)
        .collect();
    let values: Vec<u64> = positions.iter().map(|&p| input[p as usize].to_bits_u64()).collect();
    let first =
        (0..input.len()).find(|&i| !positions.contains(&(i as u16))).map_or(0, |i| encoded[i]);
    for &p in &positions {
        encoded[p as usize] = first;
    }
    encoded.resize(VECTOR_SIZE, first);
    let (min, max) = (*encoded.iter().min().unwrap(), *encoded.iter().max().unwrap());
    let width = fastlanes::bits_needed((max as u64).wrapping_sub(min as u64));
    let residuals: Vec<u64> =
        encoded.iter().map(|&d| (d as u64).wrapping_sub(min as u64)).collect();
    let v = AlpVector {
        exponent: e,
        factor: f,
        bit_width: width as u8,
        for_base: min,
        packed: reference_pack(&residuals, width),
        exc_start: 0,
        exc_count: positions.len() as u16,
        len: input.len() as u16,
    };
    (v, positions, values)
}

fn check_encoder<F: AlpFloat>(input: &[F], e: u8, f: u8, what: &str) {
    let got = encode_vector(input, e, f);
    let (want, positions, values) = reference_encode(input, e, f);
    assert_eq!(got.vector, want, "{what}: vector fields");
    assert_eq!(got.exc_positions(), positions, "{what}: exception positions");
    assert_eq!(got.exc_values(), values, "{what}: exception values");
    let mut out = vec![F::from_i64(0); VECTOR_SIZE];
    assert_eq!(decode_vector(&got, got.view(), &mut out), input.len(), "{what}");
    for (i, (&a, &b)) in input.iter().zip(&out).enumerate() {
        assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{what}: roundtrip [{i}]");
    }
}

/// Clean decimals: no exceptions at (14, 12), scaled magnitudes far below 2^50.
fn decimals(len: usize) -> Vec<f64> {
    (0..len).map(|i| (mix(i as u64) % 200_000) as f64 / 100.0 - 1000.0).collect()
}

#[test]
fn encoder_matches_algorithm_1_on_both_passes() {
    let specials = [
        f64::NAN,
        f64::from_bits(0x7FF8_DEAD_BEEF_0001),
        f64::from_bits(0xFFF0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::from_bits(1),
        -f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        std::f64::consts::PI,
    ];
    for len in [VECTOR_SIZE, 1, 3, 63, 64, 65, 1000] {
        let clean = decimals(len);
        check_encoder(&clean, 14, 12, &format!("clean decimals, len {len}"));
        check_encoder(&clean, 0, 0, &format!("decimals at (0,0), len {len}"));
        check_encoder(&clean, 21, 0, &format!("decimals scaled past 2^50, len {len}"));

        // One special at a time on a block edge: the non-finite ones (and
        // f64::MAX) push the whole vector onto the cast pass, the zeros and
        // the subnormals stay on the sweet pass as exceptions.
        for (k, &special) in specials.iter().enumerate() {
            let mut data = clean.clone();
            let at = EDGE_POSITIONS[k % EDGE_POSITIONS.len()] as usize % len;
            data[at] = special;
            check_encoder(&data, 14, 12, &format!("special {special:e} at {at}, len {len}"));
        }

        // Exceptions on every block edge at once, first value included.
        let mut edges = clean.clone();
        for &p in EDGE_POSITIONS.iter().filter(|&&p| (p as usize) < len) {
            edges[p as usize] = std::f64::consts::E * (p as f64 + 1.0);
        }
        check_encoder(&edges, 14, 12, &format!("edge exceptions, len {len}"));

        // Every value an exception.
        let noise: Vec<f64> = (0..len).map(|i| (i as f64 + 0.1).sqrt().sin()).collect();
        check_encoder(&noise, 14, 0, &format!("all exceptions, len {len}"));
    }
}

#[test]
fn encoder_matches_algorithm_1_across_the_sweet_spot_edges() {
    // Half-integers in [-2^52, -2^51): exactly representable, they round to
    // even and sit beyond both the 2^50 limit of the sweet pass and the 2^51
    // limit of fast rounding itself.
    let half_integers: Vec<f64> = (0..VECTOR_SIZE)
        .map(|i| -((1u64 << 51) as f64) - 0.5 - (mix(i as u64) % 4096) as f64)
        .collect();
    assert!(half_integers.iter().all(|x| x.fract() == -0.5 && *x >= -((1u64 << 52) as f64)));
    check_encoder(&half_integers, 0, 0, "half-integers below -2^51");

    // Integers straddling ±2^50 at (0, 0): below the limit the sweet pass
    // encodes them, at and above it the cast pass does, and the two must
    // agree on every field.
    for centre in [1i64 << 50, -(1i64 << 50), 1 << 51, -(1 << 51)] {
        for spread in [1i64, 2, 1000] {
            let data: Vec<f64> = (0..VECTOR_SIZE as i64)
                .map(|i| (centre + (i % (2 * spread + 1)) - spread) as f64)
                .collect();
            check_encoder(&data, 0, 0, &format!("integers around {centre} ± {spread}"));
            let below: Vec<f64> =
                data.iter().map(|x| x - x.signum() * (spread + 1) as f64).collect();
            check_encoder(&below, 0, 0, &format!("integers just inside {centre}"));
        }
    }

    // The same edges for f32: 2^21 (sweet-pass limit) and 2^22 (fast rounding).
    for centre in [1i64 << 21, -(1i64 << 21), 1 << 22, -(1 << 22)] {
        let data: Vec<f32> = (0..VECTOR_SIZE as i64).map(|i| (centre + i % 5 - 2) as f32).collect();
        check_encoder(&data, 0, 0, &format!("f32 integers around {centre}"));
    }
    let f32_decimals: Vec<f32> =
        (0..VECTOR_SIZE).map(|i| (mix(i as u64) % 20_000) as f32 / 100.0).collect();
    check_encoder(&f32_decimals, 5, 3, "f32 decimals");
    let mut f32_specials = f32_decimals.clone();
    f32_specials[63] = f32::from_bits(0x7FC0_1234);
    f32_specials[64] = -0.0;
    f32_specials[1023] = f32::from_bits(1);
    check_encoder(&f32_specials, 5, 3, "f32 decimals with specials on block edges");
}

/// `full_search` without the abandon: every combination scored to the end.
fn exhaustive_search<F: AlpFloat>(sample: &[F]) -> (Combination, SampleScore) {
    let mut best =
        (Combination { e: 0, f: 0 }, SampleScore { bits: usize::MAX, exceptions: usize::MAX });
    for e in 0..=F::MAX_EXPONENT {
        for f in 0..=e {
            let score = score_sample(sample, e, f);
            if score.bits <= best.1.bits {
                best = (Combination { e, f }, score);
            }
        }
    }
    best
}

#[test]
fn pruned_full_search_equals_the_exhaustive_one_on_every_dataset() {
    for (name, data) in datagen::all_datasets(8 * VECTOR_SIZE, 20240609) {
        for (k, window) in data.chunks(32).enumerate().step_by(7) {
            assert_eq!(full_search(window), exhaustive_search(window), "{name}, window {k}");
        }
        let floats: Vec<f32> = data.iter().take(2048).map(|&x| x as f32).collect();
        for (k, window) in floats.chunks(32).enumerate().step_by(5) {
            assert_eq!(full_search(window), exhaustive_search(window), "{name} as f32, window {k}");
        }
    }
}

/// Values that move the running bound late or tie it: mostly one decimal
/// population, with outliers, specials and a second population at the end.
fn adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => (any::<i16>(), 0u32..4).prop_map(|(d, p)| d as f64 / 10f64.powi(p as i32)),
        1 => (any::<i64>(), 0u32..19).prop_map(|(d, p)| d as f64 / 10f64.powi(p as i32)),
        1 => any::<u64>().prop_map(f64::from_bits),
        1 => (0u8..4).prop_map(|k| [0.0, -0.0, f64::NAN, 1e300][k as usize]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_full_search_equals_the_exhaustive_one_on_adversarial_samples(
        head in vec(adversarial_f64(), 0..40),
        tail in vec(any::<u64>().prop_map(f64::from_bits), 0..6),
    ) {
        let sample: Vec<f64> = head.into_iter().chain(tail).collect();
        prop_assert_eq!(full_search(&sample), exhaustive_search(&sample));
        let narrow: Vec<f32> = sample.iter().map(|&x| x as f32).collect();
        prop_assert_eq!(full_search(&narrow), exhaustive_search(&narrow));
    }
}
