//! One differential suite for the block-kernel stack: every width of
//! `bitpack` / `ffor`, both int→float conversions of the ALP
//! decode and scan kernels, and both passes of the encoder, each held to a
//! value-at-a-time reference written here (runtime-width bit extraction, one
//! float at a time, the cast conversions) or to `decode_vector_scalar`.
//!
//! It also holds the workspace's one predicated sum to its *definition*
//! (DESIGN.md §14), restated here a value at a time with no call into the
//! primitive — lane `i % 8` within a 64-value block, the fixed combine tree,
//! block sums folded per vector, vector sums folded per column — across every
//! route that claims it: `block_sum` / `block_sum_all` themselves at every
//! block length, `scan_vector`, `scan_decoded`, the aggregate-only
//! `sum_vector` / `sum_decoded`, the oracle `scan_values`, and
//! `Column::sum_where` (`FilteredSum`) over raw, ALP and codec-byte storage.
//!
//! Both word sources of the block kernels are held to each other: `unpack64`
//! over little-endian bytes against `unpack64` over words at every width and
//! block, and `decode` / `scan` / `sum` over a wire view (the vector
//! serialized as a one-vector row-group body and parsed back) against the
//! same references as the owned vector, on the whole matrix.
//!
//! The write side gets the same treatment: the row-group *body* each scheme's
//! values → frame-bytes encoder writes (`format::encode_alp_body` /
//! `encode_rd_body`, the stream writers' path) is held byte for byte to a
//! value-at-a-time reference written here from the layout in `format.rs`'s
//! module docs (linear dictionary search, bit-at-a-time packing), with the
//! owned path — `write_rowgroup` over `encode_rd_vector` / `encode_vector_into`
//! — as a second witness, for `f64` and `f32`.
//!
//! The inputs sit on the edges the kernels branch on: all-ones residuals,
//! bases at `i64::MIN` / `i64::MAX` / `±2^50 ± 1` / `±2^51` (the per-vector
//! conversion choice flips between them), scaled magnitudes on either side of
//! `2^50` and NaNs (the encoder's fallback), exceptions on block edges, and
//! short tail vectors. Every kernel check runs at both instruction tiers
//! (`fastlanes::tier`: x86-64-v3 when the CPU has it, and the baseline), every
//! block kernel is asked which tier's copy it calls, and the tiers are held
//! to each other on every dataset: same body bytes, same decoded bits, same
//! sums. Plus a seeded property that the pruned `full_search` is the
//! exhaustive one, the soundness of the per-shift exception bound that prunes
//! it, and the compressor's decide-first plan held to the finished level 1.

use alp::decode::{
    block_sum, block_sum_all, decode_vector, decode_vector_scalar, decode_vector_unfused,
    scan_decoded, scan_vector, sum_decoded, sum_vector, BlockPlan, VectorScan,
};
use alp::encode::{
    decode_one, encode_one, encode_vector, encode_vector_into, AlpVector, ExcArena, ExcView,
};
use alp::format::{
    decode_rowgroup_into, encode_alp_body, encode_rd_body, write_rowgroup, AlpVectorView,
    RowGroupView, VectorView,
};
use alp::rd::{choose_cut, encode_rd_vector, RdEncoder, RdMeta};
use alp::rowgroup::{AlpGroup, EncodeScratch};
use alp::sampler::{
    first_level, full_search, is_definite_exception, score_sample, second_level, Combination,
    SampleScore, SamplerParams,
};
use alp::{AlpFloat, Compressor, SamplerStats, VECTOR_SIZE};
use alp_core::scan::{scan_values, ScanAgg, ScanPredicate, ScanResult};
use alp_repro::corruption::SplitMix64;
use fastlanes::tier::{self, Tier};
use fastlanes::{bitpack, ffor, packed_len};
use vectorq::{Column, Format, ZoneMap};

mod driver;

/// Runs `check` at each instruction tier of `fastlanes::tier` — v3 (when the
/// CPU has it), then held to the baseline — so every reference below holds
/// the kernels at both. `capped` serializes its callers, so each run is at
/// the tier it names.
fn at_every_tier(check: impl Fn()) {
    for t in [Tier::V3, Tier::Baseline] {
        tier::capped(t, &check);
    }
}

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
    at_every_tier(|| {
        for width in 0..=64usize {
            for residuals in residual_patterns(width) {
                let packed = bitpack::pack(&residuals, width);
                assert_eq!(packed, reference_pack(&residuals, width), "pack, width {width}");
                let mut out = vec![u64::MAX; VECTOR_SIZE];
                bitpack::unpack(&packed, width, &mut out);
                for (i, &v) in out.iter().enumerate() {
                    assert_eq!(
                        v,
                        reference_extract(&packed, width, i),
                        "unpack, width {width} [{i}]"
                    );
                }
                assert_eq!(out, residuals, "roundtrip, width {width}");
            }
        }
    });
}

#[test]
fn unpack_from_le_bytes_matches_unpack_from_words_at_every_width_and_block() {
    at_every_tier(|| {
        for width in 0..=64usize {
            let (from_words, from_bytes) =
                (bitpack::unpacker::<u64>(width), bitpack::unpacker::<[u8; 8]>(width));
            for residuals in residual_patterns(width) {
                let packed = bitpack::pack(&residuals, width);
                // The stream as a file holds it: no pad word, no alignment.
                let mut bytes = vec![0xA5u8; 3];
                bytes.extend(packed[..16 * width].iter().flat_map(|w| w.to_le_bytes()));
                let (chunks, tail) = bytes[3..].as_chunks::<8>();
                assert!(tail.is_empty());
                for block in 0..VECTOR_SIZE / bitpack::BLOCK {
                    let (mut a, mut b) = ([u64::MAX; bitpack::BLOCK], [u64::MAX; bitpack::BLOCK]);
                    from_words.call(bitpack::block_words(&packed, width, block), &mut a);
                    from_bytes.call(bitpack::block_words(chunks, width, block), &mut b);
                    assert_eq!(a, b, "width {width} block {block}");
                    assert_eq!(a[..], residuals[64 * block..64 * block + 64], "width {width}");
                }
            }
        }
    });
}

#[test]
fn pack_truncates_oversized_values_like_the_reference() {
    at_every_tier(|| {
        for width in 0..64usize {
            let wide: Vec<u64> = (0..VECTOR_SIZE as u64).map(mix).collect();
            let truncated: Vec<u64> = wide.iter().map(|&v| v & mask(width)).collect();
            assert_eq!(
                bitpack::pack(&wide, width),
                reference_pack(&truncated, width),
                "width {width}"
            );
        }
    });
}

#[test]
fn ffor_matches_the_reference_at_every_width_and_extreme_bases() {
    at_every_tier(|| {
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
    });
}

/// What a scan of one vector must report, bit patterns widened to `u64`.
#[derive(Debug, PartialEq)]
struct Expected {
    sum: u64,
    matches: usize,
    nans: usize,
    min: Option<u64>,
    max: Option<u64>,
    valid: Vec<u64>,
    hits: Vec<u64>,
}

/// The canonical sum of one vector as DESIGN.md §14 *defines* it, one value
/// at a time: within each 64-value block, live value `i` joins lane `i % 8`
/// (lanes start at `+0.0`, a miss adds `+0.0`), the block's sum is the tree
/// `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`, and the block sums fold in order
/// from `+0.0`. Plus the counts, min/max and both bitmaps.
fn reference_scan<F: AlpFloat>(values: &[F], lo: F, hi: F) -> Expected {
    let zero = F::from_i64(0);
    let (mut sum, mut matches, mut nans) = (zero, 0usize, 0usize);
    let (mut min, mut max): (Option<F>, Option<F>) = (None, None);
    let (mut valid, mut hits) = (vec![0u64; VECTOR_SIZE / 64], vec![0u64; VECTOR_SIZE / 64]);
    for (b, block) in values.chunks(64).enumerate() {
        let mut l = [zero; 8];
        for (i, &x) in block.iter().enumerate() {
            let hit = x >= lo && x <= hi;
            l[i % 8] = l[i % 8] + if hit { x } else { zero };
            if x.is_nan() {
                nans += 1;
            } else {
                valid[b] |= 1 << i;
            }
            if hit {
                matches += 1;
                hits[b] |= 1 << i;
                min = Some(min.map_or(x, |m| if m <= x { m } else { x }));
                max = Some(max.map_or(x, |m| if m >= x { m } else { x }));
            }
        }
        sum = sum + (((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])));
    }
    Expected {
        sum: sum.to_bits_u64(),
        matches,
        nans,
        min: min.map(F::to_bits_u64),
        max: max.map(F::to_bits_u64),
        valid,
        hits,
    }
}

/// The definition one level up: a column's sum folds its 1024-value vectors'
/// sums in vector order from `+0.0`. Returns `(sum bits, matches, NaNs)`.
fn reference_column(values: &[f64], lo: f64, hi: f64) -> (u64, usize, usize) {
    let (mut sum, mut matches, mut nans) = (0.0f64, 0, 0);
    for vector in values.chunks(VECTOR_SIZE) {
        let want = reference_scan(vector, lo, hi);
        sum += f64::from_bits(want.sum);
        matches += want.matches;
        nans += want.nans;
    }
    (sum.to_bits(), matches, nans)
}

fn observed<F: AlpFloat>(scan: &VectorScan<F>) -> Expected {
    Expected {
        sum: scan.sum.to_bits_u64(),
        matches: scan.matches,
        nans: scan.invalid_count(),
        min: scan.min.map(F::to_bits_u64),
        max: scan.max.map(F::to_bits_u64),
        valid: scan.valid.to_vec(),
        hits: scan.hits.to_vec(),
    }
}

/// The bands every scan check runs: infinite, empty (`lo > hi`), all-out,
/// boundary-equal (`lo == min`, `hi == max` of the finite values — all-in
/// when nothing else is live), and the inner quartiles.
fn bands<F: AlpFloat>(live: &[F]) -> Vec<(F, F)> {
    let inf = F::from_bits_u64(if F::BITS == 64 { 0x7FF0_0000_0000_0000 } else { 0x7F80_0000 });
    let neg_inf = F::from_i64(0) - inf;
    let mut sorted: Vec<F> = live.iter().copied().filter(|&x| x > neg_inf && x < inf).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values order"));
    let mut bands = vec![(neg_inf, inf), (F::from_i64(1), F::from_i64(0))];
    if let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) {
        bands.push((max + F::from_i64(1), inf)); // all-out unless +inf is live
        bands.push((min, max));
        bands.push((sorted[sorted.len() / 4], sorted[3 * sorted.len() / 4]));
    }
    bands
}

/// Runs `check` on the wire form of `(v, exc)`: the vector written as a
/// one-vector row-group body and parsed back. The parser refuses exception
/// lists a writer cannot produce (a position at or past `len`, or positions
/// that do not ascend strictly), which some hand-built shapes hold on
/// purpose; nothing else may be refused.
fn with_wire_view<F: AlpFloat>(
    v: &AlpVector,
    exc: ExcView<'_>,
    what: &str,
    check: impl FnOnce(&AlpVectorView<'_>),
) {
    let mut exceptions = ExcArena::new();
    for (&p, &bits) in exc.positions.iter().zip(exc.values) {
        exceptions.push(p, bits);
    }
    let exc_count = exc.positions.len() as u16;
    let group =
        AlpGroup { vectors: vec![AlpVector { exc_start: 0, exc_count, ..v.clone() }], exceptions };
    let mut body = Vec::new();
    write_rowgroup::<F>(&mut body, &alp::RowGroup::Alp(group));
    match RowGroupView::<F>::parse_exact(&body) {
        Ok(view) => match view.vectors().next() {
            Some(VectorView::Alp(wire)) => check(&wire),
            other => panic!("{what}: one ALP vector went in, {other:?} came out"),
        },
        Err(e) => assert!(
            exc.positions.iter().any(|&p| p >= v.len) || !exc.positions.is_sorted_by(|a, b| a < b),
            "{what}: the parser refused a vector a writer can produce: {e}"
        ),
    }
}

/// Holds every per-vector scan route to [`reference_scan`] over `live`, the
/// vector's decoded values: the bitmap routes in full, the aggregate-only
/// routes on sum, matches and NaN count, and — wherever the values prove
/// every one a non-NaN match, which is what `ZoneMap::within` decides from
/// stored statistics — the predicate-free routes as well.
fn check_scan_routes<F: AlpFloat>(v: &AlpVector, exc: ExcView<'_>, live: &[F], what: &str) {
    for (lo, hi) in bands(live) {
        let what = format!("{what}, band [{lo:?}, {hi:?}]");
        let want = reference_scan(live, lo, hi);
        let fused = scan_vector(v, exc, lo, hi, true);
        assert_eq!(fused.len, live.len(), "{what}");
        assert_eq!(observed(&fused), want, "{what}: scan_vector");
        let mut decoded = VectorScan::empty(live.len());
        scan_decoded(live, lo, hi, true, &mut decoded);
        assert_eq!(observed(&decoded), want, "{what}: scan_decoded");

        let parts = |s: alp::VectorSum<F>| (s.sum.to_bits_u64(), s.matches, s.nans, s.len);
        let want_sum = (want.sum, want.matches, want.nans, live.len());
        assert_eq!(parts(sum_vector(v, exc, Some((lo, hi)))), want_sum, "{what}: sum_vector");
        assert_eq!(parts(sum_decoded(live, Some((lo, hi)), true)), want_sum, "{what}: sum_decoded");
        if want.nans == 0 {
            let trusting = sum_decoded(live, Some((lo, hi)), false);
            assert_eq!(parts(trusting), want_sum, "{what}: sum_decoded, NaN-free zone");
        }
        if want.matches == live.len() {
            assert_eq!(parts(sum_vector(v, exc, None)), want_sum, "{what}: sum_vector, all-in");
            let all_in = sum_decoded(live, None, false);
            assert_eq!(parts(all_in), want_sum, "{what}: sum_decoded, all-in");
        }
        // The same kernels reading their words from frame bytes.
        with_wire_view::<F>(v, exc, &what, |wire| {
            assert_eq!(observed(&wire.scan(lo, hi, true)), want, "{what}: scan over a view");
            let sum = |band| parts(wire.sum_planned(band, BlockPlan::ALL));
            assert_eq!(sum(Some((lo, hi))), want_sum, "{what}: sum over a view");
            if want.matches == live.len() {
                assert_eq!(sum(None), want_sum, "{what}: sum over a view, all-in");
            }
        });
    }
}

/// `PATCH` as Algorithm 2 states it, one exception at a time in list order
/// (so of two exceptions at one position the later stays), over the
/// exception-free scalar decode.
fn reference_decode<F: AlpFloat>(v: &AlpVector, exc: ExcView<'_>) -> Vec<F> {
    let mut out = vec![F::from_i64(0); VECTOR_SIZE];
    decode_vector_scalar(&AlpVector { exc_count: 0, ..v.clone() }, ExcView::empty(), &mut out);
    for (&p, &bits) in exc.positions.iter().zip(exc.values) {
        if (p as usize) < VECTOR_SIZE {
            out[p as usize] = F::from_bits_u64(bits);
        }
    }
    out.truncate(v.len as usize);
    out
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
    with_wire_view::<F>(v, exc, what, |wire| {
        let mut from_bytes = vec![zero; VECTOR_SIZE];
        assert_eq!(wire.decode(&mut from_bytes), n, "{what}: decode over a view");
        for i in 0..n {
            let want = scalar[i].to_bits_u64();
            assert_eq!(from_bytes[i].to_bits_u64(), want, "{what}: decode over a view [{i}]");
        }
    });
}

fn check_scan<F: AlpFloat>(v: &AlpVector, arena: &ExcArena, what: &str) {
    let exc = arena.view(v);
    let mut scalar = vec![F::from_i64(0); VECTOR_SIZE];
    let n = decode_vector_scalar(v, exc, &mut scalar);
    check_scan_routes(v, exc, &scalar[..n], what);
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
    at_every_tier(|| {
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
                        _ => {
                            EDGE_POSITIONS.iter().copied().filter(|&p| (p as usize) < len).collect()
                        }
                    };
                    let payload = |k: usize| F64_PAYLOADS[(k + width) % F64_PAYLOADS.len()];
                    let (v, arena) =
                        hand_built(residuals, width, base, combo, len, &positions, payload);
                    let what = format!("width {width} base {base} (e,f) {combo:?} len {len}");
                    check_decoders::<f64>(&v, &arena, &what);
                    check_scan::<f64>(&v, &arena, &what);
                }
            }
        }
    });
}

#[test]
fn f32_decode_matches_the_scalar_decoder_around_its_conversion_limit() {
    at_every_tier(|| {
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
                    let what = format!("f32 width {width} base {base}");
                    check_decoders::<f32>(&v, &arena, &what);
                    check_scan::<f32>(&v, &arena, &what);
                }
            }
        }
    });
}

/// Lengths on every side of a lane row (8) and a block (64), plus the ends.
const LENGTHS: [usize; 10] = [0, 1, 7, 8, 9, 63, 64, 65, 1023, VECTOR_SIZE];

/// Exception positions on every side of a lane-row edge.
const LANE_EDGE_POSITIONS: [u16; 11] = [0, 7, 8, 9, 15, 16, 56, 63, 64, 71, 72];

/// Exception payloads for either width: two NaNs, ±inf, ±0.0, and a finite
/// value far outside the decoded range.
fn special_payloads<F: AlpFloat>() -> [u64; 7] {
    match F::BITS {
        64 => [
            0x7FF8_DEAD_BEEF_0001,
            0x7FF0_0000_0000_0000,
            0x8000_0000_0000_0000,
            0xFFF8_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x0000_0000_0000_0000,
            1e9f64.to_bits(),
        ],
        _ => [
            0x7FC0_1234,
            0x7F80_0000,
            0x8000_0000,
            0xFFC0_0000,
            0xFF80_0000,
            0x0000_0000,
            1e9f32.to_bits() as u64,
        ],
    }
}

/// Every scan route against the definition, at every length, for exception
/// lists of every shape the kernels branch on: none, block edges, lane-row
/// edges and a NaN in every lane. Positions ascend strictly, as every writer
/// writes them and the body parser demands (`wire_view.rs` holds the parser
/// to refusing any other order).
fn check_scans_at_every_length_and_exception_shape<F: AlpFloat>(combo: (u8, u8)) {
    let payloads = special_payloads::<F>();
    let residuals = &residual_patterns(10)[0];
    let shapes: [(&str, Vec<u16>); 4] = [
        ("no exceptions", Vec::new()),
        ("block edges", EDGE_POSITIONS.to_vec()),
        ("lane edges", LANE_EDGE_POSITIONS.to_vec()),
        ("a NaN per lane", (0..8).map(|lane| 64 * lane + lane).collect()),
    ];
    for len in LENGTHS {
        for (shape, positions) in &shapes {
            for rotate in 0..payloads.len() {
                let payload = |k: usize| match *shape {
                    "a NaN per lane" => payloads[0],
                    _ => payloads[(k + rotate) % payloads.len()],
                };
                let (v, arena) = hand_built(residuals, 10, -300, combo, len, positions, payload);
                let exc = arena.view(&v);
                let live = reference_decode::<F>(&v, exc);
                let what = format!("{} len {len}, {shape}, payloads from {rotate}", F::NAME);
                check_scan_routes(&v, exc, &live, &what);
            }
        }
    }
}

#[test]
fn every_scan_route_matches_the_definition_at_every_length_and_exception_shape() {
    at_every_tier(|| {
        check_scans_at_every_length_and_exception_shape::<f64>((14, 12));
        check_scans_at_every_length_and_exception_shape::<f32>((5, 2));
    });
}

/// One block's canonical sum as DESIGN.md §14 defines it, a value at a time:
/// live value `i` joins lane `i % 8` (a miss adds `+0.0`; with `band` `None`
/// every value joins, as `block_sum_all` sums), and the lanes meet in the
/// fixed tree. Returns `(sum, matches)` with the sum as [`sum_bits`].
fn reference_block<F: AlpFloat>(block: &[F], band: Option<(F, F)>) -> (Option<u64>, usize) {
    let zero = F::from_i64(0);
    let (mut l, mut matches) = ([zero; 8], 0);
    for (i, &x) in block.iter().enumerate() {
        let hit = band.is_none_or(|(lo, hi)| x >= lo && x <= hi);
        if hit {
            l[i % 8] = l[i % 8] + x;
            matches += 1;
        } else {
            l[i % 8] = l[i % 8] + zero;
        }
    }
    let sum = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    (sum_bits(sum), matches)
}

/// A sum's bits, or `None` for any NaN: the association order is fixed, but
/// which NaN payload an addition of two NaNs keeps is not (the compiler may
/// swap the operands of `+`), so a NaN sum is held to being NaN.
fn sum_bits<F: AlpFloat>(sum: F) -> Option<u64> {
    (!sum.is_nan()).then(|| sum.to_bits_u64())
}

/// Values a block sum has to get right, by bits: NaNs of both signs and
/// other payloads, ±0, ±inf, the smallest and largest subnormals of both
/// signs, and ordinary decimals of both signs.
fn block_values<F: AlpFloat>() -> Vec<F> {
    let bits: [u64; 10] = match F::BITS {
        64 => [
            0x7FF8_0000_0000_0000,
            0xFFF8_DEAD_BEEF_0001,
            0x7FF0_0000_0000_0001,
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800F_FFFF_FFFF_FFFF,
            0x0010_0000_0000_0000,
        ],
        _ => [
            0x7FC0_0000,
            0xFFC0_1234,
            0x7F80_0001,
            0x0000_0000,
            0x8000_0000,
            0x7F80_0000,
            0xFF80_0000,
            0x0000_0001,
            0x807F_FFFF,
            0x0080_0000,
        ],
    };
    let decimals = (0..14).map(|k| F::from_i64(k * 37 - 250) * F::if10(2));
    bits.iter().map(|&b| F::from_bits_u64(b)).chain(decimals).collect()
}

/// `block_sum` and `block_sum_all` at every block length `0..=64` — every
/// split into full 8-lane rows and a tail — against [`reference_block`], with
/// the values rotated so each kind lands in every lane, under bands that
/// are empty (`lo > hi`), a point (`lo == hi`, on a value and on zero), NaN
/// at either end, infinite at either or both ends, and ordinary.
fn check_block_sums<F: AlpFloat>() {
    let pool = block_values::<F>();
    let nan = pool[0];
    let inf = F::from_bits_u64(if F::BITS == 64 { 0x7FF0_0000_0000_0000 } else { 0x7F80_0000 });
    let neg_inf = F::from_i64(0) - inf;
    let (a, b) = (F::from_i64(-1), F::from_i64(1));
    let bands = [
        (neg_inf, inf),
        (b, a),
        (inf, neg_inf),
        (pool[12], pool[12]),
        (F::from_i64(0), F::from_i64(0)),
        (nan, b),
        (a, nan),
        (nan, nan),
        (neg_inf, F::from_i64(0)),
        (F::from_i64(0), inf),
        (a, b),
    ];
    for len in 0..=64 {
        for rotate in 0..pool.len() {
            let block: Vec<F> = (0..len).map(|i| pool[(i * 7 + rotate) % pool.len()]).collect();
            let what = format!("{} len {len}, rotation {rotate}", F::NAME);
            assert_eq!(
                sum_bits(block_sum_all(&block)),
                reference_block(&block, None).0,
                "block_sum_all, {what}"
            );
            for (lo, hi) in bands {
                let (sum, matches) = block_sum(&block, lo, hi);
                assert_eq!(
                    (sum_bits(sum), matches),
                    reference_block(&block, Some((lo, hi))),
                    "block_sum, {what}, band {lo:?}..={hi:?}"
                );
            }
        }
    }
}

#[test]
fn block_sums_match_the_definition_at_every_block_length() {
    at_every_tier(|| {
        check_block_sums::<f64>();
        check_block_sums::<f32>();
    });
}

/// Each block kernel runs the copy of the tier it was picked at: a pick
/// that ignored `tier::capped` would run v3 code where the tests hold the
/// baseline, and the two tiers' copies would never be compared.
#[test]
fn block_kernels_run_the_copy_of_the_active_tier() {
    at_every_tier(|| {
        for width in 0..=64 {
            assert_eq!(bitpack::unpacker::<u64>(width).tier(), tier::active(), "unpack {width}");
            assert_eq!(bitpack::unpacker::<[u8; 8]>(width).tier(), tier::active());
            assert_eq!(bitpack::packer::<u64>(width).tier(), tier::active(), "pack {width}");
            assert_eq!(bitpack::packer::<[u8; 8]>(width).tier(), tier::active());
        }
    });
}

/// A column with everything a predicated sum has to get right: decimals,
/// both zeros, both infinities and NaNs, mixed by position.
fn column_with_specials(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 97 {
            13 => -0.0,
            31 => 0.0,
            57 if i % 2 == 0 => f64::NAN,
            71 if i % 3 == 0 => f64::INFINITY,
            71 if i % 3 == 1 => f64::NEG_INFINITY,
            _ => ((mix(i as u64) % 20_001) as f64 - 10_000.0) / 100.0,
        })
        .collect()
}

/// Holds `scan_values` and `Column::sum_where` (the `FilteredSum` fold) over
/// raw and ALP storage to the column-level definition, with the push-down counters: a pruned vector adds nothing, a
/// vector inside the band takes the predicate-free route.
fn check_column(data: &[f64], lo: f64, hi: f64, what: &str) {
    let (sum, matches, nans) = reference_column(data, lo, hi);
    let mut oracle = ScanResult::new();
    scan_values(data, ScanPredicate { lo, hi }, ScanAgg::SumCount, &mut oracle);
    assert_eq!(
        (oracle.sum.to_bits(), oracle.matches, oracle.validity.count_invalid()),
        (sum, matches, nans),
        "{what}: scan_values"
    );
    // A vector is scanned when its zone map overlaps the band; whether it may
    // drop the predicate is decided here by looking at every value.
    let scanned: Vec<&[f64]> =
        data.chunks(VECTOR_SIZE).filter(|v| ZoneMap::of(v).overlaps(lo, hi)).collect();
    let all_in = scanned.iter().filter(|v| v.iter().all(|&x| x >= lo && x <= hi)).count();
    let scanned_nans: usize = scanned.iter().map(|v| v.iter().filter(|x| x.is_nan()).count()).sum();
    for format in [Format::Uncompressed, Format::alp()] {
        let id = format.name();
        let got = Column::from_f64(data, format).sum_where(lo, hi);
        assert_eq!((got.sum.to_bits(), got.matches), (sum, matches), "{what}: {id} sum_where");
        assert_eq!(got.invalid, scanned_nans, "{what}: {id} NaNs scanned");
        assert_eq!(got.vectors_all_in, all_in, "{what}: {id} predicate-free vectors");
        assert_eq!(got.vectors_scanned, scanned.len(), "{what}: {id} vectors scanned");
    }
}

#[test]
fn column_sums_match_the_definition_on_every_storage() {
    at_every_tier(|| {
        for len in LENGTHS.into_iter().chain([3 * VECTOR_SIZE + 65]) {
            let data = column_with_specials(len);
            for (lo, hi) in bands(&data) {
                check_column(&data, lo, hi, &format!("specials, len {len}, band [{lo}, {hi}]"));
            }
        }
        // Vectors of distinct character, so one band meets every zone verdict:
        // inside (predicate-free), straddling, NaN-bearing, all-NaN, disjoint.
        let mut data: Vec<f64> =
            (0..5 * VECTOR_SIZE + 9).map(|i| (i % 1000) as f64 / 8.0).collect();
        for (i, x) in data.iter_mut().enumerate() {
            match i / VECTOR_SIZE {
                0 => *x = 10.0 + *x / 100.0,
                1 if i % 50 == 0 => *x = f64::NAN,
                2 => *x = f64::NAN,
                3 => *x += 1000.0,
                _ => {}
            }
        }
        let first = ZoneMap::of(&data[..VECTOR_SIZE]);
        for (lo, hi) in [
            (first.min, first.max),
            (first.min, first.max - 0.01),
            (0.0, 125.0),
            (-0.0, 2000.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NAN, 1.0),
            (3000.0, f64::INFINITY),
        ] {
            check_column(&data, lo, hi, &format!("zone verdicts, band [{lo}, {hi}]"));
        }
    });
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
    at_every_tier(|| {
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
    });
}

#[test]
fn encoder_matches_algorithm_1_across_the_sweet_spot_edges() {
    at_every_tier(|| {
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
            let data: Vec<f32> =
                (0..VECTOR_SIZE as i64).map(|i| (centre + i % 5 - 2) as f32).collect();
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
    });
}

/// A packed stream as a file holds it: 16 blocks of `width` little-endian
/// words, every bit placed by [`reference_pack`]; no pad word.
fn reference_stream(values: &[u64], width: usize) -> Vec<u8> {
    let mut padded = values.to_vec();
    padded.resize(VECTOR_SIZE, 0);
    reference_pack(&padded, width)[..16 * width].iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn le16(values: &[u16]) -> impl Iterator<Item = u8> + '_ {
    values.iter().flat_map(|v| v.to_le_bytes())
}

/// The ALP_rd row-group body of `values` under `meta`, a value at a time from
/// the layout `format.rs` documents: split at the cut, look the left part up
/// by linear search (first match), code 0 in an exception's slot, zeros past
/// a short tail.
fn reference_rd_body<F: AlpFloat>(values: &[F], meta: &RdMeta) -> Vec<u8> {
    let right_w = F::BITS as usize - meta.left_width as usize;
    let mut out = vec![1u8];
    out.extend((values.len().div_ceil(VECTOR_SIZE) as u32).to_le_bytes());
    out.extend([meta.left_width, meta.code_width, meta.dict.len() as u8]);
    out.extend(le16(&meta.dict));
    for vector in values.chunks(VECTOR_SIZE) {
        let (mut codes, mut rights) = (Vec::new(), Vec::new());
        let (mut positions, mut lefts) = (Vec::new(), Vec::new());
        for (i, v) in vector.iter().enumerate() {
            let bits = v.to_bits_u64();
            let left = (bits >> right_w) as u16;
            rights.push(bits & mask(right_w));
            codes.push(match meta.dict.iter().position(|&d| d == left) {
                Some(code) => code as u64,
                None => {
                    positions.push(i as u16);
                    lefts.push(left);
                    0
                }
            });
        }
        out.extend((vector.len() as u16).to_le_bytes());
        out.extend((positions.len() as u16).to_le_bytes());
        out.extend(reference_stream(&codes, meta.code_width as usize));
        out.extend(reference_stream(&rights, right_w));
        out.extend(le16(&positions));
        out.extend(le16(&lefts));
    }
    out
}

/// Byte equality with the first difference named (a body is too long to print).
fn assert_same_bytes(got: &[u8], want: &[u8], what: &str) {
    let at = got.iter().zip(want).position(|(a, b)| a != b);
    assert!(
        at.is_none() && got.len() == want.len(),
        "{what}: {} bytes, want {}; first difference at {at:?}",
        got.len(),
        want.len()
    );
}

fn assert_decodes_back<F: AlpFloat>(body: &[u8], values: &[F], what: &str) {
    let mut back = Vec::new();
    decode_rowgroup_into::<F>(body, &mut back).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(back.len(), values.len(), "{what}");
    for (i, (a, b)) in values.iter().zip(&back).enumerate() {
        assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{what}: roundtrip [{i}]");
    }
}

/// Holds both writers of an ALP_rd body — values → bytes in place, and the
/// owned vectors serialized — to [`reference_rd_body`].
fn check_rd_bodies<F: AlpFloat>(values: &[F], meta: &RdMeta, what: &str) {
    let want = reference_rd_body(values, meta);
    let encoder = RdEncoder::new(meta).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut in_place = vec![0xA5; 3]; // unaligned, and not at the start
    encode_rd_body(&mut in_place, &encoder, values);
    assert_same_bytes(&in_place[3..], &want, &format!("{what}: encode_rd_body"));
    let vectors = values.chunks(VECTOR_SIZE).map(|c| encode_rd_vector(c, meta)).collect();
    let mut owned = Vec::new();
    write_rowgroup::<F>(&mut owned, &alp::RowGroup::Rd(meta.clone(), vectors));
    assert_same_bytes(&owned, &want, &format!("{what}: write_rowgroup"));
    assert_decodes_back(&want, values, what);
}

/// How many of a case's values miss the dictionary.
#[derive(Debug, Clone, Copy)]
enum Misses {
    None,
    /// One in a hundred, the first and the last slot among them.
    Sparse,
    All,
}

/// `len` values whose left parts at cut `lw` come from a `dict_size`-entry
/// dictionary (every code in use; entries repeat when `2^lw` is too few) or,
/// for the chosen misses, from outside it — when anything is outside it.
fn rd_case<F: AlpFloat>(
    lw: usize,
    dict_size: usize,
    misses: Misses,
    len: usize,
) -> (Vec<F>, RdMeta) {
    let right_w = F::BITS as usize - lw;
    let salt = (lw * 131 + dict_size) as u64;
    let dict: Vec<u16> = (0..dict_size as u64).map(|k| (mix(salt + k) & mask(lw)) as u16).collect();
    let outsider = (0..=mask(lw)).map(|x| x as u16).find(|x| !dict.contains(x));
    let values = (0..len)
        .map(|i| {
            let miss = match misses {
                Misses::None => false,
                Misses::Sparse => i % 100 == 37 || i == 0 || i == len - 1,
                Misses::All => true,
            };
            let hit = dict[(mix(i as u64) % dict_size as u64) as usize];
            let left = if miss { outsider.unwrap_or(hit) } else { hit };
            F::from_bits_u64(u64::from(left) << right_w | mix(salt ^ i as u64) & mask(right_w))
        })
        .collect();
    let code_width = fastlanes::bits_needed(dict_size as u64 - 1) as u8;
    (values, RdMeta { left_width: lw as u8, dict, code_width })
}

fn check_rd_bodies_at_every_cut<F: AlpFloat>() {
    for lw in 1..=16usize {
        for dict_size in [1usize, 2, 4, 8] {
            for misses in [Misses::None, Misses::Sparse, Misses::All] {
                // Rotate the lengths instead of crossing them; every one
                // meets every cut and every dictionary size.
                let lens = [1, 63, 64, 65, 1023, VECTOR_SIZE, 2 * VECTOR_SIZE + 65];
                for len in [lens[(lw + dict_size) % 7], lens[(lw + dict_size + 3) % 7]] {
                    let (values, meta) = rd_case::<F>(lw, dict_size, misses, len);
                    let what =
                        format!("{} cut {lw} dict {dict_size} {misses:?} len {len}", F::NAME);
                    check_rd_bodies(&values, &meta, &what);
                }
            }
        }
    }
    for len in [1, 63, 64, 65, 1023, VECTOR_SIZE] {
        let (values, meta) = rd_case::<F>(11, 8, Misses::Sparse, len);
        check_rd_bodies(&values, &meta, &format!("{} every length, len {len}", F::NAME));
    }
}

#[test]
fn rd_body_writers_match_the_reference_at_every_cut_dictionary_and_length() {
    at_every_tier(|| {
        check_rd_bodies_at_every_cut::<f64>();
        check_rd_bodies_at_every_cut::<f32>();
    });
}

#[test]
fn rd_body_writers_match_the_reference_on_real_cuts_and_special_values() {
    at_every_tier(|| {
        // What `choose_cut` picks for real doubles, specials in the first and
        // last slot and on block edges.
        for (name, mut data) in datagen::all_datasets(2 * VECTOR_SIZE + 300, 20240609) {
            let meta = choose_cut::<f64>(&data, 256);
            for (k, &p) in EDGE_POSITIONS.iter().chain(&[2 * VECTOR_SIZE as u16 + 299]).enumerate()
            {
                data[p as usize] = f64::from_bits(F64_PAYLOADS[k % F64_PAYLOADS.len()]);
            }
            check_rd_bodies(&data, &meta, name);
            let narrow: Vec<f32> = data.iter().map(|&x| x as f32).collect();
            check_rd_bodies(&narrow, &choose_cut::<f32>(&narrow, 256), &format!("{name} as f32"));
        }
    });
}

/// `RdMeta` is a `pub` struct: whatever a caller fills in, the encoder
/// refuses it with a typed error before sizing anything from it, or — for a
/// dictionary with repeated entries — writes what a first-match search does.
#[test]
fn rd_encoder_refuses_impossible_parameters_and_keeps_first_match_for_duplicates() {
    let (values, meta) = rd_case::<f64>(12, 4, Misses::Sparse, VECTOR_SIZE + 7);
    for (what, bad) in [
        ("no left part", RdMeta { left_width: 0, ..meta.clone() }),
        ("left part past the cap", RdMeta { left_width: 17, ..meta.clone() }),
        ("left part is the whole float", RdMeta { left_width: 64, ..meta.clone() }),
        ("empty dictionary", RdMeta { dict: Vec::new(), ..meta.clone() }),
        ("nine entries", RdMeta { dict: vec![7; 9], ..meta.clone() }),
        ("code width past the dictionary cap", RdMeta { code_width: 4, ..meta.clone() }),
        ("codes wider than the code width", RdMeta { code_width: 1, ..meta.clone() }),
    ] {
        assert!(RdEncoder::new(&bad).is_err(), "{what}: accepted");
    }
    let [a, b, c, _] = meta.dict[..] else { panic!("a four-entry dictionary") };
    for dict in [vec![a, b, a, c], vec![a, a, a, a], vec![b, a, c, c]] {
        let duplicated = RdMeta { dict, ..meta.clone() };
        check_rd_bodies(&values, &duplicated, &format!("duplicates {:?}", duplicated.dict));
    }
}

/// One row-group as one tier sees it: the body the compressor writes, the
/// bits it decodes to, and every sum route's `(sum bits, matches, NaNs)` —
/// the fused sum and scan of each ALP vector, all values and a band, and the
/// sum of the decoded values.
type TierOutput = (Vec<u8>, Vec<u64>, Vec<(u64, usize, usize)>);

fn at_tier<F: AlpFloat>(t: Tier, rowgroup: &[F]) -> TierOutput {
    tier::capped(t, || {
        let (mut body, mut stats) = (Vec::new(), SamplerStats::default());
        let mut scratch = EncodeScratch::default();
        Compressor::new().encode_rowgroup_body(rowgroup, &mut body, &mut scratch, &mut stats);
        let mut values = Vec::new();
        decode_rowgroup_into::<F>(&body, &mut values).expect("a body just written");
        let (a, b) = (rowgroup[0], rowgroup[rowgroup.len() / 2]);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut sums = Vec::new();
        let view = RowGroupView::<F>::parse_exact(&body).expect("a body just written");
        for vector in view.vectors() {
            if let VectorView::Alp(v) = vector {
                for band in [None, Some((lo, hi))] {
                    let s = v.sum_planned(band, BlockPlan::ALL);
                    sums.push((s.sum.to_bits_u64(), s.matches, s.nans));
                }
                let s = v.scan(lo, hi, true);
                sums.push((s.sum.to_bits_u64(), s.matches, s.invalid_count()));
            }
        }
        let s = sum_decoded(&values, Some((lo, hi)), true);
        sums.push((s.sum.to_bits_u64(), s.matches, s.nans));
        (body, values.iter().map(|x| x.to_bits_u64()).collect(), sums)
    })
}

#[test]
fn both_tiers_write_read_and_sum_the_same_bits_on_every_dataset() {
    fn check<F: AlpFloat>(rowgroup: &[F], what: &str) {
        let (fast, baseline) = (at_tier(Tier::V3, rowgroup), at_tier(Tier::Baseline, rowgroup));
        assert_same_bytes(&fast.0, &baseline.0, what);
        assert!(fast.1 == baseline.1, "{what}: decoded bits differ between tiers");
        let want: Vec<u64> = rowgroup.iter().map(|x| x.to_bits_u64()).collect();
        assert!(fast.1 == want, "{what}: not lossless");
        assert_eq!(fast.2, baseline.2, "{what}: sums differ between tiers");
    }
    let rowgroup_values = SamplerParams::default().vectors_per_rowgroup * VECTOR_SIZE;
    for (name, data) in datagen::all_datasets(rowgroup_values + 5000, 20240609) {
        for (i, rowgroup) in data.chunks(rowgroup_values).enumerate() {
            check(rowgroup, &format!("{name}, row-group {i}"));
            let narrow: Vec<f32> = rowgroup.iter().map(|&x| x as f32).collect();
            check(&narrow, &format!("{name} as f32, row-group {i}"));
        }
    }
}

/// The ALP row-group body of `values`, every vector under `(e, f)`: Algorithm
/// 1 a value at a time ([`reference_encode`]), laid out as `format.rs`
/// documents.
fn reference_alp_body<F: AlpFloat>(values: &[F], e: u8, f: u8) -> Vec<u8> {
    let mut out = vec![0u8];
    out.extend((values.len().div_ceil(VECTOR_SIZE) as u32).to_le_bytes());
    for vector in values.chunks(VECTOR_SIZE) {
        let (v, positions, exceptions) = reference_encode(vector, e, f);
        out.extend([v.exponent, v.factor, v.bit_width]);
        out.extend(v.len.to_le_bytes());
        out.extend(v.for_base.to_le_bytes());
        out.extend(v.exc_count.to_le_bytes());
        out.extend(v.packed[..16 * v.bit_width as usize].iter().flat_map(|w| w.to_le_bytes()));
        out.extend(le16(&positions));
        out.extend(exceptions.iter().flat_map(|x| x.to_le_bytes()));
    }
    out
}

/// Holds both writers of an ALP body to [`reference_alp_body`]; returns the
/// widths the vectors came out at.
fn check_alp_bodies<F: AlpFloat>(values: &[F], e: u8, f: u8, what: &str) -> Vec<u8> {
    let want = reference_alp_body(values, e, f);
    let mut in_place = vec![0xA5; 5];
    encode_alp_body(&mut in_place, values, |_| Combination { e, f });
    assert_same_bytes(&in_place[5..], &want, &format!("{what}: encode_alp_body"));
    let mut group = AlpGroup::default();
    for chunk in values.chunks(VECTOR_SIZE) {
        let v = encode_vector_into(chunk, e, f, &mut group.exceptions);
        group.vectors.push(v);
    }
    let widths = group.vectors.iter().map(|v| v.bit_width).collect();
    let mut owned = Vec::new();
    write_rowgroup::<F>(&mut owned, &alp::RowGroup::Alp(group));
    assert_same_bytes(&owned, &want, &format!("{what}: write_rowgroup"));
    assert_decodes_back(&want, values, what);
    widths
}

#[test]
fn alp_body_writers_match_the_reference_on_every_exception_shape() {
    at_every_tier(|| {
        for len in [1, 63, 64, 65, 1000, VECTOR_SIZE, 2 * VECTOR_SIZE + 65] {
            let clean = decimals(len);
            check_alp_bodies(&clean, 14, 12, &format!("clean decimals, len {len}"));
            check_alp_bodies(&clean, 21, 0, &format!("decimals on the cast pass, len {len}"));

            let mut edges = clean.clone();
            for &p in EDGE_POSITIONS.iter().filter(|&&p| (p as usize) < len) {
                edges[p as usize] = f64::from_bits(F64_PAYLOADS[p as usize % F64_PAYLOADS.len()]);
            }
            edges[len - 1] = std::f64::consts::E;
            check_alp_bodies(&edges, 14, 12, &format!("edge exceptions, len {len}"));

            let noise: Vec<f64> = (0..len).map(|i| (i as f64 + 0.1).sqrt().sin()).collect();
            check_alp_bodies(&noise, 14, 0, &format!("nearly all exceptions, len {len}"));
            let nans = vec![f64::from_bits(0x7FF8_DEAD_BEEF_0001); len];
            let widths = check_alp_bodies(&nans, 14, 12, &format!("all exceptions, len {len}"));
            assert!(widths.iter().all(|&w| w == 0), "all-exception vectors pack nothing");

            let widths =
                check_alp_bodies(&vec![42.5f64; len], 14, 13, &format!("constant, len {len}"));
            assert!(widths.iter().all(|&w| w == 0), "constant vectors pack nothing");

            let wide: Vec<f64> = (0..len).map(|i| if i % 2 == 0 { 9e18 } else { -9e18 }).collect();
            let widths = check_alp_bodies(&wide, 0, 0, &format!("full-width frame, len {len}"));
            assert!(len < 2 || widths.iter().all(|&w| w == 64), "±9e18 spans 64 bits: {widths:?}");

            let floats: Vec<f32> =
                (0..len).map(|i| (mix(i as u64) % 20_000) as f32 / 100.0).collect();
            check_alp_bodies(&floats, 5, 3, &format!("f32 decimals, len {len}"));
            let mut specials = floats.clone();
            specials[0] = f32::from_bits(0x7FC0_1234);
            specials[len - 1] = -0.0;
            check_alp_bodies(&specials, 5, 3, &format!("f32 specials at the ends, len {len}"));
        }
    });
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

/// A value that moves the running bound late or ties it: mostly one decimal
/// population (6 in 10), with wide decimals, values a few ulps off a decimal
/// (either side of the per-shift exception bound), raw bit patterns and
/// specials.
fn adversarial_f64(rng: &mut SplitMix64) -> f64 {
    match rng.below(10) {
        0..=5 => rng.next_u64() as i16 as f64 / 10f64.powi(rng.below(4) as i32),
        6 => rng.next_u64() as i64 as f64 / 10f64.powi(rng.below(19) as i32),
        7 => near_decimal(rng),
        8 => f64::from_bits(rng.next_u64()),
        _ => [0.0, -0.0, f64::NAN, 1e300][rng.below(4)],
    }
}

/// A value within ±8 ulps of a decimal `k / 10^p`, `p <= 21`.
fn near_decimal(rng: &mut SplitMix64) -> f64 {
    let decimal = rng.next_u64() as i32 as f64 / 10f64.powi(rng.below(22) as i32);
    ulps_away(decimal, rng.below(17) as i64 - 8)
}

/// The double `steps` bit patterns above (below, when negative) `x`.
fn ulps_away(x: f64, steps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(steps))
}

/// 96 seeded samples: up to 39 adversarial values, then up to 5 raw bit
/// patterns (a second population at the end), at both widths.
#[test]
fn pruned_full_search_equals_the_exhaustive_one_on_adversarial_samples() {
    let mut rng = SplitMix64::new(driver::seed() ^ 0x5EA2);
    for case in 0..96 {
        let (head, tail) = (rng.below(40), rng.below(6));
        let mut sample: Vec<f64> = (0..head).map(|_| adversarial_f64(&mut rng)).collect();
        sample.extend((0..tail).map(|_| f64::from_bits(rng.next_u64())));
        assert_eq!(full_search(&sample), exhaustive_search(&sample), "case {case}: {sample:?}");
        let narrow: Vec<f32> = sample.iter().map(|&x| x as f32).collect();
        assert_eq!(full_search(&narrow), exhaustive_search(&narrow), "case {case} as f32");
    }
}

/// Values on every edge of the per-shift exception bound, at `F`'s width:
/// within ±8 ulps of `k / 10^p` for every `p` of `F`'s search space (computed
/// in `F`) and of the `f64` decimals up to `p = 21`; values whose scaled
/// magnitude `|v·10^g|` straddles `2^51`, on the integers and half-integers
/// there; and ±0, NaN payloads, ±∞, subnormals and huge magnitudes.
fn bound_edges<F: driver::Float>(specials: &[u64]) -> Vec<F> {
    let width_mask = u64::MAX >> (64 - F::BITS);
    let ulps = |x: F, steps: i64| {
        F::from_bits_u64(x.to_bits_u64().wrapping_add_signed(steps) & width_mask)
    };
    let mut values = Vec::new();
    for k in [1i64, -3, 7, 25, -123, 4097, 98_765, -1_234_567, 123_456_789, (1 << 40) + 3] {
        for p in 0..=21u8 {
            let wide = F::of(k as f64 / 10f64.powi(p.into()));
            let native = if p <= F::MAX_EXPONENT { F::from_i64(k) * F::if10(p) } else { wide };
            for steps in -8..=8 {
                values.extend([ulps(wide, steps), ulps(native, steps)]);
            }
        }
    }
    let limit = (1u64 << 51) as f64;
    for g in 0..=F::MAX_EXPONENT {
        for offset in [-2.0, -1.5, -1.0, -0.75, -0.5, -0.25, 0.0, 0.5, 1.0, 1.5] {
            let v = F::of((limit + offset) / 10f64.powi(g.into()));
            let minus = F::from_i64(-1);
            values.extend((-3..=3).flat_map(|steps| [ulps(v, steps), ulps(v, steps) * minus]));
        }
    }
    values.extend(specials.iter().map(|&bits| F::from_bits_u64(bits)));
    values
}

/// The bound is sound: whenever it calls `v` an exception at shift `g`, no
/// `(e, f)` with `e − f = g` round-trips `v` — neither through the encoder's
/// own integer nor through either integer beside it — at both widths.
#[test]
fn the_per_shift_exception_bound_never_marks_an_encodable_value() {
    fn check<F: AlpFloat>(values: &[F]) -> (usize, usize) {
        let (mut marked, mut unmarked) = (0, 0);
        for &v in values {
            for g in 0..=F::MAX_EXPONENT {
                if !is_definite_exception(v, g) {
                    unmarked += 1;
                    continue;
                }
                marked += 1;
                let y = v.to_f64() * 10f64.powi(g.into());
                let nearest = y.round() as i64;
                for e in g..=F::MAX_EXPONENT {
                    let f = e - g;
                    let d = encode_one(v, e, f);
                    for d in [d, nearest - 1, nearest, nearest + 1] {
                        let back: F = decode_one(d, e, f);
                        assert_ne!(
                            back.to_bits_u64(),
                            v.to_bits_u64(),
                            "{} {v:?} marked at shift {g}, yet d = {d} decodes to it under ({e}, {f})",
                            F::NAME
                        );
                    }
                }
            }
        }
        (marked, unmarked)
    }
    let wide = bound_edges::<f64>(&[
        0,
        1 << 63,
        0x7FF8_DEAD_BEEF_0001,
        0xFFF0_0000_0000_0001,
        0x7FF0 << 48,
        0xFFF0 << 48,
        1,
        0x000F_FFFF_FFFF_FFFF,
        0x0010_0000_0000_0000,
        1e300f64.to_bits(),
        (-1e300f64).to_bits(),
        f64::MAX.to_bits(),
    ]);
    let narrow = bound_edges::<f32>(&[
        0,
        1 << 31,
        0x7FC0_1234,
        0xFF80_0001,
        0x7F80_0000,
        0xFF80_0000,
        1,
        0x007F_FFFF,
        0x0080_0000,
        1e30f32.to_bits().into(),
        f32::MAX.to_bits().into(),
    ]);
    for (width, (marked, unmarked)) in [("f64", check(&wide)), ("f32", check(&narrow))] {
        assert!(marked > 1000 && unmarked > 1000, "{width}: {marked} marked, {unmarked} not");
    }
}

/// The scheme decision is made before level 1 finishes, yet the compressor
/// writes what the finished level 1 says: for every row-group, its body
/// equals the one written from `first_level`'s outcome — ALP_rd under
/// `choose_cut` when `should_use_rd`, else ALP under level 2 over its
/// combinations. Row-groups of every dataset, and mixed ones whose sampled
/// vectors are all, four, three or one of eight real doubles (the rest decimals),
/// at both widths. On POI every ALP_rd decision is proven by the cap alone.
#[test]
fn the_plan_writes_what_the_finished_first_level_decides() {
    fn check<F: AlpFloat>(rowgroup: &[F], what: &str) -> SamplerStats {
        let params = SamplerParams::default();
        let outcome = first_level(rowgroup, &params);
        let mut want = Vec::new();
        if outcome.should_use_rd::<F>() {
            let cut = choose_cut::<F>(rowgroup, params.sample_vectors * params.sample_values);
            encode_rd_body(&mut want, &RdEncoder::new(&cut).expect("a chosen cut"), rowgroup);
        } else {
            let mut stats = SamplerStats::default();
            encode_alp_body(&mut want, rowgroup, |v| {
                second_level(v, &outcome.combinations, &params, &mut stats)
            });
        }
        let (mut got, mut stats) = (Vec::new(), SamplerStats::default());
        let mut scratch = EncodeScratch::default();
        Compressor::new().encode_rowgroup_body(rowgroup, &mut got, &mut scratch, &mut stats);
        assert_same_bytes(&got, &want, what);
        assert_eq!(stats.rowgroups_rd == 1, outcome.should_use_rd::<F>(), "{what}");
        stats
    }
    let rowgroup_values = SamplerParams::default().vectors_per_rowgroup * VECTOR_SIZE;
    for (name, data) in datagen::all_datasets(2 * rowgroup_values + 5000, 20240609) {
        let mut proven = 0;
        for (i, rowgroup) in data.chunks(rowgroup_values).enumerate() {
            let stats = check(rowgroup, &format!("{name}, row-group {i}"));
            let narrow: Vec<f32> = rowgroup.iter().map(|&x| x as f32).collect();
            check(&narrow, &format!("{name} as f32, row-group {i}"));
            assert!(stats.rd_proven <= stats.rowgroups_rd);
            proven += stats.rd_proven;
        }
        if name.starts_with("POI") {
            assert_eq!(proven, 3, "{name}: every row-group proven ALP_rd");
        }
    }

    // The default sampling takes one vector from each stratum of twelve, so
    // the first `real` strata hold the sampled real doubles.
    for real in [8, 4, 3, 1] {
        let rowgroup: Vec<f64> = (0..rowgroup_values)
            .map(|i| {
                let stratum = i / VECTOR_SIZE / 12;
                if stratum < real {
                    ((i as f64) + 0.1).sqrt().sin()
                } else {
                    (mix(i as u64) % 100_000) as f64 / 100.0
                }
            })
            .collect();
        let stats = check(&rowgroup, &format!("{real} of 8 sampled vectors real"));
        // Four real vectors of eight hold over 35 % exceptions: ALP_rd, but
        // only the finished level 1 can tell; three do not.
        let (rd, proven) = (usize::from(real >= 4), usize::from(real == 8));
        assert_eq!((stats.rowgroups_rd, stats.rd_proven), (rd, proven), "{real} of 8 real");
        let narrow: Vec<f32> = rowgroup.iter().map(|&x| x as f32).collect();
        check(&narrow, &format!("{real} of 8 sampled vectors real, as f32"));
    }
}
