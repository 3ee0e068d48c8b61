//! The `ALP_enc` / `ALP_dec` procedures (Formulas 1 and 2 of the paper) and
//! the per-vector encoder of Algorithm 1.
//!
//! A vector is encoded with a single (exponent `e`, factor `f`) pair:
//!
//! ```text
//! ALP_enc(n) = fast_round(n * 10^e * 10^-f)      // yields integer d
//! ALP_dec(d) = d * 10^f * 10^-e
//! ```
//!
//! Values for which `ALP_dec(ALP_enc(n))` is not bitwise-identical to `n`
//! become *exceptions*: they are stored verbatim and their slot in the encoded
//! integer vector is patched with the first successfully-encoded value so the
//! bit width of the packed vector is unaffected. The encoded integers then go
//! through FFOR (frame-of-reference + bit-packing, fused).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use fastlanes::bitpack::Word;
use fastlanes::{ffor, tier, VECTOR_SIZE};

use crate::traits::AlpFloat;

/// Rounds to the nearest integer using the add/subtract "sweet spot" trick
/// (§3.1 *Fast Rounding*): exact for |x| < 2^51 (f64) / 2^22 (f32); outside
/// that range the result is wrong, which the encoder detects via the decode
/// verification and turns into an exception.
#[inline(always)]
pub fn fast_round<F: AlpFloat>(x: F) -> i64 {
    ((x + F::SWEET) - F::SWEET).to_i64_cast()
}

/// `ALP_enc`: encodes one value with exponent `e` and factor `f`.
#[inline(always)]
pub fn encode_one<F: AlpFloat>(n: F, e: u8, f: u8) -> i64 {
    fast_round(n * F::f10(e) * F::if10(f))
}

/// `ALP_dec`: decodes one integer back to the float domain.
#[inline(always)]
pub fn decode_one<F: AlpFloat>(d: i64, e: u8, f: u8) -> F {
    F::from_i64(d) * F::f10(f) * F::if10(e)
}

/// Arena holding the exception streams of many [`AlpVector`]s (positions and
/// raw bit patterns in parallel).
///
/// Vectors do not own their exceptions: they record a `(start, count)` range
/// into the arena of the row-group (or [`OwnedAlpVector`]) that holds them.
/// The arena grows by amortized appends, so encoding a vector performs no
/// per-vector heap allocation — the `.to_vec()` the old layout paid on every
/// vector is gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExcArena {
    pub(crate) positions: Vec<u16>,
    pub(crate) values: Vec<u64>,
}

impl ExcArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of exceptions stored across all vectors.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the arena holds no exceptions.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Drops all exceptions, keeping the capacity for reuse.
    pub fn clear(&mut self) {
        self.positions.clear();
        self.values.clear();
    }

    /// Appends one exception (used by the encoder and the wire reader).
    pub fn push(&mut self, position: u16, bits: u64) {
        self.positions.push(position);
        self.values.push(bits);
    }

    /// The exception range of `v`. Out-of-range or inconsistent `(start,
    /// count)` fields (possible only for corrupt wire data) yield an empty
    /// view rather than a panic.
    pub fn view(&self, v: &AlpVector) -> ExcView<'_> {
        let start = v.exc_start as usize;
        let end = start.saturating_add(v.exc_count as usize);
        ExcView {
            positions: self.positions.get(start..end).unwrap_or(&[]),
            values: self.values.get(start..end).unwrap_or(&[]),
        }
    }
}

/// A stored `u16` (an exception position, an ALP_rd left part) as a kernel
/// reads it: native, or its two bytes in wire (little-endian) order — the
/// 16-bit counterpart of [`fastlanes::bitpack::Word`].
pub trait Short: Copy {
    /// The stored value.
    fn get(self) -> u16;
}

impl Short for u16 {
    #[inline(always)]
    fn get(self) -> u16 {
        self
    }
}

impl Short for [u8; 2] {
    #[inline(always)]
    fn get(self) -> u16 {
        u16::from_le_bytes(self)
    }
}

/// Borrowed view of one vector's exceptions: parallel position/value slices.
/// `P`/`V` are `u16`/`u64` over an [`ExcArena`] and `[u8; 2]`/`[u8; 8]` over
/// the bytes of a frame body (see [`crate::format::RowGroupView`]). The
/// positions ascend strictly: the encoders write them so, the body parser
/// refuses any other order, and the fused scans rely on it.
#[derive(Debug, Clone, Copy)]
pub struct ExcView<'a, P = u16, V = u64> {
    /// Positions (within the vector) of values stored as exceptions.
    pub positions: &'a [P],
    /// Raw bit patterns of the exception values (zero-extended to 64 bits).
    pub values: &'a [V],
}

impl ExcView<'_> {
    /// A view with no exceptions (for synthetic vectors).
    pub const fn empty() -> Self {
        ExcView { positions: &[], values: &[] }
    }
}

impl<'a, P: Short, V: Word> ExcView<'a, P, V> {
    /// Number of exceptions in the view.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the view holds no exceptions.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// `(position, raw bits)` pairs in stored order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u16, u64)> + Clone + 'a {
        self.positions.iter().zip(self.values).map(|(p, v)| (p.get(), v.get()))
    }
}

/// One ALP-encoded vector of up to 1024 values (§3.1).
///
/// `packed` stores the FFOR'd integers; exceptions live in an [`ExcArena`]
/// owned by the enclosing row-group, referenced here by `(exc_start,
/// exc_count)` (positions are `u16`, values raw bit patterns — 80 bits of
/// overhead per exception for doubles, as in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlpVector {
    /// Exponent `e` shared by the whole vector.
    pub exponent: u8,
    /// Factor `f` shared by the whole vector.
    pub factor: u8,
    /// Bits per packed residual.
    pub bit_width: u8,
    /// Frame-of-reference base subtracted before packing.
    pub for_base: i64,
    /// Bit-packed residuals, `fastlanes::packed_len(bit_width)` words.
    pub packed: Vec<u64>,
    /// Offset of this vector's exceptions in the owning arena.
    pub exc_start: u32,
    /// Number of exceptions in this vector.
    pub exc_count: u16,
    /// Number of live values in this vector (`<= 1024`; only the last vector
    /// of a column may be short).
    pub len: u16,
}

impl AlpVector {
    /// Exact compressed size in bits, counting everything a serialized format
    /// must store: parameters, base, packed payload, and exceptions.
    pub fn compressed_bits(&self) -> usize {
        // e, f, bit_width (u8 each), len (u16), base (i64), exception count (u16)
        let header = 15 * 8;
        let payload = self.bit_width as usize * VECTOR_SIZE;
        // A u16 position and the value's 8 bytes, whatever the float width.
        let exceptions = self.exc_count as usize * (16 + 64);
        header + payload + exceptions
    }

    /// Number of exceptions in this vector.
    pub fn exception_count(&self) -> usize {
        self.exc_count as usize
    }
}

/// An [`AlpVector`] bundled with a private arena holding just its own
/// exceptions — the convenience form returned by [`encode_vector`] for
/// single-vector callers (benchmarks, tests, ablations). Hot paths encode
/// many vectors into one shared arena via [`encode_vector_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedAlpVector {
    /// The encoded vector (`exc_start` is 0 in the private arena).
    pub vector: AlpVector,
    /// The vector's exceptions.
    pub exceptions: ExcArena,
}

impl OwnedAlpVector {
    /// View of the vector's exceptions.
    pub fn view(&self) -> ExcView<'_> {
        self.exceptions.view(&self.vector)
    }

    /// Positions of the exception values.
    pub fn exc_positions(&self) -> &[u16] {
        self.view().positions
    }

    /// Raw bit patterns of the exception values.
    pub fn exc_values(&self) -> &[u64] {
        self.view().values
    }
}

impl core::ops::Deref for OwnedAlpVector {
    type Target = AlpVector;
    fn deref(&self) -> &AlpVector {
        &self.vector
    }
}

/// The encode pass for vectors whose scaled values all lie inside
/// `±MAGIC_LIMIT` — every decimal column in practice. One loop scales, adds
/// `SWEET`, reads the integer out of the sum's mantissa (no float→int
/// conversion, which is scalar-only on baseline x86-64), verifies the round
/// trip on the rounded float, and tracks the frame in the float domain; it
/// carries no position cursor, so nothing in it is serial.
///
/// Fills `encoded` and `is_exc` for every input value and returns
/// `(mismatches, min, max)`, or `None` when some scaled magnitude reaches
/// `MAGIC_LIMIT` or is NaN — the integers are then garbage and the caller
/// re-encodes through [`cast_pass`]. Inside the limit both passes compute the
/// same integers and the same verdicts: `(x + SWEET) - SWEET` is an
/// integer-valued float there, so the cast, the mantissa read and `from_i64`
/// all are exact.
#[inline(always)]
fn sweet_pass<F: AlpFloat>(
    input: &[F],
    e: u8,
    f: u8,
    encoded: &mut [i64],
    is_exc: &mut [bool],
) -> Option<(usize, i64, i64)> {
    // Float min/max is not a reduction the compiler may reorder (NaN, ±0), so
    // the frame is tracked in independent lanes and folded once at the end.
    const LANES: usize = 4;
    let (enc_e, enc_f, dec_f, dec_e) = (F::f10(e), F::if10(f), F::f10(f), F::if10(e));
    let (limit, neg_limit) = (F::from_i64(F::MAGIC_LIMIT), F::from_i64(-F::MAGIC_LIMIT));
    let mut in_range = true;
    let mut mismatches = 0usize;
    let (mut mins, mut maxs) = ([limit; LANES], [neg_limit; LANES]);
    let mut lanes = |slots: &mut [i64], flags: &mut [bool], values: &[F]| {
        let frame = mins.iter_mut().zip(&mut maxs);
        for (((slot, flag), &n), (min, max)) in slots.iter_mut().zip(flags).zip(values).zip(frame) {
            let x = n * enc_e * enc_f;
            let sum = x + F::SWEET;
            let rounded = sum - F::SWEET;
            *slot = F::sweet_to_i64(sum);
            in_range &= (x < limit) & (x > neg_limit);
            *flag = (rounded * dec_f * dec_e).to_bits_u64() != n.to_bits_u64();
            mismatches += *flag as usize;
            *min = if rounded < *min { rounded } else { *min };
            *max = if rounded > *max { rounded } else { *max };
        }
    };
    let (values, values_tail) = input.as_chunks::<LANES>();
    let (slots, slots_tail) = encoded.get_mut(..input.len())?.as_chunks_mut::<LANES>();
    let (flags, flags_tail) = is_exc.get_mut(..input.len())?.as_chunks_mut::<LANES>();
    for ((slots, flags), values) in slots.iter_mut().zip(flags).zip(values) {
        lanes(slots, flags, values);
    }
    lanes(slots_tail, flags_tail, values_tail);
    let min = mins.into_iter().fold(limit, |a, b| if b < a { b } else { a });
    let max = maxs.into_iter().fold(neg_limit, |a, b| if b > a { b } else { a });
    in_range.then(|| (mismatches, min.to_i64_cast(), max.to_i64_cast()))
}

/// The encode pass for everything else: `ALP_enc` through the float→int cast
/// (which saturates, and maps NaN to 0), verified through `ALP_dec`. Fills
/// `encoded` and `is_exc` like [`sweet_pass`] and returns the mismatch count.
#[inline(always)]
fn cast_pass<F: AlpFloat>(
    input: &[F],
    e: u8,
    f: u8,
    encoded: &mut [i64],
    is_exc: &mut [bool],
) -> usize {
    let mut mismatches = 0usize;
    for ((slot, flag), &n) in encoded.iter_mut().zip(is_exc).zip(input) {
        *slot = encode_one(n, e, f);
        let dec: F = decode_one(*slot, e, f);
        *flag = dec.to_bits_u64() != n.to_bits_u64();
        mismatches += *flag as usize;
    }
    mismatches
}

/// One vector as Algorithm 1 leaves it, before its words are packed anywhere:
/// the header fields, the patched integers and the exception positions. What
/// [`encode_vector_with`] hands to the code that lands it — in an owned
/// [`AlpVector`] or in the bytes of a frame body.
pub(crate) struct EncodedVector<'a, F> {
    pub(crate) exponent: u8,
    pub(crate) factor: u8,
    pub(crate) bit_width: u8,
    pub(crate) for_base: i64,
    /// The values that were encoded (`1..=1024` of them).
    pub(crate) input: &'a [F],
    /// Their integers, exception slots and the short tail patched.
    encoded: &'a [i64; VECTOR_SIZE],
    /// Ascending.
    pub(crate) exc_positions: &'a [u16],
}

impl<F: AlpFloat> EncodedVector<'_, F> {
    /// FFOR-packs the integers into `words[..16 * bit_width]`, native words
    /// or the bytes of a file alike.
    #[inline(always)]
    pub(crate) fn pack_into<T: Word>(&self, words: &mut [T]) {
        ffor::ffor_pack_into(self.encoded, self.for_base, usize::from(self.bit_width), words);
    }

    /// The exceptions' raw bit patterns, in position order.
    pub(crate) fn exc_values(&self) -> impl Iterator<Item = u64> + '_ {
        self.exc_positions
            .iter()
            .filter_map(|&p| self.input.get(usize::from(p)))
            .map(|v| v.to_bits_u64())
    }
}

/// Encodes one vector (Algorithm 1) with the given `(e, f)` combination and
/// hands the result to `land` — the one encode path under
/// [`encode_vector_into`] and the frame-body writer. Both run at the active
/// instruction tier ([`fastlanes::tier`]).
///
/// `input.len()` must be `1..=1024`. Shorter inputs are padded with the patch
/// value so the packed payload is always a full 1024-value vector. The
/// detection buffers live on the stack.
pub(crate) fn encode_vector_with<F: AlpFloat, R>(
    input: &[F],
    e: u8,
    f: u8,
    land: impl FnOnce(&EncodedVector<'_, F>) -> R,
) -> R {
    let len = input.len();
    assert!(len > 0 && len <= VECTOR_SIZE, "vector length {len} out of range");
    tier::run(
        #[inline(always)]
        || encode_vector_kernel(input, e, f, land),
    )
}

/// The body of [`encode_vector_with`], inlined into its tier's trampoline.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "`encode_vector_with` asserts `len` in `1..=1024`; the buffers hold 1024 slots and \
              the positions are `0..len`"
)]
fn encode_vector_kernel<F: AlpFloat, R>(
    input: &[F],
    e: u8,
    f: u8,
    land: impl FnOnce(&EncodedVector<'_, F>) -> R,
) -> R {
    let len = input.len();
    let mut encoded = [0i64; VECTOR_SIZE];
    let mut is_exc = [false; VECTOR_SIZE];
    // A vector the sweet pass verified clean has nothing to patch, and its
    // frame is the pass's min/max (padding repeats `encoded[0]`, which lies
    // inside it).
    let (mismatches, clean_frame) = match sweet_pass(input, e, f, &mut encoded, &mut is_exc) {
        Some((0, min, max)) => (0, Some((min, max))),
        Some((mismatches, ..)) => (mismatches, None),
        None => (cast_pass(input, e, f, &mut encoded, &mut is_exc), None),
    };

    // Exception positions, predicated as in Algorithm 1 (no if-then-else on
    // the value path). The cursor makes this loop serial, so it only runs
    // for vectors that have exceptions.
    let mut exc_positions_buf = [0u16; VECTOR_SIZE];
    let mut exc_count = 0usize;
    if mismatches > 0 {
        for (i, &neq) in is_exc[..len].iter().enumerate() {
            exc_positions_buf[exc_count] = i as u16;
            exc_count += neq as usize;
        }
    }
    let exc_positions = &exc_positions_buf[..exc_count];

    // FIND_FIRST_ENCODED: first position that is *not* an exception. It
    // patches the exception slots and pads a short tail (neither widens the
    // frame).
    let first_encoded = find_first_encoded(&encoded[..len], exc_positions);
    for &p in exc_positions {
        encoded[p as usize] = first_encoded;
    }
    for slot in encoded[len..].iter_mut() {
        *slot = first_encoded;
    }

    let (for_base, bit_width) = match clean_frame {
        Some((min, max)) => (min, fastlanes::bits_needed((max as u64).wrapping_sub(min as u64))),
        None => ffor::frame_of(&encoded),
    };
    land(&EncodedVector {
        exponent: e,
        factor: f,
        bit_width: bit_width as u8,
        for_base,
        input,
        encoded: &encoded,
        exc_positions,
    })
}

/// Encodes one vector (Algorithm 1) with the given `(e, f)` combination,
/// appending its exceptions to `exceptions`.
///
/// `input.len()` must be `1..=1024`. Allocates the vector's packed words and
/// nothing else once the arena is warm.
pub fn encode_vector_into<F: AlpFloat>(
    input: &[F],
    e: u8,
    f: u8,
    exceptions: &mut ExcArena,
) -> AlpVector {
    encode_vector_with(
        input,
        e,
        f,
        #[inline(always)]
        |v| {
            let exc_start = u32::try_from(exceptions.len()).unwrap_or(u32::MAX);
            assert!(
                exc_start as usize == exceptions.len(),
                "exception arena exceeds u32 addressing"
            );
            exceptions.positions.extend_from_slice(v.exc_positions);
            exceptions.values.extend(v.exc_values());
            let mut packed = vec![0u64; fastlanes::packed_len(usize::from(v.bit_width))];
            v.pack_into(&mut packed);
            AlpVector {
                exponent: v.exponent,
                factor: v.factor,
                bit_width: v.bit_width,
                for_base: v.for_base,
                packed,
                exc_start,
                exc_count: v.exc_positions.len() as u16,
                len: v.input.len() as u16,
            }
        },
    )
}

/// Encodes one vector into a fresh private arena — see [`encode_vector_into`]
/// for the shared-arena hot path.
pub fn encode_vector<F: AlpFloat>(input: &[F], e: u8, f: u8) -> OwnedAlpVector {
    let mut exceptions = ExcArena::new();
    let vector = encode_vector_into(input, e, f, &mut exceptions);
    OwnedAlpVector { vector, exceptions }
}

/// Returns the first encoded integer whose position is not in the (sorted)
/// exception list, or 0 if every value is an exception.
#[inline(always)]
fn find_first_encoded(encoded: &[i64], exc_positions: &[u16]) -> i64 {
    let mut exc_iter = exc_positions.iter().peekable();
    for (i, &d) in encoded.iter().enumerate() {
        match exc_iter.peek() {
            Some(&&p) if p as usize == i => {
                exc_iter.next();
            }
            _ => return d,
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_round_is_round_half_to_even() {
        // The FP addition rounds ties to even (banker's rounding).
        let cases: &[(f64, i64)] = &[
            (0.0, 0),
            (0.4, 0),
            (0.6, 1),
            (1.5, 2),
            (2.5, 2),
            (3.5, 4),
            (-0.4, 0),
            (-0.6, -1),
            (-1.5, -2),
            (-2.5, -2),
            (12345.499, 12345),
            (-99999.51, -100000),
        ];
        for &(x, expected) in cases {
            assert_eq!(fast_round(x), expected, "x = {x}");
        }
    }

    #[test]
    fn fast_round_of_nan_and_inf_is_harmless() {
        // The values are garbage but must not panic; the decode-verify step
        // rejects them as exceptions.
        let _ = fast_round(f64::NAN);
        let _ = fast_round(f64::INFINITY);
        let _ = fast_round(f64::NEG_INFINITY);
    }

    #[test]
    fn paper_running_example() {
        // §2.6: n ≈ 8.0605, e = 14, f = 10 encodes to 80605.
        let n: f64 = 8.0605;
        let d = encode_one(n, 14, 10);
        assert_eq!(d, 80605);
        let back: f64 = decode_one(d, 14, 10);
        assert_eq!(back.to_bits(), n.to_bits());
    }

    #[test]
    fn paper_example_fails_with_naive_exponent() {
        // §2.5: using e = 4 (the visible precision) fails for 8.0605.
        let n: f64 = 8.0605;
        let d = encode_one(n, 4, 0);
        let back: f64 = decode_one(d, 4, 0);
        assert_ne!(back.to_bits(), n.to_bits());
    }

    #[test]
    fn encode_vector_roundtrips_decimals_without_exceptions() {
        // (314 + i) / 100: division by an exact power of ten is correctly
        // rounded, so these are genuine "decimals stored as doubles".
        let input: Vec<f64> = (0..1024).map(|i| (314 + i) as f64 / 100.0).collect();
        let v = encode_vector(&input, 14, 12);
        assert_eq!(v.exception_count(), 0);
        assert_eq!(v.len, 1024);
    }

    #[test]
    fn nan_inf_neg_zero_become_exceptions() {
        let mut input = vec![1.5f64; 1024];
        input[0] = f64::NAN;
        input[1] = f64::INFINITY;
        input[2] = f64::NEG_INFINITY;
        input[3] = -0.0;
        input[4] = f64::from_bits(0x7FF0_0000_0000_0001); // signaling-ish NaN
        let v = encode_vector(&input, 14, 13);
        assert_eq!(v.exception_count(), 5);
        assert_eq!(v.exc_positions(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn all_exception_vector_is_representable() {
        let input = vec![f64::NAN; 8];
        let v = encode_vector(&input, 10, 5);
        assert_eq!(v.exception_count(), 8);
        assert_eq!(v.bit_width, 0); // all slots patched with 0
    }

    #[test]
    fn short_vector_padding_does_not_widen_frame() {
        let input = vec![100.25f64, 100.50, 100.75];
        let v = encode_vector(&input, 14, 12);
        assert_eq!(v.len, 3);
        assert_eq!(v.exception_count(), 0);
        // Range of encoded values is 50 -> 6 bits.
        assert!(v.bit_width <= 7, "width {}", v.bit_width);
    }

    #[test]
    fn find_first_encoded_skips_leading_exceptions() {
        let encoded = [7i64, 8, 9];
        assert_eq!(find_first_encoded(&encoded, &[0, 1]), 9);
        assert_eq!(find_first_encoded(&encoded, &[]), 7);
        assert_eq!(find_first_encoded(&encoded, &[0, 1, 2]), 0);
    }

    #[test]
    fn f32_paper_style_roundtrip() {
        let n: f32 = 8.0605;
        let d = encode_one(n, 7, 3);
        let back: f32 = decode_one(d, 7, 3);
        assert_eq!(back.to_bits(), n.to_bits());
    }
}
