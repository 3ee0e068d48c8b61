//! The [`AlpFloat`] abstraction that lets the same encoder handle `f64`
//! (the paper's main subject, §3) and `f32` (§4.4) without duplicating logic.

use core::fmt::Debug;
use core::ops::{Add, Mul, Sub};

/// A floating-point type ALP can compress.
///
/// The associated constants encode the IEEE 754 parameters the scheme depends
/// on: the exact-power-of-ten limit for the exponent search space and the
/// "sweet spot" constant used by the SIMD-friendly fast-rounding trick
/// (`2^(m-1) + 2^(m-2)` where `m` is the mantissa width + 1).
pub trait AlpFloat:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Send
    + Sync
    + Mul<Output = Self>
    + Add<Output = Self>
    + Sub<Output = Self>
    + 'static
{
    /// Total bit width of the type (64 or 32).
    const BITS: u32;
    /// Largest exponent `e` with an exactly representable `10^e`
    /// (21 for doubles, 10 for floats — §2.5 of the paper).
    const MAX_EXPONENT: u8;
    /// `2^51 + 2^52` for doubles, `2^22 + 2^23` for floats: adding and
    /// subtracting this constant rounds to nearest integer (§3.1).
    const SWEET: Self;
    /// Integers of magnitude up to this (`2^50` / `2^21`) convert to and
    /// from the float domain through [`AlpFloat::SWEET`]'s mantissa — see
    /// [`AlpFloat::from_i64_magic`]. A quarter of the sweet spot's exact
    /// range, so a sum with `SWEET` never leaves its binade.
    const MAGIC_LIMIT: i64;
    /// Unit roundoff `u`, the largest relative error of one rounding
    /// (`2^-53` / `2^-24`).
    const UNIT_ROUNDOFF: f64;
    /// Human-readable name for reports ("f64" / "f32").
    const NAME: &'static str;

    /// Exact positive power of ten `10^e`, `e <= MAX_EXPONENT`.
    fn f10(e: u8) -> Self;
    /// Inverse power of ten `10^-e` (inexact for most `e`, by design).
    fn if10(e: u8) -> Self;
    /// Raw bit pattern, zero-extended to 64 bits.
    fn to_bits_u64(self) -> u64;
    /// Inverse of [`AlpFloat::to_bits_u64`]; the upper bits must be zero for `f32`.
    fn from_bits_u64(bits: u64) -> Self;
    /// Exact conversion from an encoded integer back to the float domain.
    fn from_i64(v: i64) -> Self;
    /// Saturating cast to `i64` (Rust `as` semantics: NaN → 0).
    fn to_i64_cast(self) -> i64;
    /// Exact widening to `f64`.
    fn to_f64(self) -> f64;
    /// [`AlpFloat::from_i64`] for `|d| <= MAGIC_LIMIT` without an int→float
    /// conversion instruction (scalar-only on baseline x86-64): `SWEET + d`
    /// has `SWEET`'s exponent and `d` added to its mantissa, so an integer
    /// add on the bit pattern builds it, and subtracting `SWEET` is exact.
    #[inline(always)]
    fn from_i64_magic(d: i64) -> Self {
        Self::from_bits_u64((d as u64).wrapping_add(Self::SWEET.to_bits_u64())) - Self::SWEET
    }
    /// Inverse of [`AlpFloat::from_i64_magic`]: the integer `r - SWEET` read
    /// from the mantissa of `r`, for `r = x + SWEET` with `|x| < MAGIC_LIMIT`
    /// (any other `r` yields a meaningless integer, never a panic).
    #[inline(always)]
    fn sweet_to_i64(r: Self) -> i64 {
        r.to_bits_u64().wrapping_sub(Self::SWEET.to_bits_u64()) as i64
    }
    /// True iff the value is NaN — the "invalid" state of the fused-scan
    /// validity bitmaps.
    fn is_nan(self) -> bool;
}

/// `10^e` for `e ∈ 0..=22`, all exactly representable as doubles.
const F10_F64: [f64; 23] = [
    1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
    1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `10^-e` for `e ∈ 0..=22`. Most are inexact; ALP relies on the inexactness
/// being too small to disturb the rounded integer (§2.6).
const IF10_F64: [f64; 23] = [
    1.0, 0.1, 0.01, 0.001, 0.0001, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14,
    1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22,
];

impl AlpFloat for f64 {
    const BITS: u32 = 64;
    const MAX_EXPONENT: u8 = 21;
    const SWEET: f64 = 6755399441055744.0; // 2^51 + 2^52
    const MAGIC_LIMIT: i64 = 1 << 50;
    const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn f10(e: u8) -> f64 {
        F10_F64[e as usize]
    }
    #[inline(always)]
    fn if10(e: u8) -> f64 {
        IF10_F64[e as usize]
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_bits_u64(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
    #[inline(always)]
    fn from_i64(v: i64) -> f64 {
        v as f64
    }
    #[inline(always)]
    fn to_i64_cast(self) -> i64 {
        self as i64
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
}

/// `10^e` for `e ∈ 0..=10`, all exactly representable as `f32`
/// (`5^10 = 9765625 < 2^24`).
const F10_F32: [f32; 11] = [1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1e6, 1e7, 1e8, 1e9, 1e10];

const IF10_F32: [f32; 11] = [1.0, 0.1, 0.01, 0.001, 0.0001, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10];

impl AlpFloat for f32 {
    const BITS: u32 = 32;
    const MAX_EXPONENT: u8 = 10;
    const SWEET: f32 = 12582912.0; // 2^22 + 2^23
    const MAGIC_LIMIT: i64 = 1 << 21;
    const UNIT_ROUNDOFF: f64 = f32::EPSILON as f64 / 2.0;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn f10(e: u8) -> f32 {
        F10_F32[e as usize]
    }
    #[inline(always)]
    fn if10(e: u8) -> f32 {
        IF10_F32[e as usize]
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline(always)]
    fn from_bits_u64(bits: u64) -> f32 {
        f32::from_bits(bits as u32)
    }
    #[inline(always)]
    fn from_i64(v: i64) -> f32 {
        v as f32
    }
    #[inline(always)]
    fn to_i64_cast(self) -> i64 {
        self as i64
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
}

/// Number of (exponent, factor) combinations in the full search space:
/// `Σ_{e=0..=MAX} (e+1)` — 253 for doubles (matching §2.6), 66 for floats.
pub const fn search_space_size<F: AlpFloat>() -> usize {
    let m = F::MAX_EXPONENT as usize;
    (m + 1) * (m + 2) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_ten_are_exact_f64() {
        let mut p: f64 = 1.0;
        for e in 0..=21u8 {
            assert_eq!(f64::f10(e), p, "10^{e}");
            p *= 10.0; // exact while p*10 < 2^53 * ulp scale; holds through 1e22
        }
    }

    #[test]
    fn powers_of_ten_are_exact_f32() {
        let mut p: f32 = 1.0;
        for e in 0..=10u8 {
            assert_eq!(f32::f10(e), p, "10^{e}");
            p *= 10.0;
        }
    }

    #[test]
    fn sweet_constants() {
        assert_eq!(f64::SWEET, (1u64 << 51) as f64 + (1u64 << 52) as f64);
        assert_eq!(f32::SWEET, (1u32 << 22) as f32 + (1u32 << 23) as f32);
    }

    #[test]
    fn search_space_matches_paper() {
        assert_eq!(search_space_size::<f64>(), 253);
        assert_eq!(search_space_size::<f32>(), 66);
    }

    #[test]
    fn bits_roundtrip_preserves_nan_payloads() {
        let weird = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        assert_eq!(f64::from_bits_u64(weird.to_bits_u64()).to_bits(), weird.to_bits());
        let weird32 = f32::from_bits(0x7FC0_1234);
        assert_eq!(f32::from_bits_u64(weird32.to_bits_u64()).to_bits(), weird32.to_bits());
    }
}
