//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! the narrow slice of `rand` it actually uses: [`rngs::SmallRng`] (the same
//! xoshiro256++ generator the real `SmallRng` uses on 64-bit targets, seeded
//! through SplitMix64 exactly like `SeedableRng::seed_from_u64`), and the
//! [`Rng`] methods `gen`, `gen_bool`, and `gen_range` over integer and float
//! ranges. Distributions are uniform; sampling details may differ from
//! upstream `rand` in low-order bits, which the statistical generators in
//! `datagen` tolerate by construction.

use core::ops::{Range, RangeInclusive};

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of seedable generators.
pub trait SeedableRng: Sized {
    /// Derives a full seed from a single `u64` (SplitMix64 expansion, as in
    /// upstream `rand`).
    fn seed_from_u64(state: u64) -> Self;
}

/// Value types samplable by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics on empty ranges.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range");
        let u: f64 = Standard::sample(rng);
        lo + u * (hi - lo)
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p));
        let u: f64 = Standard::sample(self);
        u < p
    }

    /// Uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore> Rng for R {}

/// SplitMix64 step — seed expansion (identical to upstream `rand`'s
/// `seed_from_u64`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// xoshiro256++ — the algorithm behind `rand`'s 64-bit `SmallRng`.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v: i64 = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
            let u: usize = rng.gen_range(0..7usize);
            assert!(u < 7);
            let f: f64 = rng.gen_range(1.0f64..2.0);
            assert!((1.0..2.0).contains(&f));
            let p: f64 = rng.gen();
            assert!((0.0..1.0).contains(&p));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "{hits}");
    }

    #[test]
    fn inclusive_range_reaches_both_ends() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..=2)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
