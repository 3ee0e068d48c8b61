//! Runtime bit-width → monomorphized kernel dispatch.
//!
//! Packing kernels want the bit width as a compile-time constant so masks,
//! shifts and word indices fold to literals, but the width is only known at
//! runtime (it is stored per vector). [`with_width`] bridges the two: a
//! 65-arm match, written once, that instantiates a caller-supplied
//! [`WidthKernel`] at every width.

/// A computation parameterized by a const bit width.
///
/// Implementors capture their inputs/outputs in the struct and do the work in
/// [`WidthKernel::run`]; [`with_width`] selects the monomorphization.
pub trait WidthKernel {
    /// Result produced by the kernel.
    type Out;
    /// Executes the kernel with `W` as a compile-time width in `0..=64`.
    fn run<const W: usize>(self) -> Self::Out;
}

/// Invokes `k` with the const-generic width equal to the runtime `width`.
///
/// # Panics
/// Panics if `width > 64`.
#[inline]
pub fn with_width<K: WidthKernel>(width: usize, k: K) -> K::Out {
    match width {
        0 => k.run::<0>(),
        1 => k.run::<1>(),
        2 => k.run::<2>(),
        3 => k.run::<3>(),
        4 => k.run::<4>(),
        5 => k.run::<5>(),
        6 => k.run::<6>(),
        7 => k.run::<7>(),
        8 => k.run::<8>(),
        9 => k.run::<9>(),
        10 => k.run::<10>(),
        11 => k.run::<11>(),
        12 => k.run::<12>(),
        13 => k.run::<13>(),
        14 => k.run::<14>(),
        15 => k.run::<15>(),
        16 => k.run::<16>(),
        17 => k.run::<17>(),
        18 => k.run::<18>(),
        19 => k.run::<19>(),
        20 => k.run::<20>(),
        21 => k.run::<21>(),
        22 => k.run::<22>(),
        23 => k.run::<23>(),
        24 => k.run::<24>(),
        25 => k.run::<25>(),
        26 => k.run::<26>(),
        27 => k.run::<27>(),
        28 => k.run::<28>(),
        29 => k.run::<29>(),
        30 => k.run::<30>(),
        31 => k.run::<31>(),
        32 => k.run::<32>(),
        33 => k.run::<33>(),
        34 => k.run::<34>(),
        35 => k.run::<35>(),
        36 => k.run::<36>(),
        37 => k.run::<37>(),
        38 => k.run::<38>(),
        39 => k.run::<39>(),
        40 => k.run::<40>(),
        41 => k.run::<41>(),
        42 => k.run::<42>(),
        43 => k.run::<43>(),
        44 => k.run::<44>(),
        45 => k.run::<45>(),
        46 => k.run::<46>(),
        47 => k.run::<47>(),
        48 => k.run::<48>(),
        49 => k.run::<49>(),
        50 => k.run::<50>(),
        51 => k.run::<51>(),
        52 => k.run::<52>(),
        53 => k.run::<53>(),
        54 => k.run::<54>(),
        55 => k.run::<55>(),
        56 => k.run::<56>(),
        57 => k.run::<57>(),
        58 => k.run::<58>(),
        59 => k.run::<59>(),
        60 => k.run::<60>(),
        61 => k.run::<61>(),
        62 => k.run::<62>(),
        63 => k.run::<63>(),
        64 => k.run::<64>(),
        // An exhaustive match over usize needs a catch-all arm; widths come
        // from `bit_width(u64)` and are ≤ 64 by construction, so this arm is
        // unreachable without a kernel bug.
        w => panic!("bit width {w} out of range 0..=64"),
    }
}

/// Mask with the low `W` bits set; full mask for `W == 64`.
#[inline]
pub const fn width_mask<const W: usize>() -> u64 {
    if W >= 64 {
        u64::MAX
    } else if W == 0 {
        0
    } else {
        (1u64 << W) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe;
    impl WidthKernel for Probe {
        type Out = usize;
        fn run<const W: usize>(self) -> usize {
            W
        }
    }

    #[test]
    fn dispatch_hits_every_width() {
        for w in 0..=64 {
            assert_eq!(with_width(w, Probe), w);
        }
    }

    #[test]
    #[should_panic]
    fn dispatch_rejects_oversized_width() {
        with_width(65, Probe);
    }

    #[test]
    fn masks() {
        assert_eq!(width_mask::<0>(), 0);
        assert_eq!(width_mask::<1>(), 1);
        assert_eq!(width_mask::<63>(), u64::MAX >> 1);
        assert_eq!(width_mask::<64>(), u64::MAX);
    }
}
