//! One kernel set, two instruction tiers, chosen at runtime.
//!
//! Every kernel in the workspace is written once, as portable Rust the
//! compiler auto-vectorizes. A stock build targets baseline x86-64 (SSE2), so
//! that is all the vectorizer may use, whatever the CPU underneath has. This
//! module compiles the hot kernels a second time for **x86-64-v3** (AVX2,
//! FMA, BMI1/2, LZCNT, MOVBE, F16C) and runs that copy when the CPU has every
//! one of those features:
//!
//! * [`run`] executes a closure inside a `#[target_feature]` trampoline. The
//!   closure — and whatever it inlines — is compiled for the tier; the price
//!   is one relaxed load and a predictable branch per call, so kernels take it
//!   once per 1024-value vector, never per value.
//! * [`Kernel`] is a block function picked per tier: [`crate::bitpack`]'s
//!   packers and unpackers come as two tables of 65 widths, and
//!   [`crate::bitpack::packer`] / [`crate::bitpack::unpacker`] hand out the
//!   active tier's entry. A kernel running under [`run`] calls them through a
//!   pointer, so without the second table its packing would stay baseline.
//!
//! **Same bits at every tier.** The kernels use no operation whose result
//! depends on the instruction set: Rust never contracts `a * b + c` into a
//! fused multiply-add, integer and bit operations are exact, and every float
//! reduction has an association order fixed by the source (the canonical sum
//! of `alp::decode`). The tier changes how fast a kernel runs, not what it
//! writes; `tests/kernel_differential.rs` runs the kernels at both tiers and
//! compares bits.
//!
//! **Inlining is the contract.** Code reached from [`run`] is compiled for the
//! tier only if it is inlined into the trampoline. The closure a kernel hands
//! to [`run`] carries `#[inline(always)]` (an attribute a closure in argument
//! position may take), and so do the helpers it reaches; a call that is not
//! inlined (a pointer, a function the optimizer keeps out of line) runs at
//! the tier that function was compiled for — still correct, just not faster.
//!
//! **Choosing.** The tier is detected once per process from CPUID
//! ([`detected`]). [`capped`] runs a closure with the process held to a lower
//! tier, which is how the tests prove both tiers agree and how the `fig4_arch`
//! bench measures what v3 buys, in one process. A build that already targets
//! v3 (`-C target-cpu=x86-64-v3` or newer) compiles both copies the same.

#![expect(
    unsafe_code,
    reason = "a `#[target_feature]` function may only be called where the feature is proven \
              present; this module is the one place that proof is made"
)]

use core::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// Applies the x86-64-v3 feature set to a function on x86-64; elsewhere the
/// function is compiled as it stands and [`active`] never reports
/// [`Tier::V3`].
macro_rules! v3 {
    ($item:item) => {
        #[cfg_attr(
            target_arch = "x86_64",
            target_feature(enable = "avx2,bmi1,bmi2,fma,lzcnt,movbe,f16c,popcnt")
        )]
        $item
    };
}
pub(crate) use v3;

/// An instruction tier the kernels can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// What the build targets (baseline x86-64: SSE2, unless `-C target-cpu`
    /// says more).
    Baseline,
    /// x86-64-v3: AVX2, FMA, BMI1/2, LZCNT, MOVBE, F16C.
    V3,
}

impl Tier {
    /// The tier's name as the microarchitecture levels spell it.
    pub const fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "x86-64",
            Tier::V3 => "x86-64-v3",
        }
    }

    const fn code(self) -> u8 {
        match self {
            Tier::Baseline => 1,
            Tier::V3 => 2,
        }
    }
}

impl core::fmt::Display for Tier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tier kernels run at: 0 until first asked, then [`Tier::code`].
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The best tier this CPU supports.
pub fn detected() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        let v3 = std::is_x86_feature_detected!("avx2")
            && std::is_x86_feature_detected!("bmi1")
            && std::is_x86_feature_detected!("bmi2")
            && std::is_x86_feature_detected!("fma")
            && std::is_x86_feature_detected!("lzcnt")
            && std::is_x86_feature_detected!("movbe")
            && std::is_x86_feature_detected!("f16c")
            && std::is_x86_feature_detected!("popcnt");
        if v3 {
            return Tier::V3;
        }
    }
    Tier::Baseline
}

/// The tier kernels run at now: [`detected`], unless a [`capped`] call holds
/// the process lower.
#[inline(always)]
pub fn active() -> Tier {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Tier::Baseline,
        2 => Tier::V3,
        _ => first_active(),
    }
}

#[cold]
fn first_active() -> Tier {
    let tier = detected();
    // A `capped` call that got here first keeps its cap.
    match ACTIVE.compare_exchange(0, tier.code(), Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => tier,
        Err(_) => active(),
    }
}

/// Runs `f` with the process's kernels held to at most `cap` (never above
/// [`detected`]), then restores the tier that was active. Calls are
/// serialized by a lock and must not nest. Another thread's kernels run at
/// the cap meanwhile too — which changes their speed, never their output.
pub fn capped<R>(cap: Tier, f: impl FnOnce() -> R) -> R {
    static SERIAL: Mutex<()> = Mutex::new(());
    /// Puts the previous tier back even if `f` unwinds.
    struct Restore(Tier);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.store(self.0.code(), Ordering::Relaxed);
        }
    }
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let before = active();
    let _restore = Restore(before);
    ACTIVE.store(cap.min(before).code(), Ordering::Relaxed);
    f()
}

/// Runs `kernel` compiled for the active tier (module docs): inlined into a
/// v3 trampoline when the CPU has v3, called as it stands otherwise.
#[inline(always)]
pub fn run<R>(kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if active() == Tier::V3 {
        // SAFETY: `active()` reports `V3` only on x86-64 and only after
        // `detected()` found every feature `v3!` enables on this CPU.
        return unsafe { run_v3(kernel) };
    }
    kernel()
}

v3! {
    #[cfg(target_arch = "x86_64")]
    fn run_v3<R>(kernel: impl FnOnce() -> R) -> R {
        kernel()
    }
}

/// A block function with one copy per tier, called at the one [`active`]
/// when it was picked: `fn(&I, &mut O)`, as [`crate::bitpack::Unpack64`] /
/// [`crate::bitpack::Pack64`] are. Built only inside this crate, from a
/// baseline function and its `v3!` twin.
pub struct Kernel<I: ?Sized, O: ?Sized>(unsafe fn(&I, &mut O));

impl<I: ?Sized, O: ?Sized> Kernel<I, O> {
    /// The copy for the active tier. `v3` must be a safe function under
    /// `v3!` (its only precondition the tier's features), coerced.
    #[inline]
    pub(crate) fn pick(baseline: fn(&I, &mut O), v3: unsafe fn(&I, &mut O)) -> Self {
        Self(if active() == Tier::V3 { v3 } else { baseline })
    }

    /// Calls the picked copy.
    #[inline(always)]
    pub fn call(&self, input: &I, out: &mut O) {
        // SAFETY: `pick` hands out the `v3!` copy only while `active()` is
        // `V3`, i.e. on a CPU `detected()` found every feature of it on; the
        // baseline copy is a safe function.
        unsafe { (self.0)(input, out) }
    }
}

impl<I: ?Sized, O: ?Sized> Clone for Kernel<I, O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<I: ?Sized, O: ?Sized> Copy for Kernel<I, O> {}

impl<I: ?Sized, O: ?Sized> core::fmt::Debug for Kernel<I, O> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Kernel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_lowers_and_restores_the_tier() {
        // Inside `capped` no other cap is in force (calls are serialized), so
        // the tier there is exactly the cap, bounded by the CPU.
        assert_eq!(capped(Tier::Baseline, active), Tier::Baseline);
        assert_eq!(capped(Tier::V3, active), detected(), "a cap never raises the tier");
    }

    #[test]
    fn run_returns_the_kernels_result_at_both_tiers() {
        let sum = |xs: &[f64]| xs.iter().fold(0.0, |a, &x| a + x);
        let xs: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.1).collect();
        let fast = run(|| sum(&xs));
        let slow = capped(Tier::Baseline, || run(|| sum(&xs)));
        assert_eq!(fast.to_bits(), slow.to_bits());
    }
}
