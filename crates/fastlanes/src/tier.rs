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
//! * [`Kernel`] is a block function with a copy per tier: [`Kernel::of`]
//!   compiles one `#[inline(always)]` [`Body`] as a baseline and a v3
//!   function, each kept out of line, and hands out a pointer to the active
//!   tier's. [`crate::bitpack`]'s packers and unpackers (a body per width,
//!   picked by [`crate::bitpack::packer`] / [`crate::bitpack::unpacker`]) and
//!   `alp::decode::block_sum` are built so. A kernel running under [`run`]
//!   calls one through the pointer, so the block function runs at the tier it
//!   was picked at, not at its caller's; and it stays a call at both tiers,
//!   which is how a body that measured slower inlined into its consumer still
//!   runs at v3.
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
//! A body meant to stay out of line is a [`Kernel`] instead. CI lists the
//! direct calls inside every `run_v3` and `outlined_v3` copy of the release
//! binary and fails on one that is not another v3 copy, the allocator, the
//! unwinder, a panic path or `mem*`.
//!
//! **Choosing.** The tier is detected once per process from CPUID
//! ([`detected`]). [`capped`] runs a closure with the process held to a lower
//! tier, which is how the tests prove both tiers agree and how the `fig4_arch`
//! bench measures what v3 buys, in one process. A build that already targets
//! v3 (`-C target-cpu=x86-64-v3` or newer) compiles both copies the same.
//!
//! **The unsafe boundary.** Calling a `#[target_feature]` function needs the
//! caller's proof that the CPU has the features; it is made here, in [`run`]
//! and [`Kernel::call_with`], and nowhere else. A [`Kernel`] is only ever
//! built by [`Kernel::of`] from a [`Body`] type, so no other crate can make
//! one wrap an arbitrary pointer, and a crate that writes a body needs no
//! `unsafe` of its own.

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

/// A block function's body, written once: [`Kernel::of`] compiles it as a
/// baseline and a `v3!` copy, both out of line, and picks between them. The
/// body runs inside each copy only if it is inlined there, so its `run`
/// carries `#[inline(always)]`, as do the helpers it reaches.
///
/// `P` is passed by value, so scalars (a predicate's bounds, say) arrive in
/// registers: loaded from memory inside the v3 copy, two adjacent floats were
/// fused into one vector and the loop around them lost its clean lanes.
pub trait Body<I: ?Sized, O: ?Sized, P = ()> {
    /// The body: read `input` and `param`, write `out`.
    fn run(input: &I, out: &mut O, param: P);
}

/// A block function with one copy per tier, called at the one [`active`]
/// when it was picked: `fn(&I, &mut O, P)`, as [`crate::bitpack::Unpack64`]
/// / [`crate::bitpack::Pack64`] are (with no `P`). Built only by
/// [`Kernel::of`], from a [`Body`], so it never holds any other pointer.
pub struct Kernel<I: ?Sized, O: ?Sized, P = ()> {
    copy: unsafe fn(&I, &mut O, P),
    tier: Tier,
}

impl<I: ?Sized, O: ?Sized, P> Kernel<I, O, P> {
    /// `B`'s copy for the active tier. Each copy is a function of its own,
    /// never inlined into its caller: a kernel running under [`run`] calls
    /// it through the pointer, so its body runs at the tier it was picked
    /// for, whatever tier the caller was compiled for.
    #[inline(always)]
    pub fn of<B: Body<I, O, P>>() -> Self {
        let tier = active();
        let copy: unsafe fn(&I, &mut O, P) = match tier {
            Tier::V3 => outlined_v3::<B, I, O, P>,
            Tier::Baseline => outlined::<B, I, O, P>,
        };
        Self { copy, tier }
    }

    /// The tier of the copy this kernel calls.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Calls the picked copy.
    #[inline(always)]
    pub fn call_with(&self, input: &I, out: &mut O, param: P) {
        // SAFETY: `of` hands out the `v3!` copy only while `active()` is
        // `V3`, i.e. on a CPU `detected()` found every feature of it on; the
        // baseline copy is a safe function.
        unsafe { (self.copy)(input, out, param) }
    }
}

impl<I: ?Sized, O: ?Sized> Kernel<I, O> {
    /// Calls the picked copy of a kernel that takes no `P`.
    #[inline(always)]
    pub fn call(&self, input: &I, out: &mut O) {
        self.call_with(input, out, ());
    }
}

impl<I: ?Sized, O: ?Sized, P> Clone for Kernel<I, O, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<I: ?Sized, O: ?Sized, P> Copy for Kernel<I, O, P> {}

impl<I: ?Sized, O: ?Sized, P> core::fmt::Debug for Kernel<I, O, P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel").field("tier", &self.tier).finish()
    }
}

/// [`Body`] `B` at the build's tier.
#[inline(never)]
fn outlined<B: Body<I, O, P>, I: ?Sized, O: ?Sized, P>(input: &I, out: &mut O, param: P) {
    B::run(input, out, param);
}

v3! {
    /// [`Body`] `B` at x86-64-v3. Off x86-64 [`active`] never reports `V3`,
    /// so this copy is never picked there.
    #[inline(never)]
    fn outlined_v3<B: Body<I, O, P>, I: ?Sized, O: ?Sized, P>(input: &I, out: &mut O, param: P) {
        B::run(input, out, param);
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

    #[test]
    fn a_kernel_runs_its_body_at_the_tier_it_was_picked_at() {
        struct ScaledSum;
        impl Body<[f64], f64, f64> for ScaledSum {
            #[inline(always)]
            fn run(xs: &[f64], out: &mut f64, scale: f64) {
                *out = xs.iter().fold(0.0, |a, &x| a + x * scale);
            }
        }
        let xs: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.1).collect();
        let at = |cap| {
            capped(cap, || {
                let kernel = Kernel::of::<ScaledSum>();
                let mut out = 0.0;
                kernel.call_with(&xs, &mut out, 0.5);
                (kernel.tier(), out.to_bits())
            })
        };
        let (fast, slow) = (at(Tier::V3), at(Tier::Baseline));
        assert_eq!((fast.0, slow.0), (detected(), Tier::Baseline));
        assert_eq!(fast.1, slow.1);
    }
}
