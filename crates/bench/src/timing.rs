//! Cycle-level timing.
//!
//! The paper reports **tuples per CPU cycle**. On x86-64 we read the
//! time-stamp counter directly (`rdtsc`; constant-rate on every CPU from the
//! last decade, ticking at the base frequency — the same proxy the paper's
//! methodology implies). On other architectures we fall back to wall-clock
//! nanoseconds scaled by a calibrated frequency estimate.

use std::time::Instant;

/// Reads the cycle counter.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[expect(unsafe_code, reason = "rdtsc is only reachable through an intrinsic")]
pub fn cycles_now() -> u64 {
    // SAFETY: rdtsc has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Fallback: nanoseconds since an arbitrary epoch, scaled to pseudo-cycles
/// using the calibrated frequency.
#[cfg(not(target_arch = "x86_64"))]
pub fn cycles_now() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    (epoch.elapsed().as_nanos() as f64 * tsc_ghz()) as u64
}

/// TSC frequency in GHz, measured once against the wall clock.
pub fn tsc_ghz() -> f64 {
    use std::sync::OnceLock;
    static GHZ: OnceLock<f64> = OnceLock::new();
    *GHZ.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let t0 = Instant::now();
            let c0 = cycles_now();
            while t0.elapsed().as_millis() < 50 {
                std::hint::spin_loop();
            }
            let dc = cycles_now() - c0;
            dc as f64 / t0.elapsed().as_nanos() as f64
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            1.0 // pseudo-cycles == nanoseconds
        }
    })
}

/// Measurement of a repeated operation.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Average cycles per call.
    pub cycles_per_call: f64,
    /// Average nanoseconds per call.
    pub ns_per_call: f64,
    /// Number of calls measured.
    pub calls: u64,
}

impl Measurement {
    /// Tuples per cycle given `tuples` processed per call — the paper's speed
    /// metric (Table 5 / Figure 1).
    pub fn tuples_per_cycle(&self, tuples: usize) -> f64 {
        tuples as f64 / self.cycles_per_call
    }

    /// Cycles per tuple (Figure 6's inverted metric).
    pub fn cycles_per_tuple(&self, tuples: usize) -> f64 {
        self.cycles_per_call / tuples as f64
    }
}

/// Measures `f` adaptively: batches are grown until a batch runs for at least
/// `min_batch_ms`, then `batches` batches are averaged (minimum taken across
/// batches to suppress interference, as is standard for micro-benchmarks).
pub fn measure<F: FnMut()>(mut f: F, min_batch_ms: u64, batches: u32) -> Measurement {
    // Warm up and find a batch size that runs long enough.
    let mut batch: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= min_batch_ms as u128 || batch >= (1 << 30) {
            break;
        }
        // Aim directly for the target with headroom.
        let grow = ((min_batch_ms as f64 * 1.5e6) / (dt.as_nanos().max(1) as f64)).ceil();
        batch = (batch as f64 * grow.clamp(2.0, 1024.0)) as u64;
    }

    let mut best_ns_per_call = f64::INFINITY;
    let mut best_cycles_per_call = f64::INFINITY;
    for _ in 0..batches.max(1) {
        let c0 = cycles_now();
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        let dc = cycles_now().wrapping_sub(c0) as f64;
        best_ns_per_call = best_ns_per_call.min(ns / batch as f64);
        best_cycles_per_call = best_cycles_per_call.min(dc / batch as f64);
    }
    Measurement {
        cycles_per_call: best_cycles_per_call,
        ns_per_call: best_ns_per_call,
        calls: batch * batches as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsc_frequency_is_plausible() {
        let ghz = tsc_ghz();
        assert!((0.5..8.0).contains(&ghz), "{ghz} GHz");
    }

    #[test]
    fn measure_scales_with_work() {
        let small = measure(
            || {
                std::hint::black_box((0..100u64).sum::<u64>());
            },
            2,
            2,
        );
        let large = measure(
            || {
                std::hint::black_box((0..10_000u64).sum::<u64>());
            },
            2,
            2,
        );
        assert!(large.ns_per_call > small.ns_per_call * 5.0);
    }

    #[test]
    fn tuples_per_cycle_math() {
        let m = Measurement { cycles_per_call: 512.0, ns_per_call: 200.0, calls: 1 };
        assert_eq!(m.tuples_per_cycle(1024), 2.0);
        assert_eq!(m.cycles_per_tuple(1024), 0.5);
    }
}
