//! Fault-tolerant I/O primitives: deterministic fault injection and bounded
//! retry, shared by the streaming layer and the fault-injection test suites.
//!
//! Production storage sits behind I/O that fails in more ways than "works" or
//! "doesn't": reads come back short, syscalls are interrupted, non-blocking
//! sinks push back, and a crashing writer tears its last frame mid-byte. The
//! streaming layer ([`crate::stream`]) absorbs the *transient* class of these
//! faults with a bounded [`RetryPolicy`] and surfaces the *hard* class as
//! typed errors; this module provides both the retry machinery and the
//! [`FaultyRead`]/[`FaultyWrite`] wrappers the tests use to prove it. The
//! pipelined ingest path ([`crate::pipeline`]) keeps every sink operation on
//! the caller thread, so the same retry semantics hold under concurrent
//! compression.
//!
//! Everything is deterministic: a [`FaultPlan`] is a pure function of its
//! seed and the wrapper's operation/byte counters — no clocks, no global RNG —
//! so every failure observed in a test reproduces exactly from the seed
//! printed with it (see [`FAULT_SEED_ENV`] and the CI seed matrix).
//!
//! Fault taxonomy (DESIGN.md §11):
//!
//! * **transient** — [`ErrorKind::Interrupted`] / [`ErrorKind::WouldBlock`]
//!   and short reads/writes; retryable, absorbed by [`read_full_retry`] /
//!   [`write_all_retry`] up to the policy budget;
//! * **hard** — any other [`io::Error`]; never retried, surfaced immediately;
//! * **torn** — the sink persists a strict prefix of what was written and
//!   then hard-fails, as when the writing process dies; detected by the
//!   stream commit footer, recovered by salvage;
//! * **poisoned morsel** — a panic inside one parallel work unit; contained
//!   by [`crate::par::run_morsels_contained`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::io::{self, ErrorKind, Read, Write};
use std::time::Duration;

/// Environment variable the fault-injection suites read to pick their base
/// seed, so CI can sweep a seed matrix without recompiling.
pub const FAULT_SEED_ENV: &str = "ALP_FAULT_SEED";

/// Resolves the fault-injection base seed: a nonempty, parseable
/// `ALP_FAULT_SEED` wins, otherwise `default`.
pub fn fault_seed(default: u64) -> u64 {
    match std::env::var(FAULT_SEED_ENV) {
        Ok(v) => v.trim().parse::<u64>().unwrap_or(default),
        Err(_) => default,
    }
}

/// SplitMix64 step — the same tiny generator the corruption harness uses,
/// inlined here so the fault layer stays dependency-free. Public because the
/// whole deterministic-fault family ([`FaultPlan`], the query
/// service's poisoned-page injection) derives its schedules from this one
/// mixer: every consumer is a pure function of `(seed, counter)`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a [`FaultPlan`] injects into one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Let the operation through untouched.
    None,
    /// Deliver at most this many bytes (short read / short write).
    Short(usize),
    /// Fail with [`ErrorKind::Interrupted`] (retryable).
    Interrupted,
    /// Fail with [`ErrorKind::WouldBlock`] (retryable).
    WouldBlock,
    /// Fail hard with [`ErrorKind::Other`] (never retried).
    Hard,
}

/// A deterministic, seedable schedule of I/O faults.
///
/// The decision for operation `n` is a pure function of `(seed, n)` — and,
/// for torn writes, of the byte counter — so a wrapper replays the same fault
/// sequence on every run with the same seed. Rates are expressed as "one in
/// `every` operations", chosen by hashing the operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Inject a transient (`Interrupted`/`WouldBlock`) roughly 1-in-`n` ops.
    transient_every: Option<u64>,
    /// Truncate the buffer of roughly 1-in-`n` ops (short read/write).
    short_every: Option<u64>,
    /// Persist exactly this many bytes, then hard-fail every later write.
    torn_at_byte: Option<u64>,
    /// Hard-fail exactly this operation index.
    hard_at_op: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as the fault-free control arm).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            transient_every: None,
            short_every: None,
            torn_at_byte: None,
            hard_at_op: None,
        }
    }

    /// Injects `Interrupted`/`WouldBlock` on roughly one in `every` ops.
    pub fn with_transients(mut self, every: u64) -> Self {
        self.transient_every = Some(every.max(1));
        self
    }

    /// Truncates roughly one in `every` operations to half its buffer.
    pub fn with_short_ops(mut self, every: u64) -> Self {
        self.short_every = Some(every.max(1));
        self
    }

    /// Persists exactly `byte` bytes, then hard-fails forever — the torn
    /// write of a process killed mid-stream.
    pub fn with_torn_write_at(mut self, byte: u64) -> Self {
        self.torn_at_byte = Some(byte);
        self
    }

    /// Hard-fails operation `op` (0-based) with [`ErrorKind::Other`].
    pub fn with_hard_fault_at(mut self, op: u64) -> Self {
        self.hard_at_op = Some(op);
        self
    }

    /// The deterministic decision for operation `op` with `bytes_done` bytes
    /// already forwarded and `requested` bytes asked for.
    fn decide(&self, op: u64, bytes_done: u64, requested: usize) -> Fault {
        if self.hard_at_op == Some(op) {
            return Fault::Hard;
        }
        if let Some(at) = self.torn_at_byte {
            if bytes_done >= at {
                return Fault::Hard;
            }
            let room = (at - bytes_done) as usize;
            if room < requested {
                return Fault::Short(room);
            }
        }
        let h = splitmix64(self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Some(every) = self.transient_every {
            if h.is_multiple_of(every) {
                return if h & (1 << 32) == 0 { Fault::Interrupted } else { Fault::WouldBlock };
            }
        }
        if let Some(every) = self.short_every {
            if (h >> 8).is_multiple_of(every) && requested > 1 {
                return Fault::Short(requested / 2);
            }
        }
        Fault::None
    }
}

/// True for the error kinds the `Read`/`Write` contracts call retryable.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock)
}

fn injected(kind: ErrorKind, op: u64) -> io::Error {
    io::Error::new(kind, format!("injected fault at op {op}"))
}

/// A [`Read`] wrapper that injects faults per a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyRead<R> {
    inner: R,
    plan: FaultPlan,
    ops: u64,
    bytes: u64,
}

impl<R: Read> FaultyRead<R> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        Self { inner, plan, ops: 0, bytes: 0 }
    }

    /// Operations attempted so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Bytes actually delivered so far.
    pub fn bytes_forwarded(&self) -> u64 {
        self.bytes
    }

    /// Unwraps the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let op = self.ops;
        self.ops += 1;
        match self.plan.decide(op, self.bytes, buf.len()) {
            Fault::Hard => Err(injected(ErrorKind::Other, op)),
            Fault::Interrupted => Err(injected(ErrorKind::Interrupted, op)),
            Fault::WouldBlock => Err(injected(ErrorKind::WouldBlock, op)),
            Fault::Short(max) => {
                let take = max.min(buf.len()).max(1);
                let Some(slice) = buf.get_mut(..take) else { return Ok(0) };
                let n = self.inner.read(slice)?;
                self.bytes += n as u64;
                Ok(n)
            }
            Fault::None => {
                let n = self.inner.read(buf)?;
                self.bytes += n as u64;
                Ok(n)
            }
        }
    }
}

/// A [`Write`] wrapper that injects faults per a [`FaultPlan`] — including
/// the torn write: once the plan's byte budget is spent, nothing further
/// reaches the sink, exactly as when the writing process dies.
#[derive(Debug)]
pub struct FaultyWrite<W> {
    inner: W,
    plan: FaultPlan,
    ops: u64,
    bytes: u64,
}

impl<W: Write> FaultyWrite<W> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        Self { inner, plan, ops: 0, bytes: 0 }
    }

    /// Operations attempted so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Bytes actually persisted to the sink so far.
    pub fn bytes_forwarded(&self) -> u64 {
        self.bytes
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = self.ops;
        self.ops += 1;
        match self.plan.decide(op, self.bytes, buf.len()) {
            Fault::Hard => Err(injected(ErrorKind::Other, op)),
            Fault::Interrupted => Err(injected(ErrorKind::Interrupted, op)),
            Fault::WouldBlock => Err(injected(ErrorKind::WouldBlock, op)),
            Fault::Short(max) => {
                let take = max.min(buf.len()).max(1);
                let Some(slice) = buf.get(..take) else { return Ok(0) };
                let n = self.inner.write(slice)?;
                self.bytes += n as u64;
                Ok(n)
            }
            Fault::None => {
                let n = self.inner.write(buf)?;
                self.bytes += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Bounded retry-with-backoff for transient I/O faults.
///
/// `max_attempts` bounds how many *transient* failures one logical operation
/// (a full-buffer read or write) absorbs before giving up; `base_backoff` is
/// the sleep before the first retry, doubled on each subsequent one (capped
/// at 100 ms). Hard errors are never retried. A zero `base_backoff` retries
/// immediately, which is what the deterministic tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Transient failures tolerated per logical operation.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per retry, capped at 100 ms.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Eight transient failures, 1 ms initial backoff — a budget that rides
    /// out bursts of `EINTR` without stalling a genuinely dead source for
    /// more than ~a quarter second.
    fn default() -> Self {
        Self { max_attempts: 8, base_backoff: Duration::from_millis(1) }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every transient is surfaced as-is.
    pub fn none() -> Self {
        Self { max_attempts: 0, base_backoff: Duration::ZERO }
    }

    /// A policy that retries `max_attempts` times with no backoff sleep —
    /// the right shape for deterministic tests.
    pub fn immediate(max_attempts: u32) -> Self {
        Self { max_attempts, base_backoff: Duration::ZERO }
    }

    /// The exact delay retry number `attempt` (1-based) will sleep: the
    /// doubling schedule `base_backoff * 2^(attempt-1)`, capped at 100 ms.
    /// Exposed so tests can assert the schedule without sleeping.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff.saturating_mul(factor).min(Duration::from_millis(100))
    }

    /// Sleeps for the backoff of retry number `attempt` (1-based).
    fn backoff(&self, attempt: u32) {
        let delay = self.backoff_delay(attempt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
}

/// The typed error surfaced when a transient fault outlives its retry
/// budget. Wrapped in an [`io::Error`] of the *original* transient kind so
/// `e.kind()` still tells the caller what kept failing; downcast the inner
/// error to recover the attempt count.
#[derive(Debug)]
pub struct RetryExhausted {
    /// Transient failures absorbed before giving up.
    pub attempts: u32,
    /// Kind of the last transient failure.
    pub last_kind: ErrorKind,
}

impl core::fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "transient I/O fault ({:?}) persisted after {} attempts",
            self.last_kind, self.attempts
        )
    }
}

impl std::error::Error for RetryExhausted {}

fn exhausted(attempts: u32, last: &io::Error) -> io::Error {
    io::Error::new(last.kind(), RetryExhausted { attempts, last_kind: last.kind() })
}

/// Reads exactly `buf.len()` bytes, absorbing up to `policy.max_attempts`
/// transient faults ([`ErrorKind::Interrupted`], [`ErrorKind::WouldBlock`])
/// with backoff. Short reads are not faults — the loop simply continues.
/// Returns [`ErrorKind::UnexpectedEof`] if the source ends early, the
/// original error for hard faults, and a [`RetryExhausted`]-wrapped error
/// when the transient budget runs out.
pub fn read_full_retry<R: Read + ?Sized>(
    source: &mut R,
    buf: &mut [u8],
    policy: &RetryPolicy,
) -> io::Result<()> {
    let mut filled = 0usize;
    let mut transients = 0u32;
    while let Some(rest) = buf.get_mut(filled..) {
        if rest.is_empty() {
            return Ok(());
        }
        match source.read(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("source ended {} bytes short", rest.len()),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if is_transient(&e) => {
                transients += 1;
                if transients > policy.max_attempts {
                    return Err(exhausted(transients, &e));
                }
                policy.backoff(transients);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Like [`read_full_retry`], but a short source is not an error: returns
/// the bytes filled, so a salvage reader can classify a torn tail from the
/// partial frame it did get. Transient and hard faults behave identically
/// to [`read_full_retry`].
pub(crate) fn read_best_effort<R: Read + ?Sized>(
    source: &mut R,
    buf: &mut [u8],
    policy: &RetryPolicy,
) -> io::Result<usize> {
    let mut filled = 0usize;
    let mut transients = 0u32;
    while let Some(rest) = buf.get_mut(filled..) {
        if rest.is_empty() {
            break;
        }
        match source.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if is_transient(&e) => {
                transients += 1;
                if transients > policy.max_attempts {
                    return Err(exhausted(transients, &e));
                }
                policy.backoff(transients);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Writes all of `buf`, absorbing up to `policy.max_attempts` transient
/// faults with backoff. Short writes are not faults. A `write` returning
/// `Ok(0)` is surfaced as [`ErrorKind::WriteZero`].
pub fn write_all_retry<W: Write + ?Sized>(
    sink: &mut W,
    buf: &[u8],
    policy: &RetryPolicy,
) -> io::Result<()> {
    let mut written = 0usize;
    let mut transients = 0u32;
    while let Some(rest) = buf.get(written..) {
        if rest.is_empty() {
            return Ok(());
        }
        match sink.write(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::WriteZero,
                    format!("sink accepted 0 of {} remaining bytes", rest.len()),
                ))
            }
            Ok(n) => written += n,
            Err(e) if is_transient(&e) => {
                transients += 1;
                if transients > policy.max_attempts {
                    return Err(exhausted(transients, &e));
                }
                policy.backoff(transients);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Flushes `sink`, absorbing transient faults under the same budget.
pub fn flush_retry<W: Write + ?Sized>(sink: &mut W, policy: &RetryPolicy) -> io::Result<()> {
    let mut transients = 0u32;
    loop {
        match sink.flush() {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(&e) => {
                transients += 1;
                if transients > policy.max_attempts {
                    return Err(exhausted(transients, &e));
                }
                policy.backoff(transients);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_is_transparent() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut reader = FaultyRead::new(&data[..], FaultPlan::clean(1));
        let mut out = vec![0u8; 256];
        read_full_retry(&mut reader, &mut out, &RetryPolicy::none()).unwrap();
        assert_eq!(out, data);

        let mut sink = Vec::new();
        let mut writer = FaultyWrite::new(&mut sink, FaultPlan::clean(1));
        write_all_retry(&mut writer, &data, &RetryPolicy::none()).unwrap();
        assert_eq!(sink, data);
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_seed() {
        let plan = FaultPlan::clean(42).with_transients(3).with_short_ops(4);
        let a: Vec<Fault> = (0..64).map(|op| plan.decide(op, 0, 100)).collect();
        let b: Vec<Fault> = (0..64).map(|op| plan.decide(op, 0, 100)).collect();
        assert_eq!(a, b);
        // A different seed produces a different schedule.
        let other = FaultPlan::clean(43).with_transients(3).with_short_ops(4);
        let c: Vec<Fault> = (0..64).map(|op| other.decide(op, 0, 100)).collect();
        assert_ne!(a, c);
        // And some transients actually fire at this rate.
        assert!(a.iter().any(|f| matches!(f, Fault::Interrupted | Fault::WouldBlock)));
    }

    #[test]
    fn transients_are_absorbed_by_retry() {
        let data: Vec<u8> = (0..200u32).flat_map(|i| i.to_le_bytes()).collect();
        let plan = FaultPlan::clean(7).with_transients(2).with_short_ops(3);
        let mut reader = FaultyRead::new(&data[..], plan);
        let mut out = vec![0u8; data.len()];
        read_full_retry(&mut reader, &mut out, &RetryPolicy::immediate(64)).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        // Every op is transient; a budget of 2 must give up with the typed
        // RetryExhausted error, preserving the transient kind.
        let plan = FaultPlan::clean(1).with_transients(1);
        let data = [0u8; 64];
        let mut reader = FaultyRead::new(&data[..], plan);
        let mut out = [0u8; 64];
        let err = read_full_retry(&mut reader, &mut out, &RetryPolicy::immediate(2)).unwrap_err();
        assert!(is_transient(&err));
        let inner = err.get_ref().expect("wrapped error");
        let typed = inner.downcast_ref::<RetryExhausted>().expect("RetryExhausted");
        assert_eq!(typed.attempts, 3);
    }

    #[test]
    fn hard_faults_are_never_retried() {
        let plan = FaultPlan::clean(9).with_hard_fault_at(0);
        let data = [1u8; 16];
        let mut reader = FaultyRead::new(&data[..], plan);
        let mut out = [0u8; 16];
        let err = read_full_retry(&mut reader, &mut out, &RetryPolicy::immediate(100)).unwrap_err();
        assert!(!is_transient(&err));
        assert_eq!(reader.ops(), 1, "a hard fault must not consume retry attempts");
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for cut in [0u64, 1, 137, 999] {
            let mut sink = Vec::new();
            let mut writer =
                FaultyWrite::new(&mut sink, FaultPlan::clean(5).with_torn_write_at(cut));
            let err = write_all_retry(&mut writer, &data, &RetryPolicy::immediate(4)).unwrap_err();
            assert!(!is_transient(&err));
            assert_eq!(sink.len() as u64, cut, "torn at {cut}");
            assert_eq!(&sink[..], &data[..cut as usize]);
        }
    }

    #[test]
    fn short_ops_still_deliver_everything() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let plan = FaultPlan::clean(11).with_short_ops(1);
        let mut writer = FaultyWrite::new(Vec::new(), plan);
        write_all_retry(&mut writer, &data, &RetryPolicy::none()).unwrap();
        assert!(writer.ops() > 1, "short writes must split the operation");
        assert_eq!(writer.into_inner(), data);
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let p = RetryPolicy { max_attempts: 4, base_backoff: Duration::from_millis(2) };
        assert_eq!(p.backoff_delay(1), Duration::from_millis(2));
        assert_eq!(p.backoff_delay(2), Duration::from_millis(4));
        assert_eq!(p.backoff_delay(3), Duration::from_millis(8));
        assert_eq!(p.backoff_delay(20), Duration::from_millis(100), "cap");
        assert_eq!(RetryPolicy::immediate(4).backoff_delay(3), Duration::ZERO);
    }

    #[test]
    fn fault_seed_env_round_trips() {
        // Only asserts the default path: mutating the environment would race
        // other tests in this binary.
        assert_eq!(
            fault_seed(77),
            std::env::var(FAULT_SEED_ENV).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(77)
        );
    }
}
