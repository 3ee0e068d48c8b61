//! Morsel-driven parallelism primitives shared by the whole workspace.
//!
//! A *morsel* is one index in `0..total` — a row-group, a vector, or a block,
//! depending on the caller. Workers are scoped `std::thread`s that claim
//! morsels from a single shared atomic counter ([`MorselQueue`]): whichever
//! worker finishes first grabs the next index, so skew in per-morsel cost
//! balances itself without any work-splitting heuristics. This is the
//! Tectorwise/morsel-driven design `vectorq` originally carried privately;
//! it now lives here so the compressor ([`crate::Compressor::compress_parallel`]),
//! the codec registry's chunked codecs (`alp_core::par`), and the query
//! engine all share one scheduler.
//!
//! Ownership rules (DESIGN.md §10):
//!
//! * each worker owns exactly one scratch state, built by the caller's `init`
//!   closure before the claim loop starts — nothing hot is shared mutably;
//! * results are merged only after every worker has joined, so the reduction
//!   runs single-threaded on the caller's thread;
//! * `threads <= 1` (or a single morsel) runs the same claim loop on the
//!   calling thread — no threads are spawned, which keeps single-threaded
//!   callers syscall-free.
//!
//! Panics inside `work` are handled by the *containment* seam (DESIGN.md
//! §11): the strict entry points ([`try_map_morsels`], [`map_morsels`],
//! [`fold_morsels`]) re-raise the panic on the calling thread with the
//! poisoned morsel's index attached, while [`run_morsels_governed`]
//! quarantines it into a [`MorselFailure`] report and keeps going — the
//! runner `vectorq::service` queries execute on (their token carries the
//! deadline), and the seam the pipelined ingest workers ([`crate::pipeline`])
//! compress inside, with a token that never fires, so a poisoned row-group
//! surfaces as a typed error instead of a torn frame.
//!
//! No external dependencies: only `std::thread::scope` and atomics.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one place in the workspace where unwinding is caught (`clippy.toml`
/// disallows `catch_unwind` everywhere else): every caught panic goes through
/// here so panic policy — what is caught, how payloads are rendered, how
/// strict paths re-raise — lives in a single seam.
mod containment {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f`, turning a panic into its boxed payload. `AssertUnwindSafe`
    /// is sound here because callers either re-raise (strict paths — the
    /// possibly-torn state is abandoned with the unwind) or rebuild the
    /// worker scratch from `init` before touching it again (contained path).
    #[expect(clippy::disallowed_methods, reason = "this is the containment seam")]
    pub(super) fn run<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn Any + Send>> {
        catch_unwind(AssertUnwindSafe(f))
    }

    /// Renders a panic payload's message — panics carry `&str` or `String`
    /// payloads in practice; anything else gets a placeholder.
    pub(super) fn payload_message(payload: &(dyn Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// Re-raises a contained panic on the calling thread with the morsel
    /// index prepended, so the abort says *which* work unit died instead of
    /// the bare payload the scheduler used to forward.
    pub(super) fn resume_with_morsel(morsel: usize, payload: Box<dyn Any + Send>) -> ! {
        std::panic::resume_unwind(Box::new(format!(
            "morsel {morsel} panicked: {}",
            payload_message(&*payload)
        )))
    }
}

/// Cooperative cancellation for morsel runs: an explicit `cancel()` flag
/// and/or a wall-clock deadline, checked by workers **at morsel boundaries**
/// (between claims, never mid-kernel). Cloning shares the same underlying
/// state, so a service can hand one token to a query and cancel it from any
/// thread — the query's workers stop claiming and release themselves at the
/// next boundary.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

#[derive(Debug)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self { inner: Arc::new(TokenState { cancelled: AtomicBool::new(false), deadline: None }) }
    }

    /// A token that auto-cancels once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self {
            inner: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
            }),
        }
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Requests cancellation. Idempotent; takes effect at the next morsel
    /// boundary of any run observing this token.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired — explicitly or by deadline expiry.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A morsel whose `work` panicked, quarantined by [`run_morsels_governed`]
/// instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MorselFailure {
    /// Index of the poisoned morsel.
    pub morsel: usize,
    /// Rendered panic message.
    pub message: String,
}

impl core::fmt::Display for MorselFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "morsel {} panicked: {}", self.morsel, self.message)
    }
}

/// Environment variable consulted by [`resolve_threads`] when the caller does
/// not pin a thread count explicitly.
pub const THREADS_ENV: &str = "ALP_THREADS";

/// Resolves a worker count: an explicit nonzero request wins, then a nonzero
/// `ALP_THREADS`, then [`std::thread::available_parallelism`], then 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(t) = requested {
        if t > 0 {
            return t;
        }
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t > 0 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A shared claim counter over `total` morsels. `claim` hands out each index
/// in `0..total` exactly once across all workers.
#[derive(Debug)]
pub struct MorselQueue {
    next: AtomicUsize,
    total: usize,
}

impl MorselQueue {
    /// Queue over morsels `0..total`.
    pub fn new(total: usize) -> Self {
        Self { next: AtomicUsize::new(0), total }
    }

    /// Claims the next unclaimed morsel, or `None` when the queue is drained.
    pub fn claim(&self) -> Option<usize> {
        let m = self.next.fetch_add(1, Ordering::Relaxed);
        (m < self.total).then_some(m)
    }

    /// Number of morsels the queue was created with.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// The one claim loop under every entry point below. Up to `threads` workers
/// — the calling thread alone when `threads <= 1` or there is at most one
/// morsel, so single-threaded callers spawn nothing — each build a scratch
/// and an outcome with `init`, then claim morsels until the queue drains or
/// `is_cancelled` fires (consulted before every claim: the morsel boundary).
/// Each worker's outcome is handed to `join` on the calling thread once that
/// worker is done; the scratch never leaves its thread.
///
/// What ends a run and what a panicking morsel becomes are the caller's:
/// `step` runs its work inside [`containment::run`] and raises whatever
/// `is_cancelled` reads, so the only panic that can escape a worker is
/// `init`'s, forwarded untouched.
fn claim_morsels<S, W: Send>(
    threads: usize,
    morsels: usize,
    init: impl Fn() -> (S, W) + Sync,
    is_cancelled: impl Fn() -> bool + Sync,
    step: impl Fn(&mut S, &mut W, usize) + Sync,
    mut join: impl FnMut(W),
) {
    let queue = MorselQueue::new(morsels);
    let worker = || {
        let (mut scratch, mut outcome) = init();
        while !is_cancelled() {
            let Some(m) = queue.claim() else { break };
            step(&mut scratch, &mut outcome, m);
        }
        outcome
    };
    let workers = threads.min(morsels);
    if workers <= 1 {
        return join(worker());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for h in handles {
            join(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
    });
}

/// Runs `work` over every morsel in `0..morsels` on up to `threads` workers
/// and returns the results in morsel order, stopping at the first error.
///
/// `init` builds one per-worker scratch state (e.g. a decode buffer pool)
/// before that worker's claim loop starts; `work` receives the worker's
/// scratch and the claimed morsel index. When any morsel fails, remaining
/// workers stop claiming and the first error (in claim order, not morsel
/// order) is returned. A panicking morsel is re-raised on the calling thread
/// with its index attached; see [`run_morsels_governed`] for the variant
/// that quarantines it instead.
pub fn try_map_morsels<T, E, S>(
    threads: usize,
    morsels: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
{
    /// Why a strict worker stopped before the queue drained.
    enum Abort<E> {
        Failed(E),
        Panicked(usize, Box<dyn Any + Send>),
    }

    let stop = AtomicBool::new(false);
    let mut pairs: Vec<(usize, T)> = Vec::new();
    let mut first_err: Option<E> = None;
    let mut panicked = None;
    claim_morsels(
        threads,
        morsels,
        || (init(), (Vec::new(), None)),
        || stop.load(Ordering::Relaxed),
        |scratch, (done, abort), m| {
            *abort = Some(match containment::run(|| work(scratch, m)) {
                Ok(Ok(v)) => return done.push((m, v)),
                Ok(Err(e)) => Abort::Failed(e),
                Err(payload) => Abort::Panicked(m, payload),
            });
            stop.store(true, Ordering::Relaxed);
        },
        |(done, abort)| match abort {
            None => pairs.extend(done),
            Some(Abort::Failed(e)) => drop(first_err.get_or_insert(e)),
            Some(Abort::Panicked(m, payload)) => drop(panicked.get_or_insert((m, payload))),
        },
    );
    // A panic outranks any `Err`: it must never be swallowed.
    if let Some((m, payload)) = panicked {
        containment::resume_with_morsel(m, payload)
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    pairs.sort_unstable_by_key(|&(m, _)| m);
    Ok(pairs.into_iter().map(|(_, v)| v).collect())
}

/// Outcome of [`run_morsels_governed`]: surviving results, quarantined
/// failures, and whether the run was cut short by its [`CancelToken`].
#[derive(Debug)]
pub struct GovernedRun<T> {
    /// Surviving `(morsel, result)` pairs, sorted by morsel index.
    pub completed: Vec<(usize, T)>,
    /// One report per morsel whose `work` panicked, sorted by index.
    pub failures: Vec<MorselFailure>,
    /// True when the token fired before every morsel was claimed: the
    /// results above cover only the morsels processed before the boundary
    /// check observed cancellation.
    pub cancelled: bool,
}

/// The full-policy morsel runner: panic containment *and* cooperative
/// cancellation. Workers consult `token` before every claim, so a cancelled
/// or deadline-expired run stops at the next morsel boundary — in-flight
/// morsels finish (a kernel is never interrupted mid-decode), unclaimed ones
/// are abandoned, and the workers release themselves back to the caller.
///
/// A panicking morsel is *contained* instead of aborting the run: the panic
/// is caught at the morsel boundary, the morsel is quarantined into a
/// [`MorselFailure`] (index + rendered payload), the worker rebuilds its
/// scratch from `init` (the panic may have torn it mid-mutation), and every
/// other morsel still completes.
///
/// This is the execution seam for `vectorq::service` queries: one query =
/// one governed run, whose token carries the query's deadline. A caller that
/// wants containment alone passes `&CancelToken::new()`, which never fires.
pub fn run_morsels_governed<T, S>(
    threads: usize,
    morsels: usize,
    token: &CancelToken,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> GovernedRun<T>
where
    T: Send,
{
    let cut_short = AtomicBool::new(false);
    // Sized up front, so a run costs the same allocations at any morsel count
    // (a worker that claims more than its share still grows).
    let mut completed: Vec<(usize, T)> = Vec::with_capacity(morsels);
    let mut failures: Vec<MorselFailure> = Vec::new();
    let share = morsels.div_ceil(threads.max(1));
    claim_morsels(
        threads,
        morsels,
        || (init(), (Vec::with_capacity(share), Vec::new())),
        || {
            let fired = token.is_cancelled();
            if fired {
                cut_short.store(true, Ordering::Relaxed);
            }
            fired
        },
        |scratch, (ok, failed), m| match containment::run(|| work(scratch, m)) {
            Ok(v) => ok.push((m, v)),
            Err(payload) => {
                let message = containment::payload_message(&*payload);
                failed.push(MorselFailure { morsel: m, message });
                *scratch = init();
            }
        },
        |(ok, failed)| {
            completed.extend(ok);
            failures.extend(failed);
        },
    );
    completed.sort_unstable_by_key(|&(m, _)| m);
    failures.sort_unstable_by_key(|f| f.morsel);
    // "Cancelled" means morsels were actually abandoned: a token that fires
    // after the queue drained (but before a worker's final boundary check)
    // cut nothing short.
    let abandoned = completed.len() + failures.len() < morsels;
    GovernedRun { completed, failures, cancelled: cut_short.load(Ordering::Relaxed) && abandoned }
}

/// Infallible [`try_map_morsels`]: maps every morsel, results in order.
pub fn map_morsels<T, S>(
    threads: usize,
    morsels: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    let mapped =
        try_map_morsels::<T, core::convert::Infallible, S>(threads, morsels, init, |scratch, m| {
            Ok(work(scratch, m))
        });
    match mapped {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// Folds every morsel into per-worker accumulators, then reduces the
/// accumulators on the calling thread. This is the aggregation shape of the
/// end-to-end harness's SCAN and SUM (`bench::endtoend`, Table 6 / Fig. 6):
/// order-insensitive, no per-morsel allocation. One worker hitting a panic stops the whole fold — siblings
/// quit claiming instead of folding morsels the re-raise will throw away.
pub fn fold_morsels<A>(
    threads: usize,
    morsels: usize,
    init: impl Fn() -> A + Sync,
    work: impl Fn(&mut A, usize) + Sync,
    reduce: impl Fn(A, A) -> A,
) -> A
where
    A: Send,
{
    let stop = AtomicBool::new(false);
    let mut total: Option<A> = None;
    let mut panicked = None;
    claim_morsels(
        threads,
        morsels,
        || ((), (init(), None)),
        || stop.load(Ordering::Relaxed),
        |(), (acc, poisoned), m| {
            if let Err(payload) = containment::run(|| work(acc, m)) {
                *poisoned = Some((m, payload));
                stop.store(true, Ordering::Relaxed);
            }
        },
        |(acc, poisoned)| match poisoned {
            Some(p) => drop(panicked.get_or_insert(p)),
            None => {
                total = Some(match total.take() {
                    Some(t) => reduce(t, acc),
                    None => acc,
                })
            }
        },
    );
    if let Some((m, payload)) = panicked {
        containment::resume_with_morsel(m, payload)
    }
    total.unwrap_or_else(init)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_hands_out_each_morsel_once() {
        let q = MorselQueue::new(5);
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.claim()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn map_preserves_morsel_order() {
        for threads in [1, 2, 7] {
            let out = map_morsels(threads, 100, || (), |(), m| m * 3);
            assert_eq!(out, (0..100).map(|m| m * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert_eq!(map_morsels(4, 0, || (), |(), m| m), Vec::<usize>::new());
        assert_eq!(map_morsels(4, 1, || (), |(), m| m + 10), vec![10]);
    }

    #[test]
    fn try_map_surfaces_first_error() {
        for threads in [1, 3] {
            let r = try_map_morsels(
                threads,
                50,
                || (),
                |(), m| {
                    if m == 17 {
                        Err("boom")
                    } else {
                        Ok(m)
                    }
                },
            );
            assert_eq!(r, Err("boom"));
        }
    }

    #[test]
    fn fold_matches_serial_sum() {
        for threads in [1, 2, 7] {
            let total = fold_morsels(threads, 1000, || 0usize, |acc, m| *acc += m, |a, b| a + b);
            assert_eq!(total, 1000 * 999 / 2);
        }
    }

    #[test]
    fn workers_build_independent_scratch() {
        // Each worker must see its own scratch: the counter per scratch can
        // never exceed the total morsel count, and sums across workers to it.
        let out = map_morsels(
            4,
            64,
            || 0usize,
            |local, _m| {
                *local += 1;
                *local
            },
        );
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|&c| (1..=64).contains(&c)));
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn governed_run_quarantines_poisoned_morsels() {
        for threads in [1, 4] {
            let run = run_morsels_governed(
                threads,
                40,
                &CancelToken::new(),
                || (),
                |(), m| {
                    if m == 7 || m == 23 {
                        panic!("poisoned morsel {m}");
                    }
                    m * 2
                },
            );
            assert!(!run.cancelled);
            assert_eq!(run.completed.len(), 38);
            assert!(run.completed.iter().all(|&(m, v)| v == m * 2));
            let lost: Vec<usize> = run.failures.iter().map(|f| f.morsel).collect();
            assert_eq!(lost, vec![7, 23]);
            let message = &run.failures[0].message;
            assert!(message.contains("poisoned morsel 7"), "got: {message}");
        }
    }

    #[test]
    fn governed_run_rebuilds_scratch_after_panic() {
        // The scratch is re-initialized after a contained panic, so torn
        // mutations from the poisoned morsel never leak into later ones.
        let run = run_morsels_governed(
            1,
            3,
            &CancelToken::new(),
            || 0usize,
            |scratch, m| {
                *scratch += 100;
                if m == 1 {
                    panic!("die");
                }
                *scratch
            },
        );
        assert_eq!(run.completed, vec![(0, 100), (2, 100)]);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].morsel, 1);
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_claim() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let hits = AtomicUsize::new(0);
            let run = run_morsels_governed(
                threads,
                64,
                &token,
                || (),
                |(), m| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    m
                },
            );
            assert!(run.cancelled);
            assert!(run.completed.is_empty());
            assert_eq!(hits.load(Ordering::Relaxed), 0, "t={threads}");
        }
    }

    #[test]
    fn mid_run_cancellation_abandons_remaining_morsels() {
        // Serial path: cancel from inside morsel 4's work; the boundary check
        // before morsel 5 must observe it.
        let token = CancelToken::new();
        let run = run_morsels_governed(
            1,
            100,
            &token,
            || (),
            |(), m| {
                if m == 4 {
                    token.cancel();
                }
                m
            },
        );
        assert!(run.cancelled);
        assert_eq!(run.completed.len(), 5);
        assert!(run.failures.is_empty());
    }

    #[test]
    fn expired_deadline_cancels_the_token() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert!(token.is_cancelled());
        let run = run_morsels_governed(2, 16, &token, || (), |(), m| m);
        assert!(run.cancelled);
        assert!(run.completed.is_empty());
    }

    #[test]
    fn token_without_deadline_never_self_cancels() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.deadline(), None);
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled(), "clones share cancellation state");
    }

    #[test]
    fn strict_map_panic_carries_morsel_context() {
        let caught = containment::run(|| {
            map_morsels(
                4,
                32,
                || (),
                |(), m| {
                    if m == 17 {
                        panic!("kaboom");
                    }
                    m
                },
            )
        });
        let payload = caught.expect_err("the poisoned morsel must abort the strict path");
        let msg = payload.downcast_ref::<String>().expect("context payload is a String");
        assert!(msg.contains("morsel 17"), "got: {msg}");
        assert!(msg.contains("kaboom"), "got: {msg}");
    }

    #[test]
    fn strict_fold_panic_carries_morsel_context() {
        let caught = containment::run(|| {
            fold_morsels(
                3,
                64,
                || 0usize,
                |acc, m| {
                    if m == 9 {
                        panic!("fold-bomb");
                    }
                    *acc += m;
                },
                |a, b| a + b,
            )
        });
        let payload = caught.expect_err("the poisoned morsel must abort the fold");
        let msg = payload.downcast_ref::<String>().expect("context payload is a String");
        assert!(msg.contains("morsel 9"), "got: {msg}");
        assert!(msg.contains("fold-bomb"), "got: {msg}");
    }
}
