//! Shared by the suites that gauge allocations: a counting veneer over the
//! system allocator. A suite installs it with
//! `#[global_allocator] static GLOBAL: common::CountingAlloc = common::CountingAlloc;`
//! and measures with [`gauge`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts allocation events per thread and
/// remembers the largest single request.
///
/// The counters are thread-local so the other test threads of the harness
/// cannot perturb a measurement, and `try_with` keeps the hook safe during
/// thread setup/teardown when the TLS slot may not be live.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Largest single request (bytes) since the gauge was last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: a counting veneer; every allocator duty is delegated verbatim to
// `System`, which upholds the `GlobalAlloc` contract.
#[expect(unsafe_code, reason = "a global allocator is an unsafe trait by definition")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: delegated verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: same contract as `System::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the allocation events it triggered on
/// this thread and the largest single request it made, in bytes.
pub fn gauge<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let before = ALLOCS.with(Cell::get);
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, ALLOCS.with(Cell::get) - before, LARGEST.with(Cell::get))
}
