//! A counting global allocator for allocation-free steady-state tests.
//!
//! Arena counters only see the buffers an arena hands out; a hidden
//! `Box::new` or a growing `Vec` elsewhere on the hot path slips past
//! them. [`CountingAlloc`] wraps the system allocator and counts every
//! allocation call (`alloc`, `alloc_zeroed`, `realloc`) made by the
//! calling thread, so a test can assert that a code region touches the
//! global allocator zero times — a process-wide fact, not a per-arena
//! one. Counts are per thread so that tests running in parallel in one
//! test binary do not see each other's allocations.
//!
//! A test binary opts in with one declaration:
//!
//! ```ignore
//! use sov_testkit::alloc::{thread_allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! let before = thread_allocations();
//! // ... steady-state work on this thread ...
//! assert_eq!(thread_allocations() - before, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and drop-free: reading it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down; an
    // allocation there belongs to no measured region.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls made by the calling thread since it started, as seen
/// by [`CountingAlloc`] (always 0 when it is not the global allocator).
#[must_use]
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting each allocation call per thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the added bookkeeping only
// bumps a thread-local `Cell<u64>` and neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc` contract (non-zero-size layout)
        // is passed through to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`, the caller's contract passes through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by
        // `System`, with `layout` — the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (the
        // caller's `dealloc` contract).
        unsafe { System.dealloc(ptr, layout) }
    }
}
