//! A counting global allocator for `service.allocs_per_req`: while
//! counting is on, it counts allocations made on every thread except the
//! benchmark's own (load-generator and fixture threads opt out), so the
//! count is what the server and service threads allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The process allocator: [`System`] plus the counter.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    // Statistics only: Relaxed publishes nothing else.
    if ENABLED.load(Ordering::Relaxed) && !EXCLUDED.try_with(Cell::get).unwrap_or(true) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; `ptr` and `layout` came from this
        // allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` was allocated by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Marks the calling thread as the benchmark's own: its allocations are
/// never counted.
pub fn exclude_this_thread() {
    EXCLUDED.with(|c| c.set(true));
}

/// Turns counting on or off and returns the count so far.
pub fn counting(on: bool) -> u64 {
    ENABLED.store(on, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed)
}
