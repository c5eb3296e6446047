//! A counting global allocator for allocation-window tests.
//!
//! It counts only on the thread that opened a window, so the harness's
//! other test threads do not leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting this thread's allocations while a window is open.
struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so touching them from inside the
    // allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: `alloc` and `dealloc` forward their arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the trait's default
// `alloc_zeroed` and `realloc` go through them, so every allocation and
// reallocation is counted. The counters are plain thread-locals that
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) `f` makes on this thread.
pub fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    COUNT.with(Cell::get)
}
