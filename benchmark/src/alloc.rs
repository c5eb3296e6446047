//! A counting global allocator: `System` plus relaxed counters, bucketed
//! by the kernel stage that was running. Counting is off unless the
//! traced replay turns it on, so the end-to-end run pays one relaxed load
//! per allocation and nothing else.
//!
//! The counts repeat exactly for one build on one host: they are the
//! measured form of "this path does not allocate per step".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The stage an allocation is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Between policy callbacks: the transport tick and kernel glue.
    Between = 0,
    /// Inside `ControlPolicy::admit`.
    Admit = 1,
    /// Inside `ControlPolicy::round`.
    Round = 2,
    /// Inside any other policy callback.
    Other = 3,
    /// The recorder's own bookkeeping: counted apart, reported nowhere.
    Tracer = 4,
}

const STAGES: usize = 5;

// Statistics only: nothing is published through these, so every access
// is `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static STAGE: AtomicUsize = AtomicUsize::new(Stage::Between as usize);
static COUNT: [AtomicU64; STAGES] = [const { AtomicU64::new(0) }; STAGES];
static BYTES: [AtomicU64; STAGES] = [const { AtomicU64::new(0) }; STAGES];

/// `System`, counting allocations while enabled.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are `System.realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let stage = STAGE.load(Ordering::Relaxed);
        COUNT[stage].fetch_add(1, Ordering::Relaxed);
        BYTES[stage].fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Start or stop counting.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Charge allocations from here on to `stage`.
#[inline]
pub fn enter(stage: Stage) {
    STAGE.store(stage as usize, Ordering::Relaxed);
}

/// Allocations charged to `stage` so far.
pub fn count(stage: Stage) -> u64 {
    COUNT[stage as usize].load(Ordering::Relaxed)
}

fn replay_total(counters: &[AtomicU64; STAGES]) -> u64 {
    counters[..Stage::Tracer as usize]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
}

/// Allocations so far, over every stage of the replay.
pub fn total_count() -> u64 {
    replay_total(&COUNT)
}

/// Bytes requested so far (allocations and the new size of each
/// reallocation), over every stage of the replay.
pub fn total_bytes() -> u64 {
    replay_total(&BYTES)
}
