//! Counting global allocator: live and peak heap bytes.
//!
//! A copy of the workspace bench suite's `Meter`, kept here so the
//! benchmark's memory metric does not change when that suite does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A `#[global_allocator]` wrapper over the system allocator that tracks
/// live and peak heap bytes.
pub struct Meter;

// SAFETY: Meter forwards every call verbatim to the system allocator and
// only adds relaxed atomic counter updates around it, so it upholds the
// GlobalAlloc contract exactly as `System` does (it never allocates
// itself, never panics, and passes layouts through unchanged).
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's valid, non-zero-size layout,
        // forwarded unchanged to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `Meter::alloc` (that is, by
        // `System.alloc`) with this same `layout`, as the GlobalAlloc
        // contract requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Heap bytes live right now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live value.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The highest live value since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
