//! A counting global allocator: how many heap bytes an engine run holds
//! at its peak, exactly, in place of an RSS delta (which on a glibc
//! heap measures what the allocator kept from earlier frees, and read
//! the same to the kilobyte on every workload).
//!
//! Counting is per thread and off except between [`start`] and [`stop`]:
//! the counted rep runs the engine inline on the calling thread, and
//! the timed reps pay one thread-local load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Net bytes this thread allocated since counting began (frees of
    /// older blocks can take it below zero).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Whether the calling thread counts (never while it is being torn
/// down).
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn grew(bytes: usize) {
    let live = LIVE.get() + bytes as isize;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get() - bytes as isize);
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && counting() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && counting() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) };
        if counting() {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && counting() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Starts counting the calling thread's allocations from zero.
pub fn start() {
    LIVE.set(0);
    PEAK.set(0);
    COUNTING.set(true);
}

/// Stops counting and returns the peak of the calling thread's net heap
/// growth since [`start`], in bytes.
pub fn stop() -> u64 {
    COUNTING.set(false);
    PEAK.get().max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs `Counting` too (see `main.rs`); other
    // tests run on other threads and are not counted.
    #[test]
    fn peak_covers_what_was_live_at_once() {
        start();
        let a = vec![1u8; 3 << 20];
        std::hint::black_box(&a);
        drop(a);
        let b = vec![2u8; 1 << 20];
        std::hint::black_box(&b);
        let peak = stop();
        assert!(
            (3 << 20..4 << 20).contains(&peak),
            "peak {peak} is not the 3 MiB block"
        );
    }
}
