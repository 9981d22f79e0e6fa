//! The in-memory log's peak footprint, counted.
//!
//! A log that grows by copying into a buffer twice its size holds the
//! old and the new buffer at once, and its last buffer is up to twice
//! the log. The allocator sees both; the process's resident size on a
//! shared guest is too coarse to. This file has one test, so nothing
//! else in its process allocates while it counts.

use cblog_wal::{LogStore, MemLogStore, BATCH};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Bytes allocated and not yet freed, on every thread of the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Ordering::SeqCst);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics, so touching
// them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
    /// Counted as a move: the new block is held before the old one is
    /// freed, which is what a reallocation that cannot grow in place
    /// does.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        shrink(if moved.is_null() {
            new_size
        } else {
            layout.size()
        });
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_growing_log_is_held_once() {
    const LOG: usize = 8 << 20;
    let piece = [0xA5u8; 3 * 1024];
    let mut s = MemLogStore::new();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let mut left = LOG;
    while left > 0 {
        let n = left.min(piece.len());
        s.append(&piece[..n]).unwrap();
        left -= n;
    }
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(s.len(), LOG as u64);
    assert!(
        peak < LOG + BATCH,
        "appending {LOG} B in {} B pieces peaked at {peak} B allocated",
        piece.len()
    );
}
