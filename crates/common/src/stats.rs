//! Lightweight event counters used by every subsystem.
//!
//! # Thread-safe by design
//!
//! `Counter` (and the richer metrics in [`crate::obs`]) share state
//! through `Arc<AtomicU64>` / `Arc<Mutex<_>>`, so one instrumentation
//! layer serves both execution runtimes: the deterministic
//! single-threaded simulator and the OS-thread-per-node runtime
//! (`cblog-rt`), whose workers bump the same handles concurrently.
//! Counters use relaxed atomics — each bump is a single uncontended
//! RMW, and the only ordering the experiments need is "reads after the
//! run observe all bumps", which thread join already provides. Spans
//! are not shared this way: each thread fills its own
//! [`SpanBuf`](crate::SpanBuf), merged at join (see `common::span`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, cheaply-clonable event counter.
///
/// Subsystems hand out clones so the experiment harness can observe
/// buffer-pool, log and network activity without threading references
/// through every call. Clones share one atomic cell, so handles may be
/// bumped from any thread.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }

    /// Resets to zero (e.g. after warmup).
    pub fn reset(&self) {
        self.inner.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Counter::new();
        let b = a.clone();
        a.bump();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
        a.reset();
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        let c = Counter::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }
}
