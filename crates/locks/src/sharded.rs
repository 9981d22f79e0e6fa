//! Page-sharded lock table for the threaded runtime.
//!
//! The simulator's lock tables ([`LocalLockTable`](crate::local),
//! [`GlobalLockTable`](crate::global)) are single-threaded structures
//! driven by the deterministic scheduler. The threaded runtime needs
//! real parallelism: worker threads on different nodes acquire page
//! locks concurrently, and a single global mutex would serialize
//! exactly the work the runtime exists to overlap.
//!
//! The runtime keeps one table per node, holding the locks of the
//! pages that node owns (paper §2.1: a page's locks live at its
//! owner). A worker's local transactions lock only its own node's
//! table; a remote reader takes its S lock in the owner's table.
//!
//! [`ShardedLockTable`] hashes each page to one of N shards, each an
//! independently locked `IdMap<PageId, LockEntry>`. Two transactions
//! touching pages in different shards never contend on the same mutex;
//! the per-shard critical sections are a few map operations long, and
//! taking or dropping a lock nobody else holds allocates nothing. A
//! thread that panics holding a shard leaves it poisoned but valid,
//! and the shard keeps working.
//!
//! Lock holders are opaque `u64` tokens rather than [`TxnId`]s so the
//! table stays agnostic of who is locking: the runtime packs
//! `(node << 48) | txn_seq` into the token. Acquisition is
//! non-blocking (`try_acquire` returns `false` on conflict) — the
//! runtime spins, serving its inbox, and falls back to aborting the
//! transaction, mirroring how the simulator surfaces `WouldBlock`.

use crate::LockMode;
use cblog_common::{id_hash, IdMap, PageId};
use std::sync::{Mutex, MutexGuard};

/// Holders of one page's lock: either any number of sharers or one
/// exclusive owner. An entry exists only while somebody holds the
/// page, so there is always a first holder and it lives in the entry;
/// only a second sharer spills to the heap.
#[derive(Debug)]
struct LockEntry {
    mode: LockMode,
    first: u64,
    more: Vec<u64>,
}

impl LockEntry {
    fn holds(&self, holder: u64) -> bool {
        self.first == holder || self.more.contains(&holder)
    }

    /// Drops `holder` from the entry; false if that leaves nobody.
    fn release(&mut self, holder: u64) -> bool {
        if self.first != holder {
            self.more.retain(|&h| h != holder);
            return true;
        }
        match self.more.pop() {
            Some(next) => {
                self.first = next;
                true
            }
            None => false,
        }
    }
}

type Shard = IdMap<PageId, LockEntry>;

/// Concurrent page-lock table sharded by page hash.
#[derive(Debug)]
pub struct ShardedLockTable {
    shards: Box<[Mutex<Shard>]>,
}

/// The table stays valid at every step of every update, so a holder
/// that panicked elsewhere does not take the table with it.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ShardedLockTable {
    /// Creates a table with `shards` independent partitions (rounded
    /// up to at least 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedLockTable {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard comes from the upper half of the hash the shard's own
    /// map buckets `pid` by (from the low bits), so the pages of one
    /// shard still spread over all of its buckets.
    fn shard_of(&self, pid: PageId) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(id_hash(&pid) >> 32) as usize % self.shards.len()])
    }

    /// Attempts to take `pid` in `mode` for `holder`. Returns `true`
    /// if the lock is held in (at least) `mode` on return.
    ///
    /// Re-entrant: a holder that already has the page succeeds
    /// immediately if its mode covers the request, and upgrades
    /// S → X in place when it is the sole holder.
    pub fn try_acquire(&self, pid: PageId, holder: u64, mode: LockMode) -> bool {
        let mut shard = self.shard_of(pid);
        match shard.get_mut(&pid) {
            None => {
                shard.insert(
                    pid,
                    LockEntry {
                        mode,
                        first: holder,
                        more: Vec::new(),
                    },
                );
                true
            }
            Some(entry) => {
                if entry.holds(holder) {
                    if entry.mode.covers(mode) {
                        return true;
                    }
                    // S → X upgrade: only when nobody else shares.
                    if entry.more.is_empty() {
                        entry.mode = LockMode::Exclusive;
                        return true;
                    }
                    return false;
                }
                if entry.mode.compatible(mode) {
                    entry.more.push(holder);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Releases `holder`'s lock on `pid` (no-op if not held).
    pub fn release(&self, pid: PageId, holder: u64) {
        let mut shard = self.shard_of(pid);
        if shard.get_mut(&pid).is_some_and(|e| !e.release(holder)) {
            shard.remove(&pid);
        }
    }

    /// Releases every lock `holder` has anywhere in the table (end of
    /// transaction under strict 2PL).
    pub fn release_all(&self, holder: u64) {
        for shard in self.shards.iter() {
            lock(shard).retain(|_, entry| entry.release(holder));
        }
    }

    /// Number of pages currently locked (any mode).
    pub fn locked_pages(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;
    use std::sync::Arc;
    use std::thread;

    fn pid(n: u32, idx: u32) -> PageId {
        PageId {
            owner: NodeId(n),
            index: idx,
        }
    }

    #[test]
    fn share_conflict_upgrade_release() {
        let t = ShardedLockTable::new(8);
        let p = pid(0, 1);
        assert!(t.try_acquire(p, 1, LockMode::Shared));
        assert!(t.try_acquire(p, 2, LockMode::Shared), "S-S compatible");
        assert!(
            !t.try_acquire(p, 3, LockMode::Exclusive),
            "X blocked by sharers"
        );
        assert!(
            !t.try_acquire(p, 1, LockMode::Exclusive),
            "no upgrade while shared"
        );
        t.release(p, 2);
        assert!(
            t.try_acquire(p, 1, LockMode::Exclusive),
            "sole holder upgrades"
        );
        assert!(
            t.try_acquire(p, 1, LockMode::Shared),
            "X covers S re-request"
        );
        assert!(!t.try_acquire(p, 2, LockMode::Shared), "X excludes others");
        t.release_all(1);
        assert_eq!(t.locked_pages(), 0);
        assert!(t.try_acquire(p, 2, LockMode::Exclusive));
    }

    #[test]
    fn sharers_come_and_go_in_any_order() {
        // The first holder lives in the entry and the rest beside it:
        // releasing the first must promote another, not drop the page.
        let t = ShardedLockTable::new(2);
        let p = pid(0, 9);
        for h in 1..=4 {
            assert!(t.try_acquire(p, h, LockMode::Shared));
        }
        t.release(p, 1);
        assert!(!t.try_acquire(p, 9, LockMode::Exclusive), "2, 3, 4 share");
        assert!(t.try_acquire(p, 3, LockMode::Shared), "3 still holds");
        t.release(p, 3);
        t.release(p, 3);
        t.release_all(4);
        assert!(!t.try_acquire(p, 9, LockMode::Exclusive), "2 shares");
        assert!(t.try_acquire(p, 2, LockMode::Exclusive), "alone: upgrade");
        t.release(p, 2);
        assert_eq!(t.locked_pages(), 0);
        assert!(t.try_acquire(p, 9, LockMode::Exclusive));
    }

    #[test]
    fn sequential_pages_use_every_shard() {
        let t = ShardedLockTable::new(16);
        for i in 0..1024 {
            assert!(t.try_acquire(pid(i % 2, i / 2), 1, LockMode::Shared));
        }
        let sizes: Vec<usize> = t.shards.iter().map(|s| lock(s).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(*min >= 32 && *max <= 128, "1024 pages over 16: {sizes:?}");
    }

    #[test]
    fn exclusive_is_mutual_under_contention() {
        // Many threads fight for X on a few pages; at any moment each
        // page must have at most one holder, checked by guarding a
        // plain (non-atomic would be UB, so atomic) per-page counter
        // that only the lock makes safe to bump.
        use std::sync::atomic::{AtomicU64, Ordering};
        let table = Arc::new(ShardedLockTable::new(4));
        const PAGES: usize = 3;
        let in_cs: Arc<Vec<AtomicU64>> = Arc::new((0..PAGES).map(|_| AtomicU64::new(0)).collect());
        thread::scope(|s| {
            for who in 0..8u64 {
                let table = Arc::clone(&table);
                let in_cs = Arc::clone(&in_cs);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let p = pid(0, ((who + i) % PAGES as u64) as u32);
                        while !table.try_acquire(p, who, LockMode::Exclusive) {
                            std::hint::spin_loop();
                        }
                        let idx = (p.index) as usize;
                        assert_eq!(
                            in_cs[idx].fetch_add(1, Ordering::SeqCst),
                            0,
                            "two X holders"
                        );
                        in_cs[idx].fetch_sub(1, Ordering::SeqCst);
                        table.release(p, who);
                    }
                });
            }
        });
        assert_eq!(table.locked_pages(), 0);
    }

    #[test]
    fn shards_partition_pages() {
        let t = ShardedLockTable::new(16);
        assert_eq!(t.shard_count(), 16);
        for i in 0..100 {
            assert!(t.try_acquire(pid(1, i), 7, LockMode::Exclusive));
        }
        assert_eq!(t.locked_pages(), 100);
        t.release_all(7);
        assert_eq!(t.locked_pages(), 0);
        // Degenerate request still works.
        let t1 = ShardedLockTable::new(0);
        assert_eq!(t1.shard_count(), 1);
        assert!(t1.try_acquire(pid(0, 0), 1, LockMode::Shared));
    }

    #[test]
    fn a_poisoned_shard_keeps_working() {
        // One shard, so every page is a page of the poisoned one.
        let t = ShardedLockTable::new(1);
        let (p, q) = (pid(0, 3), pid(1, 4));
        assert!(t.try_acquire(p, 1, LockMode::Exclusive));
        let died = thread::scope(|s| {
            s.spawn(|| {
                let _guard = t.shard_of(p);
                panic!("a holder of the shard panics");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(t.shards[0].is_poisoned());

        // The shard's pages still lock, conflict and release.
        assert!(!t.try_acquire(p, 2, LockMode::Shared), "1 still holds p");
        assert!(t.try_acquire(p, 1, LockMode::Shared), "X covers S");
        assert_eq!(t.locked_pages(), 1);
        t.release(p, 1);
        assert!(t.try_acquire(p, 2, LockMode::Shared));
        assert!(t.try_acquire(p, 3, LockMode::Shared));
        assert!(t.try_acquire(q, 2, LockMode::Exclusive));
        assert_eq!(t.locked_pages(), 2);
        t.release(p, 2);
        t.release(p, 3);
        t.release(q, 2);
        assert_eq!(t.locked_pages(), 0);
        assert!(t.try_acquire(p, 4, LockMode::Exclusive));
    }
}
