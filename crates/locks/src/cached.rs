//! Node-level cached locks (inter-transaction caching).
//!
//! Paper §2.1: "Each node maintains both the cached pages and the
//! cached locks across transaction boundaries … both shared and
//! exclusive locks are retained by the node after a transaction
//! terminates. Cached locks that are called back in exclusive mode are
//! released and exclusive locks that are called back in shared mode are
//! demoted to shared."
//!
//! A transaction needs no message to the owner when the node's cached
//! lock already covers the requested mode — this is where the paradigm
//! saves its locking messages during normal processing.

use crate::LockMode;
use cblog_common::{IdMap, PageId};

/// The locks this node currently holds from owner nodes (including
/// itself, for uniformity).
#[derive(Debug, Default, Clone)]
pub struct CachedLockTable {
    locks: IdMap<PageId, LockMode>,
}

impl CachedLockTable {
    /// Empty table.
    pub fn new() -> Self {
        CachedLockTable::default()
    }

    /// Mode cached for `pid`, if any.
    pub fn mode(&self, pid: PageId) -> Option<LockMode> {
        self.locks.get(&pid).copied()
    }

    /// True if the cached mode covers `want` (no owner round-trip
    /// needed).
    pub fn covers(&self, pid: PageId, want: LockMode) -> bool {
        self.mode(pid).is_some_and(|m| m.covers(want))
    }

    /// Records a grant from the owner.
    pub fn grant(&mut self, pid: PageId, mode: LockMode) {
        let e = self.locks.entry(pid).or_insert(mode);
        // Never silently downgrade: X absorbs S grants.
        if mode == LockMode::Exclusive {
            *e = LockMode::Exclusive;
        }
    }

    /// Callback in exclusive mode: release the cached lock entirely.
    pub fn release(&mut self, pid: PageId) -> Option<LockMode> {
        self.locks.remove(&pid)
    }

    /// Callback in shared mode: demote an exclusive lock to shared
    /// (no-op for shared). Returns the previous mode, if any.
    pub fn demote(&mut self, pid: PageId) -> Option<LockMode> {
        match self.locks.get_mut(&pid) {
            Some(m) => {
                let prev = *m;
                *m = LockMode::Shared;
                Some(prev)
            }
            None => None,
        }
    }

    /// All cached locks, sorted by page.
    pub fn all(&self) -> Vec<(PageId, LockMode)> {
        let mut v: Vec<(PageId, LockMode)> = self.locks.iter().map(|(p, m)| (*p, *m)).collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// Drops everything (node crash loses the lock table, §2.3).
    pub fn clear(&mut self) {
        self.locks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    fn p(i: u32) -> PageId {
        PageId::new(NodeId(2), i)
    }

    #[test]
    fn grant_and_coverage() {
        let mut c = CachedLockTable::new();
        assert!(!c.covers(p(0), LockMode::Shared));
        c.grant(p(0), LockMode::Shared);
        assert!(c.covers(p(0), LockMode::Shared));
        assert!(!c.covers(p(0), LockMode::Exclusive));
        c.grant(p(0), LockMode::Exclusive);
        assert!(c.covers(p(0), LockMode::Exclusive));
    }

    #[test]
    fn exclusive_never_silently_downgraded_by_grant() {
        let mut c = CachedLockTable::new();
        c.grant(p(0), LockMode::Exclusive);
        c.grant(p(0), LockMode::Shared);
        assert_eq!(c.mode(p(0)), Some(LockMode::Exclusive));
    }

    #[test]
    fn callback_release_and_demote() {
        let mut c = CachedLockTable::new();
        c.grant(p(0), LockMode::Exclusive);
        assert_eq!(c.demote(p(0)), Some(LockMode::Exclusive));
        assert_eq!(c.mode(p(0)), Some(LockMode::Shared));
        assert_eq!(c.release(p(0)), Some(LockMode::Shared));
        assert_eq!(c.mode(p(0)), None);
        assert_eq!(c.demote(p(9)), None);
        assert_eq!(c.release(p(9)), None);
    }

    #[test]
    fn exclusive_pages_sorted() {
        let mut c = CachedLockTable::new();
        c.grant(p(3), LockMode::Exclusive);
        c.grant(p(1), LockMode::Shared);
        c.grant(p(2), LockMode::Exclusive);
        assert_eq!(
            c.all(),
            vec![
                (p(1), LockMode::Shared),
                (p(2), LockMode::Exclusive),
                (p(3), LockMode::Exclusive)
            ]
        );
        c.clear();
        assert!(c.all().is_empty());
    }
}
