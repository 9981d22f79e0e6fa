//! Transaction-level lock table (strict 2PL within one node).

use crate::LockMode;
use cblog_common::{IdMap, PageId, TxnId};

/// Result of a local lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalRequestOutcome {
    /// Lock granted (or already held in a covering mode).
    Granted,
    /// Conflicting local transactions hold the page.
    Blocked(Vec<TxnId>),
}

/// Per-node table of transaction-level page locks.
///
/// Requests either succeed or report the conflicting holders; the
/// scheduler owns queueing and retry, which keeps the table free of
/// hidden state and makes conflicts observable to the deadlock
/// detector.
#[derive(Debug, Default)]
pub struct LocalLockTable {
    locks: IdMap<PageId, Vec<(TxnId, LockMode)>>,
}

impl LocalLockTable {
    /// Empty table.
    pub fn new() -> Self {
        LocalLockTable::default()
    }

    /// Requests `mode` on `pid` for `txn`. Upgrade (S→X) succeeds only
    /// if `txn` is the sole holder.
    pub fn request(&mut self, txn: TxnId, pid: PageId, mode: LockMode) -> LocalRequestOutcome {
        let holders = self.locks.entry(pid).or_default();
        if let Some(i) = holders.iter().position(|(t, _)| *t == txn) {
            let held = holders[i].1;
            if held.covers(mode) {
                return LocalRequestOutcome::Granted;
            }
            // Upgrade S -> X.
            let others: Vec<TxnId> = holders
                .iter()
                .filter(|(t, _)| *t != txn)
                .map(|(t, _)| *t)
                .collect();
            if others.is_empty() {
                holders[i].1 = LockMode::Exclusive;
                return LocalRequestOutcome::Granted;
            }
            return LocalRequestOutcome::Blocked(others);
        }
        let conflicting: Vec<TxnId> = holders
            .iter()
            .filter(|(_, m)| !m.compatible(mode))
            .map(|(t, _)| *t)
            .collect();
        if conflicting.is_empty() {
            holders.push((txn, mode));
            LocalRequestOutcome::Granted
        } else {
            LocalRequestOutcome::Blocked(conflicting)
        }
    }

    /// Returns the local transactions that would block `txn` from
    /// acquiring `mode` on `pid`, without granting anything. Used to
    /// order the two-level acquisition: the transaction-level lock is
    /// granted only after the node-level lock covers it, so a request
    /// that still has to travel to the owner never holds a local lock
    /// that defers incoming callbacks (which would livelock with the
    /// remote holder's own upgrade).
    pub fn conflicts(&self, txn: TxnId, pid: PageId, mode: LockMode) -> Vec<TxnId> {
        let Some(holders) = self.locks.get(&pid) else {
            return Vec::new();
        };
        match holders.iter().find(|(t, _)| *t == txn) {
            Some((_, held)) if held.covers(mode) => Vec::new(),
            Some(_) => holders
                .iter()
                .filter(|(t, _)| *t != txn)
                .map(|(t, _)| *t)
                .collect(),
            None => holders
                .iter()
                .filter(|(_, m)| !m.compatible(mode))
                .map(|(t, _)| *t)
                .collect(),
        }
    }

    /// Mode `txn` holds on `pid`, if any.
    pub fn held(&self, txn: TxnId, pid: PageId) -> Option<LockMode> {
        self.locks
            .get(&pid)?
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    /// All transactions holding `pid` (any mode).
    pub fn holders(&self, pid: PageId) -> Vec<(TxnId, LockMode)> {
        self.locks.get(&pid).cloned().unwrap_or_default()
    }

    /// Pages `txn` currently holds, with modes (sorted by page).
    pub fn locks_of(&self, txn: TxnId) -> Vec<(PageId, LockMode)> {
        let mut v: Vec<(PageId, LockMode)> = self
            .locks
            .iter()
            .filter_map(|(pid, hs)| hs.iter().find(|(t, _)| *t == txn).map(|(_, m)| (*pid, *m)))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// Releases every lock of `txn` (strict 2PL release at termination).
    pub fn release_all(&mut self, txn: TxnId) {
        self.locks.retain(|_, hs| {
            hs.retain(|(t, _)| *t != txn);
            !hs.is_empty()
        });
    }

    /// Drops everything (node crash).
    pub fn clear(&mut self) {
        self.locks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    fn t(i: u64) -> TxnId {
        TxnId::new(NodeId(1), i)
    }

    fn p(i: u32) -> PageId {
        PageId::new(NodeId(1), i)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LocalLockTable::new();
        assert_eq!(
            lt.request(t(1), p(0), LockMode::Shared),
            LocalRequestOutcome::Granted
        );
        assert_eq!(
            lt.request(t(2), p(0), LockMode::Shared),
            LocalRequestOutcome::Granted
        );
        assert_eq!(lt.holders(p(0)).len(), 2);
    }

    #[test]
    fn exclusive_conflicts_reported() {
        let mut lt = LocalLockTable::new();
        lt.request(t(1), p(0), LockMode::Exclusive);
        match lt.request(t(2), p(0), LockMode::Shared) {
            LocalRequestOutcome::Blocked(hs) => assert_eq!(hs, vec![t(1)]),
            g => panic!("expected block, got {g:?}"),
        }
        match lt.request(t(2), p(0), LockMode::Exclusive) {
            LocalRequestOutcome::Blocked(hs) => assert_eq!(hs, vec![t(1)]),
            g => panic!("expected block, got {g:?}"),
        }
    }

    #[test]
    fn reentrant_and_covering_grants() {
        let mut lt = LocalLockTable::new();
        lt.request(t(1), p(0), LockMode::Exclusive);
        assert_eq!(
            lt.request(t(1), p(0), LockMode::Shared),
            LocalRequestOutcome::Granted
        );
        assert_eq!(
            lt.request(t(1), p(0), LockMode::Exclusive),
            LocalRequestOutcome::Granted
        );
        assert_eq!(lt.held(t(1), p(0)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_succeeds_alone_blocks_with_others() {
        let mut lt = LocalLockTable::new();
        lt.request(t(1), p(0), LockMode::Shared);
        assert_eq!(
            lt.request(t(1), p(0), LockMode::Exclusive),
            LocalRequestOutcome::Granted
        );
        lt.release_all(t(1));

        lt.request(t(1), p(0), LockMode::Shared);
        lt.request(t(2), p(0), LockMode::Shared);
        match lt.request(t(1), p(0), LockMode::Exclusive) {
            LocalRequestOutcome::Blocked(hs) => assert_eq!(hs, vec![t(2)]),
            g => panic!("expected block, got {g:?}"),
        }
        // Still holds its shared lock.
        assert_eq!(lt.held(t(1), p(0)), Some(LockMode::Shared));
    }

    #[test]
    fn release_all_frees_pages() {
        let mut lt = LocalLockTable::new();
        lt.request(t(1), p(0), LockMode::Exclusive);
        lt.request(t(1), p(1), LockMode::Shared);
        lt.request(t(2), p(1), LockMode::Shared);
        assert_eq!(lt.locks_of(t(1)).len(), 2);
        lt.release_all(t(1));
        assert!(lt.locks_of(t(1)).is_empty());
        assert!(lt.holders(p(0)).is_empty());
        assert_eq!(lt.holders(p(1)), vec![(t(2), LockMode::Shared)]);
    }

    #[test]
    fn clear_empties_table() {
        let mut lt = LocalLockTable::new();
        lt.request(t(1), p(0), LockMode::Exclusive);
        lt.clear();
        assert!(lt.locks.is_empty());
    }
}
