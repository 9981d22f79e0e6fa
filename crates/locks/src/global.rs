//! Owner-side global lock table and the callback-locking protocol.
//!
//! Paper §2.2 normal processing:
//!
//! * Read request: if no other node holds the page exclusively, grant;
//!   otherwise call back the X holder (which downgrades/releases and
//!   returns its copy of the page), then grant.
//! * Write request: grant immediately if unlocked; otherwise send
//!   callbacks to all holders, wait for the acknowledgments, then grant
//!   the exclusive lock.
//!
//! The table is pure bookkeeping: [`GlobalLockTable::request`] computes
//! the callbacks required, the cluster executes them (they may be
//! deferred while a holder's local transaction still holds the page),
//! reports each completion via [`GlobalLockTable::callback_applied`],
//! and re-issues the request, which then grants.

use crate::LockMode;
use cblog_common::{IdMap, NodeId, PageId};

/// What a callback asks the holding node to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallbackAction {
    /// Give the lock up entirely (a conflicting exclusive request).
    Release,
    /// Demote an exclusive lock to shared (a conflicting read request).
    Demote,
}

/// Result of an owner-side lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalRequestOutcome {
    /// Granted; the requester may cache the lock in the asked mode.
    Granted,
    /// Callbacks must complete first.
    NeedsCallbacks(Vec<(NodeId, CallbackAction)>),
}

/// The owner's record of which nodes hold locks on its pages.
#[derive(Debug, Default, Clone)]
pub struct GlobalLockTable {
    locks: IdMap<PageId, Vec<(NodeId, LockMode)>>,
}

impl GlobalLockTable {
    /// Empty table.
    pub fn new() -> Self {
        GlobalLockTable::default()
    }

    /// Requests `mode` on `pid` for node `requester`.
    pub fn request(
        &mut self,
        pid: PageId,
        requester: NodeId,
        mode: LockMode,
    ) -> GlobalRequestOutcome {
        let holders = self.locks.entry(pid).or_default();
        let own = holders.iter().position(|(n, _)| *n == requester);
        if let Some(i) = own {
            if holders[i].1.covers(mode) {
                return GlobalRequestOutcome::Granted;
            }
        }
        match mode {
            LockMode::Shared => {
                let xs: Vec<(NodeId, CallbackAction)> = holders
                    .iter()
                    .filter(|(n, m)| *n != requester && *m == LockMode::Exclusive)
                    .map(|(n, _)| (*n, CallbackAction::Demote))
                    .collect();
                if !xs.is_empty() {
                    return GlobalRequestOutcome::NeedsCallbacks(xs);
                }
                if own.is_none() {
                    holders.push((requester, LockMode::Shared));
                }
                GlobalRequestOutcome::Granted
            }
            LockMode::Exclusive => {
                let others: Vec<(NodeId, CallbackAction)> = holders
                    .iter()
                    .filter(|(n, _)| *n != requester)
                    .map(|(n, _)| (*n, CallbackAction::Release))
                    .collect();
                if !others.is_empty() {
                    return GlobalRequestOutcome::NeedsCallbacks(others);
                }
                match own {
                    Some(i) => holders[i].1 = LockMode::Exclusive,
                    None => holders.push((requester, LockMode::Exclusive)),
                }
                GlobalRequestOutcome::Granted
            }
        }
    }

    /// Applies the result of a completed callback on `victim`.
    pub fn callback_applied(&mut self, pid: PageId, victim: NodeId, action: CallbackAction) {
        if let Some(holders) = self.locks.get_mut(&pid) {
            match action {
                CallbackAction::Release => holders.retain(|(n, _)| *n != victim),
                CallbackAction::Demote => {
                    for (n, m) in holders.iter_mut() {
                        if *n == victim {
                            *m = LockMode::Shared;
                        }
                    }
                }
            }
            if holders.is_empty() {
                self.locks.remove(&pid);
            }
        }
    }

    /// Voluntary release by a node (e.g. it dropped the page and lock).
    pub fn release(&mut self, pid: PageId, node: NodeId) {
        self.callback_applied(pid, node, CallbackAction::Release);
    }

    /// Nodes holding `pid`, with modes.
    pub fn holders(&self, pid: PageId) -> Vec<(NodeId, LockMode)> {
        self.locks.get(&pid).cloned().unwrap_or_default()
    }

    /// The exclusive holder of `pid`, if any.
    pub fn exclusive_holder(&self, pid: PageId) -> Option<NodeId> {
        self.locks.get(&pid).and_then(|hs| {
            hs.iter()
                .find(|(_, m)| *m == LockMode::Exclusive)
                .map(|(n, _)| *n)
        })
    }

    /// All locks granted to `node`, sorted by page (recovery §2.3.3:
    /// "the list of locks N_r had acquired from the crashed node").
    pub fn locks_of(&self, node: NodeId) -> Vec<(PageId, LockMode)> {
        let mut v: Vec<(PageId, LockMode)> = self
            .locks
            .iter()
            .filter_map(|(pid, hs)| hs.iter().find(|(n, _)| *n == node).map(|(_, m)| (*pid, *m)))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// Recovery §2.3.3 at an operational node: release all *shared*
    /// locks held by the crashed node, retain its exclusive locks (they
    /// fence unrecovered pages). Returns the pages whose shared locks
    /// were dropped and the pages where exclusive locks are retained.
    pub fn drop_shared_retain_exclusive(&mut self, crashed: NodeId) -> (Vec<PageId>, Vec<PageId>) {
        let mut dropped = Vec::new();
        let mut retained = Vec::new();
        self.locks.retain(|pid, hs| {
            hs.retain(|(n, m)| {
                if *n == crashed {
                    match m {
                        LockMode::Shared => {
                            dropped.push(*pid);
                            false
                        }
                        LockMode::Exclusive => {
                            retained.push(*pid);
                            true
                        }
                    }
                } else {
                    true
                }
            });
            !hs.is_empty()
        });
        dropped.sort();
        retained.sort();
        (dropped, retained)
    }

    /// Inserts a grant directly (lock-table reconstruction at the
    /// recovering node, §2.3.3).
    pub fn insert_grant(&mut self, pid: PageId, node: NodeId, mode: LockMode) {
        let hs = self.locks.entry(pid).or_default();
        match hs.iter_mut().find(|(n, _)| *n == node) {
            Some((_, m)) => {
                if mode == LockMode::Exclusive {
                    *m = LockMode::Exclusive;
                }
            }
            None => hs.push((node, mode)),
        }
    }

    /// Drops everything (node crash).
    pub fn clear(&mut self) {
        self.locks.clear();
    }

    /// Number of (page, node) grants outstanding.
    pub fn grant_count(&self) -> usize {
        self.locks.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId::new(NodeId(0), i)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn shared_grants_accumulate() {
        let mut g = GlobalLockTable::new();
        assert_eq!(
            g.request(p(0), n(1), LockMode::Shared),
            GlobalRequestOutcome::Granted
        );
        assert_eq!(
            g.request(p(0), n(2), LockMode::Shared),
            GlobalRequestOutcome::Granted
        );
        assert_eq!(g.holders(p(0)).len(), 2);
    }

    #[test]
    fn write_request_calls_back_all_holders() {
        let mut g = GlobalLockTable::new();
        g.request(p(0), n(1), LockMode::Shared);
        g.request(p(0), n(2), LockMode::Shared);
        match g.request(p(0), n(3), LockMode::Exclusive) {
            GlobalRequestOutcome::NeedsCallbacks(cbs) => {
                assert_eq!(cbs.len(), 2);
                assert!(cbs.iter().all(|(_, a)| *a == CallbackAction::Release));
                for (v, a) in cbs {
                    g.callback_applied(p(0), v, a);
                }
            }
            o => panic!("expected callbacks, got {o:?}"),
        }
        assert_eq!(
            g.request(p(0), n(3), LockMode::Exclusive),
            GlobalRequestOutcome::Granted
        );
        assert_eq!(g.exclusive_holder(p(0)), Some(n(3)));
    }

    #[test]
    fn read_request_demotes_exclusive_holder() {
        let mut g = GlobalLockTable::new();
        g.request(p(0), n(1), LockMode::Exclusive);
        match g.request(p(0), n(2), LockMode::Shared) {
            GlobalRequestOutcome::NeedsCallbacks(cbs) => {
                assert_eq!(cbs, vec![(n(1), CallbackAction::Demote)]);
                g.callback_applied(p(0), n(1), CallbackAction::Demote);
            }
            o => panic!("expected callbacks, got {o:?}"),
        }
        assert_eq!(
            g.request(p(0), n(2), LockMode::Shared),
            GlobalRequestOutcome::Granted
        );
        let hs = g.holders(p(0));
        assert!(hs.contains(&(n(1), LockMode::Shared)));
        assert!(hs.contains(&(n(2), LockMode::Shared)));
    }

    #[test]
    fn upgrade_calls_back_other_sharers_only() {
        let mut g = GlobalLockTable::new();
        g.request(p(0), n(1), LockMode::Shared);
        g.request(p(0), n(2), LockMode::Shared);
        match g.request(p(0), n(1), LockMode::Exclusive) {
            GlobalRequestOutcome::NeedsCallbacks(cbs) => {
                assert_eq!(cbs, vec![(n(2), CallbackAction::Release)]);
                g.callback_applied(p(0), n(2), CallbackAction::Release);
            }
            o => panic!("expected callbacks, got {o:?}"),
        }
        assert_eq!(
            g.request(p(0), n(1), LockMode::Exclusive),
            GlobalRequestOutcome::Granted
        );
    }

    #[test]
    fn covering_request_is_free() {
        let mut g = GlobalLockTable::new();
        g.request(p(0), n(1), LockMode::Exclusive);
        assert_eq!(
            g.request(p(0), n(1), LockMode::Shared),
            GlobalRequestOutcome::Granted
        );
        assert_eq!(
            g.request(p(0), n(1), LockMode::Exclusive),
            GlobalRequestOutcome::Granted
        );
    }

    #[test]
    fn crash_recovery_lock_handling() {
        let mut g = GlobalLockTable::new();
        g.request(p(0), n(1), LockMode::Shared);
        g.request(p(1), n(1), LockMode::Exclusive);
        g.request(p(2), n(2), LockMode::Exclusive);
        g.request(p(0), n(2), LockMode::Shared);
        let (dropped, retained) = g.drop_shared_retain_exclusive(n(1));
        assert_eq!(dropped, vec![p(0)]);
        assert_eq!(retained, vec![p(1)]);
        // n1's X lock still fences p(1).
        assert!(matches!(
            g.request(p(1), n(2), LockMode::Shared),
            GlobalRequestOutcome::NeedsCallbacks(_)
        ));
        // n2 unaffected.
        assert_eq!(
            g.locks_of(n(2)),
            vec![(p(0), LockMode::Shared), (p(2), LockMode::Exclusive)]
        );
    }

    #[test]
    fn insert_grant_reconstructs() {
        let mut g = GlobalLockTable::new();
        g.insert_grant(p(0), n(1), LockMode::Shared);
        g.insert_grant(p(0), n(1), LockMode::Exclusive);
        g.insert_grant(p(0), n(1), LockMode::Shared); // never downgrades
        assert_eq!(g.holders(p(0)), vec![(n(1), LockMode::Exclusive)]);
    }

    #[test]
    fn voluntary_release() {
        let mut g = GlobalLockTable::new();
        g.request(p(0), n(1), LockMode::Exclusive);
        g.release(p(0), n(1));
        assert!(g.holders(p(0)).is_empty());
        assert_eq!(g.grant_count(), 0);
    }
}
