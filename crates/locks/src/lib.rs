//! Locking for client-based logging nodes.
//!
//! Paper §2.1: concurrency control is strict two-phase locking at page
//! granularity; each node has a lock manager that caches acquired locks
//! across transaction boundaries (*inter-transaction caching*) and
//! forwards requests for remotely-owned pages to the owner; cache
//! consistency uses the **callback locking** protocol; called-back
//! exclusive locks are released or demoted to shared.
//!
//! Three tables cooperate:
//!
//! * [`LocalLockTable`] — transaction-level S/X locks inside one node
//!   (strict 2PL among local transactions).
//! * [`CachedLockTable`] — the node-level locks this node currently
//!   holds from owner nodes; these survive transaction termination and
//!   are what callbacks revoke.
//! * [`GlobalLockTable`] — the owner-side table of which *nodes* hold
//!   which locks on the owner's pages; computes the callback victims
//!   for conflicting requests.
//!
//! Blocking is surfaced explicitly (requests return the conflicting
//! holders) so the deterministic cluster scheduler can queue, retry and
//! detect deadlocks via [`deadlock::WaitsForGraph`].

#![forbid(unsafe_code)]

pub mod cached;
pub mod deadlock;
pub mod global;
pub mod local;
pub mod sharded;

pub use cached::CachedLockTable;
pub use deadlock::WaitsForGraph;
pub use global::{CallbackAction, GlobalLockTable, GlobalRequestOutcome};
pub use local::{LocalLockTable, LocalRequestOutcome};
pub use sharded::ShardedLockTable;

use cblog_common::{PageId, TxnId};

/// A node's answer to a callback on `pid` (paper §2.2), the one rule
/// every system applies: the callback is deferred while a local
/// transaction holds a lock it conflicts with (any holder defers a
/// release; only an exclusive holder defers a demote), and `Err`
/// names those holders. Otherwise the cached lock is released or
/// demoted to shared.
pub fn answer_callback(
    local: &LocalLockTable,
    cached: &mut CachedLockTable,
    pid: PageId,
    action: CallbackAction,
) -> Result<(), Vec<TxnId>> {
    let deferring: Vec<TxnId> = local
        .holders(pid)
        .into_iter()
        .filter(|&(_, m)| action == CallbackAction::Release || m == LockMode::Exclusive)
        .map(|(t, _)| t)
        .collect();
    if !deferring.is_empty() {
        return Err(deferring);
    }
    match action {
        CallbackAction::Demote => cached.demote(pid),
        CallbackAction::Release => cached.release(pid),
    };
    Ok(())
}

/// Lock modes at page granularity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    /// Lock compatibility: S-S only.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// True if `self` already covers a request for `want` (X covers S).
    pub fn covers(self, want: LockMode) -> bool {
        self == LockMode::Exclusive || want == LockMode::Shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    #[test]
    fn compatibility_matrix() {
        assert!(LockMode::Shared.compatible(LockMode::Shared));
        assert!(!LockMode::Shared.compatible(LockMode::Exclusive));
        assert!(!LockMode::Exclusive.compatible(LockMode::Shared));
        assert!(!LockMode::Exclusive.compatible(LockMode::Exclusive));
    }

    #[test]
    fn callback_answers_by_holder_and_action() {
        use CallbackAction::{Demote, Release};
        use LockMode::{Exclusive as X, Shared as S};
        let pid = PageId::new(NodeId(0), 3);
        let t = TxnId::new(NodeId(1), 7);
        // (local holder, action) -> (deferred, cached mode after), from
        // a cached X lock.
        let table = [
            (None, Demote, false, Some(S)),
            (None, Release, false, None),
            (Some(S), Demote, false, Some(S)),
            (Some(S), Release, true, Some(X)),
            (Some(X), Demote, true, Some(X)),
            (Some(X), Release, true, Some(X)),
        ];
        for (holder, action, deferred, after) in table {
            let mut local = LocalLockTable::new();
            let mut cached = CachedLockTable::new();
            cached.grant(pid, X);
            if let Some(m) = holder {
                assert_eq!(local.request(t, pid, m), LocalRequestOutcome::Granted);
            }
            let got = answer_callback(&local, &mut cached, pid, action);
            let case = format!("{holder:?} x {action:?}");
            assert_eq!(got, if deferred { Err(vec![t]) } else { Ok(()) }, "{case}");
            assert_eq!(cached.mode(pid), after, "{case}");
        }
    }

    #[test]
    fn coverage() {
        assert!(LockMode::Exclusive.covers(LockMode::Shared));
        assert!(LockMode::Exclusive.covers(LockMode::Exclusive));
        assert!(LockMode::Shared.covers(LockMode::Shared));
        assert!(!LockMode::Shared.covers(LockMode::Exclusive));
    }
}
