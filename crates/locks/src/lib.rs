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

    #[test]
    fn compatibility_matrix() {
        assert!(LockMode::Shared.compatible(LockMode::Shared));
        assert!(!LockMode::Shared.compatible(LockMode::Exclusive));
        assert!(!LockMode::Exclusive.compatible(LockMode::Shared));
        assert!(!LockMode::Exclusive.compatible(LockMode::Exclusive));
    }

    #[test]
    fn coverage() {
        assert!(LockMode::Exclusive.covers(LockMode::Shared));
        assert!(LockMode::Exclusive.covers(LockMode::Exclusive));
        assert!(LockMode::Shared.covers(LockMode::Shared));
        assert!(!LockMode::Shared.covers(LockMode::Exclusive));
    }
}
