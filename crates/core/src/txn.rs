//! Per-transaction state.

use cblog_common::{Lsn, TxnId};

/// Lifecycle of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running; may read, write, commit or abort.
    Active,
    /// Rolling back (the abort path is underway; during restart this is
    /// the "loser" state).
    Aborting,
    /// Commit record appended, force pending: the transaction has
    /// finished its work and released its locks, but its Commit record
    /// is not yet durable. Group commit parks transactions here until
    /// a shared log force covers their commit LSN. If the node crashes
    /// in this state the transaction is a loser — exactly the
    /// unacknowledged-commit window durability semantics require.
    Committing,
    /// Durably committed.
    Committed,
    /// Fully rolled back.
    Aborted,
}

/// A savepoint: partial-rollback target (paper §2.2 "nodes can support
/// the savepoint concept and offer partial rollbacks").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Savepoint {
    /// The owning transaction.
    pub txn: TxnId,
    /// Last log record of the transaction at savepoint time; rollback
    /// undoes everything chained after this LSN.
    pub at_lsn: Lsn,
}

/// Runtime state of one transaction on its node.
#[derive(Clone, Debug)]
pub struct TxnState {
    /// Transaction id.
    pub id: TxnId,
    /// Status.
    pub status: TxnStatus,
    /// Most recent log record written by the transaction.
    pub last_lsn: Lsn,
    /// First log record (Begin); bounds log truncation.
    pub first_lsn: Lsn,
    /// During rollback: the next record to undo (CLR undo-next chain).
    pub undo_next: Lsn,
    /// Number of updates performed (stats / tests).
    pub updates: u64,
}

impl TxnState {
    /// Fresh active transaction whose Begin record is at `begin_lsn`.
    pub fn new(id: TxnId, begin_lsn: Lsn) -> Self {
        TxnState {
            id,
            status: TxnStatus::Active,
            last_lsn: begin_lsn,
            first_lsn: begin_lsn,
            undo_next: begin_lsn,
            updates: 0,
        }
    }

    /// Records that the transaction's update was logged at `lsn`.
    pub(crate) fn logged_update(&mut self, lsn: Lsn) {
        self.last_lsn = lsn;
        self.undo_next = lsn;
        self.updates += 1;
    }

    /// True if the transaction can still issue operations.
    pub fn is_active(&self) -> bool {
        self.status == TxnStatus::Active
    }

    /// True once the transaction has terminated either way.
    pub fn is_terminated(&self) -> bool {
        matches!(self.status, TxnStatus::Committed | TxnStatus::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    #[test]
    fn lifecycle_flags() {
        let mut t = TxnState::new(TxnId::new(NodeId(1), 1), Lsn(8));
        assert!(t.is_active());
        assert!(!t.is_terminated());
        t.status = TxnStatus::Aborting;
        assert!(!t.is_active());
        assert!(!t.is_terminated());
        t.status = TxnStatus::Committing;
        assert!(!t.is_active(), "force-pending txn issues no more ops");
        assert!(!t.is_terminated(), "not durable until the force lands");
        t.status = TxnStatus::Aborted;
        assert!(t.is_terminated());
        t.status = TxnStatus::Committed;
        assert!(t.is_terminated());
    }

    #[test]
    fn new_txn_chains_from_begin() {
        let t = TxnState::new(TxnId::new(NodeId(1), 1), Lsn(42));
        assert_eq!(t.last_lsn, Lsn(42));
        assert_eq!(t.first_lsn, Lsn(42));
        assert_eq!(t.undo_next, Lsn(42));
        assert_eq!(t.updates, 0);
    }
}
