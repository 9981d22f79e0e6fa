//! Unified error type for the whole workspace.

use crate::ids::{NodeId, PageId, TxnId};
use crate::span::RecoveryPhase;
use std::fmt;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the storage manager, log manager, lock manager and
/// the distributed protocols.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure (file-backed storage / log).
    Io(std::io::Error),
    /// A page, log record or file image failed validation.
    Corrupt(String),
    /// The requested page does not exist in the owner's database.
    NoSuchPage(PageId),
    /// The transaction id is unknown or already terminated.
    NoSuchTxn(TxnId),
    /// A lock request cannot be granted right now; the caller should
    /// retry after other transactions make progress. Deterministic
    /// simulations surface blocking explicitly instead of parking a
    /// thread.
    WouldBlock {
        /// Transaction that could not be granted.
        txn: TxnId,
        /// Transactions currently standing in the way.
        holders: Vec<TxnId>,
    },
    /// Operation attempted on a transaction that has been aborted.
    TxnAborted(TxnId),
    /// The target node is crashed / unreachable.
    NodeDown(NodeId),
    /// The page's owner is crashed, so lock/data requests for it must
    /// stall until the owner recovers (paper §2.3).
    OwnerDown {
        /// The crashed owner.
        owner: NodeId,
        /// The page whose request stalled.
        page: PageId,
    },
    /// The node's log is out of space and the space-management protocol
    /// (§2.5) could not reclaim enough; the operation should be retried
    /// after forced flushes complete.
    LogFull(NodeId),
    /// The fault injector dropped a message in flight; the sender may
    /// retry (the network accounted the lost copy).
    MsgLost {
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// A retried send exhausted its bounded retry budget — the link is
    /// treated as failed rather than livelocking.
    RetriesExhausted {
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Attempts made (initial send + retries).
        attempts: u32,
    },
    /// An injected crash interrupted recovery after the named phase;
    /// the crashed nodes are down again and recovery must be restarted
    /// from scratch (it is idempotent).
    RecoveryInterrupted(RecoveryPhase),
    /// A protocol invariant was violated (bug or misuse).
    Protocol(String),
    /// Invalid argument / unsupported parameter.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corrupt(m) => write!(f, "corruption detected: {m}"),
            Error::NoSuchPage(p) => write!(f, "no such page: {p}"),
            Error::NoSuchTxn(t) => write!(f, "no such transaction: {t}"),
            Error::WouldBlock { txn, holders } => {
                write!(f, "{txn} would block on {holders:?}")
            }
            Error::TxnAborted(t) => write!(f, "{t} is aborted"),
            Error::NodeDown(n) => write!(f, "node {n} is down"),
            Error::OwnerDown { owner, page } => {
                write!(f, "owner {owner} of {page} is down; request stalled")
            }
            Error::LogFull(n) => write!(f, "log full on node {n}"),
            Error::MsgLost { from, to } => {
                write!(f, "message {from}->{to} lost in flight")
            }
            Error::RetriesExhausted { from, to, attempts } => {
                write!(f, "send {from}->{to} failed after {attempts} attempts")
            }
            Error::RecoveryInterrupted(p) => {
                write!(f, "recovery crashed after phase {p}")
            }
            Error::Protocol(m) => write!(f, "protocol violation: {m}"),
            Error::Invalid(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// True if the error is transient blocking (retry later) rather than
    /// a hard failure. A lost message is transient — the send can be
    /// repeated; an exhausted retry budget is not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::WouldBlock { .. }
                | Error::OwnerDown { .. }
                | Error::LogFull(_)
                | Error::MsgLost { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        let wb = Error::WouldBlock {
            txn: TxnId::new(NodeId(1), 1),
            holders: vec![],
        };
        assert!(wb.is_transient());
        assert!(Error::OwnerDown {
            owner: NodeId(1),
            page: PageId::new(NodeId(1), 0),
        }
        .is_transient());
        assert!(Error::LogFull(NodeId(1)).is_transient());
        assert!(Error::MsgLost {
            from: NodeId(0),
            to: NodeId(1),
        }
        .is_transient());
        assert!(!Error::RetriesExhausted {
            from: NodeId(0),
            to: NodeId(1),
            attempts: 17,
        }
        .is_transient());
        assert!(!Error::RecoveryInterrupted(RecoveryPhase::Replay).is_transient());
        assert!(!Error::Corrupt("x".into()).is_transient());
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let e: Error = std::io::Error::other("boom").into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn display_mentions_ids() {
        let e = Error::OwnerDown {
            owner: NodeId(3),
            page: PageId::new(NodeId(3), 9),
        };
        let s = e.to_string();
        assert!(s.contains("N3") && s.contains("P3.9"));
    }
}
