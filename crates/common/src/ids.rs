//! Identifier newtypes used throughout the system.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies a processing node in the distributed system.
///
/// Nodes that have databases attached to them are *owner nodes* with
/// respect to the pages stored in those databases (paper Figure 1). Any
/// node with a local log can run transactions and participate in
/// recovery.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Globally unique page identifier.
///
/// Ownership is encoded in the identifier: every database page lives in
/// the database attached to exactly one owner node, mirroring the
/// shared-nothing / client-server partitioning the paper assumes. The
/// `index` is the page's slot within the owner's database file.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageId {
    /// The node whose database holds this page.
    pub owner: NodeId,
    /// Index of the page within the owner's database.
    pub index: u32,
}

impl PageId {
    /// Creates a page id for `index` within `owner`'s database.
    pub const fn new(owner: NodeId, index: u32) -> Self {
        PageId { owner, index }
    }

    /// Packs the id into a `u64` (owner in the high 32 bits).
    pub const fn to_u64(self) -> u64 {
        ((self.owner.0 as u64) << 32) | self.index as u64
    }

    /// Inverse of [`PageId::to_u64`].
    pub const fn from_u64(v: u64) -> Self {
        PageId {
            owner: NodeId((v >> 32) as u32),
            index: v as u32,
        }
    }
}

/// One word to the hasher (the packed id), not one per field: a
/// [`crate::IdMap`] lookup is then a single multiply.
impl Hash for PageId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.to_u64());
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}.{}", self.owner.0, self.index)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}.{}", self.owner.0, self.index)
    }
}

/// Globally unique transaction identifier.
///
/// Transactions execute in their entirety on the node where they start
/// (paper §2.1), so a (node, local sequence) pair is unique without any
/// coordination.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TxnId {
    /// Node on which the transaction runs.
    pub node: NodeId,
    /// Node-local transaction sequence number (starts at 1).
    pub seq: u64,
}

impl TxnId {
    /// Creates a transaction id.
    pub const fn new(node: NodeId, seq: u64) -> Self {
        TxnId { node, seq }
    }
}

/// One word to the hasher, as for [`PageId`]: the node goes into the
/// top 16 bits, which no sequence number a node can reach occupies.
impl Hash for TxnId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((self.node.0 as u64).rotate_right(16) ^ self.seq);
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.node.0, self.seq)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.node.0, self.seq)
    }
}

/// Log sequence number: the byte address of a log record within one
/// node's local log file.
///
/// LSNs from different nodes are **never** compared — every log is
/// private to its node and logs are never merged (paper §1.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The zero LSN, used as "no record" / start-of-log sentinel.
    pub const ZERO: Lsn = Lsn(0);

    /// Returns true if this is the "no record" sentinel.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Byte offset advanced by `n`.
    pub fn advance(self, n: u64) -> Lsn {
        Lsn(self.0 + n)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Page sequence number: incremented by one every time the page is
/// updated (including compensation updates during rollback).
///
/// The PSN stored in a log record is the PSN the page had *just before*
/// the update described by the record (paper §2.1), so redo applies a
/// record iff `page.psn == record.psn_before`, and the order of updates
/// to a page across nodes is exactly ascending PSN order (§2.3.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Psn(pub u64);

impl Psn {
    /// PSN zero (pages start at a spacemap-assigned base, see storage).
    pub const ZERO: Psn = Psn(0);

    /// The PSN after one more update.
    pub fn next(self) -> Psn {
        Psn(self.0 + 1)
    }
}

impl fmt::Debug for Psn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for Psn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Record identifier within a slotted page: (page, slot number).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Rid {
    /// Page holding the record.
    pub page: PageId,
    /// Slot number within the page.
    pub slot: u16,
}

impl Rid {
    /// Creates a record id.
    pub const fn new(page: PageId, slot: u16) -> Self {
        Rid { page, slot }
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.page, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_round_trips_through_u64() {
        let pid = PageId::new(NodeId(7), 123_456);
        assert_eq!(PageId::from_u64(pid.to_u64()), pid);
    }

    #[test]
    fn page_id_u64_is_order_preserving_within_owner() {
        let a = PageId::new(NodeId(1), 5);
        let b = PageId::new(NodeId(1), 9);
        assert!(a.to_u64() < b.to_u64());
        assert!(a < b);
    }

    #[test]
    fn lsn_advance_and_sentinel() {
        assert!(Lsn::ZERO.is_zero());
        let l = Lsn(10).advance(32);
        assert_eq!(l, Lsn(42));
        assert!(!l.is_zero());
    }

    #[test]
    fn psn_next_increments() {
        assert_eq!(Psn(41).next(), Psn(42));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(PageId::new(NodeId(1), 2).to_string(), "P1.2");
        assert_eq!(TxnId::new(NodeId(1), 2).to_string(), "T1.2");
        assert_eq!(Lsn(5).to_string(), "L5");
        assert_eq!(Psn(6).to_string(), "S6");
        assert_eq!(Rid::new(PageId::new(NodeId(1), 2), 3).to_string(), "P1.2#3");
    }

    #[test]
    fn txn_id_ordering_is_node_then_seq() {
        let a = TxnId::new(NodeId(1), 9);
        let b = TxnId::new(NodeId(2), 1);
        assert!(a < b);
    }
}
