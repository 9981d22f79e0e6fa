//! A B+-tree access method built **entirely on the client-based-logging
//! transactional substrate**.
//!
//! Every tree node is one record in a slotted page; every structure
//! modification (leaf update, split, root growth) is an ordinary
//! logically-logged record operation executed inside the caller's
//! transaction. That buys, with zero additional recovery code:
//!
//! * **atomic structure modifications** — a transaction that aborts
//!   mid-split rolls the split back through the normal CLR path;
//! * **crash safety** — node records replay through the §2.3/§2.4
//!   NodePSNList protocol like any other page content;
//! * **distribution** — any node of the cluster can search or modify
//!   the tree; page-level callback locking serializes conflicting
//!   structure modifications.
//!
//! This is the pattern the paper's conclusion gestures at: the
//! BeSS storage manager the authors were integrating with provides
//! access methods above exactly this kind of transactional page/record
//! layer.
//!
//! Simplifications (documented, not hidden): fixed `u64 → u64`
//! key/value pairs; deletion does not rebalance underflowed nodes,
//! but a leaf that empties completely is folded out of its parent (a
//! structural merge that frees the node record); the fan-out is a
//! configurable constant so tests can force deep trees on few pages.
//!
//! Structural operations are observable: every traverse, split, and
//! merge bumps an `access/*` counter on the transaction's home node
//! and — when the cluster's causal tracer is on — emits a `Tree` span
//! under the transaction's span, so B+-tree work shows up in PSN
//! lineages and the Chrome trace next to the page transfers it causes.

#![forbid(unsafe_code)]

mod node;

pub use node::{NodeKind, TreeNode};

use cblog_common::metrics::keys;
use cblog_common::span::{SpanKind, TreeOp};
use cblog_common::{Error, PageId, Result, Rid, TxnId};
use cblog_core::Cluster;

/// A B+-tree whose nodes live in slotted records of cluster pages.
#[derive(Clone, Debug)]
pub struct BTree {
    /// The root node's record id — stable for the tree's lifetime
    /// (root growth rewrites the root record in place).
    root: Rid,
    /// Pages providing node storage (must be slotted-formatted).
    pages: Vec<PageId>,
    /// Maximum entries per node before a split.
    max_entries: usize,
}

impl BTree {
    /// Creates an empty tree inside `txn`. The pages must already be
    /// slotted-formatted (see [`Cluster::format_slotted`]).
    pub fn create(
        cluster: &mut Cluster,
        txn: TxnId,
        pages: Vec<PageId>,
        max_entries: usize,
    ) -> Result<BTree> {
        if pages.is_empty() {
            return Err(Error::Invalid("btree needs at least one page".into()));
        }
        if max_entries < 2 {
            return Err(Error::Invalid("fan-out must be at least 2".into()));
        }
        let mut tree = BTree {
            root: Rid::new(pages[0], 0), // placeholder until the insert below
            pages,
            max_entries,
        };
        let root_node = TreeNode::empty_leaf();
        let bytes = tree.encode_padded(&root_node);
        tree.root = cluster.insert_record(txn, tree.pages[0], &bytes)?;
        Ok(tree)
    }

    /// The root record id.
    pub fn root(&self) -> Rid {
        self.root
    }

    /// Worst-case encoded node size for this fan-out: a node may
    /// temporarily hold `max_entries + 1` keys just before splitting.
    /// Records are padded to this size at allocation so in-place
    /// updates never need to grow (growth inside a full slotted page
    /// would fail).
    fn node_record_size(&self) -> usize {
        let m = self.max_entries;
        let leaf = 3 + (m + 1) * 16;
        let internal = 3 + (m + 2) * 10 + (m + 1) * 8;
        leaf.max(internal)
    }

    fn encode_padded(&self, node: &TreeNode) -> Vec<u8> {
        let mut bytes = node.encode();
        debug_assert!(bytes.len() <= self.node_record_size());
        bytes.resize(self.node_record_size(), 0);
        bytes
    }

    /// Counts a structural operation on the transaction's home node
    /// and emits a `Tree` span under the transaction's span when the
    /// cluster's tracer is on.
    fn note(&self, cluster: &Cluster, txn: TxnId, op: TreeOp) {
        let key = match op {
            TreeOp::Traverse => keys::ACCESS_TRAVERSES,
            TreeOp::Split => keys::ACCESS_SPLITS,
            TreeOp::Merge => keys::ACCESS_MERGES,
        };
        cluster.node(txn.node).registry().counter(key).bump();
        let tracer = cluster.tracer();
        if tracer.is_enabled() {
            let now = cluster.network().clock().now();
            tracer.point(
                now,
                txn.node,
                cluster.txn_ctx(txn).span,
                SpanKind::Tree { op, txn },
            );
        }
    }

    fn load(&self, cluster: &mut Cluster, txn: TxnId, rid: Rid) -> Result<TreeNode> {
        let bytes = cluster.read_record(txn, rid)?;
        TreeNode::decode(&bytes)
    }

    fn store(&self, cluster: &mut Cluster, txn: TxnId, rid: Rid, node: &TreeNode) -> Result<()> {
        cluster.update_record(txn, rid, &self.encode_padded(node))
    }

    fn alloc(&self, cluster: &mut Cluster, txn: TxnId, node: &TreeNode) -> Result<Rid> {
        let bytes = self.encode_padded(node);
        for &pid in &self.pages {
            match cluster.insert_record(txn, pid, &bytes) {
                Ok(rid) => return Ok(rid),
                Err(Error::Invalid(_)) => continue, // page full, try next
                Err(e) => return Err(e),
            }
        }
        Err(Error::Invalid("btree out of node storage".into()))
    }

    /// Looks a key up.
    pub fn get(&self, cluster: &mut Cluster, txn: TxnId, key: u64) -> Result<Option<u64>> {
        self.note(cluster, txn, TreeOp::Traverse);
        let mut rid = self.root;
        loop {
            let node = self.load(cluster, txn, rid)?;
            match node.kind() {
                NodeKind::Leaf => return Ok(node.leaf_get(key)),
                NodeKind::Internal => rid = node.child_for(key),
            }
        }
    }

    /// Inserts (or overwrites) a key. Splits propagate upward; if the
    /// root splits, the root record is rewritten in place as a new
    /// internal node so [`BTree::root`] stays valid.
    pub fn insert(&self, cluster: &mut Cluster, txn: TxnId, key: u64, value: u64) -> Result<()> {
        self.note(cluster, txn, TreeOp::Traverse);
        if let Some((sep, right_rid)) = self.insert_rec(cluster, txn, self.root, key, value)? {
            // Root split: move the current root contents into a new
            // record, rewrite the root record as an internal node over
            // [old-root-copy, right].
            let old_root = self.load(cluster, txn, self.root)?;
            let left_rid = self.alloc(cluster, txn, &old_root)?;
            let new_root = TreeNode::internal(vec![sep], vec![left_rid, right_rid]);
            self.store(cluster, txn, self.root, &new_root)?;
        }
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new_right_rid))` if
    /// this node split.
    fn insert_rec(
        &self,
        cluster: &mut Cluster,
        txn: TxnId,
        rid: Rid,
        key: u64,
        value: u64,
    ) -> Result<Option<(u64, Rid)>> {
        let mut node = self.load(cluster, txn, rid)?;
        match node.kind() {
            NodeKind::Leaf => {
                node.leaf_insert(key, value);
                if node.len() <= self.max_entries {
                    self.store(cluster, txn, rid, &node)?;
                    return Ok(None);
                }
                let (sep, right) = node.split_leaf();
                let right_rid = self.alloc(cluster, txn, &right)?;
                self.store(cluster, txn, rid, &node)?;
                self.note(cluster, txn, TreeOp::Split);
                Ok(Some((sep, right_rid)))
            }
            NodeKind::Internal => {
                let child = node.child_for(key);
                let split = self.insert_rec(cluster, txn, child, key, value)?;
                let Some((sep, right_rid)) = split else {
                    return Ok(None);
                };
                node.internal_insert(sep, right_rid);
                if node.len() <= self.max_entries {
                    self.store(cluster, txn, rid, &node)?;
                    return Ok(None);
                }
                let (up, right) = node.split_internal();
                let right_rid2 = self.alloc(cluster, txn, &right)?;
                self.store(cluster, txn, rid, &node)?;
                self.note(cluster, txn, TreeOp::Split);
                Ok(Some((up, right_rid2)))
            }
        }
    }

    /// Removes a key, returning its value. Underflowed nodes are not
    /// rebalanced, but a leaf that empties completely is merged away:
    /// its parent drops the separator and pointer and the node record
    /// is freed (all inside `txn`, so an abort restores it).
    pub fn delete(&self, cluster: &mut Cluster, txn: TxnId, key: u64) -> Result<Option<u64>> {
        self.note(cluster, txn, TreeOp::Traverse);
        let (old, _) = self.delete_rec(cluster, txn, self.root, key)?;
        Ok(old)
    }

    /// Recursive delete; returns `(removed_value, child_is_empty_leaf)`
    /// so the parent can fold an emptied leaf out of the tree.
    fn delete_rec(
        &self,
        cluster: &mut Cluster,
        txn: TxnId,
        rid: Rid,
        key: u64,
    ) -> Result<(Option<u64>, bool)> {
        let mut node = self.load(cluster, txn, rid)?;
        match node.kind() {
            NodeKind::Leaf => {
                let old = node.leaf_remove(key);
                if old.is_some() {
                    self.store(cluster, txn, rid, &node)?;
                }
                Ok((old, old.is_some() && node.is_empty()))
            }
            NodeKind::Internal => {
                let child = node.child_for(key);
                let (old, child_empty) = self.delete_rec(cluster, txn, child, key)?;
                // Merge an emptied leaf into its sibling's key range —
                // unless it is this node's only child (a lone empty
                // leaf is still a correct, if trivial, subtree).
                if child_empty && node.internal_remove_child(child) {
                    self.store(cluster, txn, rid, &node)?;
                    cluster.delete_record(txn, child)?;
                    self.note(cluster, txn, TreeOp::Merge);
                }
                Ok((old, false))
            }
        }
    }

    /// Returns all `(key, value)` pairs with `lo <= key <= hi`, in key
    /// order.
    pub fn range(
        &self,
        cluster: &mut Cluster,
        txn: TxnId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, u64)>> {
        self.note(cluster, txn, TreeOp::Traverse);
        let mut out = Vec::new();
        self.range_rec(cluster, txn, self.root, lo, hi, &mut out)?;
        Ok(out)
    }

    fn range_rec(
        &self,
        cluster: &mut Cluster,
        txn: TxnId,
        rid: Rid,
        lo: u64,
        hi: u64,
        out: &mut Vec<(u64, u64)>,
    ) -> Result<()> {
        let node = self.load(cluster, txn, rid)?;
        match node.kind() {
            NodeKind::Leaf => {
                for (k, v) in node.leaf_entries() {
                    if k >= lo && k <= hi {
                        out.push((k, v));
                    }
                }
            }
            NodeKind::Internal => {
                for (child, covers) in node.children_covering(lo, hi) {
                    if covers {
                        self.range_rec(cluster, txn, child, lo, hi, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of live entries (full scan; for tests and stats).
    pub fn len(&self, cluster: &mut Cluster, txn: TxnId) -> Result<usize> {
        Ok(self.range(cluster, txn, 0, u64::MAX)?.len())
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self, cluster: &mut Cluster, txn: TxnId) -> Result<bool> {
        Ok(self.len(cluster, txn)? == 0)
    }

    /// Tree depth (root to leaf; for tests).
    pub fn depth(&self, cluster: &mut Cluster, txn: TxnId) -> Result<usize> {
        let mut rid = self.root;
        let mut d = 1;
        loop {
            let node = self.load(cluster, txn, rid)?;
            match node.kind() {
                NodeKind::Leaf => return Ok(d),
                NodeKind::Internal => {
                    rid = node.first_child();
                    d += 1;
                }
            }
        }
    }

    /// Structural sanity check: keys sorted in every node, children
    /// ranges consistent with separators. Returns the entry count.
    pub fn check(&self, cluster: &mut Cluster, txn: TxnId) -> Result<usize> {
        self.check_rec(cluster, txn, self.root, 0, u64::MAX)
    }

    fn check_rec(
        &self,
        cluster: &mut Cluster,
        txn: TxnId,
        rid: Rid,
        lo: u64,
        hi: u64,
    ) -> Result<usize> {
        let node = self.load(cluster, txn, rid)?;
        node.check_sorted()?;
        match node.kind() {
            NodeKind::Leaf => {
                for (k, _) in node.leaf_entries() {
                    if k < lo || k > hi {
                        return Err(Error::Protocol(format!("leaf key {k} outside [{lo},{hi}]")));
                    }
                }
                Ok(node.len())
            }
            NodeKind::Internal => {
                let mut total = 0;
                for (child, clo, chi) in node.child_bounds(lo, hi) {
                    total += self.check_rec(cluster, txn, child, clo, chi)?;
                }
                Ok(total)
            }
        }
    }
}
