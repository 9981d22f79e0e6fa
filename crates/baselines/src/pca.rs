//! Primary-copy-authority (PCA) baseline (paper §3.2, Rahm 1991).
//!
//! Under the PCA locking protocol the lock space is partitioned among
//! the nodes; we use the page's owner as its PCA node. The recovery
//! scheme the paper contrasts has three cost signatures, all modeled
//! here:
//!
//! * **no-steal** buffering — "only pages containing committed data
//!   are written to disk": dirty uncommitted pages are pinned in the
//!   modifying node's cache (a transaction aborts if its working set
//!   exceeds the cache);
//! * **commit ships pages** — "commit processing involves the sending
//!   of each updated page to the node that holds the PCA for that
//!   page";
//! * **double logging** — "during normal transaction processing the
//!   modifying node writes log records in its own log and at
//!   transaction commit it sends all the log records written for
//!   remote pages to the PCA nodes responsible for those pages", which
//!   append them to their own logs.
//!
//! The paper's scheme avoids all three: no page shipping at commit, no
//! second copy of any log record, steal buffering. Experiment E10
//! prints the resulting per-commit costs side by side.

use cblog_common::metrics::keys;
use cblog_common::{CostModel, Error, Lsn, NodeId, PageId, Psn, Registry, Result, SimTime, TxnId};
use cblog_core::{ForceScheduler, GroupCommitPolicy};
use cblog_locks::{
    CachedLockTable, CallbackAction, GlobalLockTable, GlobalRequestOutcome, LocalLockTable,
    LocalRequestOutcome, LockMode,
};
use cblog_net::{MsgKind, Network};
use cblog_storage::{BufferPool, Database, MemStorage, PageKind};
use cblog_wal::{LogManager, LogPayload, LogRecord, MemLogStore, PageOp};
use std::collections::{HashMap, HashSet};

const CTRL: usize = 48;

/// Configuration for the PCA baseline.
#[derive(Clone, Debug)]
pub struct PcaConfig {
    /// Number of nodes; node 0 owns all pages (single-PCA topology
    /// keeps comparisons against the other baselines direct).
    pub nodes: usize,
    /// Pages owned by node 0.
    pub pages: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Per-node cache capacity in pages.
    pub buffer_frames: usize,
    /// Cost model.
    pub cost: CostModel,
    /// Group-commit policy for each node's **local** commit force (the
    /// first copy of the double log). Remote page/record shipping and
    /// the PCA-side force still happen per transaction, at flush time
    /// — batching applies where it does in the other two systems: the
    /// committing node's own log force. Defaults to
    /// [`GroupCommitPolicy::Immediate`].
    pub group_commit: GroupCommitPolicy,
}

impl Default for PcaConfig {
    fn default() -> Self {
        PcaConfig {
            nodes: 2,
            pages: 16,
            page_size: 1024,
            buffer_frames: 64,
            cost: CostModel::default(),
            group_commit: GroupCommitPolicy::Immediate,
        }
    }
}

#[derive(Debug)]
struct PcaTxn {
    /// (page, psn-before, op) history, for undo and commit shipping.
    ops: Vec<(PageId, Psn, PageOp)>,
    /// Local log chain tail.
    last_lsn: Lsn,
    /// Commit record appended and force-pending; no further work is
    /// accepted, shipping happens when the covering force lands.
    submitted: bool,
    terminated: bool,
}

struct PcaNode {
    db: Option<Database>,
    log: LogManager,
    buffer: BufferPool,
    cached: CachedLockTable,
    local: LocalLockTable,
    global: GlobalLockTable,
    txns: HashMap<TxnId, PcaTxn>,
    /// Pages pinned by uncommitted local updates (no-steal).
    pinned: HashSet<PageId>,
    next_seq: u64,
}

/// The PCA baseline system.
pub struct PcaCluster {
    cfg: PcaConfig,
    net: Network,
    nodes: Vec<PcaNode>,
    /// One force scheduler per node, batching local commit forces.
    schedulers: Vec<ForceScheduler>,
    /// Cluster-level metrics: per-node WAL counters (prefixed `n<id>/`),
    /// commit and abort counts, the uniform `locks/wait_us` histogram.
    registry: Registry,
}

impl std::fmt::Debug for PcaCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PcaCluster({} nodes)", self.nodes.len())
    }
}

impl PcaCluster {
    /// Builds the system.
    pub fn new(cfg: PcaConfig) -> Result<Self> {
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let id = NodeId(i as u32);
            let db = if i == 0 {
                let mut db =
                    Database::create(Box::new(MemStorage::new(cfg.page_size)), id, cfg.pages)?;
                for _ in 0..cfg.pages {
                    db.allocate_page(PageKind::Raw)?;
                }
                Some(db)
            } else {
                None
            };
            nodes.push(PcaNode {
                db,
                log: LogManager::new(id, Box::new(MemLogStore::new()))?,
                buffer: BufferPool::new(cfg.buffer_frames),
                cached: CachedLockTable::new(),
                local: LocalLockTable::new(),
                global: GlobalLockTable::new(),
                txns: HashMap::new(),
                pinned: HashSet::new(),
                next_seq: 1,
            });
        }
        let net = Network::new(cfg.nodes, cfg.cost.clone());
        let registry = Registry::new();
        for (i, n) in nodes.iter().enumerate() {
            registry.register_counter(&format!("n{i}/wal/records"), n.log.records_counter());
            registry.register_counter(&format!("n{i}/wal/forces"), n.log.forces_counter());
            registry.register_counter(&format!("n{i}/wal/bytes"), n.log.bytes_appended_counter());
        }
        let schedulers = (0..cfg.nodes)
            .map(|_| ForceScheduler::new(cfg.group_commit))
            .collect();
        Ok(PcaCluster {
            cfg,
            net,
            nodes,
            schedulers,
            registry,
        })
    }

    /// The accounted network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The system-wide metrics registry (mirrors the CBL cluster's
    /// `subsystem/metric` naming, per-node entries under `n<id>/`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Folds a driver-observed lock-queueing delay into the uniform
    /// `locks/wait_us` histogram (see `ServerCluster::note_queue_wait`).
    pub fn note_queue_wait(&mut self, _txn: TxnId, us: SimTime) {
        self.registry.histogram(keys::LOCKS_WAIT_US).record(us);
    }

    /// Local log of `node`.
    pub fn log_of(&self, node: NodeId) -> &LogManager {
        &self.nodes[node.0 as usize].log
    }

    fn page_bytes(&self) -> usize {
        self.cfg.page_size + 64
    }

    /// Starts a transaction.
    pub fn begin(&mut self, node: NodeId) -> Result<TxnId> {
        let n = &mut self.nodes[node.0 as usize];
        let id = TxnId::new(node, n.next_seq);
        n.next_seq += 1;
        let lsn = n.log.append(&LogRecord {
            txn: id,
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::Begin,
        })?;
        n.txns.insert(
            id,
            PcaTxn {
                ops: Vec::new(),
                last_lsn: lsn,
                submitted: false,
                terminated: false,
            },
        );
        Ok(id)
    }

    /// Reads a slot under a shared lock.
    pub fn read_u64(&mut self, txn: TxnId, pid: PageId, slot: usize) -> Result<u64> {
        self.ensure_access(txn, pid, LockMode::Shared)?;
        let n = &mut self.nodes[txn.node.0 as usize];
        let page = n.buffer.get_mut(pid).ok_or(Error::NoSuchPage(pid))?;
        page.read_slot(slot)
    }

    /// Writes a slot under an exclusive lock; logs locally (first copy
    /// of the double log) and pins the page (no-steal).
    pub fn write_u64(&mut self, txn: TxnId, pid: PageId, slot: usize, value: u64) -> Result<()> {
        self.ensure_access(txn, pid, LockMode::Exclusive)?;
        let n = &mut self.nodes[txn.node.0 as usize];
        let page = n.buffer.get_mut(pid).ok_or(Error::NoSuchPage(pid))?;
        let before = page.read_slot(slot)?;
        let op = PageOp::WriteRange {
            off: (slot * 8) as u32,
            before: before.to_le_bytes().to_vec(),
            after: value.to_le_bytes().to_vec(),
        };
        let psn_before = page.psn();
        op.apply_redo(page)?;
        page.bump_psn();
        n.buffer.mark_dirty(pid);
        if n.pinned.insert(pid) {
            n.buffer.pin(pid)?;
        }
        let t = n.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
        if t.submitted || t.terminated {
            return Err(Error::TxnAborted(txn));
        }
        let rec = LogRecord {
            txn,
            prev_lsn: t.last_lsn,
            payload: LogPayload::Update {
                pid,
                psn_before,
                op: op.clone(),
            },
        };
        t.last_lsn = n.log.append(&rec)?;
        t.ops.push((pid, psn_before, op));
        Ok(())
    }

    /// Commit: synchronous wrapper over the async pipeline — submit
    /// the commit record, then force the local log right away if the
    /// scheduler is still holding the batch open.
    pub fn commit(&mut self, txn: TxnId) -> Result<()> {
        self.commit_submit(txn)?;
        let ni = txn.node.0 as usize;
        if self.schedulers[ni].is_pending(txn) {
            self.flush_pca_node(txn.node)?;
        }
        debug_assert!(
            self.nodes[ni].txns[&txn].terminated,
            "flush must complete the submitted txn"
        );
        Ok(())
    }

    /// Phase one of commit: append the local commit record (first copy
    /// of the double log) and park the transaction in the node's force
    /// scheduler. Remote page/log shipping happens once the covering
    /// force lands, in [`PcaCluster::finish_pca_commit`].
    pub fn commit_submit(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        let ni = node.0 as usize;
        let lsn = {
            let n = &mut self.nodes[ni];
            let prev = {
                let t = n.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
                if t.submitted || t.terminated {
                    return Err(Error::TxnAborted(txn));
                }
                t.submitted = true;
                t.last_lsn
            };
            n.log.append(&LogRecord {
                txn,
                prev_lsn: prev,
                payload: LogPayload::Commit,
            })?
        };
        let now = self.net.clock().now();
        self.schedulers[ni].submit(txn, lsn, now);
        self.registry
            .gauge(keys::WAL_WINDOW_US)
            .set(self.schedulers[ni].window_us() as i64);
        if self.schedulers[ni].is_due(now) {
            self.flush_pca_node(node)?;
        }
        Ok(())
    }

    /// Phase two of commit: has the transaction's covering force landed
    /// and its shipping completed? Reaps any freshly acked batch and
    /// flushes a due scheduler on the way.
    pub fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        let node = txn.node;
        let ni = node.0 as usize;
        self.reap_pca_acked(node)?;
        if self.schedulers[ni].pending_len() > 0
            && self.schedulers[ni].is_due(self.net.clock().now())
        {
            self.flush_pca_node(node)?;
        }
        let t = self.nodes[ni].txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
        if t.terminated {
            Ok(true)
        } else if t.submitted {
            Ok(false)
        } else {
            Err(Error::Protocol(format!(
                "poll_committed({txn}) before commit_submit"
            )))
        }
    }

    /// Drive parked commits without submitting new work: flush every
    /// due scheduler; if none is due, advance the clock to the earliest
    /// open deadline and flush then. Returns whether progress was made.
    pub fn pump_commits(&mut self) -> Result<bool> {
        let mut finished = self.flush_due_pca_nodes()?;
        if finished == 0 {
            if let Some(d) = self.schedulers.iter().filter_map(|s| s.deadline()).min() {
                let now = self.net.clock().now();
                if d > now {
                    self.net.advance_time(d - now);
                }
                finished += self.flush_due_pca_nodes()?;
            }
        }
        Ok(finished > 0)
    }

    /// Flush every scheduler that is due, repeating the sweep until a
    /// full pass finds none: shipping inside a flush advances the sim
    /// clock, which can push other nodes' deadlines into the past.
    fn flush_due_pca_nodes(&mut self) -> Result<usize> {
        let mut finished = 0;
        loop {
            let mut flushed = false;
            for i in 0..self.nodes.len() {
                if self.schedulers[i].is_due(self.net.clock().now()) {
                    finished += self.flush_pca_node(NodeId(i as u32))?;
                    flushed = true;
                }
            }
            if !flushed {
                break;
            }
        }
        Ok(finished)
    }

    /// Force the node's local log once for the whole open batch, then
    /// run per-transaction completion for every commit it covered.
    fn flush_pca_node(&mut self, node: NodeId) -> Result<usize> {
        let ni = node.0 as usize;
        let mut finished = self.reap_pca_acked(node)?;
        let batch = self.schedulers[ni].pending_len();
        if batch == 0 {
            return Ok(finished);
        }
        {
            let n = &mut self.nodes[ni];
            let pending = (n.log.end_lsn().0 - n.log.flushed_lsn().0) as usize;
            n.log.force_all()?;
            self.net.disk_io(node, pending);
        }
        self.registry
            .histogram(keys::WAL_GROUP_SIZE)
            .record(batch as u64);
        finished += self.reap_pca_acked(node)?;
        Ok(finished)
    }

    /// Complete every parked commit the node's forces now cover.
    fn reap_pca_acked(&mut self, node: NodeId) -> Result<usize> {
        let ni = node.0 as usize;
        let flushed = self.nodes[ni].log.flushed_lsn();
        let acked = self.schedulers[ni].drain_acked(flushed);
        let mut finished = 0;
        for txn in acked {
            self.finish_pca_commit(txn)?;
            finished += 1;
        }
        Ok(finished)
    }

    /// Completion for a durably-committed transaction: for every
    /// updated remote page, ship the page and its log records to the
    /// PCA node, which double-logs them and forces before
    /// acknowledging; then release pins and locks.
    fn finish_pca_commit(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        let ni = node.0 as usize;
        let ops = {
            let n = &self.nodes[ni];
            let t = n.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
            t.ops.clone()
        };
        // Group updates by remote PCA node (here: owner 0 if remote).
        let mut remote_pages: Vec<PageId> = ops
            .iter()
            .map(|(p, _, _)| *p)
            .filter(|p| p.owner != node)
            .collect();
        remote_pages.sort();
        remote_pages.dedup();
        // Ship each remote page + its records to the PCA node.
        for pid in &remote_pages {
            let pca = pid.owner;
            let page = self.nodes[ni]
                .buffer
                .peek(*pid)
                .ok_or(Error::NoSuchPage(*pid))?
                .clone();
            self.net
                .send(node, pca, MsgKind::PageShip, self.page_bytes())?;
            let recs: Vec<LogRecord> = ops
                .iter()
                .filter(|(p, _, _)| p == pid)
                .map(|(p, psn, op)| LogRecord {
                    txn,
                    prev_lsn: Lsn::ZERO,
                    payload: LogPayload::Update {
                        pid: *p,
                        psn_before: *psn,
                        op: op.clone(),
                    },
                })
                .collect();
            let bytes: usize = recs.iter().map(|r| r.encode().len()).sum();
            self.net.send(node, pca, MsgKind::LogShip, bytes + CTRL)?;
            // Double logging at the PCA node, forced before the ack.
            {
                let pn = &mut self.nodes[pca.0 as usize];
                for r in &recs {
                    pn.log.append(r)?;
                }
                let pending = pn.log.end_lsn().0 - pn.log.flushed_lsn().0;
                pn.log.force_all()?;
                self.net.disk_io(pca, pending as usize);
                pn.buffer.insert(page.clone(), true)?;
            }
            self.net.send(pca, node, MsgKind::CommitAck, CTRL)?;
            // Committed data may now leave the modifier's cache.
            let n = &mut self.nodes[ni];
            if n.pinned.remove(pid) {
                n.buffer.unpin(*pid)?;
            }
            n.buffer.mark_clean(*pid);
        }
        // Unpin local pages too (they are committed now).
        {
            let n = &mut self.nodes[ni];
            let local_pins: Vec<PageId> = n
                .pinned
                .iter()
                .copied()
                .filter(|p| p.owner == node)
                .collect();
            for p in local_pins {
                n.pinned.remove(&p);
                n.buffer.unpin(p)?;
            }
            let t = n.txns.get_mut(&txn).expect("checked");
            t.terminated = true;
            n.local.release_all(txn);
        }
        let commits = self.registry.counter(keys::TXN_COMMITS);
        commits.bump();
        let forces: u64 = self.nodes.iter().map(|n| n.log.forces()).sum();
        let ratio = forces * 1000 / commits.get();
        self.registry
            .gauge(keys::WAL_FORCES_PER_COMMIT)
            .set(ratio as i64);
        Ok(())
    }

    /// Abort: pure local undo — no-steal guarantees every updated page
    /// is still cached.
    pub fn abort(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        let n = &mut self.nodes[node.0 as usize];
        let t = n.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
        if t.terminated {
            return Err(Error::TxnAborted(txn));
        }
        let ops = t.ops.clone();
        t.terminated = true;
        let mut prev = t.last_lsn;
        for (pid, _, op) in ops.iter().rev() {
            let page = n
                .buffer
                .get_mut(*pid)
                .expect("no-steal: updated pages stay cached");
            let inv = op.inverse();
            let psn_before = page.psn();
            inv.apply_redo(page)?;
            page.bump_psn();
            prev = n.log.append(&LogRecord {
                txn,
                prev_lsn: prev,
                payload: LogPayload::Clr {
                    pid: *pid,
                    psn_before,
                    op: inv,
                    undo_next: Lsn::ZERO,
                },
            })?;
        }
        n.log.append(&LogRecord {
            txn,
            prev_lsn: prev,
            payload: LogPayload::Abort,
        })?;
        let pins: Vec<PageId> = n.pinned.drain().collect();
        for p in pins {
            n.buffer.unpin(p)?;
        }
        n.local.release_all(txn);
        self.registry.counter(keys::TXN_ABORTS).bump();
        Ok(())
    }

    // Locking mirrors the callback protocol of the other systems (the
    // PCA node doubles as the lock manager for its partition).
    fn ensure_access(&mut self, txn: TxnId, pid: PageId, mode: LockMode) -> Result<()> {
        let node = txn.node;
        let ni = node.0 as usize;
        let conflicts = self.nodes[ni].local.conflicts(txn, pid, mode);
        if !conflicts.is_empty() {
            return Err(Error::WouldBlock {
                txn,
                holders: conflicts,
            });
        }
        if !self.nodes[ni].cached.covers(pid, mode) {
            let pca = pid.owner;
            if pca != node {
                self.net.send(node, pca, MsgKind::LockRequest, CTRL)?;
            }
            loop {
                let outcome = self.nodes[pca.0 as usize].global.request(pid, node, mode);
                match outcome {
                    GlobalRequestOutcome::Granted => break,
                    GlobalRequestOutcome::NeedsCallbacks(victims) => {
                        for (victim, action) in victims {
                            self.run_callback(txn, pid, victim, action)?;
                        }
                    }
                }
            }
            self.nodes[ni].cached.grant(pid, mode);
            if pca != node {
                self.net.send(pca, node, MsgKind::LockGrant, CTRL)?;
            }
        }
        match self.nodes[ni].local.request(txn, pid, mode) {
            LocalRequestOutcome::Granted => {}
            LocalRequestOutcome::Blocked(holders) => {
                return Err(Error::WouldBlock { txn, holders });
            }
        }
        if !self.nodes[ni].buffer.contains(pid) {
            self.fetch_page(node, pid)?;
        }
        Ok(())
    }

    fn run_callback(
        &mut self,
        waiter: TxnId,
        pid: PageId,
        victim: NodeId,
        action: CallbackAction,
    ) -> Result<()> {
        let pca = pid.owner;
        let vi = victim.0 as usize;
        if victim != pca {
            self.net.send(pca, victim, MsgKind::Callback, CTRL)?;
        }
        let blocking: Vec<TxnId> = self.nodes[vi]
            .local
            .holders(pid)
            .into_iter()
            .filter(|(_, m)| match action {
                CallbackAction::Release => true,
                CallbackAction::Demote => *m == LockMode::Exclusive,
            })
            .map(|(t, _)| t)
            .collect();
        if !blocking.is_empty() {
            return Err(Error::WouldBlock {
                txn: waiter,
                holders: blocking,
            });
        }
        match action {
            CallbackAction::Demote => {
                self.nodes[vi].cached.demote(pid);
            }
            CallbackAction::Release => {
                self.nodes[vi].cached.release(pid);
            }
        }
        // No-steal: a called-back page is committed data (uncommitted
        // pages are fenced by the local lock check above), so the PCA
        // node already has the committed image from commit shipping.
        if victim != pca {
            self.net.send(victim, pca, MsgKind::CallbackAck, CTRL)?;
            if action == CallbackAction::Release {
                self.nodes[vi].buffer.remove(pid);
            }
        }
        self.nodes[pca.0 as usize]
            .global
            .callback_applied(pid, victim, action);
        Ok(())
    }

    fn fetch_page(&mut self, node: NodeId, pid: PageId) -> Result<()> {
        let pca = pid.owner;
        let page = match self.nodes[pca.0 as usize].buffer.peek(pid) {
            Some(p) => p.clone(),
            None => {
                let db = self.nodes[pca.0 as usize]
                    .db
                    .as_mut()
                    .ok_or(Error::NoSuchPage(pid))?;
                let p = db.read_page(pid.index)?;
                self.net.disk_io(pca, self.cfg.page_size);
                p
            }
        };
        if pca != node {
            self.net
                .send(pca, node, MsgKind::PageShip, self.page_bytes())?;
        }
        if let Some(ev) = self.nodes[node.0 as usize].buffer.insert(page, false)? {
            // Evicted pages are clean or committed under no-steal;
            // committed dirty copies were already shipped at commit.
            debug_assert!(!ev.dirty || ev.page.id().owner == node);
            if ev.dirty && ev.page.id().owner == node {
                let db = self.nodes[node.0 as usize].db.as_mut().expect("owner");
                db.write_page(&ev.page)?;
                self.net.disk_io(node, self.cfg.page_size);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(nodes: usize) -> PcaCluster {
        PcaCluster::new(PcaConfig {
            nodes,
            pages: 8,
            page_size: 512,
            buffer_frames: 16,
            cost: CostModel::unit(),
            group_commit: GroupCommitPolicy::Immediate,
        })
        .unwrap()
    }

    fn pid(i: u32) -> PageId {
        PageId::new(NodeId(0), i)
    }

    #[test]
    fn commit_ships_page_and_double_logs() {
        let mut s = sys(2);
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 7).unwrap();
        let stats0 = s.network().stats();
        let pca_recs0 = s.log_of(NodeId(0)).records_appended();
        s.commit(t).unwrap();
        let d = s.network().stats().since(&stats0);
        assert_eq!(d.count(MsgKind::PageShip), 1, "page travels at commit");
        assert_eq!(d.count(MsgKind::LogShip), 1, "records travel at commit");
        assert!(
            s.log_of(NodeId(0)).records_appended() > pca_recs0,
            "double logging at the PCA node"
        );
        // The modifying node logged them too (first copy).
        assert!(s.log_of(NodeId(1)).records_appended() >= 3);
    }

    #[test]
    fn values_flow_between_nodes() {
        let mut s = sys(3);
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 5).unwrap();
        s.commit(t).unwrap();
        let t2 = s.begin(NodeId(2)).unwrap();
        assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 5);
        s.commit(t2).unwrap();
    }

    #[test]
    fn abort_is_local_under_no_steal() {
        let mut s = sys(2);
        let t0 = s.begin(NodeId(1)).unwrap();
        s.write_u64(t0, pid(0), 0, 1).unwrap();
        s.commit(t0).unwrap();
        let stats0 = s.network().stats();
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 99).unwrap();
        s.abort(t).unwrap();
        assert_eq!(
            s.network().stats().since(&stats0).total_messages(),
            0,
            "abort needs no messages: the page never left the cache"
        );
        let t2 = s.begin(NodeId(1)).unwrap();
        assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 1);
        s.commit(t2).unwrap();
    }

    #[test]
    fn uncommitted_pages_are_pinned() {
        let mut s = sys(2);
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 1).unwrap();
        // The pinned page cannot be evicted; filling the cache with
        // reads evicts other pages instead.
        for i in 1..8 {
            s.read_u64(t, pid(i), 0).unwrap();
        }
        assert!(s.nodes[1].buffer.contains(pid(0)), "pinned page survives");
        s.commit(t).unwrap();
    }

    #[test]
    fn local_commit_force_batches_across_txns() {
        let mut s = PcaCluster::new(PcaConfig {
            nodes: 2,
            pages: 8,
            page_size: 512,
            buffer_frames: 16,
            cost: CostModel::unit(),
            group_commit: GroupCommitPolicy::Window {
                window_us: 1_000_000,
                max_batch: 64,
            },
        })
        .unwrap();
        let a = s.begin(NodeId(1)).unwrap();
        let b = s.begin(NodeId(1)).unwrap();
        s.write_u64(a, pid(0), 0, 1).unwrap();
        s.write_u64(b, pid(1), 0, 2).unwrap();
        let forces0 = s.log_of(NodeId(1)).forces();
        let stats0 = s.network().stats();
        s.commit_submit(a).unwrap();
        s.commit_submit(b).unwrap();
        assert!(!s.poll_committed(a).unwrap(), "window still open");
        assert!(!s.poll_committed(b).unwrap());
        assert_eq!(s.log_of(NodeId(1)).forces(), forces0, "no force yet");
        assert!(s.pump_commits().unwrap());
        assert_eq!(
            s.log_of(NodeId(1)).forces(),
            forces0 + 1,
            "one local force covers the whole batch"
        );
        assert!(s.poll_committed(a).unwrap());
        assert!(s.poll_committed(b).unwrap());
        // Shipping is still per transaction, after the covering force.
        let d = s.network().stats().since(&stats0);
        assert_eq!(d.count(MsgKind::PageShip), 2);
        assert_eq!(d.count(MsgKind::CommitAck), 2);
    }

    #[test]
    fn commit_cost_scales_with_updated_pages() {
        let mut s = sys(2);
        // Warm cache and locks.
        let t = s.begin(NodeId(1)).unwrap();
        for i in 0..4 {
            s.write_u64(t, pid(i), 0, 1).unwrap();
        }
        s.commit(t).unwrap();
        // Steady state: 4 remote pages updated per txn.
        let stats0 = s.network().stats();
        let t = s.begin(NodeId(1)).unwrap();
        for i in 0..4 {
            s.write_u64(t, pid(i), 0, 2).unwrap();
        }
        s.commit(t).unwrap();
        let d = s.network().stats().since(&stats0);
        assert_eq!(d.count(MsgKind::PageShip), 4);
        assert_eq!(d.count(MsgKind::LogShip), 4);
        assert_eq!(d.count(MsgKind::CommitAck), 4);
    }
}
