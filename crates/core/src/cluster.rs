//! The deterministic distributed cluster: data-shipping protocol,
//! callback locking, commit/abort/savepoints, owner-side page service,
//! flush acknowledgments and the §2.5 log-space protocol.
//!
//! Every inter-node interaction is accounted through the
//! [`cblog_net::Network`] before the data moves, so experiments read
//! exact protocol costs. Blocking is explicit: operations that cannot
//! proceed return [`Error::WouldBlock`] (conflicting transactions) or
//! [`Error::OwnerDown`] (page owner crashed), and the caller retries
//! after other transactions advance — [`crate::runtime::drive`] layers
//! queueing, retry and deadlock-victim handling on top.

use crate::config::{ClusterConfig, Paradigm};
use crate::group_commit::ForceScheduler;
use crate::node::{Node, RollbackStep};
use crate::txn::{Savepoint, TxnStatus};
use cblog_common::metrics::{keys, prof_key};
use cblog_common::span;
use cblog_common::{
    Bucket, Error, Fnv1a, IdMap, Lsn, MetricValue, NodeId, PageId, Psn, Result, Rid, SimTime,
    Snapshot, Span, SpanCtx, SpanId, SpanKind, Tracer, TransferWhy, TxnId,
};
use cblog_locks::{CallbackAction, GlobalRequestOutcome, LocalRequestOutcome, LockMode};
use cblog_net::{MsgHeader, MsgKind, Network};
use cblog_storage::{EvictedPage, Page, PageKind, SlottedPage};
use cblog_wal::{LogPayload, LogRecord, PageOp};

/// Control-message payload size used for accounting.
pub const CTRL_BYTES: usize = 48;

/// Spans per node in [`Cluster::post_mortem`].
const POST_MORTEM_SPANS: usize = 32;

/// The server of the [`Paradigm::ClientServer`] paradigm.
const SERVER: NodeId = NodeId(0);

#[inline]
fn ix(id: NodeId) -> usize {
    id.0 as usize
}

/// A cluster of client-based-logging nodes.
pub struct Cluster {
    nodes: Vec<Node>,
    net: Network,
    cfg: ClusterConfig,
    /// Sim-time at which each currently-blocked transaction first hit
    /// a lock conflict; drained into the `locks/wait_us` histogram
    /// when the access finally succeeds (or the waiter aborts).
    wait_since: IdMap<TxnId, SimTime>,
    /// Per-node group-commit force schedulers (index = node id).
    schedulers: Vec<ForceScheduler>,
    /// Cluster-wide causal tracer (disabled unless
    /// [`crate::ClusterConfigBuilder::tracing`] turned it on). The
    /// network holds a clone and emits message spans itself.
    tracer: Tracer,
    /// In-flight transaction spans: id + begin sim-time, closed into a
    /// [`SpanKind::Txn`] interval span at durable-commit or abort.
    txn_spans: IdMap<TxnId, (SpanId, SimTime)>,
    /// Under [`Paradigm::ClientServer`], per transaction that has
    /// shipped records: the last client LSN shipped, and the
    /// transaction's last LSN at the server.
    shipped: IdMap<TxnId, (Lsn, Lsn)>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster({} nodes)", self.nodes.len())
    }
}

impl Cluster {
    /// Builds the cluster per `cfg`.
    pub fn new(cfg: ClusterConfig) -> Result<Self> {
        let n = cfg.owned_pages.len();
        if cfg.paradigm == Paradigm::ClientServer && cfg.owned_pages.iter().skip(1).any(|&p| p > 0)
        {
            return Err(Error::Invalid(
                "under the client-server paradigm only node 0 owns pages".into(),
            ));
        }
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            nodes.push(Node::new(NodeId(i as u32), cfg.node_config(i))?);
        }
        let mut net = Network::with_faults(n, cfg.cost.clone(), cfg.faults.clone());
        let tracer = if cfg.tracing {
            Tracer::new(span::DEFAULT_TRACE_CAPACITY)
        } else {
            Tracer::disabled()
        };
        net.set_tracer(tracer.clone());
        let schedulers = (0..n)
            .map(|_| ForceScheduler::new(cfg.group_commit))
            .collect();
        Ok(Cluster {
            nodes,
            net,
            cfg,
            wait_since: IdMap::default(),
            schedulers,
            tracer,
            txn_spans: IdMap::default(),
            shipped: IdMap::default(),
        })
    }

    fn now(&self) -> SimTime {
        self.net.clock().now()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a node (tests, recovery, baselines).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// The accounted network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    pub(crate) fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The cluster-wide causal tracer (disabled unless the config
    /// enabled tracing).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Checks every invariant the online watchdog has accumulated;
    /// `Err` carries the violation list plus the offending page's
    /// lineage slice. Cheap when tracing is off (vacuously ok).
    pub fn trace_check(&self) -> Result<()> {
        self.tracer.check().map_err(Error::Protocol)
    }

    /// The causal context of `txn`'s in-flight span (NONE when tracing
    /// is off or the transaction already finished).
    pub fn txn_ctx(&self, txn: TxnId) -> SpanCtx {
        match self.txn_spans.get(&txn) {
            Some(&(sid, _)) => SpanCtx::root(sid),
            None => SpanCtx::NONE,
        }
    }

    /// Closes `txn`'s interval span, if one is open.
    fn close_txn_span(&mut self, txn: TxnId, committed: bool) {
        if let Some((sid, t0)) = self.txn_spans.remove(&txn) {
            let now = self.now();
            self.tracer.emit(Span {
                id: sid,
                parent: SpanId::NONE,
                node: txn.node,
                start: t0,
                dur: now.saturating_sub(t0),
                kind: SpanKind::Txn { txn, committed },
            });
        }
    }

    fn page_size(&self) -> usize {
        self.cfg.default_node.page_size
    }

    fn page_bytes(&self) -> usize {
        self.page_size() + 64
    }

    /// Runs `op`, a node operation that may force `node`'s log — the
    /// one way the cluster forces a log. If it forced, the force is
    /// charged to the clock and `wal/force_us` as I/O of the unforced
    /// tail plus `appended` bytes (records `op` appends before its
    /// force), and every parked commit it made durable is
    /// acknowledged at once.
    fn forcing<T>(
        &mut self,
        node: NodeId,
        appended: u64,
        op: impl FnOnce(&mut Node) -> Result<T>,
    ) -> Result<T> {
        let n = ix(node);
        let bytes = self.pending_log_bytes(node) + appended;
        let forces_before = self.nodes[n].log.forces();
        let out = op(&mut self.nodes[n])?;
        if self.nodes[n].log.forces() > forces_before {
            self.net.disk_io(node, bytes as usize);
            let us = self.cfg.cost.io_cost(bytes as usize);
            let nd = &self.nodes[n];
            nd.registry.histogram(keys::WAL_FORCE_US).record(us);
            self.reap_acked(node)?;
        }
        Ok(out)
    }

    /// Unsynced log-tail bytes at `node` — the span a torn write can
    /// bite. Exposed so fault tests can sweep [`Cluster::crash_torn`]
    /// over every byte boundary of the pending tail.
    pub fn pending_log_bytes(&self, node: NodeId) -> u64 {
        let lm = &self.nodes[ix(node)].log;
        lm.end_lsn().0 - lm.flushed_lsn().0
    }

    /// The distinct torn-write landing points of `node`'s unforced log
    /// tail (see [`cblog_wal::LogManager::torn_landing_points`]): every
    /// record boundary plus every byte of the final record. The model
    /// checker enumerates [`Cluster::crash_torn`] over exactly these.
    pub fn torn_landing_points(&self, node: NodeId) -> Vec<u64> {
        self.nodes[ix(node)].log.torn_landing_points()
    }

    /// Record-boundary landing points only (see
    /// [`cblog_wal::LogManager::torn_record_boundaries`]) — the
    /// coarser tear grid multi-victim crash products enumerate.
    pub fn torn_record_boundaries(&self, node: NodeId) -> Vec<u64> {
        self.nodes[ix(node)].log.torn_record_boundaries()
    }

    /// Repairs the torn log tails of crashed `nodes` — exactly what
    /// recovery does first — *without* starting recovery (the nodes
    /// stay crashed), so the model checker can fingerprint the
    /// post-repair durable state ([`Cluster::durable_state_hash`]) and
    /// prune a branch before paying for its recovery. Safe to follow
    /// with [`recovery::recover`](crate::recovery::recover): the
    /// repair is idempotent.
    pub fn repair_tails(&mut self, nodes: &[NodeId]) -> Result<u64> {
        let mut torn = 0;
        for &n in nodes {
            torn += self.nodes[ix(n)].repair_tail()?;
        }
        Ok(torn)
    }

    /// FNV-1a fingerprint of the cluster's entire durable state: every
    /// node's on-device database pages, durable log bytes, and master
    /// record. Volatile state (buffers, lock tables, DPTs, clocks,
    /// metrics) is excluded, so two histories that would survive a
    /// power cut identically hash identically — the pruning key of the
    /// model checker's crash-branch exploration.
    pub fn durable_state_hash(&mut self) -> Result<u64> {
        let mut h = Fnv1a::new();
        for n in &mut self.nodes {
            n.durable_state_hash(&mut h)?;
        }
        Ok(h.finish())
    }

    // ------------------------------------------------------------------
    // Setup helpers (not part of the transactional API)
    // ------------------------------------------------------------------

    /// Formats an owned page as a slotted record page before workloads
    /// start.
    pub fn format_slotted(&mut self, pid: PageId) -> Result<()> {
        self.nodes[ix(pid.owner)].format_owned_page(pid.index, PageKind::Slotted)
    }

    // ------------------------------------------------------------------
    // Transaction API
    // ------------------------------------------------------------------

    /// Starts a transaction on `node`.
    pub fn begin(&mut self, node: NodeId) -> Result<TxnId> {
        let r = match self.nodes[ix(node)].begin() {
            Err(Error::LogFull(_)) => {
                self.ensure_log_space(node)?;
                self.nodes[ix(node)].begin()
            }
            r => r,
        };
        if let Ok(txn) = r {
            if self.tracer.is_enabled() {
                self.txn_spans
                    .insert(txn, (self.tracer.alloc(), self.now()));
            }
        }
        r
    }

    /// Reads counter slot `slot` of `pid` under a shared lock.
    pub fn read_u64(&mut self, txn: TxnId, pid: PageId, slot: usize) -> Result<u64> {
        self.ensure_access(txn, pid, LockMode::Shared)?;
        let n = ix(txn.node);
        let page = self.nodes[n]
            .buffer
            .get_mut(pid)
            .ok_or(Error::NoSuchPage(pid))?;
        page.read_slot(slot)
    }

    /// Writes counter slot `slot` of `pid` under an exclusive lock,
    /// logging a physical byte-range record locally.
    pub fn write_u64(&mut self, txn: TxnId, pid: PageId, slot: usize, value: u64) -> Result<()> {
        self.ensure_access(txn, pid, LockMode::Exclusive)?;
        let after = value.to_le_bytes();
        self.logged(txn, pid, |node| node.log_write(txn, pid, slot * 8, &after))
    }

    fn require_slotted(&self, node: NodeId, pid: PageId) -> Result<()> {
        match self.nodes[ix(node)].buffer.peek(pid) {
            Some(p) if p.kind() == PageKind::Slotted => Ok(()),
            Some(p) => Err(Error::Invalid(format!(
                "record operation on non-slotted page {pid} ({:?})",
                p.kind()
            ))),
            None => Err(Error::NoSuchPage(pid)),
        }
    }

    /// Inserts a record into a slotted page (logical logging), returning
    /// its rid.
    pub fn insert_record(&mut self, txn: TxnId, pid: PageId, data: &[u8]) -> Result<Rid> {
        self.ensure_access(txn, pid, LockMode::Exclusive)?;
        self.require_slotted(txn.node, pid)?;
        let n = ix(txn.node);
        // Determine the slot the insert will land in without mutating.
        let slot = {
            let page = self.nodes[n]
                .buffer
                .get_mut(pid)
                .ok_or(Error::NoSuchPage(pid))?;
            SlottedPage::new(page).free_slot()
        };
        let op = PageOp::Insert {
            slot,
            data: data.to_vec(),
        };
        self.logged_update(txn, pid, op)?;
        Ok(Rid::new(pid, slot))
    }

    /// Deletes a record from a slotted page.
    pub fn delete_record(&mut self, txn: TxnId, rid: Rid) -> Result<()> {
        self.ensure_access(txn, rid.page, LockMode::Exclusive)?;
        self.require_slotted(txn.node, rid.page)?;
        let n = ix(txn.node);
        let old = {
            let page = self.nodes[n]
                .buffer
                .get_mut(rid.page)
                .ok_or(Error::NoSuchPage(rid.page))?;
            SlottedPage::new(page).get(rid.slot)?.to_vec()
        };
        let op = PageOp::Delete {
            slot: rid.slot,
            old,
        };
        self.logged_update(txn, rid.page, op)
    }

    /// Replaces a record in a slotted page.
    pub fn update_record(&mut self, txn: TxnId, rid: Rid, data: &[u8]) -> Result<()> {
        self.ensure_access(txn, rid.page, LockMode::Exclusive)?;
        self.require_slotted(txn.node, rid.page)?;
        let n = ix(txn.node);
        let old = {
            let page = self.nodes[n]
                .buffer
                .get_mut(rid.page)
                .ok_or(Error::NoSuchPage(rid.page))?;
            SlottedPage::new(page).get(rid.slot)?.to_vec()
        };
        let op = PageOp::UpdateRec {
            slot: rid.slot,
            old,
            new: data.to_vec(),
        };
        self.logged_update(txn, rid.page, op)
    }

    /// Reads a record under a shared lock.
    pub fn read_record(&mut self, txn: TxnId, rid: Rid) -> Result<Vec<u8>> {
        self.ensure_access(txn, rid.page, LockMode::Shared)?;
        self.require_slotted(txn.node, rid.page)?;
        let n = ix(txn.node);
        let page = self.nodes[n]
            .buffer
            .get_mut(rid.page)
            .ok_or(Error::NoSuchPage(rid.page))?;
        Ok(SlottedPage::new(page).get(rid.slot)?.to_vec())
    }

    fn logged_update(&mut self, txn: TxnId, pid: PageId, op: PageOp) -> Result<()> {
        self.logged(txn, pid, |node| node.log_update(txn, pid, op.clone()))
    }

    /// Runs one of the node's logging update paths for `txn` on `pid`
    /// (each returns the PSN before the update and the record's LSN)
    /// and traces the update it logged.
    fn logged(
        &mut self,
        txn: TxnId,
        pid: PageId,
        mut update: impl FnMut(&mut Node) -> Result<(Psn, Lsn)>,
    ) -> Result<()> {
        let n = ix(txn.node);
        let (psn, lsn) = match update(&mut self.nodes[n]) {
            Err(Error::LogFull(_)) => {
                // §2.5: reclaim log space, then retry once. The space
                // protocol may have replaced the target page itself —
                // bring it back (the X lock is still cached).
                self.ensure_log_space(txn.node)?;
                if !self.nodes[n].buffer.contains(pid) {
                    self.fetch_page(txn.node, pid)?;
                }
                update(&mut self.nodes[n])?
            }
            r => r?,
        };
        self.trace_update(txn, pid, psn, lsn, false);
        if self.cfg.paradigm == Paradigm::PrimaryCopy {
            // No-steal: the page stays cached until `txn` ends.
            self.nodes[n].buffer.pin(pid)?;
        }
        Ok(())
    }

    /// Emits the PSN-lineage edge for the update `txn` just logged
    /// against `pid` at `lsn`: the page's PSN moved `psn → psn+1`. The
    /// watchdog checks the edge against the page's global PSN frontier
    /// as it is emitted.
    fn trace_update(&self, txn: TxnId, pid: PageId, psn: Psn, lsn: Lsn, clr: bool) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.point(
            self.now(),
            txn.node,
            self.txn_ctx(txn).span,
            SpanKind::Update {
                pid,
                txn,
                psn,
                lsn,
                clr,
            },
        );
    }

    /// Emits a page-transfer span for `pid` moving `from → to` at
    /// `psn`. A replacement to the owner must leave the sender's log
    /// forced through the page's updates
    /// ([`cblog_wal::LogManager::fully_forced`] after
    /// `prepare_replace_to_owner`). A ship from the owner writes no
    /// disk, but it must not carry the update of a commit that is
    /// still parked undurable ([`ForceScheduler::ship_needs_force`];
    /// [`Cluster::fetch_page`] forces first).
    pub(crate) fn trace_transfer(
        &self,
        pid: PageId,
        from: NodeId,
        to: NodeId,
        psn: Psn,
        why: TransferWhy,
    ) -> SpanId {
        if !self.tracer.is_enabled() {
            return SpanId::NONE;
        }
        let wal_ok = match why {
            TransferWhy::Callback | TransferWhy::Replace => self.nodes[ix(from)].log.fully_forced(),
            TransferWhy::Ship => !self.schedulers[ix(from)]
                .ship_needs_force(pid, self.nodes[ix(from)].log.flushed_lsn()),
            TransferWhy::Recovery => true,
        };
        self.tracer.point(
            self.now(),
            from,
            SpanId::NONE,
            SpanKind::Transfer {
                pid,
                from,
                to,
                psn,
                why,
                wal_ok,
            },
        )
    }

    /// Commits `txn`: local log force only — **no messages** (paper
    /// §1.1). Cached pages and node-level locks are retained. This is
    /// the synchronous wrapper around the group-commit pipeline: the
    /// commit is submitted and, if the node's force scheduler did not
    /// flush it already, its batch is forced on the spot. Under the
    /// default [`crate::GroupCommitPolicy::Immediate`] policy this is
    /// exactly one force per commit.
    pub fn commit(&mut self, txn: TxnId) -> Result<()> {
        self.commit_submit(txn)?;
        if self.schedulers[ix(txn.node)].is_pending(txn) {
            self.flush_node(txn.node)?;
        }
        debug_assert!(
            matches!(
                self.nodes[ix(txn.node)].txns.get(&txn).map(|t| t.status),
                Some(TxnStatus::Committed)
            ),
            "synchronous commit must leave the txn durable"
        );
        Ok(())
    }

    /// First half of the async commit pipeline: appends the Commit
    /// record, releases the transaction's locks and registers it with
    /// the node's force scheduler as force-pending. The transaction is
    /// durable (and may be reported committed) only once
    /// [`Cluster::poll_committed`] returns true. Under the
    /// [`crate::GroupCommitPolicy::Immediate`] policy the batch
    /// flushes before this returns. Under [`Paradigm::ClientServer`]
    /// the commit runs at the server and is durable on return.
    pub fn commit_submit(&mut self, txn: TxnId) -> Result<()> {
        if self.cfg.paradigm == Paradigm::ClientServer {
            return self.commit_at_server(txn);
        }
        let node = txn.node;
        let n = ix(node);
        // The pages a ship must force for, read before `commit_begin`
        // releases the locks that name them.
        let written = (self.nodes[n].local_locks.locks_of(txn).into_iter())
            .filter_map(|(pid, m)| (m == LockMode::Exclusive).then_some(pid));
        let lsn = match self.nodes[n].commit_begin(txn) {
            Ok(l) => l,
            Err(Error::LogFull(_)) => {
                self.ensure_log_space(node)?;
                self.nodes[n].commit_begin(txn)?
            }
            Err(e) => return Err(e),
        };
        let now = self.now();
        self.tracer
            .point(now, node, self.txn_ctx(txn).span, SpanKind::Commit { txn });
        self.schedulers[n].submit(txn, lsn, now);
        self.schedulers[n].wrote(lsn, written);
        // Surface the adaptation online: the window this batch is (or
        // the next batch would be) held open for.
        self.nodes[n]
            .registry
            .gauge(keys::WAL_WINDOW_US)
            .set(self.schedulers[n].window_us() as i64);
        if self.schedulers[n].is_due(now) {
            self.flush_node(node)?;
        }
        Ok(())
    }

    /// Polls the async commit pipeline: true once `txn`'s Commit
    /// record is durable and the transaction acknowledged. A pending
    /// transaction whose batch became due (window expired or batch
    /// filled) is flushed here; otherwise use
    /// [`Cluster::pump_commits`] to advance an idle system to the next
    /// window deadline.
    pub fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        let node = txn.node;
        let n = ix(node);
        // A force the cluster did not take (`Node::force_log`, called
        // directly) may already have covered the commit record.
        self.reap_acked(node)?;
        if self.schedulers[n].is_pending(txn) && self.schedulers[n].is_due(self.now()) {
            self.flush_node(node)?;
        }
        match self.nodes[n].txns.get(&txn).map(|t| t.status) {
            Some(TxnStatus::Committed) => Ok(true),
            Some(TxnStatus::Committing) => Ok(false),
            Some(s) => Err(Error::Protocol(format!(
                "poll_committed on {txn} in state {s:?}"
            ))),
            None => Err(Error::NoSuchTxn(txn)),
        }
    }

    /// Drives the group-commit pipeline when no transaction can make
    /// progress: flushes every node whose batch is due; if none is due
    /// but commits are pending, idle-advances the sim-clock to the
    /// earliest open window deadline and flushes what became due.
    /// Returns true if any commit was acknowledged.
    pub fn pump_commits(&mut self) -> Result<bool> {
        let mut acked = self.flush_due_nodes()?;
        if acked == 0 {
            if let Some(d) = self.schedulers.iter().filter_map(|s| s.deadline()).min() {
                let now = self.now();
                if d > now {
                    self.net.advance_time(d - now);
                }
                acked += self.flush_due_nodes()?;
            }
        }
        Ok(acked > 0)
    }

    /// Flushes every node whose batch is due, re-evaluating *all*
    /// schedulers until none is: forcing one node's log advances the
    /// sim-clock (disk I/O), which can push another scheduler — one
    /// already examined this pass, or one whose adaptive window
    /// resized shorter — past its deadline. A single index sweep would
    /// skip that batch until the next pump.
    fn flush_due_nodes(&mut self) -> Result<usize> {
        let mut acked = 0;
        loop {
            let mut flushed = false;
            for i in 0..self.nodes.len() {
                if self.schedulers[i].is_due(self.now()) {
                    acked += self.flush_node(NodeId(i as u32))?;
                    flushed = true;
                }
            }
            if !flushed {
                break;
            }
        }
        Ok(acked)
    }

    /// Acknowledges every force-pending commit on `node` whose Commit
    /// record is already durable (idempotent).
    fn reap_acked(&mut self, node: NodeId) -> Result<usize> {
        let n = ix(node);
        let flushed = self.nodes[n].log.flushed_lsn();
        let acked = self.schedulers[n].drain_acked(flushed);
        for t in &acked {
            self.nodes[n].finish_commit(*t)?;
            if self.cfg.paradigm == Paradigm::PrimaryCopy {
                self.ship_to_primary(*t)?;
            }
            self.close_txn_span(*t, true);
        }
        Ok(acked.len())
    }

    /// Primary-copy commit processing (paper §3.2), after `txn`'s
    /// commit is durable at its node: each remote page it updated
    /// travels to its owner, in page order, with its log records. The
    /// owner logs them a second time ([`Node::on_commit_ship`]),
    /// caches the page and acknowledges.
    fn ship_to_primary(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        let n = ix(node);
        let records = self.nodes[n].txn_records(txn, Lsn::ZERO)?;
        let mut remote: Vec<PageId> = records.iter().filter_map(LogRecord::page).collect();
        remote.retain(|pid| pid.owner != node);
        remote.sort();
        remote.dedup();
        for pid in remote {
            let owner = pid.owner;
            let ship: Vec<&LogRecord> = records.iter().filter(|r| r.page() == Some(pid)).collect();
            let bytes: usize = ship.iter().map(|r| r.encode().len()).sum();
            let page = self.nodes[n]
                .buffer
                .peek(pid)
                .cloned()
                .ok_or(Error::NoSuchPage(pid))?;
            self.send(
                node,
                owner,
                MsgKind::PageShip,
                self.page_bytes(),
                MsgHeader::NONE,
            )?;
            self.send(
                node,
                owner,
                MsgKind::LogShip,
                bytes + CTRL_BYTES,
                MsgHeader::NONE,
            )?;
            self.forcing(owner, bytes as u64, |nd| nd.on_commit_ship(&ship))?;
            self.cache_at(owner, page, true)?;
            self.send_ctrl(owner, node, MsgKind::CommitAck)?;
        }
        self.release_no_steal(node, &records)
    }

    /// Ends a primary-copy transaction's hold on its pages, given its
    /// `records`: drops the pin each update took, and marks its remote
    /// pages clean, since their owners hold the committed image.
    fn release_no_steal(&mut self, node: NodeId, records: &[LogRecord]) -> Result<()> {
        let buffer = &mut self.nodes[ix(node)].buffer;
        for r in records {
            if let LogPayload::Update { pid, .. } = r.payload {
                if pid.owner != node {
                    buffer.mark_clean(pid);
                }
                buffer.unpin(pid)?;
            }
        }
        Ok(())
    }

    /// Client-server commit (paper §3.1): the client ships the records
    /// the server lacks and a commit request; the server appends the
    /// Commit record, the client's transaction ends, and the server
    /// forces its log before it acknowledges.
    fn commit_at_server(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        self.nodes[ix(node)].check_active(txn)?;
        self.ship_to_server(txn, |_| true)?;
        self.send_ctrl(node, SERVER, MsgKind::CommitRequest)?;
        self.end_at_server(txn, LogPayload::Commit)?;
        self.nodes[ix(node)].commit_at_server(txn)?;
        self.forcing(SERVER, 0, |nd| nd.log.force_all())?;
        self.send_ctrl(SERVER, node, MsgKind::CommitAck)?;
        self.close_txn_span(txn, true);
        Ok(())
    }

    /// The one client-to-server log ship of ARIES/CSA (§3.1): the
    /// records of `txn` the server lacks, oldest first, as `select`
    /// narrows them (it returns false to ship nothing), travel in one
    /// `LogShip` of their encoded bytes, and the server appends them
    /// ([`Node::on_log_ship`]). Everything `txn` has logged so far is
    /// then marked shipped. Returns whether records travelled.
    fn ship_to_server(
        &mut self,
        txn: TxnId,
        select: impl FnOnce(&mut Vec<LogRecord>) -> bool,
    ) -> Result<bool> {
        let (sent, at) = self.shipped.get(&txn).copied().unwrap_or_default();
        let client = &mut self.nodes[ix(txn.node)];
        let mut records = client.txn_records(txn, sent)?;
        if !select(&mut records) || records.is_empty() {
            return Ok(false);
        }
        let last = client.txns[&txn].last_lsn;
        let bytes = records.iter().map(|r| r.encode().len()).sum::<usize>() + CTRL_BYTES;
        self.send(txn.node, SERVER, MsgKind::LogShip, bytes, MsgHeader::NONE)?;
        let at = self.nodes[ix(SERVER)].on_log_ship(at, records)?;
        self.shipped.insert(txn, (last, at));
        Ok(true)
    }

    /// Appends `txn`'s final record (Commit or Abort) at the server,
    /// after whatever the transaction shipped, and forgets its
    /// shipping marks.
    fn end_at_server(&mut self, txn: TxnId, payload: LogPayload) -> Result<()> {
        let (_, at) = self.shipped.remove(&txn).unwrap_or_default();
        let end = LogRecord {
            txn,
            prev_lsn: Lsn::ZERO,
            payload,
        };
        self.nodes[ix(SERVER)].on_log_ship(at, vec![end]).map(drop)
    }

    /// Sends one `kind` message of `bytes` from `from` to `to`, resent
    /// on loss: the router's one reliable send. A message to oneself is
    /// no message, and charges nothing.
    pub(crate) fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        bytes: usize,
        hdr: MsgHeader,
    ) -> Result<()> {
        if from == to {
            return Ok(());
        }
        self.net.send_reliable_hdr(from, to, kind, bytes, hdr)
    }

    /// Sends a control message of [`CTRL_BYTES`].
    fn send_ctrl(&mut self, from: NodeId, to: NodeId, kind: MsgKind) -> Result<()> {
        self.send(from, to, kind, CTRL_BYTES, MsgHeader::NONE)
    }

    /// Forces `node`'s log once for its whole batch of force-pending
    /// commits and acknowledges all of them: the group commit. One
    /// `io_fixed_us` is charged for the batch, so the per-commit force
    /// cost drops as the group grows. Returns the number of commits
    /// acknowledged.
    fn flush_node(&mut self, node: NodeId) -> Result<usize> {
        let n = ix(node);
        // Commits covered by an interleaved force are acknowledged
        // without paying for a new one.
        let mut acked = self.reap_acked(node)?;
        let batch = self.schedulers[n].pending_len() as u64;
        if batch == 0 {
            return Ok(acked);
        }
        let bytes = self.pending_log_bytes(node);
        self.forcing(node, 0, |nd| nd.log.force_all())?;
        // The force made every parked commit durable.
        acked += batch as usize - self.schedulers[n].pending_len();
        let us = self.cfg.cost.io_cost(bytes as usize);
        {
            let nd = &self.nodes[n];
            nd.registry.histogram(keys::WAL_GROUP_SIZE).record(batch);
            // The paper's headline metric: what the one local force at
            // commit costs (distinct from forces taken for the WAL rule
            // or checkpoints, which land only in `wal/force_us`). Every
            // commit in the batch observed the shared force's latency.
            for _ in 0..batch {
                nd.registry.histogram(keys::WAL_COMMIT_FORCE_US).record(us);
            }
        }
        self.tracer.point(
            self.now(),
            node,
            SpanId::NONE,
            SpanKind::GroupForce {
                node,
                txns: batch,
                bytes,
            },
        );
        let commits = self.nodes[n].commits();
        if let Some(ratio) = (self.nodes[n].log.forces() * 1000).checked_div(commits) {
            self.nodes[n]
                .registry
                .gauge(keys::WAL_FORCES_PER_COMMIT)
                .set(ratio as i64);
        }
        Ok(acked)
    }

    /// Takes a savepoint.
    pub fn savepoint(&mut self, txn: TxnId) -> Result<Savepoint> {
        self.nodes[ix(txn.node)].savepoint(txn)
    }

    /// Partially rolls `txn` back to `sp`; the transaction stays
    /// active. Pages that were replaced from the cache are re-fetched
    /// from their owners (paper §2.2).
    pub fn rollback_to(&mut self, txn: TxnId, sp: Savepoint) -> Result<()> {
        if sp.txn != txn {
            return Err(Error::Invalid("savepoint belongs to another txn".into()));
        }
        self.drive_rollback(txn, sp.at_lsn)
    }

    /// Aborts `txn` (total rollback + Abort record). Retryable if a
    /// page fetch hits a crashed owner.
    pub fn abort(&mut self, txn: TxnId) -> Result<()> {
        let n = ix(txn.node);
        self.nodes[n].start_abort(txn)?;
        self.drive_rollback(txn, Lsn::ZERO)?;
        self.nodes[n].finish_abort(txn)?;
        match self.cfg.paradigm {
            Paradigm::PrimaryCopy => {
                let records = self.nodes[n].txn_records(txn, Lsn::ZERO)?;
                self.release_no_steal(txn.node, &records)?;
            }
            // The server saw part of this transaction, so it also gets
            // the compensation records and an Abort.
            Paradigm::ClientServer if self.shipped.contains_key(&txn) => {
                self.ship_to_server(txn, |r| {
                    r.retain(|r| matches!(r.payload, LogPayload::Clr { .. }));
                    true
                })?;
                self.end_at_server(txn, LogPayload::Abort)?;
            }
            _ => {}
        }
        self.close_txn_span(txn, false);
        // A waiter that dies waiting (deadlock victim) still spent its
        // time queueing — fold it into the same wait histogram the
        // successful acquisitions feed.
        if let Some(t0) = self.wait_since.remove(&txn) {
            let now = self.now();
            let waited = now.saturating_sub(t0);
            self.nodes[n]
                .registry
                .histogram(keys::LOCKS_WAIT_US)
                .record(waited);
            self.net.charge_wait(txn.node, waited);
        }
        Ok(())
    }

    fn drive_rollback(&mut self, txn: TxnId, upto: Lsn) -> Result<()> {
        let n = ix(txn.node);
        loop {
            match self.nodes[n].rollback_step(txn, upto) {
                Ok(RollbackStep::Done) => return Ok(()),
                Ok(RollbackStep::Undone(pid)) => {
                    // A CLR bumps the PSN like any forward update —
                    // the lineage shows undo steps explicitly.
                    let node = &self.nodes[n];
                    if let (Some(page), Some(t)) = (node.buffer.peek(pid), node.txns.get(&txn)) {
                        let psn = Psn(page.psn().0.saturating_sub(1));
                        self.trace_update(txn, pid, psn, t.last_lsn, true);
                    }
                }
                Ok(RollbackStep::NeedPage(pid)) => {
                    // The transaction still holds its X lock; only the
                    // page image must come back from the owner.
                    self.fetch_page(txn.node, pid)?;
                }
                Err(Error::LogFull(_)) => {
                    // CLR appends also obey the §2.5 protocol.
                    self.ensure_log_space(txn.node)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes a fuzzy checkpoint on `node` — purely local (contribution
    /// (4) of the paper). Under [`Paradigm::ClientServer`] the server's
    /// checkpoint first collects every client's dirty pages into its
    /// DPT, one round trip per client (§3.1).
    pub fn checkpoint(&mut self, node: NodeId) -> Result<Lsn> {
        if self.cfg.paradigm == Paradigm::ClientServer && node == SERVER {
            for c in 1..self.nodes.len() {
                let client = NodeId(c as u32);
                self.send_ctrl(SERVER, client, MsgKind::CheckpointSync)?;
                let dirty = self.nodes[c].on_checkpoint_sync();
                let bytes = CTRL_BYTES + dirty.len() * 16;
                self.send(
                    client,
                    SERVER,
                    MsgKind::CheckpointSync,
                    bytes,
                    MsgHeader::NONE,
                )?;
                self.nodes[ix(SERVER)].on_dirty_pages(&dirty);
            }
        }
        let lsn = self.forcing(node, 128, Node::checkpoint)?;
        self.truncate_log_traced(node);
        Ok(lsn)
    }

    /// Truncates `node`'s log and emits the §2.5 audit span: the
    /// reclaimed prefix (`upto`) against the master checkpoint anchor.
    /// The online watchdog flags any truncation past the anchor —
    /// records newer than the checkpoint must never be discarded.
    /// Before the first checkpoint there is no anchor, so nothing is
    /// emitted (the low-water mark alone bounds the reclaim).
    fn truncate_log_traced(&mut self, node: NodeId) {
        let n = ix(node);
        let anchor = self.nodes[n].log.last_checkpoint();
        let upto = self.nodes[n].truncate_log();
        if !anchor.is_zero() {
            self.tracer.point(
                self.now(),
                node,
                SpanId::NONE,
                SpanKind::LogTruncate { node, upto, anchor },
            );
        }
    }

    // ------------------------------------------------------------------
    // The data-shipping / callback-locking protocol (paper §2.2)
    // ------------------------------------------------------------------

    /// Ensures `txn` holds `mode` on `pid` at both levels and that the
    /// page is cached at its node. Lock outcomes feed the node's
    /// `locks/*` metrics: a grant bumps `locks/acquisitions` (and, if
    /// the transaction had been blocked, records the full blocked span
    /// in the `locks/wait_us` histogram); a conflict bumps
    /// `locks/waits`.
    pub fn ensure_access(&mut self, txn: TxnId, pid: PageId, mode: LockMode) -> Result<()> {
        let r = self.ensure_access_inner(txn, pid, mode);
        let reg = &self.nodes[ix(txn.node)].registry;
        match &r {
            Ok(()) => {
                reg.counter(keys::LOCKS_ACQUISITIONS).bump();
                if let Some(t0) = self.wait_since.remove(&txn) {
                    let now = self.net.clock().now();
                    let waited = now.saturating_sub(t0);
                    reg.histogram(keys::LOCKS_WAIT_US).record(waited);
                    self.net.charge_wait(txn.node, waited);
                }
            }
            Err(Error::WouldBlock { .. }) => {
                reg.counter(keys::LOCKS_WAITS).bump();
                let now = self.net.clock().now();
                self.wait_since.entry(txn).or_insert(now);
            }
            Err(_) => {}
        }
        r
    }

    fn ensure_access_inner(&mut self, txn: TxnId, pid: PageId, mode: LockMode) -> Result<()> {
        let node = txn.node;
        let n = ix(node);
        if self.nodes[n].is_crashed() {
            return Err(Error::NodeDown(node));
        }
        // An ended transaction takes no lock: nothing would release it.
        self.nodes[n].check_active(txn)?;
        // 1. Check (without granting) for conflicting local
        // transactions — strict 2PL among local txns.
        let conflicts = self.nodes[n].local_locks.conflicts(txn, pid, mode);
        if !conflicts.is_empty() {
            return Err(Error::WouldBlock {
                txn,
                holders: conflicts,
            });
        }
        // 2. Node-level cached lock; contact the owner if not covered.
        // The transaction-level lock is granted only *after* coverage
        // exists: a request still waiting for the owner must not hold
        // a local lock that defers incoming callbacks (that ordering
        // livelocks two upgrading nodes against each other).
        if !self.nodes[n].cached_locks.covers(pid, mode) {
            self.acquire_node_lock(txn, pid, mode)?;
        }
        // 3. Transaction-level grant. Another local transaction may
        // have slipped in while this request waited on the owner; that
        // surfaces as a normal retryable block.
        match self.nodes[n].local_locks.request(txn, pid, mode) {
            LocalRequestOutcome::Granted => {}
            LocalRequestOutcome::Blocked(holders) => {
                return Err(Error::WouldBlock { txn, holders });
            }
        }
        // 4. Page presence.
        if !self.nodes[n].buffer.contains(pid) {
            self.fetch_page(node, pid)?;
        }
        // 5. Paper §2.2: a DPT entry is added when the node obtains an
        // exclusive lock and no entry exists, with RedoLSN set
        // conservatively to the current end of the log.
        if mode == LockMode::Exclusive {
            let psn = self.nodes[n].buffer.peek(pid).expect("fetched above").psn();
            let end = self.nodes[n].log.end_lsn();
            self.nodes[n].dpt.ensure(pid, psn, end);
        }
        Ok(())
    }

    /// Acquires a node-level lock from the owner, running callbacks.
    fn acquire_node_lock(&mut self, txn: TxnId, pid: PageId, mode: LockMode) -> Result<()> {
        let node = txn.node;
        let owner = pid.owner;
        if self.net.is_crashed(owner) {
            return Err(Error::OwnerDown { owner, page: pid });
        }
        let ctx = self.txn_ctx(txn);
        let hdr = MsgHeader::of(ctx);
        self.send(node, owner, MsgKind::LockRequest, CTRL_BYTES, hdr)?;
        while let GlobalRequestOutcome::NeedsCallbacks(victims) =
            self.nodes[ix(owner)].on_lock_request(pid, node, mode)
        {
            for (victim, action) in victims {
                self.run_callback(txn, pid, victim, action)?;
            }
        }
        self.nodes[ix(node)].on_lock_grant(pid, mode);
        // The grant is attributed to the owner: that is where the
        // global lock table serialized this requester against the rest
        // of the cluster.
        let grant = self.tracer.point(
            self.now(),
            owner,
            ctx.span,
            SpanKind::LockGrant {
                pid,
                owner,
                to: node,
                txn,
            },
        );
        let hdr = MsgHeader::of(SpanCtx::child(grant, ctx.span));
        self.send(owner, node, MsgKind::LockGrant, CTRL_BYTES, hdr)
    }

    /// Executes one callback against `victim` (paper §2.2): the victim
    /// answers it ([`Node::on_callback`]) and returns its dirty copy,
    /// if any, to the owner after [`Cluster::log_before_return`]. A
    /// callback against the owner itself sends no message.
    fn run_callback(
        &mut self,
        waiter: TxnId,
        pid: PageId,
        victim: NodeId,
        action: CallbackAction,
    ) -> Result<()> {
        let owner = pid.owner;
        if self.nodes[ix(victim)].is_crashed() {
            // An exclusive lock retained by a crashed node fences the
            // page until that node recovers (§2.3.3).
            return Err(Error::WouldBlock {
                txn: waiter,
                holders: Vec::new(),
            });
        }
        let ctx = self.txn_ctx(waiter);
        let hdr = MsgHeader::of(ctx);
        self.send(owner, victim, MsgKind::Callback, CTRL_BYTES, hdr)?;
        let copy = self.nodes[ix(victim)]
            .on_callback(pid, action)?
            .map_err(|holders| Error::WouldBlock {
                txn: waiter,
                holders,
            })?;
        if let Some(page) = copy {
            self.log_before_return(victim, pid)?;
            self.return_to_owner(
                victim,
                page,
                MsgKind::CallbackAck,
                TransferWhy::Callback,
                ctx.span,
            )?;
            if self.cfg.paradigm == Paradigm::ForceOnTransfer {
                // Baseline ablation (§3.2): the page hits the disk
                // before it may travel onward.
                self.force_page(pid)?;
            }
        } else {
            self.send(victim, owner, MsgKind::CallbackAck, CTRL_BYTES, hdr)?;
        }
        self.nodes[ix(owner)].on_callback_ack(pid, victim, action);
        Ok(())
    }

    /// Brings `pid` into `node`'s cache from the owner's authoritative
    /// copy (buffer, else disk).
    ///
    /// No image leaves a node carrying an update of a transaction that
    /// has released its locks and whose commit record is not durable
    /// (DESIGN §16): `commit_begin` released the owner's local lock, so
    /// a callback against the owner itself is applied and the reader
    /// gets here while the writer's commit is still parked in the
    /// owner's scheduler. The owner's log is forced before the ship iff
    /// [`ForceScheduler::ship_needs_force`] (the threaded engine's
    /// `serve` asks the same), and the force acknowledges the parked
    /// commits it made durable.
    pub(crate) fn fetch_page(&mut self, node: NodeId, pid: PageId) -> Result<()> {
        let owner = pid.owner;
        if self.net.is_crashed(owner) {
            return Err(Error::OwnerDown { owner, page: pid });
        }
        let o = ix(owner);
        if owner != node
            && self.schedulers[o].ship_needs_force(pid, self.nodes[o].log.flushed_lsn())
        {
            self.forcing(owner, 0, |nd| nd.log.force_all())?;
        }
        if self.cfg.paradigm == Paradigm::ForceOnTransfer
            && owner != node
            && self.nodes[ix(owner)].buffer.is_dirty(pid).unwrap_or(false)
        {
            self.force_page(pid)?;
        }
        let page = self.ship_from_owner(pid, node, TransferWhy::Ship, SpanId::NONE)?;
        self.cache_at(node, page, false)
    }

    /// The owner's copy of `pid` (buffer, else disk, charged), shipped
    /// to `to` unless `to` is the owner itself — the one page move
    /// away from an owner.
    pub(crate) fn ship_from_owner(
        &mut self,
        pid: PageId,
        to: NodeId,
        why: TransferWhy,
        parent: SpanId,
    ) -> Result<Page> {
        let owner = pid.owner;
        let (page, did_io) = self.nodes[ix(owner)].authoritative_copy(pid)?;
        if did_io {
            self.net.disk_io(owner, self.page_size());
        }
        if to != owner {
            let xfer = self.trace_transfer(pid, owner, to, page.psn(), why);
            let hdr = MsgHeader::of(SpanCtx::child(xfer, parent));
            self.send(owner, to, MsgKind::PageShip, self.page_bytes(), hdr)?;
        }
        Ok(page)
    }

    /// Delivers `page`, a dirty image `from` holds, to the page's owner
    /// as a `kind` message — the one page move toward an owner. The
    /// sender has already met the WAL rule
    /// ([`Cluster::log_before_return`]); the owner records `from` as a
    /// replacer and routes whatever the page evicts.
    pub(crate) fn return_to_owner(
        &mut self,
        from: NodeId,
        page: Page,
        kind: MsgKind,
        why: TransferWhy,
        parent: SpanId,
    ) -> Result<()> {
        let owner = page.id().owner;
        let xfer = self.trace_transfer(page.id(), from, owner, page.psn(), why);
        let hdr = MsgHeader::of(SpanCtx::child(xfer, parent));
        self.send(from, owner, kind, self.page_bytes(), hdr)?;
        let ev = self.nodes[ix(owner)].receive_replaced(from, page)?;
        match ev {
            Some(ev) => self.route_eviction(owner, ev),
            None => Ok(()),
        }
    }

    /// Caches `page` at `node` and routes whatever that evicts.
    pub(crate) fn cache_at(&mut self, node: NodeId, page: Page, dirty: bool) -> Result<()> {
        match self.nodes[ix(node)].cache_page(page, dirty)? {
            Some(ev) => self.route_eviction(node, ev),
            None => Ok(()),
        }
    }

    /// Routes a buffer-pool eviction victim: locally owned dirty pages
    /// are written in place; remotely owned dirty pages are shipped to
    /// the owner (paper §2.1). Clean pages just drop (cached locks are
    /// retained either way).
    pub(crate) fn route_eviction(&mut self, node: NodeId, ev: EvictedPage) -> Result<()> {
        let pid = ev.page.id();
        if !ev.dirty {
            return Ok(());
        }
        // A dirty frame left the pool before its owner forced it.
        self.nodes[ix(node)]
            .registry
            .counter(keys::BUF_DIRTY_STEALS)
            .bump();
        if pid.owner == node {
            self.write_owned(node, &ev.page)?;
        } else {
            let owner = pid.owner;
            if self.net.is_crashed(owner) {
                // Cannot ship to a crashed owner: keep the page cached
                // (it may evict something else whose owner is up).
                let n = ix(node);
                if let Some(ev2) = self.nodes[n].buffer.insert(ev.page, true)? {
                    if ev2.page.id() == pid {
                        return Err(Error::OwnerDown { owner, page: pid });
                    }
                    return self.route_eviction(node, ev2);
                }
                return Ok(());
            }
            self.log_before_return(node, pid)?;
            self.return_to_owner(
                node,
                ev.page,
                MsgKind::ReplacePage,
                TransferWhy::Replace,
                SpanId::NONE,
            )?;
            if self.cfg.paradigm == Paradigm::ForceOnTransfer {
                self.force_page(pid)?;
            }
        }
        Ok(())
    }

    /// The WAL rule before `from` returns a dirty image of `pid` to its
    /// owner: `from` forces its log. Under [`Paradigm::ClientServer`]
    /// the log that counts is the server's: each live transaction at
    /// `from` with an unshipped record of `pid` ships its records, and
    /// the server forces once.
    fn log_before_return(&mut self, from: NodeId, pid: PageId) -> Result<()> {
        if self.cfg.paradigm != Paradigm::ClientServer {
            return self.forcing(from, 0, |nd| nd.prepare_replace_to_owner(pid).map(drop));
        }
        let live: Vec<TxnId> = (self.nodes[ix(from)].txns.values())
            .filter_map(|t| (!t.is_terminated()).then_some(t.id))
            .collect();
        let mut shipped = false;
        for txn in live {
            shipped |= self.ship_to_server(txn, |r| r.iter().any(|r| r.page() == Some(pid)))?;
        }
        if shipped {
            self.forcing(SERVER, 0, |nd| nd.log.force_all())?;
        }
        Ok(())
    }

    fn send_flush_acks(
        &mut self,
        owner: NodeId,
        pid: PageId,
        acks: Vec<NodeId>,
        parent: SpanId,
    ) -> Result<()> {
        for a in acks {
            if self.net.is_crashed(a) {
                continue; // the node will reconcile during its recovery
            }
            // Flush acks are loss-tolerant hints: a dropped ack just
            // leaves a stale (conservative) DPT entry at the replacer,
            // so there is no retry — the protocol stays correct.
            let hdr = MsgHeader::of(SpanCtx::root(parent));
            match self
                .net
                .send_hdr(owner, a, MsgKind::FlushAck, CTRL_BYTES, hdr)
            {
                Ok(()) => self.nodes[ix(a)].on_flush_ack(pid),
                Err(Error::MsgLost { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Writes owned `page` to `node`'s disk and flush-acknowledges
    /// every node that had replaced it. The disk-write span checks the
    /// WAL rule: the write is clean if the owner's log has no unforced
    /// records covering the page — [`Node::write_owned_page`] forces
    /// when a DPT entry exists, so a surviving entry with an unforced
    /// tail means the rule was skipped.
    fn write_owned(&mut self, node: NodeId, page: &Page) -> Result<()> {
        let pid = page.id();
        let acks = self.forcing(node, 0, |nd| nd.write_owned_page(page))?;
        self.net.disk_io(node, self.page_size());
        let nd = &self.nodes[ix(node)];
        let wal_ok = !nd.dpt.contains(pid) || nd.log.fully_forced();
        let kind = SpanKind::PageWrite {
            pid,
            node,
            psn: page.psn(),
            wal_ok,
        };
        let write = self.tracer.point(self.now(), node, SpanId::NONE, kind);
        self.send_flush_acks(node, pid, acks, write)
    }

    // ------------------------------------------------------------------
    // Owner-side force and the §2.5 log-space protocol
    // ------------------------------------------------------------------

    /// Ensures the latest image of owned page `pid` is on the owner's
    /// disk and flush-acknowledges every node that had replaced it.
    pub fn force_page(&mut self, pid: PageId) -> Result<()> {
        let owner = pid.owner;
        let o = ix(owner);
        if self.nodes[o].is_crashed() {
            return Err(Error::NodeDown(owner));
        }
        // If a remote node holds the page exclusively with a dirty
        // cached copy, pull that copy first (§2.5: "the page is first
        // requested from a node that has it in its cache").
        if let Some(holder) = self.nodes[o].global_locks.exclusive_holder(pid) {
            if holder != owner {
                let h = ix(holder);
                if !self.nodes[h].is_crashed()
                    && self.nodes[h].buffer.is_dirty(pid).unwrap_or(false)
                {
                    self.send_ctrl(owner, holder, MsgKind::ForceRequest)?;
                    self.log_before_return(holder, pid)?;
                    let copy = self.nodes[h].ship_to_owner(pid)?;
                    self.return_to_owner(
                        holder,
                        copy,
                        MsgKind::PageShip,
                        TransferWhy::Callback,
                        SpanId::NONE,
                    )?;
                }
            }
        }
        let dirty =
            self.nodes[o].buffer.is_dirty(pid).unwrap_or(false) || self.nodes[o].dpt.contains(pid);
        if !dirty {
            // Nothing dirty owner-side; ack any recorded replacers
            // whose image already reached the disk.
            let acks = self.nodes[o].replacers.remove(&pid).unwrap_or_default();
            return self.send_flush_acks(owner, pid, acks.into_iter().collect(), SpanId::NONE);
        }
        let page = self.ship_from_owner(pid, owner, TransferWhy::Ship, SpanId::NONE)?;
        self.write_owned(owner, &page)
    }

    /// The §2.5 log-space protocol: repeatedly replace the DPT page
    /// with the minimum RedoLSN and ask its owner to force it, until
    /// enough space is reclaimed (or nothing more can move).
    pub fn ensure_log_space(&mut self, node: NodeId) -> Result<()> {
        let n = ix(node);
        if self.nodes[n].log().available_space().is_none() {
            return Err(Error::Protocol(
                "log-space protocol on unbounded log".into(),
            ));
        }
        for _round in 0..64 {
            self.truncate_log_traced(node);
            let cap_ok = self.nodes[n]
                .log()
                .available_space()
                .map(|a| a * 4 >= self.nodes[n].config().log_capacity.unwrap_or(1))
                .unwrap_or(true);
            if cap_ok {
                return Ok(());
            }
            let Some(entry) = self.nodes[n].dpt.min_redo_entry().copied() else {
                // Nothing replaceable: space is pinned by active
                // transactions or the checkpoint anchor.
                self.truncate_log_traced(node);
                return Ok(());
            };
            let pid = entry.pid;
            if pid.owner == node {
                // Own page: cached (own dirty pages never leave without
                // being written). Write it.
                self.force_page(pid)?;
            } else {
                if self.net.is_crashed(pid.owner) {
                    return Err(Error::OwnerDown {
                        owner: pid.owner,
                        page: pid,
                    });
                }
                // Replace from the cache if present, then ask the owner
                // to force.
                self.evict_page(node, pid)?;
                self.send_ctrl(node, pid.owner, MsgKind::ForceRequest)?;
                self.force_page(pid)?;
            }
        }
        self.truncate_log_traced(node);
        Ok(())
    }

    /// Evicts `pid` from `node`'s cache, routing it per §2.1 (write in
    /// place if locally owned, ship to the owner otherwise). Returns
    /// true if the page was cached. Cached locks are retained.
    pub fn evict_page(&mut self, node: NodeId, pid: PageId) -> Result<bool> {
        match self.nodes[ix(node)].buffer.remove(pid) {
            Some(ev) => {
                self.route_eviction(node, ev)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    // ------------------------------------------------------------------
    // Crash injection
    // ------------------------------------------------------------------

    /// Crashes `node`: volatile state is lost and the node becomes
    /// unreachable. Lock and data requests against pages it owns stall
    /// until it recovers; all other nodes keep processing (paper §2.3).
    ///
    /// If the cluster's [`cblog_net::FaultPlan`] has a nonzero `tear`
    /// probability and the node had unforced log-tail bytes, the fault
    /// injector may turn the crash into a torn write: a prefix of the
    /// tail lands on disk (optionally with its last landed byte
    /// corrupted), modeling a crash mid-force.
    pub fn crash(&mut self, node: NodeId) {
        let pending = self.pending_log_bytes(node);
        let tear = self.net.roll_tear(pending);
        self.crash_inner(node, tear);
    }

    /// Crashes `node` with a deterministic torn log write: exactly
    /// `landed` bytes of the unforced tail reach disk, and if `corrupt`
    /// the last landed byte is flipped. Tests use this to pin down tail
    /// repair at exact chunk boundaries.
    pub fn crash_torn(&mut self, node: NodeId, landed: u64, corrupt: bool) {
        self.crash_inner(node, Some((landed, corrupt)));
    }

    fn crash_inner(&mut self, node: NodeId, tear: Option<(u64, bool)>) {
        // The crash span doubles as a watchdog epoch marker: unforced
        // PSNs above the durable coverage died with the volatile state
        // and will legitimately be re-walked after recovery.
        self.tracer
            .point(self.now(), node, SpanId::NONE, SpanKind::Crash { node });
        self.txn_spans.retain(|t, _| t.node != node);
        match tear {
            Some((landed, corrupt)) => self.nodes[ix(node)].crash_torn(landed, corrupt),
            None => self.nodes[ix(node)].crash(),
        }
        // Force-pending commits die with the tail: they were never
        // acknowledged, and restart rolls them back as losers.
        self.schedulers[ix(node)].clear();
        self.net.mark_crashed(node);
    }

    /// True if `node` is crashed and unrecovered.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[ix(node)].is_crashed()
    }

    // ------------------------------------------------------------------
    // Observability export
    // ------------------------------------------------------------------

    /// One cluster-wide metrics snapshot: every node's registry under
    /// an `n<id>/` prefix, plus the network's per-message-kind counts
    /// and bytes under `net/`.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.mirror_profile_gauges();
        let mut out = Snapshot::default();
        for node in &self.nodes {
            out.merge_prefixed(&format!("n{}/", node.id().0), node.registry().snapshot());
        }
        let stats = self.net.stats();
        for kind in MsgKind::ALL {
            let msgs = stats.count(kind);
            if msgs == 0 {
                continue;
            }
            out.entries.insert(
                format!("net/{}/msgs", kind.label()),
                MetricValue::Counter(msgs),
            );
            out.entries.insert(
                format!("net/{}/bytes", kind.label()),
                MetricValue::Counter(stats.bytes_of(kind)),
            );
        }
        out.entries.insert(
            "net/total/msgs".into(),
            MetricValue::Counter(stats.total_messages()),
        );
        out.entries.insert(
            "net/total/bytes".into(),
            MetricValue::Counter(stats.total_bytes()),
        );
        out
    }

    /// Mirrors derived observability state into per-node gauges so it
    /// flows through snapshots: the sim-clock resource-time profile
    /// (`prof/{disk,cpu,net,lock_wait,replay}_us`, cumulative) and the
    /// force scheduler's queue depth (`wal/pending_commits`). Gauges
    /// use interior mutability, so `&self` suffices.
    fn mirror_profile_gauges(&self) {
        for (i, node) in self.nodes.iter().enumerate() {
            let reg = node.registry();
            for b in Bucket::ALL {
                reg.gauge(prof_key(b))
                    .set(self.net.clock().bucket_us(node.id(), b) as i64);
            }
            reg.gauge(keys::WAL_PENDING_COMMITS)
                .set(self.schedulers[i].pending_len() as i64);
        }
    }

    /// What a failed check on `pid` prints: the last spans of every
    /// node and the page's PSN lineage. With tracing off there is no
    /// history to print, and none is lost: the simulator is
    /// deterministic, so the same seed with tracing on replays the
    /// failing run span for span.
    pub fn post_mortem(&self, pid: PageId) -> String {
        if !self.tracer.is_enabled() {
            return format!(
                "tracing is off: re-run the same seed with `.tracing(true)` for the last \
                 spans of every node and the PSN lineage of {pid}\n"
            );
        }
        let trace = self.tracer.snapshot();
        let mut out = span::render_recent(trace.spans(), POST_MORTEM_SPANS);
        out.push_str(&span::render_lineage(trace.spans(), pid));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::CostModel;

    fn builder(owned: Vec<u32>) -> crate::ClusterConfigBuilder {
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(512)
            .buffer_frames(8)
            .cost(CostModel::unit())
    }

    fn cluster(owned: Vec<u32>) -> Cluster {
        Cluster::new(builder(owned).build()).unwrap()
    }

    fn traced_cluster(owned: Vec<u32>) -> Cluster {
        Cluster::new(builder(owned).tracing(true).build()).unwrap()
    }

    fn pid(owner: u32, idx: u32) -> PageId {
        PageId::new(NodeId(owner), idx)
    }

    #[test]
    fn metrics_snapshot_carries_profile_and_queue_depth() {
        let mut c = Cluster::new(
            ClusterConfig::builder()
                .owned_pages(vec![4])
                .page_size(512)
                .buffer_frames(8)
                .build(),
        )
        .unwrap();
        for i in 0..5 {
            let t = c.begin(NodeId(0)).unwrap();
            c.write_u64(t, pid(0, 0), 0, i).unwrap();
            c.commit(t).unwrap();
        }
        let snap = c.metrics_snapshot();
        let disk = snap.gauge("n0/prof/disk_us");
        assert!(disk > 0, "commit forces charged disk time");
        assert_eq!(
            disk as u64,
            c.network().clock().bucket_us(NodeId(0), Bucket::Disk),
            "cumulative gauge mirrors the clock bucket"
        );
        assert!(
            matches!(
                snap.entries.get("n0/wal/pending_commits"),
                Some(MetricValue::Gauge(_))
            ),
            "queue-depth gauge exported"
        );
    }

    #[test]
    fn checkpoint_truncation_emits_the_log_space_audit_span() {
        let mut c = traced_cluster(vec![4]);
        let t = c.begin(NodeId(0)).unwrap();
        c.write_u64(t, pid(0, 0), 0, 7).unwrap();
        c.commit(t).unwrap();
        c.checkpoint(NodeId(0)).unwrap();
        assert!(
            c.tracer()
                .snapshot()
                .spans()
                .iter()
                .any(|s| matches!(s.kind, SpanKind::LogTruncate { .. })),
            "checkpoint truncation is audited"
        );
        // And the watchdog agrees the reclaim respected the anchor.
        c.trace_check().unwrap();
    }

    #[test]
    fn local_read_write_commit_is_message_free_after_warmup() {
        let mut c = cluster(vec![4]);
        let t = c.begin(NodeId(0)).unwrap();
        c.write_u64(t, pid(0, 0), 0, 5).unwrap();
        c.commit(t).unwrap();
        assert_eq!(c.network().stats().total_messages(), 0);
        let t2 = c.begin(NodeId(0)).unwrap();
        assert_eq!(c.read_u64(t2, pid(0, 0), 0).unwrap(), 5);
        c.commit(t2).unwrap();
        assert_eq!(c.network().stats().total_messages(), 0);
    }

    #[test]
    fn remote_write_ships_page_once_then_commits_locally() {
        let mut c = cluster(vec![4, 0]);
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, pid(0, 0), 0, 9).unwrap();
        let msgs_before_commit = c.network().stats().total_messages();
        assert!(msgs_before_commit > 0, "first access pays lock+ship");
        c.commit(t).unwrap();
        assert_eq!(
            c.network().stats().total_messages(),
            msgs_before_commit,
            "commit itself is message-free"
        );
        // Second transaction on the cached page+lock: zero messages.
        let t2 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t2, pid(0, 0), 0, 10).unwrap();
        c.commit(t2).unwrap();
        assert_eq!(c.network().stats().total_messages(), msgs_before_commit);
    }

    #[test]
    fn callback_transfers_page_between_writers() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 1).unwrap();
        c.commit(t1).unwrap();
        // Node 2 wants the page: callback revokes node 1's X lock and
        // the fresh copy reaches node 2 through the owner.
        let t2 = c.begin(NodeId(2)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 1);
        c.write_u64(t2, p, 0, 2).unwrap();
        c.commit(t2).unwrap();
        let s = c.network().stats();
        assert!(s.count(MsgKind::Callback) >= 1);
        assert!(s.count(MsgKind::CallbackAck) >= 1);
        // Node 1's lock was revoked entirely (X requested).
        assert!(c.node(NodeId(1)).cached_locks().mode(p).is_none());
    }

    #[test]
    fn callback_deferred_while_local_txn_holds_page() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 1).unwrap();
        // t1 still active: node 2's request must block on t1.
        let t2 = c.begin(NodeId(2)).unwrap();
        match c.read_u64(t2, p, 0) {
            Err(Error::WouldBlock { holders, .. }) => assert_eq!(holders, vec![t1]),
            r => panic!("expected WouldBlock, got {r:?}"),
        }
        c.commit(t1).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 1);
        c.commit(t2).unwrap();
    }

    #[test]
    fn a_callback_against_the_owner_sends_nothing_and_keeps_its_copy() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t0 = c.begin(NodeId(0)).unwrap();
        c.write_u64(t0, p, 0, 3).unwrap();
        c.commit(t0).unwrap();
        // N1's read demotes the owner's own X lock: no callback on the
        // wire, just the lock request, its grant and the page ship.
        let t1 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t1, p, 0).unwrap(), 3);
        c.commit(t1).unwrap();
        let s = c.network().stats();
        assert_eq!(s.count(MsgKind::Callback), 0);
        assert_eq!(s.count(MsgKind::CallbackAck), 0);
        assert_eq!(s.total_messages(), 3);
        let owner = c.node(NodeId(0));
        assert!(owner.buffer().contains(p), "the owner keeps its copy");
        assert_eq!(owner.cached_locks().mode(p), Some(LockMode::Shared));
        // An owner-local X holder defers the callback N1's X request
        // makes against the owner.
        let t2 = c.begin(NodeId(0)).unwrap();
        c.write_u64(t2, p, 0, 4).unwrap();
        let t3 = c.begin(NodeId(1)).unwrap();
        match c.write_u64(t3, p, 0, 5) {
            Err(Error::WouldBlock { holders, .. }) => assert_eq!(holders, vec![t2]),
            r => panic!("expected WouldBlock, got {r:?}"),
        }
        c.commit(t2).unwrap();
        c.write_u64(t3, p, 0, 5).unwrap();
        c.commit(t3).unwrap();
    }

    #[test]
    fn shared_readers_coexist_across_nodes() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        let t1 = c.begin(NodeId(1)).unwrap();
        let t2 = c.begin(NodeId(2)).unwrap();
        assert_eq!(c.read_u64(t1, p, 0).unwrap(), 0);
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 0);
        c.commit(t1).unwrap();
        c.commit(t2).unwrap();
        assert_eq!(c.network().stats().count(MsgKind::Callback), 0);
    }

    #[test]
    fn read_after_remote_write_sees_fresh_copy_via_demote() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 7).unwrap();
        c.commit(t1).unwrap();
        let t2 = c.begin(NodeId(2)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 7);
        c.commit(t2).unwrap();
        // Node 1 retains a demoted shared lock and its cached page.
        assert_eq!(
            c.node(NodeId(1)).cached_locks().mode(p),
            Some(LockMode::Shared)
        );
        assert!(c.node(NodeId(1)).buffer().contains(p));
    }

    #[test]
    fn abort_undoes_remote_updates() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t0 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t0, p, 0, 100).unwrap();
        c.commit(t0).unwrap();
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 200).unwrap();
        c.write_u64(t1, p, 1, 201).unwrap();
        c.abort(t1).unwrap();
        let t2 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 100);
        assert_eq!(c.read_u64(t2, p, 1).unwrap(), 0);
        c.commit(t2).unwrap();
    }

    #[test]
    fn savepoint_partial_rollback_through_cluster() {
        let mut c = cluster(vec![4]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(0)).unwrap();
        c.write_u64(t, p, 0, 1).unwrap();
        let sp = c.savepoint(t).unwrap();
        c.write_u64(t, p, 1, 2).unwrap();
        c.rollback_to(t, sp).unwrap();
        c.write_u64(t, p, 2, 3).unwrap();
        c.commit(t).unwrap();
        let t2 = c.begin(NodeId(0)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 1);
        assert_eq!(c.read_u64(t2, p, 1).unwrap(), 0);
        assert_eq!(c.read_u64(t2, p, 2).unwrap(), 3);
        c.commit(t2).unwrap();
    }

    #[test]
    fn slotted_record_ops_round_trip() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 1);
        c.format_slotted(p).unwrap();
        let t = c.begin(NodeId(1)).unwrap();
        let rid = c.insert_record(t, p, b"hello").unwrap();
        assert_eq!(c.read_record(t, rid).unwrap(), b"hello");
        c.update_record(t, rid, b"world").unwrap();
        assert_eq!(c.read_record(t, rid).unwrap(), b"world");
        c.commit(t).unwrap();
        // Abort of a delete restores the record.
        let t2 = c.begin(NodeId(1)).unwrap();
        c.delete_record(t2, rid).unwrap();
        c.abort(t2).unwrap();
        let t3 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_record(t3, rid).unwrap(), b"world");
        c.commit(t3).unwrap();
    }

    #[test]
    fn eviction_ships_dirty_remote_page_to_owner_and_flush_ack_clears_dpt() {
        let mut c = Cluster::new(
            ClusterConfig::builder()
                .owned_pages(vec![8, 0])
                .page_size(512)
                .buffer_frames(2) // tiny cache to force evictions
                .cost(CostModel::unit())
                .build(),
        )
        .unwrap();
        // Dirty one page at node 1, then touch others to evict it.
        let hot = pid(0, 0);
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, hot, 0, 42).unwrap();
        c.commit(t).unwrap();
        let t2 = c.begin(NodeId(1)).unwrap();
        for i in 1..4 {
            c.read_u64(t2, pid(0, i), 0).unwrap();
        }
        c.commit(t2).unwrap();
        assert!(
            !c.node(NodeId(1)).buffer().contains(hot),
            "hot page evicted"
        );
        assert!(c.network().stats().count(MsgKind::ReplacePage) >= 1);
        // DPT entry survives until the owner forces the page.
        assert!(c.node(NodeId(1)).dpt().contains(hot));
        c.force_page(hot).unwrap();
        assert!(!c.node(NodeId(1)).dpt().contains(hot));
        assert!(c.network().stats().count(MsgKind::FlushAck) >= 1);
        // And the value survived the round trip.
        let t3 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t3, hot, 0).unwrap(), 42);
        c.commit(t3).unwrap();
    }

    #[test]
    fn bounded_log_triggers_space_protocol_and_work_continues() {
        let mut c = Cluster::new(
            ClusterConfig::builder()
                .owned_pages(vec![4, 0])
                .page_size(512)
                .buffer_frames(8)
                .log_capacity(Some(4096))
                .cost(CostModel::unit())
                .build(),
        )
        .unwrap();
        let p = pid(0, 0);
        // Hammer updates well past the log capacity.
        for i in 0..200u64 {
            let t = c.begin(NodeId(1)).unwrap();
            c.write_u64(t, p, (i % 8) as usize, i).unwrap();
            c.commit(t).unwrap();
        }
        // Last write to slot 7 was i = 199 (199 % 8 == 7).
        let t = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t, p, 7).unwrap(), 199);
        c.commit(t).unwrap();
    }

    #[test]
    fn crashed_owner_stalls_requests_from_others() {
        let mut c = cluster(vec![4, 4, 0]);
        c.crash(NodeId(0));
        let t = c.begin(NodeId(2)).unwrap();
        assert!(matches!(
            c.read_u64(t, pid(0, 0), 0),
            Err(Error::OwnerDown { .. })
        ));
        // Pages of the other owner remain accessible.
        assert_eq!(c.read_u64(t, pid(1, 0), 0).unwrap(), 0);
        c.commit(t).unwrap();
    }

    #[test]
    fn local_transactions_on_one_node_respect_2pl() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t1 = c.begin(NodeId(1)).unwrap();
        let t2 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 1).unwrap();
        // t2 blocks on t1's transaction-level lock (same node).
        match c.read_u64(t2, p, 0) {
            Err(Error::WouldBlock { holders, .. }) => assert_eq!(holders, vec![t1]),
            r => panic!("expected local block, got {r:?}"),
        }
        c.commit(t1).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 1);
        // Shared readers coexist locally.
        let t3 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t3, p, 0).unwrap(), 1);
        c.commit(t2).unwrap();
        c.commit(t3).unwrap();
    }

    #[test]
    fn api_errors_propagate_cleanly() {
        let mut c = cluster(vec![2, 0]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(1)).unwrap();
        // Slot out of range.
        assert!(matches!(c.read_u64(t, p, 10_000), Err(Error::Invalid(_))));
        // Unknown page index (outside the owner's space map).
        assert!(c.read_u64(t, pid(0, 99), 0).is_err());
        // Record ops on a raw (non-slotted) page fail without
        // corrupting anything.
        assert!(c.insert_record(t, p, b"x").is_err());
        // The transaction is still usable.
        c.write_u64(t, p, 0, 1).unwrap();
        c.commit(t).unwrap();
        // Operations on a committed transaction are rejected.
        assert!(c.write_u64(t, p, 0, 2).is_err());
        assert!(c.commit(t).is_err());
    }

    #[test]
    fn slotted_page_full_surfaces_error_and_txn_survives() {
        let mut c = cluster(vec![2, 0]);
        let p = pid(0, 1);
        c.format_slotted(p).unwrap();
        let t = c.begin(NodeId(1)).unwrap();
        let big = vec![7u8; 100];
        let mut inserted = 0;
        loop {
            match c.insert_record(t, p, &big) {
                Ok(_) => inserted += 1,
                Err(Error::Invalid(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(inserted < 100);
        }
        assert!(inserted >= 2);
        // The transaction can still commit its successful inserts.
        c.commit(t).unwrap();
        let t2 = c.begin(NodeId(1)).unwrap();
        assert_eq!(
            c.read_record(t2, Rid::new(p, 0)).unwrap(),
            big,
            "earlier inserts intact"
        );
        c.commit(t2).unwrap();
    }

    #[test]
    fn metrics_snapshot_covers_nodes_and_network() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 0, 9).unwrap();
        c.commit(t).unwrap();
        let snap = c.metrics_snapshot();
        assert_eq!(snap.counter("n1/txn/commits"), 1);
        assert!(snap.counter("n1/wal/records") >= 2, "update + commit");
        assert_eq!(snap.counter("n1/wal/forces"), 1);
        assert!(snap.counter("n1/locks/acquisitions") >= 1);
        assert!(snap.counter("net/page-ship/msgs") >= 1);
        assert!(snap.counter("net/total/bytes") > 0);
        // The commit-force latency distribution is in the snapshot too.
        let h = snap.histogram("n1/wal/commit_force_us").expect("histogram");
        assert_eq!(h.count, 1);
        assert!(h.p50() > 0);
        // Owner-side registry shows served work (its device counters).
        assert!(snap.counter("n0/db/reads") + snap.counter("n0/buf/hits") > 0);
    }

    #[test]
    fn flight_recorder_traces_txn_lifecycle_and_transfers() {
        let mut c = traced_cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 1).unwrap();
        // A second node's request while t1 holds the lock → lock-wait.
        let t2 = c.begin(NodeId(2)).unwrap();
        assert!(matches!(
            c.read_u64(t2, p, 0),
            Err(Error::WouldBlock { .. })
        ));
        c.commit(t1).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 1);
        c.commit(t2).unwrap();
        // The lifecycle is in the span stream, which the post-mortem
        // view renders node by node before the page's lineage: t1's
        // interval span closed committed, its commit pipeline ended in
        // a group force on node 1, and the page reached node 2.
        let dump = c.post_mortem(p);
        for line in [
            "--- last spans of N0 ---",
            "--- last spans of N2 ---",
            &format!("txn {t1} commit"),
            &format!("commit-pipeline {t1}"),
            "group-force N1 1txns",
            "ship P0.0 N0→N2",
            "PSN lineage of P0.0:",
        ] {
            assert!(dump.contains(line), "missing {line:?} in:\n{dump}");
        }
        // Untraced, it says how to get one instead.
        let off = cluster(vec![4, 0, 0]).post_mortem(p);
        assert!(off.contains(".tracing(true)"), "{off}");
        // The force and the wait have no span: they are metrics.
        // Waiting was measured on node 2 once the lock was granted.
        let snap = c.metrics_snapshot();
        assert!(snap
            .histogram("n1/wal/force_us")
            .is_some_and(|h| h.count >= 1));
        assert!(snap.counter("n2/locks/waits") >= 1);
        let w = snap.histogram("n2/locks/wait_us").expect("wait histogram");
        assert_eq!(w.count, 1);
    }

    #[test]
    fn crash_event_survives_in_recorder_and_registry_persists() {
        let mut c = traced_cluster(vec![4, 0]);
        let t = c.begin(NodeId(0)).unwrap();
        c.write_u64(t, pid(0, 0), 0, 7).unwrap();
        c.commit(t).unwrap();
        c.crash(NodeId(0));
        // Observability state is not volatile: the crash itself and
        // the pre-crash history remain visible.
        let trace = c.tracer().snapshot();
        let at = |k: SpanKind| trace.spans().iter().position(|s| s.kind == k);
        let committed = at(SpanKind::Txn {
            txn: t,
            committed: true,
        });
        let crashed = at(SpanKind::Crash { node: NodeId(0) });
        assert!(committed.is_some() && committed < crashed);
        assert_eq!(c.metrics_snapshot().counter("n0/txn/commits"), 1);
    }
}
