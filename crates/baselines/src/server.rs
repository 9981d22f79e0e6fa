//! ARIES/CSA-style client-server logging baseline (paper §3.1).
//!
//! One server (node 0) owns the database and keeps the **only** log.
//! Clients cache pages and locks (same callback protocol as the
//! client-based-logging system, so the comparison isolates logging),
//! but they do not log locally:
//!
//! * update records accumulate in the transaction's in-memory buffer
//!   and are **shipped to the server** at commit time ("clients send
//!   all their log records to the server as part of the commit
//!   processing");
//! * the WAL rule still forces early shipping when a dirty page leaves
//!   a client cache (steal);
//! * commit = log-ship + commit request + server log force + ack — a
//!   network round trip and a *server* disk force per transaction,
//!   versus zero messages and a local force for client-based logging;
//! * transaction rollback is performed by the client (as in ARIES/CSA)
//!   but client **crashes are handled by the server**, from the
//!   server's log alone;
//! * a server checkpoint "requires communication with all connected
//!   clients" — it synchronously collects their dirty-page lists.

use cblog_common::metrics::keys;
use cblog_common::{CostModel, Error, Lsn, NodeId, PageId, Psn, Registry, Result, SimTime, TxnId};
use cblog_core::{ForceScheduler, GroupCommitPolicy};
use cblog_locks::{
    CachedLockTable, CallbackAction, GlobalLockTable, GlobalRequestOutcome, LocalLockTable,
    LocalRequestOutcome, LockMode,
};
use cblog_net::{MsgKind, Network};
use cblog_storage::{BufferPool, Database, MemStorage, Page, PageKind};
use cblog_wal::{
    CheckpointBody, DirtyPageTable, DptEntry, LogManager, LogPayload, LogPayloadRef, LogRecord,
    MemLogStore, PageOp,
};
use std::collections::HashMap;

const CTRL: usize = 48;

/// Configuration of the client-server baseline.
#[derive(Clone, Debug)]
pub struct ServerClientConfig {
    /// Number of clients (node ids 1..=clients; the server is node 0).
    pub clients: usize,
    /// Pages in the server database.
    pub pages: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Client cache capacity in pages.
    pub client_buffer_frames: usize,
    /// Server cache capacity in pages.
    pub server_buffer_frames: usize,
    /// Cost model.
    pub cost: CostModel,
    /// Group-commit policy for the **server** log: the same
    /// [`ForceScheduler`] the client-based cluster runs per node, here
    /// batching commit forces of the system's single log so E1-style
    /// comparisons measure both architectures with equal batching.
    /// Defaults to [`GroupCommitPolicy::Immediate`] — one server force
    /// per commit, the paper's §3.1 behavior.
    pub group_commit: GroupCommitPolicy,
}

impl Default for ServerClientConfig {
    fn default() -> Self {
        ServerClientConfig {
            clients: 2,
            pages: 16,
            page_size: 1024,
            client_buffer_frames: 64,
            server_buffer_frames: 256,
            cost: CostModel::default(),
            group_commit: GroupCommitPolicy::Immediate,
        }
    }
}

/// Transaction state at a client.
#[derive(Debug)]
struct CsaTxn {
    id: TxnId,
    committed: bool,
    aborted: bool,
    /// Commit record appended at the server and force-pending; the
    /// transaction accepts no further work but is not yet durable.
    submitted: bool,
    /// (page, psn-before, op) in execution order.
    ops: Vec<(PageId, Psn, PageOp)>,
    /// Prefix of `ops` already shipped to the server.
    shipped: usize,
    /// Server-side chain tail for this transaction.
    server_last_lsn: Lsn,
    begun_at_server: bool,
}

#[derive(Debug)]
struct Client {
    id: NodeId,
    buffer: BufferPool,
    cached: CachedLockTable,
    local: LocalLockTable,
    txns: HashMap<TxnId, CsaTxn>,
    next_seq: u64,
    crashed: bool,
    commits: u64,
    aborts: u64,
}

/// The client-server baseline system.
pub struct ServerCluster {
    cfg: ServerClientConfig,
    net: Network,
    db: Database,
    log: LogManager,
    sbuffer: BufferPool,
    sdpt: DirtyPageTable,
    glocks: GlobalLockTable,
    clients: Vec<Client>,
    /// Force scheduler for the server log — the system has one log, so
    /// one scheduler batches commits from every client.
    scheduler: ForceScheduler,
    /// Cluster-level metrics (the only log lives at the server, so one
    /// registry covers the whole system): server WAL counters, commit
    /// and abort counts, and the uniform `locks/wait_us` histogram.
    registry: Registry,
}

impl std::fmt::Debug for ServerCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerCluster({} clients)", self.clients.len())
    }
}

const SERVER: NodeId = NodeId(0);

impl ServerCluster {
    /// Builds the system: server with all pages pre-allocated, plus
    /// `cfg.clients` diskless clients.
    pub fn new(cfg: ServerClientConfig) -> Result<Self> {
        let mut db = Database::create(Box::new(MemStorage::new(cfg.page_size)), SERVER, cfg.pages)?;
        db.allocate_pages(PageKind::Raw, cfg.pages)?;
        let log = LogManager::new(SERVER, Box::new(MemLogStore::new()))?;
        let registry = Registry::new();
        registry.register_counter(keys::WAL_RECORDS, log.records_counter());
        registry.register_counter(keys::WAL_FORCES, log.forces_counter());
        registry.register_counter(keys::WAL_BYTES, log.bytes_appended_counter());
        registry.register_counter(keys::WAL_STORE_SYNCS, log.store_syncs_counter());
        let net = Network::new(cfg.clients + 1, cfg.cost.clone());
        let clients = (1..=cfg.clients)
            .map(|i| Client {
                id: NodeId(i as u32),
                buffer: BufferPool::new(cfg.client_buffer_frames),
                cached: CachedLockTable::new(),
                local: LocalLockTable::new(),
                txns: HashMap::new(),
                next_seq: 1,
                crashed: false,
                commits: 0,
                aborts: 0,
            })
            .collect();
        Ok(ServerCluster {
            sbuffer: BufferPool::new(cfg.server_buffer_frames),
            sdpt: DirtyPageTable::new(),
            glocks: GlobalLockTable::new(),
            db,
            log,
            net,
            clients,
            scheduler: ForceScheduler::new(cfg.group_commit),
            cfg,
            registry,
        })
    }

    /// The accounted network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The system-wide metrics registry (`subsystem/metric` names,
    /// mirroring the per-node registries of the CBL cluster).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Folds a driver-observed lock-queueing delay into the uniform
    /// `locks/wait_us` histogram (the CBL cluster tracks these spans
    /// itself; the baselines learn about them from the driver).
    pub fn note_queue_wait(&mut self, _txn: TxnId, us: SimTime) {
        self.registry.histogram(keys::LOCKS_WAIT_US).record(us);
    }

    /// The server's log (the system's only log).
    pub fn server_log(&self) -> &LogManager {
        &self.log
    }

    /// Committed transactions at client `c`.
    pub fn commits_of(&self, c: NodeId) -> u64 {
        self.clients[c.0 as usize - 1].commits
    }

    fn client(&mut self, id: NodeId) -> Result<&mut Client> {
        let i = id.0 as usize;
        if i == 0 || i > self.clients.len() {
            return Err(Error::Invalid(format!("{id} is not a client")));
        }
        let c = &mut self.clients[i - 1];
        if c.crashed {
            return Err(Error::NodeDown(id));
        }
        Ok(c)
    }

    fn page_bytes(&self) -> usize {
        self.cfg.page_size + 64
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Starts a transaction at client `node`. No message: the Begin
    /// record reaches the server with the first log shipment.
    pub fn begin(&mut self, node: NodeId) -> Result<TxnId> {
        let c = self.client(node)?;
        let id = TxnId::new(node, c.next_seq);
        c.next_seq += 1;
        c.txns.insert(
            id,
            CsaTxn {
                id,
                committed: false,
                aborted: false,
                submitted: false,
                ops: Vec::new(),
                shipped: 0,
                server_last_lsn: Lsn::ZERO,
                begun_at_server: false,
            },
        );
        Ok(id)
    }

    /// Reads a counter slot under a shared lock.
    pub fn read_u64(&mut self, txn: TxnId, pid: PageId, slot: usize) -> Result<u64> {
        self.ensure_access(txn, pid, LockMode::Shared)?;
        let c = self.client(txn.node)?;
        let page = c.buffer.get_mut(pid).ok_or(Error::NoSuchPage(pid))?;
        page.read_slot(slot)
    }

    /// Writes a counter slot under an exclusive lock. The log record is
    /// buffered at the client — nothing is logged anywhere durable yet.
    pub fn write_u64(&mut self, txn: TxnId, pid: PageId, slot: usize, value: u64) -> Result<()> {
        self.ensure_access(txn, pid, LockMode::Exclusive)?;
        let c = self.client(txn.node)?;
        let page = c.buffer.get_mut(pid).ok_or(Error::NoSuchPage(pid))?;
        let before = page.read_slot(slot)?;
        let op = PageOp::WriteRange {
            off: (slot * 8) as u32,
            before: before.to_le_bytes().to_vec(),
            after: value.to_le_bytes().to_vec(),
        };
        let psn_before = page.psn();
        op.apply_redo(page)?;
        page.bump_psn();
        c.buffer.mark_dirty(pid);
        let t = c.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
        if t.committed || t.aborted || t.submitted {
            return Err(Error::TxnAborted(txn));
        }
        t.ops.push((pid, psn_before, op));
        Ok(())
    }

    /// Commits: ship pending log records + commit request to the
    /// server; the server appends, **forces its log**, and acks. This
    /// is the synchronous wrapper around the group-commit pipeline:
    /// under the default [`GroupCommitPolicy::Immediate`] policy it is
    /// exactly one server force per commit (the paper's §3.1 cost);
    /// under a windowed or adaptive policy the force is shared with
    /// whatever batch is pending.
    pub fn commit(&mut self, txn: TxnId) -> Result<()> {
        self.commit_submit(txn)?;
        if self.scheduler.is_pending(txn) {
            self.flush_server_log()?;
        }
        debug_assert!(
            self.clients[txn.node.0 as usize - 1]
                .txns
                .get(&txn)
                .is_some_and(|t| t.committed),
            "synchronous commit must leave the txn durable"
        );
        Ok(())
    }

    fn now(&self) -> SimTime {
        self.net.clock().now()
    }

    /// First half of the async commit pipeline: ships the
    /// transaction's records plus the commit request, appends the
    /// Commit record to the server log, releases the client's local
    /// locks and parks the transaction force-pending in the server's
    /// scheduler. Early lock release is safe for the same reason it is
    /// in the CBL cluster: every commit forces the same server log, so
    /// any dependent transaction's ack implies this Commit record was
    /// durable first. The CommitAck message is sent when the covering
    /// force lands.
    pub fn commit_submit(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        self.ship_pending(node, txn)?;
        self.net.send(node, SERVER, MsgKind::CommitRequest, CTRL)?;
        let prev = {
            let c = self.client(node)?;
            let t = c.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
            t.server_last_lsn
        };
        let lsn = self.log.append(&LogRecord {
            txn,
            prev_lsn: prev,
            payload: LogPayload::Commit,
        })?;
        {
            let c = self.client(node)?;
            let t = c.txns.get_mut(&txn).expect("checked");
            t.submitted = true;
            t.server_last_lsn = lsn;
            c.local.release_all(txn);
        }
        let now = self.now();
        self.scheduler.submit(txn, lsn, now);
        self.registry
            .gauge(keys::WAL_WINDOW_US)
            .set(self.scheduler.window_us() as i64);
        if self.scheduler.is_due(now) {
            self.flush_server_log()?;
        }
        Ok(())
    }

    /// Polls the async commit pipeline: true once `txn`'s Commit
    /// record is durable at the server and the ack was sent. Flushes
    /// the server batch if it became due; otherwise
    /// [`ServerCluster::pump_commits`] advances an idle system to the
    /// open window's deadline.
    pub fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        // A force taken for any other reason (WAL rule on an evicted
        // page, checkpoint, client recovery) may already have covered
        // the commit record.
        self.reap_server_acked()?;
        if self.scheduler.is_pending(txn) && self.scheduler.is_due(self.now()) {
            self.flush_server_log()?;
        }
        let c = self.client(txn.node)?;
        match c.txns.get(&txn) {
            Some(t) if t.committed => Ok(true),
            Some(t) if t.submitted => Ok(false),
            Some(_) => Err(Error::Protocol(format!(
                "poll_committed on {txn} before commit_submit"
            ))),
            None => Err(Error::NoSuchTxn(txn)),
        }
    }

    /// Drives the group-commit pipeline when no transaction can make
    /// progress: flushes the server batch if due; if not due but
    /// commits are pending, idle-advances the sim-clock to the open
    /// window deadline and flushes. Returns true if any commit was
    /// acknowledged.
    pub fn pump_commits(&mut self) -> Result<bool> {
        let mut acked = 0;
        if self.scheduler.is_due(self.now()) {
            acked += self.flush_server_log()?;
        }
        if acked == 0 {
            if let Some(d) = self.scheduler.deadline() {
                let now = self.now();
                if d > now {
                    self.net.advance_time(d - now);
                }
                if self.scheduler.is_due(self.now()) {
                    acked += self.flush_server_log()?;
                }
            }
        }
        Ok(acked > 0)
    }

    /// Acknowledges every force-pending commit whose Commit record the
    /// server log already covers (idempotent): CommitAck message, the
    /// client marks the transaction committed. A client that crashed
    /// while its ack was pending gets no message — its transaction is
    /// still durably committed and server-side recovery will replay
    /// it.
    fn reap_server_acked(&mut self) -> Result<usize> {
        let flushed = self.log.flushed_lsn();
        let acked = self.scheduler.drain_acked(flushed);
        let mut n = 0;
        for txn in acked {
            let v = txn.node.0 as usize - 1;
            if self.clients[v].crashed {
                continue;
            }
            let Some(t) = self.clients[v].txns.get_mut(&txn) else {
                continue;
            };
            self.net.send(SERVER, txn.node, MsgKind::CommitAck, CTRL)?;
            t.committed = true;
            self.clients[v].commits += 1;
            self.registry.counter(keys::TXN_COMMITS).bump();
            n += 1;
        }
        if n > 0 {
            let commits = self.registry.counter(keys::TXN_COMMITS).get();
            if let Some(ratio) = (self.log.forces() * 1000).checked_div(commits) {
                self.registry
                    .gauge(keys::WAL_FORCES_PER_COMMIT)
                    .set(ratio as i64);
            }
        }
        Ok(n)
    }

    /// Forces the server log once for the whole batch of force-pending
    /// commits and acknowledges all of them — group commit at the
    /// system's only log. Returns the number of commits acknowledged.
    fn flush_server_log(&mut self) -> Result<usize> {
        // Commits covered by an interleaved force are acknowledged
        // without paying for a new one.
        let mut acked = self.reap_server_acked()?;
        let batch = self.scheduler.pending_len() as u64;
        if batch == 0 {
            return Ok(acked);
        }
        let pending = self.log.end_lsn().0 - self.log.flushed_lsn().0;
        self.log.force_all()?;
        self.net.disk_io(SERVER, pending as usize);
        self.registry.histogram(keys::WAL_GROUP_SIZE).record(batch);
        acked += self.reap_server_acked()?;
        Ok(acked)
    }

    /// Aborts: the client undoes from its buffered records; compensation
    /// records are shipped only if part of the transaction had already
    /// been shipped (eviction-forced WAL writes).
    pub fn abort(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        let ops: Vec<(PageId, Psn, PageOp)> = {
            let c = self.client(node)?;
            let t = c.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
            if t.committed || t.submitted {
                return Err(Error::NoSuchTxn(txn));
            }
            t.ops.clone()
        };
        let mut clrs: Vec<(PageId, Psn, PageOp)> = Vec::new();
        for (pid, _psn, op) in ops.iter().rev() {
            // Page must be present to undo; re-fetch if evicted.
            if !self.client(node)?.buffer.contains(*pid) {
                self.fetch_page(node, *pid)?;
            }
            let c = self.client(node)?;
            let page = c.buffer.get_mut(*pid).expect("fetched");
            let inv = op.inverse();
            let psn_before = page.psn();
            inv.apply_redo(page)?;
            page.bump_psn();
            c.buffer.mark_dirty(*pid);
            clrs.push((*pid, psn_before, inv));
        }
        let shipped_any = {
            let c = self.client(node)?;
            c.txns.get(&txn).expect("checked").shipped > 0
        };
        if shipped_any {
            // The server saw part of this transaction: it must also see
            // the compensation and the abort.
            let mut bytes = 0usize;
            let mut prev = {
                let c = self.client(node)?;
                c.txns.get(&txn).expect("checked").server_last_lsn
            };
            let mut recs = Vec::new();
            for (pid, psn_before, op) in &clrs {
                recs.push(LogRecord {
                    txn,
                    prev_lsn: prev,
                    payload: LogPayload::Clr {
                        pid: *pid,
                        psn_before: *psn_before,
                        op: op.clone(),
                        undo_next: Lsn::ZERO,
                    },
                });
                prev = Lsn::ZERO; // chains fixed below at append time
            }
            for r in &recs {
                bytes += r.encode().len();
            }
            self.net
                .send(node, SERVER, MsgKind::LogShip, bytes + CTRL)?;
            let mut prev = {
                let c = self.client(node)?;
                c.txns.get(&txn).expect("checked").server_last_lsn
            };
            for mut r in recs {
                r.prev_lsn = prev;
                prev = self.log.append(&r)?;
            }
            let lsn = self.log.append(&LogRecord {
                txn,
                prev_lsn: prev,
                payload: LogPayload::Abort,
            })?;
            let c = self.client(node)?;
            c.txns.get_mut(&txn).expect("checked").server_last_lsn = lsn;
        }
        let c = self.client(node)?;
        let t = c.txns.get_mut(&txn).expect("checked");
        t.aborted = true;
        c.local.release_all(txn);
        c.aborts += 1;
        self.registry.counter(keys::TXN_ABORTS).bump();
        Ok(())
    }

    /// Ships the unshipped log records of `txn` to the server (appends
    /// them to the server log; does not force).
    fn ship_pending(&mut self, node: NodeId, txn: TxnId) -> Result<()> {
        let (records, bytes) = {
            let c = self.client(node)?;
            let t = c.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
            if t.aborted {
                return Err(Error::TxnAborted(txn));
            }
            let mut records: Vec<LogRecord> = Vec::new();
            if !t.begun_at_server {
                records.push(LogRecord {
                    txn,
                    prev_lsn: Lsn::ZERO,
                    payload: LogPayload::Begin,
                });
            }
            for (pid, psn_before, op) in &t.ops[t.shipped..] {
                records.push(LogRecord {
                    txn,
                    prev_lsn: Lsn::ZERO,
                    payload: LogPayload::Update {
                        pid: *pid,
                        psn_before: *psn_before,
                        op: op.clone(),
                    },
                });
            }
            if records.is_empty() {
                return Ok(());
            }
            let bytes: usize = records.iter().map(|r| r.encode().len()).sum();
            t.shipped = t.ops.len();
            t.begun_at_server = true;
            (records, bytes)
        };
        self.net
            .send(node, SERVER, MsgKind::LogShip, bytes + CTRL)?;
        let mut prev = {
            let c = self.client(node)?;
            c.txns.get(&txn).expect("checked").server_last_lsn
        };
        for mut r in records {
            r.prev_lsn = prev;
            prev = self.log.append(&r)?;
            if let LogPayload::Update {
                pid, psn_before, ..
            } = r.payload
            {
                if !self.sdpt.contains(pid) {
                    self.sdpt.insert(DptEntry::new(pid, psn_before, prev));
                }
                self.sdpt.on_update(pid, psn_before.next(), prev);
            }
        }
        let c = self.client(node)?;
        c.txns.get_mut(&txn).expect("checked").server_last_lsn = prev;
        Ok(())
    }

    /// Ships every unshipped record at `node` touching `pid` — the WAL
    /// rule before a dirty page leaves the client cache.
    fn wal_ship_for_page(&mut self, node: NodeId, pid: PageId) -> Result<()> {
        let txns: Vec<TxnId> = {
            let c = self.client(node)?;
            c.txns
                .values()
                .filter(|t| {
                    !t.committed
                        && !t.aborted
                        && t.ops[t.shipped..].iter().any(|(p, _, _)| *p == pid)
                })
                .map(|t| t.id)
                .collect()
        };
        let shipped_any = !txns.is_empty();
        for t in txns {
            self.ship_pending(node, t)?;
        }
        if shipped_any {
            // Records shipped ahead of a page write must be durable
            // before the page can hit the disk; force now.
            let pending = self.log.end_lsn().0 - self.log.flushed_lsn().0;
            if pending > 0 {
                self.log.force_all()?;
                self.net.disk_io(SERVER, pending as usize);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Locking + page shipping (same callback protocol as cblog-core)
    // ------------------------------------------------------------------

    fn ensure_access(&mut self, txn: TxnId, pid: PageId, mode: LockMode) -> Result<()> {
        let node = txn.node;
        {
            let c = self.client(node)?;
            let conflicts = c.local.conflicts(txn, pid, mode);
            if !conflicts.is_empty() {
                return Err(Error::WouldBlock {
                    txn,
                    holders: conflicts,
                });
            }
        }
        if !self.client(node)?.cached.covers(pid, mode) {
            self.net.send(node, SERVER, MsgKind::LockRequest, CTRL)?;
            loop {
                match self.glocks.request(pid, node, mode) {
                    GlobalRequestOutcome::Granted => break,
                    GlobalRequestOutcome::NeedsCallbacks(victims) => {
                        for (victim, action) in victims {
                            self.run_callback(txn, pid, victim, action)?;
                        }
                    }
                }
            }
            self.client(node)?.cached.grant(pid, mode);
            self.net.send(SERVER, node, MsgKind::LockGrant, CTRL)?;
        }
        {
            let c = self.client(node)?;
            match c.local.request(txn, pid, mode) {
                LocalRequestOutcome::Granted => {}
                LocalRequestOutcome::Blocked(holders) => {
                    // Another local transaction slipped in while this
                    // request waited on the server; retry later.
                    return Err(Error::WouldBlock { txn, holders });
                }
            }
        }
        if !self.client(node)?.buffer.contains(pid) {
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
        let v = victim.0 as usize - 1;
        if self.clients[v].crashed {
            return Err(Error::WouldBlock {
                txn: waiter,
                holders: Vec::new(),
            });
        }
        self.net.send(SERVER, victim, MsgKind::Callback, CTRL)?;
        let blocking: Vec<TxnId> = self.clients[v]
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
                self.clients[v].cached.demote(pid);
            }
            CallbackAction::Release => {
                self.clients[v].cached.release(pid);
            }
        }
        let had = self.clients[v].buffer.contains(pid);
        let dirty = self.clients[v].buffer.is_dirty(pid).unwrap_or(false);
        if had && dirty {
            self.wal_ship_for_page(victim, pid)?;
            let copy = self.clients[v].buffer.peek(pid).expect("had").clone();
            self.net
                .send(victim, SERVER, MsgKind::CallbackAck, self.page_bytes())?;
            self.server_absorb_page(copy)?;
            self.clients[v].buffer.mark_clean(pid);
        } else {
            self.net.send(victim, SERVER, MsgKind::CallbackAck, CTRL)?;
        }
        if action == CallbackAction::Release && had {
            self.clients[v].buffer.remove(pid);
        }
        self.glocks.callback_applied(pid, victim, action);
        Ok(())
    }

    fn server_absorb_page(&mut self, page: Page) -> Result<()> {
        if let Some(ev) = self.sbuffer.insert(page, true)? {
            if ev.dirty {
                self.db.write_page(&ev.page)?;
                self.db.sync()?;
                self.net.disk_io(SERVER, self.cfg.page_size);
                self.sdpt.remove(ev.page.id());
            }
        }
        Ok(())
    }

    fn fetch_page(&mut self, node: NodeId, pid: PageId) -> Result<()> {
        let page = match self.sbuffer.peek(pid) {
            Some(p) => p.clone(),
            None => {
                let p = self.db.read_page(pid.index)?;
                self.net.disk_io(SERVER, self.cfg.page_size);
                p
            }
        };
        self.net
            .send(SERVER, node, MsgKind::PageShip, self.page_bytes())?;
        let v = node.0 as usize - 1;
        if let Some(ev) = self.clients[v].buffer.insert(page, false)? {
            if ev.dirty {
                let pid2 = ev.page.id();
                self.wal_ship_for_page(node, pid2)?;
                self.net
                    .send(node, SERVER, MsgKind::ReplacePage, self.page_bytes())?;
                self.server_absorb_page(ev.page)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Server checkpoint (contacts every client — paper §3.1)
    // ------------------------------------------------------------------

    /// Server-coordinated checkpoint: a synchronous round to every
    /// connected client collecting dirty-page information, then the
    /// checkpoint records and a log force.
    pub fn checkpoint(&mut self) -> Result<Lsn> {
        let mut dpt = self.sdpt.entries();
        for ci in 0..self.clients.len() {
            let id = self.clients[ci].id;
            if self.clients[ci].crashed {
                continue;
            }
            self.net.send(SERVER, id, MsgKind::CheckpointSync, CTRL)?;
            let dirty = self.clients[ci].buffer.dirty_ids();
            self.net
                .send(id, SERVER, MsgKind::CheckpointSync, CTRL + dirty.len() * 16)?;
            for pid in dirty {
                if !dpt.iter().any(|e| e.pid == pid) {
                    let psn = self.clients[ci].buffer.peek(pid).expect("dirty").psn();
                    dpt.push(DptEntry::new(pid, psn, self.log.end_lsn()));
                }
            }
        }
        let sys = TxnId::new(SERVER, 0);
        let begin = self.log.append(&LogRecord {
            txn: sys,
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::CheckpointBegin,
        })?;
        let active: Vec<(TxnId, Lsn)> = self
            .clients
            .iter()
            .flat_map(|c| c.txns.values())
            .filter(|t| !t.committed && !t.aborted && t.begun_at_server)
            .map(|t| (t.id, t.server_last_lsn))
            .collect();
        let end = self.log.append(&LogRecord {
            txn: sys,
            prev_lsn: begin,
            payload: LogPayload::CheckpointEnd(CheckpointBody {
                dpt,
                active_txns: active,
            }),
        })?;
        let pending = self.log.end_lsn().0 - self.log.flushed_lsn().0;
        self.log.force(end)?;
        self.net.disk_io(SERVER, pending as usize);
        self.log.write_master(begin)?;
        Ok(begin)
    }

    // ------------------------------------------------------------------
    // Client crash recovery — handled by the server (paper §3.1)
    // ------------------------------------------------------------------

    /// Crashes client `node`.
    pub fn crash_client(&mut self, node: NodeId) {
        let v = node.0 as usize - 1;
        self.clients[v].buffer.clear();
        self.clients[v].cached.clear();
        self.clients[v].local.clear();
        self.clients[v].txns.clear();
        self.clients[v].crashed = true;
        self.net.mark_crashed(node);
    }

    /// Server-side recovery of a crashed client: committed updates are
    /// replayed from the server log; partially-shipped loser
    /// transactions are undone; the client's locks are released.
    /// Returns `(records_replayed, bytes_scanned)`.
    pub fn recover_client(&mut self, node: NodeId) -> Result<(u64, u64)> {
        let v = node.0 as usize - 1;
        // Locks: release shared, inspect exclusive (fences).
        let (_shared, exclusive) = self.glocks.drop_shared_retain_exclusive(node);
        // Scan the server log to find the client's transactions and the
        // records for fenced pages.
        let start = {
            let c = self.log.last_checkpoint();
            if c.is_zero() {
                self.log.base_lsn()
            } else {
                c
            }
        };
        let mut committed: HashMap<TxnId, bool> = HashMap::new();
        let mut page_recs: Vec<(PageId, Psn, PageOp)> = Vec::new();
        let mut loser_ops: HashMap<TxnId, Vec<(PageId, Psn, PageOp)>> = HashMap::new();
        let bytes_scanned = self.log.end_lsn().0 - start.0;
        let mut scan = self.log.scan(start);
        while let Some(r) = scan.next_ref() {
            let (_, rec) = r?;
            let mine = rec.txn.node == node;
            match rec.payload {
                LogPayloadRef::Commit if mine => {
                    committed.insert(rec.txn, true);
                }
                LogPayloadRef::Abort if mine => {
                    loser_ops.remove(&rec.txn);
                }
                LogPayloadRef::Update {
                    pid,
                    psn_before,
                    op,
                } if mine => {
                    if exclusive.contains(&pid) {
                        page_recs.push((pid, psn_before, op.to_owned()));
                    }
                    loser_ops
                        .entry(rec.txn)
                        .or_default()
                        .push((pid, psn_before, op.to_owned()));
                }
                LogPayloadRef::Update {
                    pid,
                    psn_before,
                    op,
                }
                | LogPayloadRef::Clr {
                    pid,
                    psn_before,
                    op,
                    ..
                } if exclusive.contains(&pid) => {
                    page_recs.push((pid, psn_before, op.to_owned()));
                }
                _ => {}
            }
        }
        for (t, _) in committed.iter() {
            loser_ops.remove(t);
        }
        // Rebuild fenced pages: PSN-filtered redo of everything logged.
        let mut replayed = 0u64;
        for pid in &exclusive {
            let mut page = match self.sbuffer.peek(*pid) {
                Some(p) => p.clone(),
                None => {
                    let p = self.db.read_page(pid.index)?;
                    self.net.disk_io(SERVER, self.cfg.page_size);
                    p
                }
            };
            for (p, psn_before, op) in &page_recs {
                if p == pid && *psn_before == page.psn() {
                    op.apply_redo(&mut page)?;
                    page.set_psn(psn_before.next());
                    replayed += 1;
                }
            }
            // Undo loser updates to this page (reverse order), logging
            // CLRs at the server.
            let mut clrs = Vec::new();
            for ops in loser_ops.values() {
                for (p, _, op) in ops.iter().rev() {
                    if p == pid {
                        let inv = op.inverse();
                        let psn_before = page.psn();
                        inv.apply_redo(&mut page)?;
                        page.set_psn(psn_before.next());
                        clrs.push((*pid, psn_before, inv));
                        replayed += 1;
                    }
                }
            }
            for (p, psn_before, op) in clrs {
                self.log.append(&LogRecord {
                    txn: TxnId::new(node, 0),
                    prev_lsn: Lsn::ZERO,
                    payload: LogPayload::Clr {
                        pid: p,
                        psn_before,
                        op,
                        undo_next: Lsn::ZERO,
                    },
                })?;
            }
            self.sdpt.ensure(*pid, page.psn(), self.log.end_lsn());
            self.server_absorb_page(page)?;
            // The fence can drop now.
            self.glocks.release(*pid, node);
        }
        let pending = self.log.end_lsn().0 - self.log.flushed_lsn().0;
        if pending > 0 {
            self.log.force_all()?;
            self.net.disk_io(SERVER, pending as usize);
        }
        self.clients[v].crashed = false;
        self.net.mark_up(node);
        Ok((replayed, bytes_scanned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(clients: usize) -> ServerCluster {
        ServerCluster::new(ServerClientConfig {
            clients,
            pages: 8,
            page_size: 512,
            client_buffer_frames: 8,
            server_buffer_frames: 32,
            cost: CostModel::unit(),
            group_commit: GroupCommitPolicy::Immediate,
        })
        .unwrap()
    }

    fn pid(i: u32) -> PageId {
        PageId::new(SERVER, i)
    }

    #[test]
    fn commit_costs_messages_and_server_force() {
        let mut s = sys(1);
        let c1 = NodeId(1);
        let t = s.begin(c1).unwrap();
        s.write_u64(t, pid(0), 0, 7).unwrap();
        let stats0 = s.network().stats();
        let forces0 = s.server_log().forces();
        s.commit(t).unwrap();
        let d = s.network().stats().since(&stats0);
        assert_eq!(d.count(MsgKind::LogShip), 1);
        assert_eq!(d.count(MsgKind::CommitRequest), 1);
        assert_eq!(d.count(MsgKind::CommitAck), 1);
        assert_eq!(s.server_log().forces(), forces0 + 1);
    }

    #[test]
    fn values_round_trip_between_clients() {
        let mut s = sys(2);
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 5).unwrap();
        s.commit(t).unwrap();
        let t2 = s.begin(NodeId(2)).unwrap();
        assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 5);
        s.commit(t2).unwrap();
    }

    #[test]
    fn abort_without_shipping_is_local() {
        let mut s = sys(1);
        let t0 = s.begin(NodeId(1)).unwrap();
        s.write_u64(t0, pid(0), 0, 1).unwrap();
        s.commit(t0).unwrap();
        let recs0 = s.server_log().records_appended();
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 99).unwrap();
        s.abort(t).unwrap();
        assert_eq!(
            s.server_log().records_appended(),
            recs0,
            "nothing shipped, nothing logged"
        );
        let t2 = s.begin(NodeId(1)).unwrap();
        assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 1);
        s.commit(t2).unwrap();
    }

    #[test]
    fn server_checkpoint_contacts_all_clients() {
        let mut s = sys(3);
        let stats0 = s.network().stats();
        s.checkpoint().unwrap();
        let d = s.network().stats().since(&stats0);
        assert_eq!(d.count(MsgKind::CheckpointSync), 6, "round trip per client");
    }

    #[test]
    fn client_crash_recovers_committed_updates_server_side() {
        let mut s = sys(2);
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 42).unwrap();
        s.commit(t).unwrap();
        // Page image only in client 1's cache; client crashes.
        s.crash_client(NodeId(1));
        let (replayed, scanned) = s.recover_client(NodeId(1)).unwrap();
        assert!(replayed >= 1);
        assert!(scanned > 0);
        let t2 = s.begin(NodeId(2)).unwrap();
        assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 42);
        s.commit(t2).unwrap();
    }

    #[test]
    fn client_crash_discards_unshipped_uncommitted_updates() {
        let mut s = sys(2);
        let t0 = s.begin(NodeId(1)).unwrap();
        s.write_u64(t0, pid(0), 0, 10).unwrap();
        s.commit(t0).unwrap();
        let t1 = s.begin(NodeId(1)).unwrap();
        s.write_u64(t1, pid(0), 0, 999).unwrap();
        s.crash_client(NodeId(1));
        s.recover_client(NodeId(1)).unwrap();
        let t2 = s.begin(NodeId(2)).unwrap();
        assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 10);
        s.commit(t2).unwrap();
    }

    #[test]
    fn shipped_loser_is_undone_server_side() {
        // Tiny client cache: the dirty page of an uncommitted txn is
        // evicted, which WAL-ships its records to the server. The
        // client then crashes; the server must undo those records.
        let mut s = ServerCluster::new(ServerClientConfig {
            clients: 2,
            pages: 8,
            page_size: 512,
            client_buffer_frames: 2,
            server_buffer_frames: 32,
            cost: CostModel::unit(),
            group_commit: GroupCommitPolicy::Immediate,
        })
        .unwrap();
        let t0 = s.begin(NodeId(1)).unwrap();
        s.write_u64(t0, pid(0), 0, 10).unwrap();
        s.commit(t0).unwrap();
        let t1 = s.begin(NodeId(1)).unwrap();
        s.write_u64(t1, pid(0), 0, 666).unwrap();
        // Touch other pages so pid(0) evicts (ships records + page).
        for i in 1..4 {
            s.read_u64(t1, pid(i), 0).unwrap();
        }
        assert!(
            s.server_log().records_appended() > 3,
            "loser records reached the server via the WAL rule"
        );
        s.crash_client(NodeId(1));
        let (replayed, _) = s.recover_client(NodeId(1)).unwrap();
        assert!(replayed >= 1);
        let t2 = s.begin(NodeId(2)).unwrap();
        assert_eq!(
            s.read_u64(t2, pid(0), 0).unwrap(),
            10,
            "shipped-but-uncommitted update undone by the server"
        );
        s.commit(t2).unwrap();
    }

    #[test]
    fn callback_ships_page_through_server() {
        let mut s = sys(2);
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 3).unwrap();
        s.commit(t).unwrap();
        let stats0 = s.network().stats();
        let t2 = s.begin(NodeId(2)).unwrap();
        s.write_u64(t2, pid(0), 0, 4).unwrap();
        s.commit(t2).unwrap();
        let d = s.network().stats().since(&stats0);
        assert!(d.count(MsgKind::Callback) >= 1);
        // WAL shipping happened when the dirty page moved: client 1's
        // records were already at the server (commit), so only page
        // traffic here.
        let t3 = s.begin(NodeId(1)).unwrap();
        assert_eq!(s.read_u64(t3, pid(0), 0).unwrap(), 4);
        s.commit(t3).unwrap();
    }

    #[test]
    fn server_group_commit_batches_commits_across_clients() {
        let mut s = ServerCluster::new(ServerClientConfig {
            clients: 3,
            pages: 8,
            page_size: 512,
            client_buffer_frames: 8,
            server_buffer_frames: 32,
            cost: CostModel::unit(),
            group_commit: GroupCommitPolicy::Window {
                window_us: 1_000_000,
                max_batch: 64,
            },
        })
        .unwrap();
        let mut txns = Vec::new();
        for cid in 1..=3u32 {
            let t = s.begin(NodeId(cid)).unwrap();
            s.write_u64(t, pid(cid - 1), 0, 7).unwrap();
            s.commit_submit(t).unwrap();
            txns.push(t);
        }
        let forces0 = s.server_log().forces();
        let acks0 = s.network().stats();
        for t in &txns {
            assert!(!s.poll_committed(*t).unwrap(), "window still open");
        }
        assert!(s.pump_commits().unwrap());
        assert_eq!(
            s.server_log().forces(),
            forces0 + 1,
            "one server force covers the whole cross-client batch"
        );
        let d = s.network().stats().since(&acks0);
        assert_eq!(d.count(MsgKind::CommitAck), 3, "every commit acked");
        for t in &txns {
            assert!(s.poll_committed(*t).unwrap());
        }
    }

    #[test]
    fn adaptive_server_commit_acks_only_after_the_covering_force() {
        let mut s = ServerCluster::new(ServerClientConfig {
            clients: 2,
            pages: 8,
            page_size: 512,
            client_buffer_frames: 8,
            server_buffer_frames: 32,
            cost: CostModel::unit(),
            group_commit: GroupCommitPolicy::Adaptive {
                min_window_us: 100,
                max_window_us: 1_000_000,
                target_batch: 8,
            },
        })
        .unwrap();
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(0), 0, 1).unwrap();
        let syncs0 = s.server_log().store_syncs_counter().get();
        s.commit_submit(t).unwrap();
        assert!(
            !s.poll_committed(t).unwrap(),
            "no ack before the covering force"
        );
        assert_eq!(
            s.server_log().store_syncs_counter().get(),
            syncs0,
            "nothing hit the device yet"
        );
        while !s.poll_committed(t).unwrap() {
            s.pump_commits().unwrap();
        }
        assert!(s.server_log().store_syncs_counter().get() > syncs0);
        // The synchronous wrapper still works under Adaptive.
        let t2 = s.begin(NodeId(2)).unwrap();
        s.write_u64(t2, pid(1), 0, 2).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(s.commits_of(NodeId(2)), 1);
    }

    #[test]
    fn all_log_forces_happen_at_the_server() {
        let mut s = sys(3);
        for round in 0..5u64 {
            for cid in 1..=3u32 {
                let t = s.begin(NodeId(cid)).unwrap();
                s.write_u64(t, pid(cid - 1), 0, round).unwrap();
                s.commit(t).unwrap();
            }
        }
        // 15 commits => at least 15 server forces; every disk I/O in
        // the run is charged to node 0.
        assert!(s.server_log().forces() >= 15);
        assert!(s.network().disk_ios_of(SERVER) >= 15);
        for cid in 1..=3u32 {
            assert_eq!(s.network().disk_ios_of(NodeId(cid)), 0);
        }
    }
}
