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
//! * transaction rollback is performed by the client (as in ARIES/CSA);
//! * a server checkpoint "requires communication with all connected
//!   clients" — it synchronously collects their dirty-page lists.

use cblog_common::{CostModel, Error, Lsn, NodeId, PageId, Psn, Result, TxnId};
use cblog_core::System;
use cblog_locks::{
    answer_callback, CachedLockTable, CallbackAction, GlobalLockTable, GlobalRequestOutcome,
    LocalLockTable, LocalRequestOutcome, LockMode,
};
use cblog_net::{MsgKind, Network};
use cblog_storage::{BufferPool, Database, MemStorage, Page, PageKind};
use cblog_wal::{
    CheckpointBody, DirtyPageTable, DptEntry, LogManager, LogPayload, LogRecord, MemLogStore,
    PageOp,
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
        }
    }
}

/// Transaction state at a client.
#[derive(Debug)]
struct CsaTxn {
    id: TxnId,
    committed: bool,
    aborted: bool,
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
        let net = Network::new(cfg.clients + 1, cfg.cost.clone());
        let clients = (1..=cfg.clients)
            .map(|i| Client {
                id: NodeId(i as u32),
                buffer: BufferPool::new(cfg.client_buffer_frames),
                cached: CachedLockTable::new(),
                local: LocalLockTable::new(),
                txns: HashMap::new(),
                next_seq: 1,
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
            cfg,
        })
    }

    /// The server's log (the system's only log).
    pub fn server_log(&self) -> &LogManager {
        &self.log
    }

    fn client(&mut self, id: NodeId) -> Result<&mut Client> {
        let i = id.0 as usize;
        if i == 0 || i > self.clients.len() {
            return Err(Error::Invalid(format!("{id} is not a client")));
        }
        Ok(&mut self.clients[i - 1])
    }

    fn page_bytes(&self) -> usize {
        self.cfg.page_size + 64
    }

    /// The client-side state of `txn`, refused once it has ended: an
    /// aborted transaction is `TxnAborted`, a committed one `NoSuchTxn`.
    fn live_txn(&mut self, txn: TxnId) -> Result<&mut CsaTxn> {
        let t = self
            .client(txn.node)?
            .txns
            .get_mut(&txn)
            .ok_or(Error::NoSuchTxn(txn))?;
        if t.aborted {
            return Err(Error::TxnAborted(txn));
        }
        if t.committed {
            return Err(Error::NoSuchTxn(txn));
        }
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Log shipping (the transaction methods are the `System` impl below)
    // ------------------------------------------------------------------

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

    /// Forces the server log, charging the server disk for the bytes
    /// the force writes.
    fn force_server_log(&mut self) -> Result<()> {
        let pending = self.log.end_lsn().0 - self.log.flushed_lsn().0;
        if pending > 0 {
            self.log.force_all()?;
            self.net.disk_io(SERVER, pending as usize);
        }
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
            self.force_server_log()?;
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
        self.net.send(SERVER, victim, MsgKind::Callback, CTRL)?;
        let c = &mut self.clients[v];
        answer_callback(&c.local, &mut c.cached, pid, action).map_err(|holders| {
            Error::WouldBlock {
                txn: waiter,
                holders,
            }
        })?;
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
        self.log.append(&LogRecord {
            txn: sys,
            prev_lsn: begin,
            payload: LogPayload::CheckpointEnd(CheckpointBody {
                dpt,
                active_txns: active,
            }),
        })?;
        self.force_server_log()?;
        self.log.write_master(begin)?;
        Ok(begin)
    }
}

impl System for ServerCluster {
    /// Starts a transaction at client `node`. No message: the Begin
    /// record reaches the server with the first log shipment.
    fn begin(&mut self, node: NodeId) -> Result<TxnId> {
        let c = self.client(node)?;
        let id = TxnId::new(node, c.next_seq);
        c.next_seq += 1;
        c.txns.insert(
            id,
            CsaTxn {
                id,
                committed: false,
                aborted: false,
                ops: Vec::new(),
                shipped: 0,
                server_last_lsn: Lsn::ZERO,
                begun_at_server: false,
            },
        );
        Ok(id)
    }

    /// Reads a counter slot under a shared lock.
    fn read(&mut self, txn: TxnId, pid: PageId, slot: usize) -> Result<u64> {
        self.ensure_access(txn, pid, LockMode::Shared)?;
        let c = self.client(txn.node)?;
        let page = c.buffer.get_mut(pid).ok_or(Error::NoSuchPage(pid))?;
        page.read_slot(slot)
    }

    /// Writes a counter slot under an exclusive lock. The log record is
    /// buffered at the client — nothing is logged anywhere durable yet.
    fn write(&mut self, txn: TxnId, pid: PageId, slot: usize, value: u64) -> Result<()> {
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
        if t.committed || t.aborted {
            return Err(Error::TxnAborted(txn));
        }
        t.ops.push((pid, psn_before, op));
        Ok(())
    }

    /// Commits: ships the pending log records and a commit request to
    /// the server, which appends the Commit record, **forces its log**
    /// and acknowledges: one round trip and one server force per
    /// commit, the paper's §3.1 cost. The client's local locks release
    /// before the force; every commit forces the same server log, so a
    /// dependent transaction's ack implies this Commit record was
    /// durable first.
    fn commit(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        self.live_txn(txn)?;
        self.ship_pending(node, txn)?;
        self.net.send(node, SERVER, MsgKind::CommitRequest, CTRL)?;
        let prev = self.live_txn(txn)?.server_last_lsn;
        let lsn = self.log.append(&LogRecord {
            txn,
            prev_lsn: prev,
            payload: LogPayload::Commit,
        })?;
        self.live_txn(txn)?.server_last_lsn = lsn;
        self.client(node)?.local.release_all(txn);
        self.force_server_log()?;
        self.net.send(SERVER, node, MsgKind::CommitAck, CTRL)?;
        self.live_txn(txn)?.committed = true;
        Ok(())
    }

    /// Aborts: the client undoes from its buffered records; compensation
    /// records are shipped only if part of the transaction had already
    /// been shipped (eviction-forced WAL writes).
    fn abort(&mut self, txn: TxnId) -> Result<()> {
        let node = txn.node;
        let ops = self.live_txn(txn)?.ops.clone();
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
        Ok(())
    }

    fn network(&self) -> &Network {
        &self.net
    }

    /// True once `txn` has committed: this system's `commit` is
    /// synchronous, so a commit is durable when it returns.
    fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        let c = self.client(txn.node)?;
        Ok(c.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?.committed)
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
        s.write(t, pid(0), 0, 7).unwrap();
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
        s.write(t, pid(0), 0, 5).unwrap();
        s.commit(t).unwrap();
        let t2 = s.begin(NodeId(2)).unwrap();
        assert_eq!(s.read(t2, pid(0), 0).unwrap(), 5);
        s.commit(t2).unwrap();
    }

    #[test]
    fn abort_without_shipping_is_local() {
        let mut s = sys(1);
        let t0 = s.begin(NodeId(1)).unwrap();
        s.write(t0, pid(0), 0, 1).unwrap();
        s.commit(t0).unwrap();
        let recs0 = s.server_log().records_appended();
        let t = s.begin(NodeId(1)).unwrap();
        s.write(t, pid(0), 0, 99).unwrap();
        s.abort(t).unwrap();
        assert_eq!(
            s.server_log().records_appended(),
            recs0,
            "nothing shipped, nothing logged"
        );
        let t2 = s.begin(NodeId(1)).unwrap();
        assert_eq!(s.read(t2, pid(0), 0).unwrap(), 1);
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
    fn callback_ships_page_through_server() {
        let mut s = sys(2);
        let t = s.begin(NodeId(1)).unwrap();
        s.write(t, pid(0), 0, 3).unwrap();
        s.commit(t).unwrap();
        let stats0 = s.network().stats();
        let t2 = s.begin(NodeId(2)).unwrap();
        s.write(t2, pid(0), 0, 4).unwrap();
        s.commit(t2).unwrap();
        let d = s.network().stats().since(&stats0);
        assert!(d.count(MsgKind::Callback) >= 1);
        // WAL shipping happened when the dirty page moved: client 1's
        // records were already at the server (commit), so only page
        // traffic here.
        let t3 = s.begin(NodeId(1)).unwrap();
        assert_eq!(s.read(t3, pid(0), 0).unwrap(), 4);
        s.commit(t3).unwrap();
    }

    #[test]
    fn an_ended_transaction_cannot_end_again() {
        let mut s = sys(2);
        let a = s.begin(NodeId(1)).unwrap();
        s.write(a, pid(0), 0, 5).unwrap();
        s.abort(a).unwrap();
        let b = s.begin(NodeId(2)).unwrap();
        s.write(b, pid(0), 0, 7).unwrap();
        s.commit(b).unwrap();
        let recs0 = s.server_log().records_appended();
        assert!(s.abort(a).is_err(), "an aborted txn aborts once");
        assert!(s.commit(b).is_err(), "a committed txn commits once");
        assert_eq!(
            s.server_log().records_appended(),
            recs0,
            "a refused end logs nothing"
        );
        let t = s.begin(NodeId(1)).unwrap();
        assert_eq!(s.read(t, pid(0), 0).unwrap(), 7, "no undo re-applied");
        s.commit(t).unwrap();
    }

    #[test]
    fn all_log_forces_happen_at_the_server() {
        let mut s = sys(3);
        for round in 0..5u64 {
            for cid in 1..=3u32 {
                let t = s.begin(NodeId(cid)).unwrap();
                s.write(t, pid(cid - 1), 0, round).unwrap();
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
