//! A processing node: buffer pool, local WAL, DPT, lock tables,
//! transaction manager, checkpointing, and the node-local halves of the
//! recovery protocol (restart analysis, NodePSNList construction,
//! PSN-filtered replay, and all three in one log pass).
//!
//! Everything here is node-local: no method sends messages. The
//! [`crate::Cluster`] composes these pieces into the distributed
//! protocols and accounts every message.

use crate::config::NodeConfig;
use crate::recovery::group_by_key;
use crate::txn::{Savepoint, TxnState, TxnStatus};
use cblog_common::metrics::keys;
use cblog_common::{
    Counter, Decoder, Encoder, Error, Fnv1a, IdMap, Lsn, NodeId, PageId, Psn, Registry, Result,
    TxnId,
};
use cblog_locks::{CachedLockTable, GlobalLockTable, LocalLockTable};
use cblog_storage::{BufferPool, Database, EvictedPage, MemStorage, Page, PageKind};
use cblog_wal::{
    CheckpointBody, DirtyPageTable, LogManager, LogPayload, LogPayloadRef, LogRecord, LogRecordRef,
    LogStore, MemLogStore, PageOp, PageOpRef,
};
use std::collections::{BTreeMap, BTreeSet};

/// Reserved transaction id used for non-transactional records
/// (checkpoints) in a node's log.
fn system_txn(node: NodeId) -> TxnId {
    TxnId::new(node, 0)
}

/// One entry of a NodePSNList (paper §2.3.4): the PSN a page had just
/// before the first update of a transaction burst, plus where in the
/// local log replay should start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePsnEntry {
    /// The page.
    pub pid: PageId,
    /// PSN just before the burst's first update.
    pub psn: Psn,
    /// Log location of that record (replay resume point).
    pub lsn: Lsn,
    /// Transaction that wrote the burst. Replay planning uses this to
    /// order pages touched by one multi-page transaction (DESIGN §13);
    /// the replay protocol itself never reads it.
    pub txn: TxnId,
}

/// The NodePSNList rule (paper §2.3.4): an update to `pid` opens an
/// entry when its transaction is not the one that wrote the page's
/// previous entry, `last_txn`.
fn psn_list_entry(
    list: &mut Vec<NodePsnEntry>,
    last_txn: &mut Option<TxnId>,
    pid: PageId,
    psn: Psn,
    lsn: Lsn,
    txn: TxnId,
) {
    if *last_txn != Some(txn) {
        list.push(NodePsnEntry { pid, psn, lsn, txn });
        *last_txn = Some(txn);
    }
}

/// The redo records a restart pass keeps ([`Node::restart_pass`]):
/// every op's bytes end to end in one arena, in log order, and a
/// `(page, psn_before, offset)` index grouped by page. Replay applies
/// [`PageOpRef`]s read straight out of the arena; nothing is allocated
/// per record.
#[derive(Debug, Default)]
pub struct RedoRecords {
    ops: Vec<u8>,
    /// `(page, psn_before, offset in ops)`, grouped by page in
    /// ascending page order and in log order within a page.
    index: Vec<(u32, Psn, u32)>,
    /// The pages with records, ascending.
    pages: Vec<PageId>,
    /// `index[at[i]..at[i + 1]]` are the records of `pages[i]`.
    at: Vec<usize>,
}

impl RedoRecords {
    /// `pid`'s records in log order, as `(psn_before, op)`: what a
    /// PSN-filtered replay of the page applies. None for a page with no
    /// records.
    pub fn of(&self, pid: PageId) -> impl Iterator<Item = Result<(Psn, PageOpRef<'_>)>> + '_ {
        let mine = match self.pages.binary_search(&pid) {
            Ok(i) => &self.index[self.at[i]..self.at[i + 1]],
            Err(_) => &[],
        };
        mine.iter().map(|&(_, psn, at)| {
            let op = PageOpRef::decode(&mut Decoder::new(&self.ops[at as usize..]))?;
            Ok((psn, op))
        })
    }

    /// Records held, over every page.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no page has a record.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// What a restart pass collects from every Update and CLR it reads, for
/// every page: the NodePSNList and, per record, its op in one arena.
#[derive(Default)]
struct PageUpdates {
    /// Page → (its number in `ids`, the transaction of its last entry).
    pages: IdMap<PageId, (u32, Option<TxnId>)>,
    ids: Vec<PageId>,
    list: Vec<NodePsnEntry>,
    ops: Encoder,
    /// `(page number, psn_before, offset in ops)` in log order.
    index: Vec<(u32, Psn, u32)>,
}

impl PageUpdates {
    fn push(
        &mut self,
        lsn: Lsn,
        txn: TxnId,
        pid: PageId,
        psn: Psn,
        op: PageOpRef<'_>,
    ) -> Result<()> {
        let fresh = self.ids.len() as u32;
        let (page, last_txn) = self.pages.entry(pid).or_insert((fresh, None));
        if *page == fresh {
            self.ids.push(pid);
        }
        psn_list_entry(&mut self.list, last_txn, pid, psn, lsn, txn);
        let at = u32::try_from(self.ops.len())
            .map_err(|_| Error::Invalid("redo records past 4 GiB".into()))?;
        self.index.push((*page, psn, at));
        op.encode(&mut self.ops);
        Ok(())
    }

    /// Keeps the pages `dpt` names, dropping the list entries and
    /// records of the others, and groups the records by page, ascending,
    /// with a counting sort.
    fn keep(self, dpt: &DirtyPageTable) -> (Vec<NodePsnEntry>, RedoRecords) {
        let PageUpdates {
            ids,
            mut list,
            ops,
            mut index,
            ..
        } = self;
        let mut kept: Vec<(PageId, u32)> = ids
            .iter()
            .zip(0..)
            .filter(|(pid, _)| dpt.contains(**pid))
            .map(|(&pid, page)| (pid, page))
            .collect();
        kept.sort_unstable();
        let mut rank = vec![u32::MAX; ids.len()];
        for (r, &(_, page)) in kept.iter().enumerate() {
            rank[page as usize] = r as u32;
        }
        if kept.len() < ids.len() {
            list.retain(|e| dpt.contains(e.pid));
            index.retain(|e| rank[e.0 as usize] != u32::MAX);
        }
        let (index, at) = group_by_key(index, kept.len(), |e| rank[e.0 as usize]);
        let redo = RedoRecords {
            ops: ops.into_vec(),
            index,
            pages: kept.into_iter().map(|(pid, _)| pid).collect(),
            at,
        };
        (list, redo)
    }
}

/// The ARIES analysis fold (paper §2.3.1 / §2.4): what a scan from the
/// last complete checkpoint rebuilds, one record at a time — the loser
/// transaction table and a conservative DPT superset. Written once for
/// [`Node::restart_analysis`] and [`Node::restart_pass`].
#[derive(Default)]
struct Analysis {
    att: IdMap<TxnId, TxnState>,
    dpt: DirtyPageTable,
    max_seq: u64,
}

impl Analysis {
    fn fold(&mut self, node: NodeId, pos: Lsn, rec: &LogRecordRef<'_>) {
        if rec.txn.node == node {
            self.max_seq = self.max_seq.max(rec.txn.seq);
        }
        match &rec.payload {
            LogPayloadRef::Begin => {
                self.att.insert(rec.txn, TxnState::new(rec.txn, pos));
            }
            LogPayloadRef::Update {
                pid, psn_before, ..
            } => {
                let t = self
                    .att
                    .entry(rec.txn)
                    .or_insert_with(|| TxnState::new(rec.txn, pos));
                t.last_lsn = pos;
                t.undo_next = pos;
                t.updates += 1;
                self.dpt.on_update(*pid, psn_before.next(), pos);
            }
            LogPayloadRef::Clr {
                pid,
                psn_before,
                undo_next,
                ..
            } => {
                let t = self
                    .att
                    .entry(rec.txn)
                    .or_insert_with(|| TxnState::new(rec.txn, pos));
                t.last_lsn = pos;
                t.undo_next = *undo_next;
                t.status = TxnStatus::Aborting;
                self.dpt.on_update(*pid, psn_before.next(), pos);
            }
            // Abort records are written only after the rollback
            // completed, so the transaction needs no more undo.
            LogPayloadRef::Commit | LogPayloadRef::Abort => {
                self.att.remove(&rec.txn);
            }
            LogPayloadRef::CheckpointEnd(body) => {
                for e in &body.dpt {
                    if !self.dpt.contains(e.pid) {
                        self.dpt.insert(*e);
                    }
                }
                for (t, last) in &body.active_txns {
                    self.att.entry(*t).or_insert_with(|| {
                        let mut s = TxnState::new(*t, *last);
                        s.last_lsn = *last;
                        s.undo_next = *last;
                        s
                    });
                    if t.node == node {
                        self.max_seq = self.max_seq.max(t.seq);
                    }
                }
            }
            LogPayloadRef::CheckpointBegin
            | LogPayloadRef::AllocPage { .. }
            | LogPayloadRef::FreePage { .. } => {}
        }
    }

    /// Installs the rebuilt tables on `node`, every loser rolling back,
    /// and reports a scan of `[start, end)` that read `records`.
    fn install(self, node: &mut Node, start: Lsn, end: Lsn, records: u64) -> AnalysisResult {
        let mut losers: Vec<TxnId> = self.att.keys().copied().collect();
        losers.sort();
        for (id, mut t) in self.att {
            t.status = TxnStatus::Aborting;
            node.txns.insert(id, t);
        }
        node.dpt = self.dpt;
        node.next_seq = node.next_seq.max(self.max_seq + 1);
        AnalysisResult {
            losers,
            start_lsn: start,
            dpt_entries: node.dpt.len(),
            records_scanned: records,
            bytes_scanned: end.0 - start.0,
        }
    }
}

/// Summary of restart analysis (ARIES analysis pass over the local
/// log, paper §2.3.1 / §2.4).
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// Loser transactions (active or mid-rollback at crash time).
    pub losers: Vec<TxnId>,
    /// Where the scan started.
    pub start_lsn: Lsn,
    /// Number of DPT entries reconstructed.
    pub dpt_entries: usize,
    /// Number of records scanned.
    pub records_scanned: u64,
    /// Bytes of log scanned.
    pub bytes_scanned: u64,
}

/// Outcome of one rollback step (driven by the cluster because undoing
/// may require re-fetching a page from its owner, §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollbackStep {
    /// The page must be brought into the cache before undo proceeds.
    NeedPage(PageId),
    /// One update was undone (a CLR was written).
    Undone(PageId),
    /// Rollback (to the requested point) is complete.
    Done,
}

/// The state of `id` in `txns` if it may still issue operations. A
/// function of the table, not of the node, so an update path can hold
/// the entry while it works on the buffer and the log beside it.
fn active_in(txns: &mut IdMap<TxnId, TxnState>, id: TxnId) -> Result<&mut TxnState> {
    let t = txns.get_mut(&id).ok_or(Error::NoSuchTxn(id))?;
    match t.status {
        TxnStatus::Active => Ok(t),
        TxnStatus::Aborting | TxnStatus::Aborted => Err(Error::TxnAborted(id)),
        TxnStatus::Committing | TxnStatus::Committed => Err(Error::NoSuchTxn(id)),
    }
}

/// A processing node.
pub struct Node {
    id: NodeId,
    cfg: NodeConfig,
    pub(crate) db: Option<Database>,
    pub(crate) log: LogManager,
    pub(crate) buffer: BufferPool,
    pub(crate) dpt: DirtyPageTable,
    pub(crate) local_locks: LocalLockTable,
    pub(crate) cached_locks: CachedLockTable,
    pub(crate) global_locks: GlobalLockTable,
    pub(crate) txns: IdMap<TxnId, TxnState>,
    /// Owner-side: nodes that shipped dirty copies of each owned page
    /// and await a flush acknowledgment (§2.2 / §2.5).
    pub(crate) replacers: BTreeMap<PageId, BTreeSet<NodeId>>,
    /// Per-node metrics registry. Observability state is *not* part of
    /// the simulated node: it survives [`Node::crash`] so experiments
    /// can measure across failures.
    pub(crate) registry: Registry,
    next_seq: u64,
    crashed: bool,
    commits: Counter,
    aborts: Counter,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Node({} owner={} crashed={} txns={} dpt={})",
            self.id,
            self.db.is_some(),
            self.crashed,
            self.txns.len(),
            self.dpt.len()
        )
    }
}

impl Node {
    /// Builds a node with in-memory database and log. Owner nodes
    /// (owned_pages > 0) get all their pages pre-allocated as raw
    /// counter pages.
    pub fn new(id: NodeId, cfg: NodeConfig) -> Result<Self> {
        Node::with_log_store(id, cfg, Box::new(MemLogStore::new()))
    }

    /// Builds a node whose WAL lives on the caller-provided store.
    /// The threaded runtime passes a `FileLogStore` here so log forces
    /// are real `fsync`s; the simulator keeps the in-memory default.
    pub fn with_log_store(id: NodeId, cfg: NodeConfig, store: Box<dyn LogStore>) -> Result<Self> {
        let db = if cfg.owned_pages > 0 {
            let storage = Box::new(MemStorage::new(cfg.page_size));
            let mut db = Database::create(storage, id, cfg.owned_pages)?;
            for _ in 0..cfg.owned_pages {
                db.allocate_page(PageKind::Raw)?;
            }
            Some(db)
        } else {
            None
        };
        let log = match cfg.log_capacity {
            Some(cap) => LogManager::with_capacity(id, store, cap)?,
            None => LogManager::new(id, store)?,
        };
        let buffer = BufferPool::new(cfg.buffer_frames);
        // The registry observes the very cells the subsystems bump:
        // existing counters are registered as shared handles, so the
        // WAL / buffer / storage code needs no metric plumbing of its
        // own.
        let registry = Registry::new();
        registry.register_counter(keys::WAL_RECORDS, log.records_counter());
        registry.register_counter(keys::WAL_FORCES, log.forces_counter());
        registry.register_counter(keys::WAL_BYTES, log.bytes_appended_counter());
        registry.register_counter(keys::WAL_STORE_SYNCS, log.store_syncs_counter());
        registry.register_counter(keys::WAL_REPAIR_SCAN_BYTES, log.repair_scanned_counter());
        if let Some(h) = log.fsync_histogram() {
            registry.register_histogram(keys::WAL_FSYNC_US, h);
        }
        registry.register_counter(keys::BUF_HITS, buffer.hits());
        registry.register_counter(keys::BUF_MISSES, buffer.misses());
        registry.register_counter(keys::BUF_EVICTIONS, buffer.evictions());
        if let Some(db) = &db {
            registry.register_counter(keys::DB_READS, db.reads_counter());
            registry.register_counter(keys::DB_WRITES, db.writes_counter());
            registry.register_counter(keys::DB_SYNCS, db.syncs_counter());
        }
        let commits = registry.counter(keys::TXN_COMMITS);
        let aborts = registry.counter(keys::TXN_ABORTS);
        Ok(Node {
            id,
            buffer,
            db,
            log,
            dpt: DirtyPageTable::new(),
            local_locks: LocalLockTable::new(),
            cached_locks: CachedLockTable::new(),
            global_locks: GlobalLockTable::new(),
            txns: IdMap::default(),
            replacers: BTreeMap::new(),
            registry,
            next_seq: 1,
            crashed: false,
            commits,
            aborts,
            cfg,
        })
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// True between [`Node::crash`] and the start of recovery.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// True if the node owns a database.
    pub fn is_owner(&self) -> bool {
        self.db.is_some()
    }

    /// Node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// The local log.
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// Forces the entire local log (test harnesses use this to make
    /// uncommitted records durable before injecting a crash).
    pub fn force_log(&mut self) -> Result<()> {
        self.log.force_all()
    }

    /// The dirty page table.
    pub fn dpt(&self) -> &DirtyPageTable {
        &self.dpt
    }

    /// The buffer pool.
    pub fn buffer(&self) -> &BufferPool {
        &self.buffer
    }

    /// The node-level cached locks.
    pub fn cached_locks(&self) -> &CachedLockTable {
        &self.cached_locks
    }

    /// The owner-side global lock table.
    pub fn global_locks(&self) -> &GlobalLockTable {
        &self.global_locks
    }

    /// Committed-transaction count.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// Aborted-transaction count.
    pub fn aborts(&self) -> u64 {
        self.aborts.get()
    }

    /// The node's metrics registry (`subsystem/metric` names; see
    /// `cblog_common::obs`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// State of a transaction, if known.
    pub fn txn(&self, id: TxnId) -> Option<&TxnState> {
        self.txns.get(&id)
    }

    /// Ids of transactions currently active on this node.
    pub fn active_txns(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .txns
            .values()
            .filter(|t| !t.is_terminated())
            .map(|t| t.id)
            .collect();
        v.sort();
        v
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle (node-local)
    // ------------------------------------------------------------------

    /// Starts a transaction, logging its Begin record.
    pub fn begin(&mut self) -> Result<TxnId> {
        self.ensure_up()?;
        let id = TxnId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let lsn = self.log.append_ref(&LogRecordRef {
            txn: id,
            prev_lsn: Lsn::ZERO,
            payload: LogPayloadRef::Begin,
        })?;
        self.txns.insert(id, TxnState::new(id, lsn));
        Ok(id)
    }

    fn ensure_up(&self) -> Result<()> {
        if self.crashed {
            Err(Error::NodeDown(self.id))
        } else {
            Ok(())
        }
    }

    /// Applies and logs one update to a cached page, returning the
    /// page's PSN just before it and the record's LSN. Preconditions
    /// (checked): transaction active, page present in the buffer. Lock
    /// discipline is the cluster's job. This is the path of logical
    /// operations; a physical slot write goes through
    /// [`Node::log_write`].
    pub fn log_update(&mut self, txn: TxnId, pid: PageId, op: PageOp) -> Result<(Psn, Lsn)> {
        self.ensure_up()?;
        let t = active_in(&mut self.txns, txn)?;
        let (page, dirty) = self
            .buffer
            .get_for_update(pid)
            .ok_or(Error::NoSuchPage(pid))?;
        // Apply first (ops are all-or-nothing), then log; un-apply from
        // the record, which owns the op now, if the log is full, so
        // state stays consistent.
        op.apply_redo(page)?;
        let psn_before = page.psn();
        let rec = LogRecord {
            txn,
            prev_lsn: t.last_lsn,
            payload: LogPayload::Update {
                pid,
                psn_before,
                op,
            },
        };
        let lsn = match self.log.append(&rec) {
            Ok(l) => l,
            Err(e) => {
                rec.op().expect("an update record").apply_undo(page)?;
                return Err(e);
            }
        };
        page.bump_psn();
        *dirty = true;
        self.dpt.on_update(pid, psn_before.next(), lsn);
        t.logged_update(lsn);
        Ok((psn_before, lsn))
    }

    /// Writes `after` at byte `off` of a cached page's body and logs it
    /// as a physical byte-range update: what [`Node::log_update`] does
    /// for a [`PageOp::WriteRange`], record for record and byte for
    /// byte, without building one. The before-image is read out of the
    /// cached page and encoded, with `after`, straight into the log
    /// tail; the buffer, the transaction table and the DPT are probed
    /// once each. Returns the page's PSN just before the write and the
    /// record's LSN. On [`Error::LogFull`] nothing has changed.
    pub fn log_write(
        &mut self,
        txn: TxnId,
        pid: PageId,
        off: usize,
        after: &[u8],
    ) -> Result<(Psn, Lsn)> {
        self.ensure_up()?;
        let t = active_in(&mut self.txns, txn)?;
        let (page, dirty) = self
            .buffer
            .get_for_update(pid)
            .ok_or(Error::NoSuchPage(pid))?;
        let psn_before = page.psn();
        // Log first: reading the before-image has checked the range, so
        // the write below cannot fail and nothing needs un-applying.
        let lsn = self.log.append_ref(&LogRecordRef {
            txn,
            prev_lsn: t.last_lsn,
            payload: LogPayloadRef::Update {
                pid,
                psn_before,
                op: PageOpRef::WriteRange {
                    off: off as u32,
                    before: page.read_range(off, after.len())?,
                    after,
                },
            },
        })?;
        page.write_range(off, after)?;
        page.bump_psn();
        *dirty = true;
        self.dpt.on_update(pid, psn_before.next(), lsn);
        t.logged_update(lsn);
        Ok((psn_before, lsn))
    }

    /// First half of commit: appends the Commit record and parks the
    /// transaction as force-pending ([`TxnStatus::Committing`]) at the
    /// returned LSN. Transaction-level locks release here (strict 2PL
    /// held through the append; early release is safe because any
    /// same-node dependent commits through the same log — its force
    /// covers this record — and any cross-node visibility requires a
    /// page transfer, before which the engine forces this log if the
    /// image would carry an update whose commit record is not yet
    /// durable: DESIGN §16). The caller owns the force: either immediately
    /// ([`Node::commit`]) or batched by the cluster's force scheduler.
    pub fn commit_begin(&mut self, txn: TxnId) -> Result<Lsn> {
        self.ensure_up()?;
        let t = active_in(&mut self.txns, txn)?;
        let lsn = self.log.append_ref(&LogRecordRef {
            txn,
            prev_lsn: t.last_lsn,
            payload: LogPayloadRef::Commit,
        })?;
        t.status = TxnStatus::Committing;
        t.last_lsn = lsn;
        self.local_locks.release_all(txn);
        Ok(lsn)
    }

    /// Second half of commit: acknowledges a force-pending transaction
    /// whose Commit record has become durable.
    pub fn finish_commit(&mut self, txn: TxnId) -> Result<()> {
        let t = self.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
        if t.status != TxnStatus::Committing {
            return Err(Error::Protocol(format!(
                "finish_commit on {txn} in state {:?}",
                t.status
            )));
        }
        debug_assert!(
            t.last_lsn < self.log.flushed_lsn(),
            "commit record must be durable before acknowledgement"
        );
        t.status = TxnStatus::Committed;
        self.commits.bump();
        Ok(())
    }

    /// Drops a terminated transaction from the transaction table, and
    /// refuses any other: an engine that never asks about a transaction
    /// again once it has acknowledged it (the threaded runtime) calls
    /// this so that the table holds the live transactions, not every
    /// transaction the node ever ran. The simulator reads `Committed`
    /// back ([`crate::Cluster::poll_committed`]) and keeps them.
    pub fn forget(&mut self, txn: TxnId) -> Result<()> {
        match self.txns.get(&txn) {
            Some(t) if t.is_terminated() => {
                self.txns.remove(&txn);
                Ok(())
            }
            Some(t) => Err(Error::Protocol(format!(
                "forget of {txn} in state {:?}",
                t.status
            ))),
            None => Err(Error::NoSuchTxn(txn)),
        }
    }

    /// Commits: one Commit record, one local log force, zero messages
    /// (the paper's headline property). Strict 2PL: transaction-level
    /// locks release; node-level cached locks are retained.
    pub fn commit(&mut self, txn: TxnId) -> Result<()> {
        let lsn = self.commit_begin(txn)?;
        self.log.force(lsn)?;
        self.finish_commit(txn)
    }

    /// Takes a savepoint for partial rollback.
    pub fn savepoint(&mut self, txn: TxnId) -> Result<Savepoint> {
        self.ensure_up()?;
        let t = active_in(&mut self.txns, txn)?;
        Ok(Savepoint {
            txn,
            at_lsn: t.last_lsn,
        })
    }

    /// Marks a transaction as rolling back (total abort entry point).
    pub fn start_abort(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_up()?;
        let t = self.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
        match t.status {
            TxnStatus::Active | TxnStatus::Aborting => {
                t.status = TxnStatus::Aborting;
                Ok(())
            }
            _ => Err(Error::TxnAborted(txn)),
        }
    }

    /// Performs one step of rollback toward `upto` (Lsn::ZERO = total).
    /// The cluster drives the loop because undo may need a page fetched
    /// back from its owner.
    pub fn rollback_step(&mut self, txn: TxnId, upto: Lsn) -> Result<RollbackStep> {
        self.ensure_up()?;
        let (mut cursor, _last) = {
            let t = self.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
            (t.undo_next, t.last_lsn)
        };
        loop {
            if cursor.is_zero() || cursor <= upto {
                return Ok(RollbackStep::Done);
            }
            let (rec, _) = self.log.read_record(cursor)?;
            debug_assert_eq!(rec.txn, txn, "undo chain stays within the transaction");
            match rec.payload {
                LogPayload::Begin => return Ok(RollbackStep::Done),
                LogPayload::Clr { undo_next, .. } => {
                    cursor = undo_next;
                    let t = self.txns.get_mut(&txn).expect("checked");
                    t.undo_next = undo_next;
                }
                LogPayload::Update { pid, op, .. } => {
                    if !self.buffer.contains(pid) {
                        return Ok(RollbackStep::NeedPage(pid));
                    }
                    let comp = op.inverse();
                    let page = self.buffer.get_mut(pid).expect("checked");
                    comp.apply_redo(page)?;
                    let psn_before = page.psn();
                    let prev = self.txns[&txn].last_lsn;
                    let clr = LogRecord {
                        txn,
                        prev_lsn: prev,
                        payload: LogPayload::Clr {
                            pid,
                            psn_before,
                            op: comp,
                            undo_next: rec.prev_lsn,
                        },
                    };
                    let lsn = self.log.append(&clr)?;
                    let page = self.buffer.get_mut(pid).expect("checked");
                    page.bump_psn();
                    let psn_after = page.psn();
                    self.buffer.mark_dirty(pid);
                    self.dpt.on_update(pid, psn_after, lsn);
                    let t = self.txns.get_mut(&txn).expect("checked");
                    t.last_lsn = lsn;
                    t.undo_next = rec.prev_lsn;
                    return Ok(RollbackStep::Undone(pid));
                }
                ref p => {
                    return Err(Error::Protocol(format!(
                        "unexpected {p:?} on undo chain of {txn}"
                    )))
                }
            }
        }
    }

    /// Finishes a total rollback: Abort record, local lock release.
    pub fn finish_abort(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_up()?;
        let prev = {
            let t = self.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
            t.last_lsn
        };
        let lsn = self.log.append(&LogRecord {
            txn,
            prev_lsn: prev,
            payload: LogPayload::Abort,
        })?;
        let t = self.txns.get_mut(&txn).expect("checked");
        t.status = TxnStatus::Aborted;
        t.last_lsn = lsn;
        self.local_locks.release_all(txn);
        self.aborts.bump();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpointing (fuzzy, independent — paper §2.2, contribution (4))
    // ------------------------------------------------------------------

    /// Takes a fuzzy checkpoint: begin record, DPT + active-transaction
    /// snapshot, end record, force, master-record update. No pages are
    /// forced and no other node is contacted.
    pub fn checkpoint(&mut self) -> Result<Lsn> {
        self.ensure_up()?;
        let sys = system_txn(self.id);
        let begin = self.log.append(&LogRecord {
            txn: sys,
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::CheckpointBegin,
        })?;
        let body = CheckpointBody {
            dpt: self.dpt.entries(),
            // Force-pending (Committing) transactions are excluded: the
            // checkpoint's own force makes their Commit records durable,
            // so restart must not treat them as losers (their Commit
            // record precedes the checkpoint and would confuse the undo
            // chain).
            active_txns: self
                .txns
                .values()
                .filter(|t| !t.is_terminated() && t.status != TxnStatus::Committing)
                .map(|t| (t.id, t.last_lsn))
                .collect(),
        };
        let end = self.log.append(&LogRecord {
            txn: sys,
            prev_lsn: begin,
            payload: LogPayload::CheckpointEnd(body),
        })?;
        self.log.force(end)?;
        self.log.write_master(begin)?;
        Ok(begin)
    }

    /// The lowest LSN the local log must retain: min of DPT RedoLSNs,
    /// first LSNs of active transactions, and the last checkpoint.
    pub fn log_low_water(&self) -> Lsn {
        let mut low = self.log.end_lsn();
        if let Some(l) = self.dpt.min_redo_lsn() {
            low = low.min(l);
        }
        for t in self.txns.values() {
            if !t.is_terminated() {
                low = low.min(t.first_lsn);
            }
        }
        let ckpt = self.log.last_checkpoint();
        if !ckpt.is_zero() {
            low = low.min(ckpt);
        }
        low
    }

    /// Advances the log truncation point to the current low-water mark
    /// and returns it.
    pub fn truncate_log(&mut self) -> Lsn {
        let low = self.log_low_water();
        self.log.truncate(low);
        low
    }

    // ------------------------------------------------------------------
    // Buffer / page plumbing used by the cluster
    // ------------------------------------------------------------------

    /// Inserts a page into the cache; any eviction victim is returned
    /// for the cluster to route (write locally / ship to owner).
    pub fn cache_page(&mut self, page: Page, dirty: bool) -> Result<Option<EvictedPage>> {
        self.buffer.insert(page, dirty)
    }

    /// Current image of an owned page: buffer copy if cached, else the
    /// disk version. Returns `(page, did_disk_read)`.
    pub fn authoritative_copy(&mut self, pid: PageId) -> Result<(Page, bool)> {
        if pid.owner != self.id {
            return Err(Error::Protocol(format!(
                "{} asked for authoritative copy of {pid}",
                self.id
            )));
        }
        if let Some(p) = self.buffer.peek(pid) {
            return Ok((p.clone(), false));
        }
        let db = self.db.as_mut().ok_or(Error::NoSuchPage(pid))?;
        Ok((db.read_page(pid.index)?, true))
    }

    /// Serialized current image of an owned page (buffer copy if
    /// cached, else disk). Runtimes use this to cross-check final
    /// database state byte-for-byte against the sim oracle.
    pub fn page_image(&mut self, pid: PageId) -> Result<Vec<u8>> {
        Ok(self.authoritative_copy(pid)?.0.to_bytes())
    }

    /// Owner-side ingestion of a dirty page replaced from `from`'s
    /// cache (§2.1). Caller routes any eviction victim.
    pub fn receive_replaced(&mut self, from: NodeId, page: Page) -> Result<Option<EvictedPage>> {
        self.ensure_up()?;
        let pid = page.id();
        if pid.owner != self.id {
            return Err(Error::Protocol(format!(
                "{} received replaced page {pid} it does not own",
                self.id
            )));
        }
        self.replacers.entry(pid).or_default().insert(from);
        self.buffer.insert(page, true)
    }

    /// Writes an owned page image to disk, honouring the WAL rule for
    /// the node's own updates. Returns the nodes to flush-acknowledge.
    pub fn write_owned_page(&mut self, page: &Page) -> Result<Vec<NodeId>> {
        let pid = page.id();
        if self.dpt.contains(pid) {
            // Own log records may cover this image: force them first.
            self.log.force_all()?;
        }
        let db = self.db.as_mut().ok_or(Error::NoSuchPage(pid))?;
        db.write_page(page)?;
        db.sync()?;
        // Own DPT entry is satisfied by the write.
        self.dpt.remove(pid);
        self.buffer.mark_clean(pid);
        let acks = self
            .replacers
            .remove(&pid)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        Ok(acks)
    }

    /// PSN of the on-disk version of an owned page.
    pub fn disk_psn(&mut self, pid: PageId) -> Result<Psn> {
        let db = self.db.as_mut().ok_or(Error::NoSuchPage(pid))?;
        db.disk_psn(pid.index)
    }

    /// Prepares a dirty *remote* page for shipping to its owner: WAL
    /// rule (force local log), DPT replace bookkeeping. Returns the end
    /// of log remembered for §2.5.
    pub fn prepare_replace_to_owner(&mut self, pid: PageId) -> Result<Lsn> {
        self.log.force_all()?;
        let end = self.log.end_lsn();
        self.dpt.on_replace(pid, end);
        Ok(end)
    }

    /// Setup-time helper: rewrites an owned page's kind (e.g. format a
    /// slotted page before the workload starts). Not part of the
    /// transactional API.
    pub fn format_owned_page(&mut self, index: u32, kind: PageKind) -> Result<()> {
        let db = self
            .db
            .as_mut()
            .ok_or(Error::Invalid("not an owner".into()))?;
        let mut page = db.read_page(index)?;
        page.set_kind(kind);
        for b in page.body_mut() {
            *b = 0;
        }
        db.write_page(&page)?;
        if let Some(buf) = self.buffer.get_mut(page.id()) {
            *buf = page;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash and restart analysis
    // ------------------------------------------------------------------

    /// Crashes the node: volatile state (cache, lock tables, DPT,
    /// transaction table, owner-side replacer sets, unforced log tail)
    /// is lost; the database and the durable log survive. The metrics
    /// registry also survives — it models the experimenter's
    /// instruments, not the node's memory.
    pub fn crash(&mut self) {
        self.log.simulate_crash();
        self.clear_volatile();
    }

    /// Crashes the node mid-force: the first `landed` bytes of the
    /// unforced log tail reach the disk (a torn write); if `corrupt`,
    /// the last landed byte is additionally flipped, modeling a sector
    /// scribble. Restart's tail repair discards the torn suffix.
    pub fn crash_torn(&mut self, landed: u64, corrupt: bool) {
        self.log.simulate_crash_torn(landed, corrupt);
        self.clear_volatile();
    }

    fn clear_volatile(&mut self) {
        self.buffer.clear();
        self.dpt.clear();
        self.local_locks.clear();
        self.cached_locks.clear();
        self.global_locks.clear();
        self.txns.clear();
        self.replacers.clear();
        self.crashed = true;
    }

    /// Clears the crashed flag (restart begins) and repairs the log
    /// tail: a torn/corrupted suffix left by a crash mid-force is
    /// checksum-detected and truncated away so it is never replayed.
    /// Returns the number of torn bytes discarded (0 for a clean log).
    pub fn mark_restarting(&mut self) -> Result<u64> {
        self.crashed = false;
        self.repair_tail()
    }

    /// The tail repair of [`Node::mark_restarting`] alone: the crashed
    /// flag stays set, so recovery still accepts the node afterwards.
    /// Idempotent — the model checker repairs early to fingerprint the
    /// post-repair durable state before committing to a recovery run.
    pub fn repair_tail(&mut self) -> Result<u64> {
        let torn = self.log.repair_tail()?;
        if torn > 0 {
            self.registry.counter(keys::WAL_TORN_BYTES).add(torn);
        }
        Ok(torn)
    }

    /// ARIES analysis over the local log from the last complete
    /// checkpoint: rebuilds the DPT (a conservative superset) and the
    /// loser transaction table.
    pub fn restart_analysis(&mut self) -> Result<AnalysisResult> {
        let start = self.analysis_start();
        let end = self.log.end_lsn();
        let mut analysis = Analysis::default();
        let mut records = 0u64;
        let mut scan = self.log.scan(start);
        while let Some(r) = scan.next_ref() {
            let (pos, rec) = r?;
            analysis.fold(self.id, pos, &rec);
            records += 1;
        }
        Ok(analysis.install(self, start, end, records))
    }

    /// Where analysis starts: the last complete checkpoint, or the
    /// truncation point when there is none.
    fn analysis_start(&self) -> Lsn {
        let ckpt = self.log.last_checkpoint();
        if ckpt.is_zero() {
            self.log.base_lsn()
        } else {
            ckpt
        }
    }

    /// Restart in one pass over the local log (DESIGN §13): the
    /// analysis of [`Node::restart_analysis`], and the NodePSNList and
    /// redo records of every page the rebuilt DPT names, reading each
    /// record once.
    ///
    /// The master record names the last checkpoint; its end record's
    /// DPT names the lowest RedoLSN, and the pass starts at the lower of
    /// that and the checkpoint. Records from the checkpoint on go
    /// through the analysis fold; every Update and CLR of the pass
    /// enters the NodePSNList rule and the [`RedoRecords`] arena. At
    /// the end only the pages of the rebuilt DPT are kept. The result
    /// is [`Node::restart_analysis`], then [`Node::build_psn_list`] over
    /// the DPT's pages, then each page's records from the list's start:
    /// no update lies between the two starts, since a checkpoint's begin
    /// and end records are adjacent ([`Node::checkpoint`]).
    pub fn restart_pass(&mut self) -> Result<(AnalysisResult, Vec<NodePsnEntry>, RedoRecords)> {
        let ckpt = self.analysis_start();
        let base = self.log.base_lsn();
        let mut from = ckpt;
        if !self.log.last_checkpoint().is_zero() {
            // No page needs a record below the truncation point.
            let mut scan = self.log.scan(ckpt);
            while let Some(r) = scan.next_ref() {
                if let LogPayloadRef::CheckpointEnd(body) = &r?.1.payload {
                    let redo = body.dpt.iter().map(|e| e.redo_lsn);
                    from = redo.fold(from, Lsn::min).max(base);
                    break;
                }
            }
        }
        let end = self.log.end_lsn();
        let mut analysis = Analysis::default();
        let mut updates = PageUpdates::default();
        let mut records = 0u64;
        let mut scan = self.log.scan(from);
        while let Some(r) = scan.next_ref() {
            let (pos, rec) = r?;
            records += 1;
            if pos >= ckpt {
                analysis.fold(self.id, pos, &rec);
            }
            if let Some((pid, psn, op)) = rec.update() {
                updates.push(pos, rec.txn, pid, psn, op)?;
            }
        }
        let result = analysis.install(self, from, end, records);
        let (list, redo) = updates.keep(&self.dpt);
        Ok((result, list, redo))
    }

    /// Folds this node's durable state into `h`: the on-device
    /// database pages (in index order), then the durable log bytes and
    /// master record. Volatile state — buffer pool, lock tables, DPT,
    /// transaction table — is excluded, so the digest is exactly what
    /// a crash at this instant preserves.
    pub fn durable_state_hash(&mut self, h: &mut Fnv1a) -> Result<()> {
        h.write_u64(self.id.0 as u64);
        if let Some(db) = &mut self.db {
            for i in 0..db.capacity() {
                match db.read_page(i) {
                    Ok(p) => h.write(&p.to_bytes()),
                    Err(_) => h.write_u64(u64::MAX),
                }
            }
        }
        self.log.durable_hash(h)
    }

    /// Pages owned by `owner` that this node's loser transactions
    /// updated, re-derived from the local log by walking each loser's
    /// undo chain (§2.4). Under strict 2PL every such page was held
    /// exclusively at crash time, so the list reconstructs the fences
    /// a *crashed* owner lost with its lock table — the operational
    /// counterpart is `drop_shared_retain_exclusive`. Call after
    /// [`Node::restart_analysis`] has rebuilt the loser table.
    pub fn loser_page_locks(&mut self, owner: NodeId) -> Result<Vec<PageId>> {
        let losers: Vec<Lsn> = self
            .txns
            .values()
            .filter(|t| t.status == TxnStatus::Aborting)
            .map(|t| t.undo_next)
            .collect();
        let mut pages: BTreeSet<PageId> = BTreeSet::new();
        for mut cursor in losers {
            while !cursor.is_zero() {
                let (rec, _) = self.log.read_record(cursor)?;
                match rec.payload {
                    LogPayload::Update { pid, .. } => {
                        if pid.owner == owner {
                            pages.insert(pid);
                        }
                        cursor = rec.prev_lsn;
                    }
                    LogPayload::Clr { pid, undo_next, .. } => {
                        if pid.owner == owner {
                            pages.insert(pid);
                        }
                        cursor = undo_next;
                    }
                    _ => break,
                }
            }
        }
        Ok(pages.into_iter().collect())
    }

    // ------------------------------------------------------------------
    // NodePSNList construction and PSN-filtered replay (paper §2.3.4)
    // ------------------------------------------------------------------

    /// Builds this node's NodePSNList for `pages`: scans the local log
    /// from the minimum RedoLSN of the DPT entries for those pages and
    /// records (page, PSN, log location) whenever an examined record
    /// updates one of the pages and belongs to a different transaction
    /// than the previous record recorded for that page.
    pub fn build_psn_list(&mut self, pages: &[PageId]) -> Result<Vec<NodePsnEntry>> {
        let from = pages
            .iter()
            .filter_map(|p| self.dpt.get(*p).map(|e| e.redo_lsn))
            .min();
        let Some(from) = from else {
            return Ok(Vec::new());
        };
        // Page → transaction of its last entry.
        let mut last: IdMap<PageId, Option<TxnId>> = pages.iter().map(|&p| (p, None)).collect();
        let mut list = Vec::new();
        let mut scan = self.log.scan(from);
        while let Some(r) = scan.next_ref() {
            let (lsn, rec) = r?;
            if let Some((pid, psn, _)) = rec.update() {
                if let Some(last_txn) = last.get_mut(&pid) {
                    psn_list_entry(&mut list, last_txn, pid, psn, lsn, rec.txn);
                }
            }
        }
        Ok(list)
    }

    /// Replays this node's log records for `page` starting at
    /// `start_lsn`, applying each record whose stored PSN equals the
    /// page's current PSN, stopping when a record for the page carries
    /// a PSN greater than `bound` (if given). Returns `(resume_lsn,
    /// applied_count, hit_bound)`.
    pub fn replay_page(
        &mut self,
        page: &mut Page,
        start_lsn: Lsn,
        bound: Option<Psn>,
    ) -> Result<(Lsn, u64, bool)> {
        let pid = page.id();
        let end = self.log.end_lsn();
        let mut applied = 0u64;
        let mut scan = self.log.scan(start_lsn);
        while let Some(r) = scan.next_ref() {
            let (pos, rec) = r?;
            let Some((of, psn_before, op)) = rec.update() else {
                continue;
            };
            if of != pid {
                continue;
            }
            if bound.is_some_and(|b| psn_before > b) {
                return Ok((pos, applied, true));
            }
            if psn_before == page.psn() {
                op.apply_redo(page)?;
                page.set_psn(psn_before.next());
                applied += 1;
            }
        }
        Ok((end, applied, false))
    }

    /// Convenience for tests and the sim: read a u64 slot from the
    /// cached copy of a page (no locking).
    pub fn peek_slot(&self, pid: PageId, slot: usize) -> Option<u64> {
        self.buffer.peek(pid).and_then(|p| p.read_slot(slot).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(
            NodeId(0),
            NodeConfig {
                page_size: 512,
                buffer_frames: 8,
                owned_pages: 4,
                log_capacity: None,
            },
        )
        .unwrap()
    }

    fn load(n: &mut Node, idx: u32) -> PageId {
        let pid = PageId::new(n.id(), idx);
        let (page, _) = n.authoritative_copy(pid).unwrap();
        n.cache_page(page, false).unwrap();
        pid
    }

    fn upd(n: &mut Node, t: TxnId, pid: PageId, slot: usize, v: u64) {
        let before = n.buffer.peek(pid).unwrap().read_slot(slot).unwrap();
        n.log_update(
            t,
            pid,
            PageOp::WriteRange {
                off: (slot * 8) as u32,
                before: before.to_le_bytes().to_vec(),
                after: v.to_le_bytes().to_vec(),
            },
        )
        .unwrap();
    }

    #[test]
    fn update_bumps_psn_and_tracks_dpt() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        let psn0 = n.buffer.peek(pid).unwrap().psn();
        upd(&mut n, t, pid, 0, 7);
        let page = n.buffer.peek(pid).unwrap();
        assert_eq!(page.psn(), psn0.next());
        assert_eq!(page.read_slot(0).unwrap(), 7);
        let e = n.dpt().get(pid).unwrap();
        assert_eq!(e.curr_psn, psn0.next());
        assert_eq!(n.buffer.is_dirty(pid), Some(true));
    }

    #[test]
    fn commit_forces_log_once() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 1);
        upd(&mut n, t, pid, 1, 2);
        let forces0 = n.log().forces();
        n.commit(t).unwrap();
        assert_eq!(n.log().forces(), forces0 + 1);
        assert_eq!(n.txn(t).unwrap().status, TxnStatus::Committed);
        assert!(n.commits() == 1);
    }

    #[test]
    fn rollback_restores_values_and_writes_clrs() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 10);
        upd(&mut n, t, pid, 1, 20);
        let recs0 = n.log().records_appended();
        n.start_abort(t).unwrap();
        let mut undone = 0;
        loop {
            match n.rollback_step(t, Lsn::ZERO).unwrap() {
                RollbackStep::Undone(_) => undone += 1,
                RollbackStep::Done => break,
                RollbackStep::NeedPage(p) => panic!("page {p} should be cached"),
            }
        }
        n.finish_abort(t).unwrap();
        assert_eq!(undone, 2);
        // Two CLRs + one Abort record.
        assert_eq!(n.log().records_appended(), recs0 + 3);
        let page = n.buffer.peek(pid).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 0);
        assert_eq!(page.read_slot(1).unwrap(), 0);
        assert_eq!(n.txn(t).unwrap().status, TxnStatus::Aborted);
    }

    #[test]
    fn partial_rollback_to_savepoint() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 10);
        let sp = n.savepoint(t).unwrap();
        upd(&mut n, t, pid, 1, 20);
        upd(&mut n, t, pid, 2, 30);
        loop {
            match n.rollback_step(t, sp.at_lsn).unwrap() {
                RollbackStep::Done => break,
                RollbackStep::Undone(_) => {}
                RollbackStep::NeedPage(p) => panic!("page {p} should be cached"),
            }
        }
        let page = n.buffer.peek(pid).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 10, "pre-savepoint survives");
        assert_eq!(page.read_slot(1).unwrap(), 0);
        assert_eq!(page.read_slot(2).unwrap(), 0);
        // Transaction still active and usable.
        upd(&mut n, t, pid, 3, 40);
        n.commit(t).unwrap();
    }

    #[test]
    fn checkpoint_snapshots_dpt_and_att() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 5);
        let ckpt = n.checkpoint().unwrap();
        assert_eq!(n.log().last_checkpoint(), ckpt);
        // Read back the checkpoint body.
        let mut found = false;
        let end = n.log.end_lsn();
        let mut pos = ckpt;
        while pos < end {
            let (rec, next) = n.log.read_record(pos).unwrap();
            if let LogPayload::CheckpointEnd(body) = rec.payload {
                assert_eq!(body.dpt.len(), 1);
                assert_eq!(body.dpt[0].pid, pid);
                assert_eq!(body.active_txns.len(), 1);
                assert_eq!(body.active_txns[0].0, t);
                found = true;
            }
            pos = next;
        }
        assert!(found);
    }

    #[test]
    fn analysis_rebuilds_losers_and_dpt() {
        let mut n = node();
        let t1 = n.begin().unwrap();
        let t2 = n.begin().unwrap();
        let pid = load(&mut n, 0);
        let pid1 = load(&mut n, 1);
        upd(&mut n, t1, pid, 0, 1);
        upd(&mut n, t2, pid1, 0, 2);
        n.commit(t1).unwrap();
        // t2 still active; crash.
        n.crash();
        assert!(n.is_crashed());
        assert!(n.buffer().is_empty());
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        assert_eq!(a.losers, vec![t2]);
        // Both pages were updated; both must be in the rebuilt DPT.
        assert!(n.dpt().contains(pid));
        assert!(n.dpt().contains(pid1));
        // next_seq moved past t2.
        let t3 = n.begin().unwrap();
        assert!(t3.seq > t2.seq);
    }

    #[test]
    fn analysis_uses_checkpoint_dpt_for_pre_checkpoint_dirt() {
        let mut n = node();
        let t1 = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t1, pid, 0, 1);
        n.commit(t1).unwrap();
        n.checkpoint().unwrap();
        // No post-checkpoint records for pid, but the page is still
        // dirty (never written to disk): the checkpoint body must
        // resurrect the entry.
        n.crash();
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        assert!(a.losers.is_empty());
        assert!(n.dpt().contains(pid));
    }

    #[test]
    fn write_owned_page_clears_dpt_and_lists_replacers() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 9);
        n.commit(t).unwrap();
        // A remote node ships a replaced dirty copy.
        let (copy, _) = n.authoritative_copy(pid).unwrap();
        n.receive_replaced(NodeId(5), copy).unwrap();
        let page = n.buffer.peek(pid).unwrap().clone();
        let acks = n.write_owned_page(&page).unwrap();
        assert_eq!(acks, vec![NodeId(5)]);
        assert!(!n.dpt().contains(pid));
        assert_eq!(n.disk_psn(pid).unwrap(), page.psn());
        assert_eq!(n.buffer.is_dirty(pid), Some(false));
    }

    #[test]
    fn psn_list_groups_by_transaction_bursts() {
        let mut n = node();
        let pid = load(&mut n, 0);
        let t1 = n.begin().unwrap();
        upd(&mut n, t1, pid, 0, 1); // psn 1->2
        upd(&mut n, t1, pid, 0, 2); // psn 2->3
        n.commit(t1).unwrap();
        let t2 = n.begin().unwrap();
        upd(&mut n, t2, pid, 0, 3); // psn 3->4
        n.commit(t2).unwrap();
        let t3 = n.begin().unwrap();
        upd(&mut n, t3, pid, 0, 4); // psn 4->5
        n.commit(t3).unwrap();
        let list = n.build_psn_list(&[pid]).unwrap();
        let psns: Vec<Psn> = list.iter().map(|e| e.psn).collect();
        // One entry per transaction burst: first update PSNs 1, 3, 4.
        assert_eq!(psns, vec![Psn(1), Psn(3), Psn(4)]);
    }

    #[test]
    fn fused_pass_returns_the_psn_list_and_what_replay_would_read() {
        // Two pages written by interleaved transactions (one aborts,
        // so CLRs are in the log), and a third page that reaches the
        // disk before a checkpoint: the restart pass reads its records
        // but the rebuilt DPT does not name it.
        let mut n = node();
        let pages = [load(&mut n, 0), load(&mut n, 1)];
        let other = load(&mut n, 2);
        for round in 0..6u64 {
            let t = n.begin().unwrap();
            upd(&mut n, t, pages[(round % 2) as usize], 0, 10 + round);
            upd(&mut n, t, other, 0, round);
            upd(&mut n, t, pages[((round + 1) % 2) as usize], 1, 20 + round);
            if round == 3 {
                n.start_abort(t).unwrap();
                while n.rollback_step(t, Lsn::ZERO).unwrap() != RollbackStep::Done {}
                n.finish_abort(t).unwrap();
            } else {
                n.commit(t).unwrap();
            }
        }
        let image = n.buffer.peek(other).unwrap().clone();
        n.write_owned_page(&image).unwrap();
        n.checkpoint().unwrap();
        let t = n.begin().unwrap();
        upd(&mut n, t, pages[1], 2, 99);
        n.commit(t).unwrap();
        n.crash();
        n.mark_restarting().unwrap();

        let (a, list, redo) = n.restart_pass().unwrap();
        assert!(a.losers.is_empty());
        assert!(
            a.start_lsn < n.log().last_checkpoint(),
            "starts at a RedoLSN"
        );
        assert_eq!(n.dpt().entries().len(), 2);
        assert!(!n.dpt().contains(other) && list.iter().all(|e| e.pid != other));
        assert!(redo.of(other).next().is_none());
        assert_eq!(list, n.build_psn_list(&pages).unwrap());
        let mut kept = 0;
        for pid in pages {
            let records: Vec<(Psn, PageOp)> = redo
                .of(pid)
                .map(|r| r.map(|(psn, op)| (psn, op.to_owned())))
                .collect::<Result<_>>()
                .unwrap();
            kept += records.len();
            let first = list.iter().find(|e| e.pid == pid).unwrap();
            assert_eq!(records[0].0, first.psn, "starts at the page's first entry");
            let disk = n.db.as_mut().unwrap().read_page(pid.index).unwrap();
            let mut by_log = disk.clone();
            let (_, applied, _) = n.replay_page(&mut by_log, first.lsn, None).unwrap();
            let mut by_arena = disk;
            for (psn_before, op) in &records {
                if *psn_before == by_arena.psn() {
                    op.apply_redo(&mut by_arena).unwrap();
                    by_arena.set_psn(psn_before.next());
                }
            }
            assert_eq!(applied, records.len() as u64);
            assert_eq!(by_arena.to_bytes(), by_log.to_bytes());
        }
        assert_eq!(redo.len(), kept, "nothing is kept for a page not asked for");
    }

    /// One page's redo records, owned, in log order.
    type PageRedo = Vec<(Psn, PageOp)>;

    /// What recovery then does on a restarted node: two passes, analysis
    /// and then the NodePSNList over the rebuilt DPT, plus each page's
    /// records from the list's start, read back one at a time.
    fn two_passes(n: &mut Node) -> (Vec<TxnId>, Vec<NodePsnEntry>, Vec<PageRedo>) {
        let losers = n.restart_analysis().unwrap().losers;
        let pages: Vec<PageId> = n.dpt().entries().iter().map(|e| e.pid).collect();
        let list = n.build_psn_list(&pages).unwrap();
        let mut redo = vec![Vec::new(); pages.len()];
        let mut at = n.dpt().min_redo_lsn().unwrap();
        while at < n.log().end_lsn() {
            let (rec, next) = n.log.read_record(at).unwrap();
            if let Some(i) = rec.page().and_then(|p| pages.iter().position(|&q| q == p)) {
                redo[i].push((rec.psn_before().unwrap(), rec.op().unwrap().clone()));
            }
            at = next;
        }
        (losers, list, redo)
    }

    #[test]
    fn one_restart_pass_equals_analysis_then_the_psn_list_pass() {
        // The threaded engine's shape on its second restart: the first
        // one rolled a loser back with CLRs and checkpointed, so the
        // checkpoint's DPT names a RedoLSN below the checkpoint.
        let mut n = node();
        let pages: Vec<PageId> = (0..4).map(|i| load(&mut n, i)).collect();
        for round in 0..8u64 {
            let t = n.begin().unwrap();
            upd(&mut n, t, pages[(round % 4) as usize], 0, round);
            upd(&mut n, t, pages[((round + 1) % 4) as usize], 1, round);
            n.commit(t).unwrap();
        }
        let loser = n.begin().unwrap();
        upd(&mut n, loser, pages[2], 3, 77);
        upd(&mut n, loser, pages[3], 3, 78);
        n.force_log().unwrap();
        n.crash();
        n.mark_restarting().unwrap();
        let (a, _, _) = n.restart_pass().unwrap();
        assert_eq!(a.losers, vec![loser]);
        loop {
            match n.rollback_step(loser, Lsn::ZERO).unwrap() {
                RollbackStep::Done => break,
                RollbackStep::NeedPage(pid) => {
                    let (page, _) = n.authoritative_copy(pid).unwrap();
                    n.cache_page(page, false).unwrap();
                }
                RollbackStep::Undone(_) => {}
            }
        }
        n.finish_abort(loser).unwrap();
        n.force_log().unwrap();
        let ckpt = n.checkpoint().unwrap();
        // The next life: more work, a loser left durable, a crash.
        for &pid in &pages {
            if !n.buffer.contains(pid) {
                load(&mut n, pid.index);
            }
        }
        for round in 0..6u64 {
            let t = n.begin().unwrap();
            upd(&mut n, t, pages[(round % 3) as usize], 4, 100 + round);
            n.commit(t).unwrap();
        }
        let loser = n.begin().unwrap();
        upd(&mut n, loser, pages[1], 5, 500);
        n.force_log().unwrap();
        n.crash();

        n.mark_restarting().unwrap();
        let (a, list, redo) = n.restart_pass().unwrap();
        let dpt = n.dpt().entries();
        assert!(a.start_lsn < ckpt, "the pass starts below the checkpoint");
        assert!(dpt.iter().any(|e| e.redo_lsn < ckpt));
        n.crash();
        n.mark_restarting().unwrap();
        let (losers, want_list, want_redo) = two_passes(&mut n);
        assert_eq!(a.losers, vec![loser]);
        assert_eq!(a.losers, losers);
        assert_eq!(dpt, n.dpt().entries());
        assert_eq!(list, want_list);
        for (e, want) in dpt.iter().zip(&want_redo) {
            let got: Vec<(Psn, PageOp)> = redo
                .of(e.pid)
                .map(|r| r.map(|(psn, op)| (psn, op.to_owned())))
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(&got, want, "{}", e.pid);
        }
        assert_eq!(redo.len(), want_redo.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn replay_page_applies_only_matching_psns_and_honours_bound() {
        let mut n = node();
        let pid = load(&mut n, 0);
        let t1 = n.begin().unwrap();
        upd(&mut n, t1, pid, 0, 11); // psn 1->2
        upd(&mut n, t1, pid, 1, 22); // psn 2->3
        upd(&mut n, t1, pid, 2, 33); // psn 3->4
        n.commit(t1).unwrap();
        // Rebuild from the disk version (psn 1, all zeros).
        let mut page = {
            let db = n.db.as_mut().unwrap();
            db.read_page(0).unwrap()
        };
        assert_eq!(page.psn(), Psn(1));
        let start = Lsn(8);
        // Bound at PSN 2: apply records with psn_before <= 2.
        let (resume, applied, hit) = n.replay_page(&mut page, start, Some(Psn(2))).unwrap();
        assert!(hit);
        assert_eq!(applied, 2);
        assert_eq!(page.psn(), Psn(3));
        assert_eq!(page.read_slot(0).unwrap(), 11);
        assert_eq!(page.read_slot(1).unwrap(), 22);
        assert_eq!(page.read_slot(2).unwrap(), 0);
        // Continue without bound.
        let (_, applied2, hit2) = n.replay_page(&mut page, resume, None).unwrap();
        assert!(!hit2);
        assert_eq!(applied2, 1);
        assert_eq!(page.read_slot(2).unwrap(), 33);
        // Replaying again is a no-op (PSN filter).
        let (_, applied3, _) = n.replay_page(&mut page, start, None).unwrap();
        assert_eq!(applied3, 0);
    }

    #[test]
    fn crash_loses_unforced_commits_work_is_in_log_only_after_force() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 77);
        // No commit: crash loses the tail.
        let recs = n.log().records_appended();
        assert!(recs >= 2);
        n.crash();
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        // Unforced records vanished; nothing to analyze.
        assert_eq!(a.records_scanned, 0);
        assert!(a.losers.is_empty());

        // Group-commit window: a transaction whose commit_begin ran
        // but whose force is still pending is lost the same way. Its
        // durable updates make it a loser; the unforced Commit record
        // never reached the disk, so restart rolls it back.
        let t2 = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t2, pid, 0, 88);
        n.force_log().unwrap();
        let commit_lsn = n.commit_begin(t2).unwrap();
        assert!(
            commit_lsn >= n.log().flushed_lsn(),
            "commit record still volatile while force-pending"
        );
        n.crash();
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        assert_eq!(a.losers, vec![t2], "force-pending commit is a loser");
    }

    #[test]
    fn log_write_logs_what_log_update_logs() {
        // The same three writes through each entry point, on two nodes:
        // the logs must hold the same bytes and the nodes the same
        // page, DPT and transaction state.
        let run = |borrowed: bool| {
            let mut n = node();
            let pid = load(&mut n, 0);
            let t = n.begin().unwrap();
            let mut edges = Vec::new();
            for (slot, v) in [(0usize, 7u64), (3, 9), (0, 11)] {
                let psn = n.buffer.peek(pid).unwrap().psn();
                let edge = if borrowed {
                    n.log_write(t, pid, slot * 8, &v.to_le_bytes()).unwrap()
                } else {
                    let before = n.peek_slot(pid, slot).unwrap();
                    let op = PageOp::WriteRange {
                        off: (slot * 8) as u32,
                        before: before.to_le_bytes().to_vec(),
                        after: v.to_le_bytes().to_vec(),
                    };
                    n.log_update(t, pid, op).unwrap()
                };
                assert_eq!(edge.0, psn, "the PSN before the update");
                assert_eq!(edge.1, n.txn(t).unwrap().last_lsn);
                edges.push(edge);
            }
            let state = n.txn(t).unwrap().clone();
            n.commit(t).unwrap();
            let mut h = Fnv1a::new();
            n.log.durable_hash(&mut h).unwrap();
            let page = n.buffer.peek(pid).unwrap().to_bytes();
            let dirty = n.buffer.is_dirty(pid);
            let dpt = n.dpt().entries();
            (
                edges,
                h.finish(),
                page,
                dirty,
                dpt,
                state.updates,
                state.undo_next,
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn log_write_checks_what_log_update_checks() {
        let mut n = node();
        let pid = load(&mut n, 0);
        let t = n.begin().unwrap();
        let v = 5u64.to_le_bytes();
        let absent = PageId::new(n.id(), 3);
        assert!(matches!(n.log_write(t, absent, 0, &v), Err(Error::NoSuchPage(p)) if p == absent));
        assert!(matches!(
            n.log_write(t, pid, 512, &v),
            Err(Error::Invalid(_))
        ));
        assert_eq!(n.log().records_appended(), 1, "only the Begin record");
        assert_eq!(n.buffer.is_dirty(pid), Some(false));
        n.log_write(t, pid, 0, &v).unwrap();
        n.commit(t).unwrap();
        assert!(matches!(
            n.log_write(t, pid, 0, &v),
            Err(Error::NoSuchTxn(_))
        ));
        n.crash();
        assert!(matches!(
            n.log_write(t, pid, 0, &v),
            Err(Error::NodeDown(_))
        ));
    }

    #[test]
    fn forget_takes_terminated_transactions_only() {
        let mut n = node();
        let pid = load(&mut n, 0);
        let (t1, t2) = (n.begin().unwrap(), n.begin().unwrap());
        n.log_write(t1, pid, 0, &1u64.to_le_bytes()).unwrap();
        assert!(matches!(n.forget(t1), Err(Error::Protocol(_))), "active");
        n.commit_begin(t1).unwrap();
        assert!(matches!(n.forget(t1), Err(Error::Protocol(_))), "parked");
        n.force_log().unwrap();
        n.finish_commit(t1).unwrap();
        n.forget(t1).unwrap();
        assert!(n.txn(t1).is_none());
        assert!(matches!(n.forget(t1), Err(Error::NoSuchTxn(_))));
        n.start_abort(t2).unwrap();
        assert!(matches!(n.forget(t2), Err(Error::Protocol(_))), "aborting");
        n.finish_abort(t2).unwrap();
        n.forget(t2).unwrap();
        assert_eq!((n.commits(), n.aborts()), (1, 1), "the tallies stay");
        // A checkpoint no longer has anybody to list or to filter out.
        n.checkpoint().unwrap();
        assert!(n.active_txns().is_empty());
    }

    #[test]
    fn rollback_inside_a_long_unforced_tail() {
        // ~2 000 records of other transactions in the tail, none
        // forced; the last transaction rolls back its 16 writes. Every
        // undo read is a point read above `tail_start`.
        let mut n = node();
        let pid = load(&mut n, 0);
        let other = load(&mut n, 1);
        for i in 0..500u64 {
            let t = n.begin().unwrap();
            n.log_write(t, other, 0, &i.to_le_bytes()).unwrap();
            n.log_write(t, other, 8, &i.to_le_bytes()).unwrap();
            n.commit_begin(t).unwrap();
        }
        let t = n.begin().unwrap();
        for slot in 0..16usize {
            let v = (100 + slot as u64).to_le_bytes();
            n.log_write(t, pid, slot * 8, &v).unwrap();
        }
        assert_eq!(n.log().flushed_lsn(), Lsn(8));
        assert_eq!(n.log().tail_record_sizes().len(), 2017);
        n.start_abort(t).unwrap();
        let mut undone = 0;
        while n.rollback_step(t, Lsn::ZERO).unwrap() != RollbackStep::Done {
            undone += 1;
        }
        n.finish_abort(t).unwrap();
        assert_eq!(undone, 16);
        assert_eq!(n.log().tail_record_sizes().len(), 2017 + 16 + 1);
        for slot in 0..16 {
            assert_eq!(n.peek_slot(pid, slot), Some(0));
        }
        assert_eq!(n.peek_slot(other, 0), Some(499));
    }

    #[test]
    fn diskless_node_has_no_database() {
        let n = Node::new(
            NodeId(3),
            NodeConfig {
                owned_pages: 0,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        assert!(!n.is_owner());
    }

    #[test]
    fn operations_rejected_while_crashed() {
        let mut n = node();
        n.crash();
        assert!(matches!(n.begin(), Err(Error::NodeDown(_))));
        assert!(matches!(n.checkpoint(), Err(Error::NodeDown(_))));
    }

    #[test]
    fn log_full_unapplies_update() {
        let mut n = Node::new(
            NodeId(0),
            NodeConfig {
                page_size: 512,
                buffer_frames: 8,
                owned_pages: 2,
                log_capacity: Some(256),
            },
        )
        .unwrap();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        let mut hit_full = false;
        for i in 0..100 {
            let before = n.buffer.peek(pid).unwrap().read_slot(0).unwrap();
            let r = n.log_update(
                t,
                pid,
                PageOp::WriteRange {
                    off: 0,
                    before: before.to_le_bytes().to_vec(),
                    after: (i as u64 + 1).to_le_bytes().to_vec(),
                },
            );
            if let Err(Error::LogFull(_)) = r {
                // Page value must be unchanged by the failed update.
                assert_eq!(n.buffer.peek(pid).unwrap().read_slot(0).unwrap(), before);
                hit_full = true;
                break;
            }
            r.unwrap();
        }
        assert!(hit_full, "bounded log must fill");
        // The borrowed path logs before it applies: the same refusal,
        // and neither the page nor its PSN nor the tail has moved.
        let (psn, tail) = (n.buffer.peek(pid).unwrap().psn(), n.log().tail_bytes());
        let before = n.peek_slot(pid, 1);
        let r = n.log_write(t, pid, 8, &77u64.to_le_bytes());
        assert!(matches!(r, Err(Error::LogFull(_))));
        assert_eq!(n.peek_slot(pid, 1), before);
        assert_eq!(n.buffer.peek(pid).unwrap().psn(), psn);
        assert_eq!(n.log().tail_bytes(), tail);
    }
}
