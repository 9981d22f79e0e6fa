//! A processing node: buffer pool, local WAL, DPT, lock tables,
//! transaction manager, checkpointing, and the node-local half of the
//! recovery protocol: one log collector whose per-record callback
//! either keeps the NodePSNList and the redo records of a set of pages
//! for the simulator's replay, or, on a node whose pages only its own
//! log updates, redoes them through the PSN filter as it reads; restart
//! analysis folds into either on a restarting node.
//!
//! Everything here is node-local: no method sends messages. The
//! receiving end of each cross-node exchange is a handler here, named
//! `on_` and the message it answers, which takes this node alone and
//! returns what its caller branches on. The [`crate::Cluster`] is the
//! router: it accounts every message and calls the receiver's handler.

use crate::config::NodeConfig;
use crate::recovery::group_by_key;
use crate::txn::{Savepoint, TxnState, TxnStatus};
use cblog_common::metrics::keys;
use cblog_common::{
    Counter, Decoder, Error, Fnv1a, IdMap, Lsn, NodeId, PageId, Psn, Registry, Result, TxnId,
};
use cblog_locks::{
    answer_callback, CachedLockTable, CallbackAction, GlobalLockTable, GlobalRequestOutcome,
    LocalLockTable, LockMode,
};
use cblog_storage::{BufferPool, Database, EvictedPage, MemStorage, Page, PageKind};
use cblog_wal::{
    CheckpointBody, DirtyPageTable, LogManager, LogPayload, LogPayloadRef, LogRecord, LogRecordRef,
    LogStore, MemLogStore, PageOp, PageOpRef,
};
use std::collections::hash_map::Entry;
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
    /// Log location of that record: the paper's replay resume point.
    /// Replay here resumes at the entry's PSN in the node's collected
    /// records instead ([`RedoRecords::replay`]).
    pub lsn: Lsn,
    /// Transaction that wrote the burst: a new entry opens where the
    /// page's writer changes. Replay orders nothing by it (DESIGN §13).
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

/// The redo records a simulator log collection keeps
/// ([`Node::restart_pass`], [`Node::psn_list`]): every op's bytes end to
/// end in one arena, in log order, copied verbatim from the log, and a
/// `(page, psn_before, offset)` index grouped by page. A replay hop
/// ([`RedoRecords::replay`]) applies [`PageOpRef`]s read straight out
/// of the arena; nothing is allocated per record. The threaded engine
/// keeps none: it redoes as it reads ([`Node::restart_redo`]).
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
    /// `pid`'s index entries in log order; empty for a page with no
    /// records.
    fn records(&self, pid: PageId) -> &[(u32, Psn, u32)] {
        match self.pages.binary_search(&pid) {
            Ok(i) => &self.index[self.at[i]..self.at[i + 1]],
            Err(_) => &[],
        }
    }

    /// The PSN filter (paper §2.3.2, §2.3.4): replays `page`'s records
    /// from its first at or past PSN `from`, applying each whose PSN the
    /// page has, and stops before the first that is past `bound`, the
    /// end of the hop's interval. A page's records in one log carry
    /// ascending PSNs, since each update raises the PSN of the copy its
    /// node holds. Returns how many records applied.
    pub fn replay(&self, page: &mut Page, from: Psn, bound: Option<Psn>) -> Result<u64> {
        let mine = self.records(page.id());
        let start = mine.partition_point(|&(_, p, _)| p < from);
        let mut applied = 0;
        for &(_, psn_before, at) in &mine[start..] {
            if bound.is_some_and(|b| psn_before > b) {
                break;
            }
            if psn_before != page.psn() {
                continue;
            }
            PageOpRef::decode(&mut Decoder::new(&self.ops[at as usize..]))?.apply_redo(page)?;
            page.set_psn(psn_before.next());
            applied += 1;
        }
        Ok(applied)
    }

    /// `pid`'s records in log order, as `(psn_before, op)`.
    #[cfg(test)]
    pub(crate) fn of(
        &self,
        pid: PageId,
    ) -> impl Iterator<Item = Result<(Psn, PageOpRef<'_>)>> + '_ {
        self.records(pid).iter().map(|&(_, psn, at)| {
            let op = PageOpRef::decode(&mut Decoder::new(&self.ops[at as usize..]))?;
            Ok((psn, op))
        })
    }
}

/// Records a log collection reads before it sizes its arrays for the
/// rest of its range ([`PageUpdates::reserve_rest`]).
const SIZING_SAMPLE: u64 = 1024;

/// What the simulator's log collections ([`Node::restart_pass`],
/// [`Node::psn_list`]) keep from every Update and CLR they read, for
/// every page: per record, its op in one arena, and the NodePSNList.
#[derive(Default)]
struct PageUpdates {
    /// Page → its number in `ids`.
    pages: IdMap<PageId, u32>,
    ids: Vec<PageId>,
    /// The NodePSNList.
    list: Vec<NodePsnEntry>,
    /// By page number, the transaction of each page's last list entry.
    last: Vec<Option<TxnId>>,
    /// Every op's bytes as the log holds them ([`PageOpRef::encode`]'s
    /// output), end to end.
    ops: Vec<u8>,
    /// `(page number, psn_before, offset in ops)` in log order.
    index: Vec<(u32, Psn, u32)>,
    /// The range `[from, end)` the collection reads, and the records
    /// entered so far: at [`SIZING_SAMPLE`] the arrays are sized for
    /// the rest ([`PageUpdates::reserve_rest`]).
    from: Lsn,
    end: Lsn,
    read: u64,
}

impl PageUpdates {
    /// An empty collection of a scan of `[from, end)`.
    fn new(from: Lsn, end: Lsn) -> Self {
        PageUpdates {
            from,
            end,
            ..PageUpdates::default()
        }
    }

    /// Reserves for the `left` bytes of a scan whose first `read` bytes
    /// filled these arrays, at the rate they filled plus an eighth: over
    /// a log whose records look alike, nothing is copied to grow again,
    /// and little is reserved that is not filled. A reservation the
    /// allocator refuses leaves an array to grow as it fills.
    fn reserve_rest(&mut self, read: u64, left: u64) {
        let scale = 1.125 * left as f64 / read.max(1) as f64;
        let more = |len: usize| (len as f64 * scale) as usize;
        let _ = self.list.try_reserve_exact(more(self.list.len()));
        let _ = self.index.try_reserve_exact(more(self.index.len()));
        let _ = self.ops.try_reserve_exact(more(self.ops.len()));
    }

    /// The collection's callback ([`collect`]): enters the record at
    /// `pos`, read from `frame`, if it is an Update or CLR.
    fn enter(&mut self, pos: Lsn, frame: &[u8], rec: &LogRecordRef<'_>) -> Result<()> {
        self.read += 1;
        if self.read == SIZING_SAMPLE {
            self.reserve_rest(pos.0 - self.from.0, self.end.0 - pos.0);
        }
        if let Some((pid, psn, op)) = rec.update() {
            // The op is its record's last field: the frame's tail.
            let op = &frame[frame.len() - op.encoded_len()..];
            self.push(pos, rec.txn, pid, psn, op)?;
        }
        Ok(())
    }

    /// Enters one Update or CLR; `op` is its op's encoded bytes, copied
    /// as they are.
    fn push(&mut self, lsn: Lsn, txn: TxnId, pid: PageId, psn: Psn, op: &[u8]) -> Result<()> {
        let fresh = self.ids.len() as u32;
        let page = *self.pages.entry(pid).or_insert(fresh);
        if page == fresh {
            self.ids.push(pid);
            self.last.push(None);
        }
        let last = &mut self.last[page as usize];
        psn_list_entry(&mut self.list, last, pid, psn, lsn, txn);
        let at = u32::try_from(self.ops.len())
            .map_err(|_| Error::Invalid("redo records past 4 GiB".into()))?;
        self.index.push((page, psn, at));
        self.ops.extend_from_slice(op);
        Ok(())
    }

    /// Keeps the pages `wanted` accepts, dropping the list entries and
    /// records of the others, and groups the records by page, ascending,
    /// with a counting sort.
    fn keep(self, wanted: impl Fn(PageId) -> bool) -> (Vec<NodePsnEntry>, RedoRecords) {
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
            .filter(|(pid, _)| wanted(**pid))
            .map(|(&pid, page)| (pid, page))
            .collect();
        kept.sort_unstable();
        let mut rank = vec![u32::MAX; ids.len()];
        for (r, &(_, page)) in kept.iter().enumerate() {
            rank[page as usize] = r as u32;
        }
        if kept.len() < ids.len() {
            list.retain(|e| wanted(e.pid));
            index.retain(|e| rank[e.0 as usize] != u32::MAX);
        }
        let (index, at) = group_by_key(&index, kept.len(), |e| rank[e.0 as usize]);
        let redo = RedoRecords {
            ops,
            index,
            pages: kept.into_iter().map(|(pid, _)| pid).collect(),
            at,
        };
        (list, redo)
    }
}

/// The ARIES analysis fold (paper §2.3.1 / §2.4): what a scan from the
/// last complete checkpoint rebuilds, one record at a time — the loser
/// transaction table and a conservative DPT superset, folded into the
/// restart collections ([`Node::restart_redo`], [`Node::restart_pass`]).
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
                self.att
                    .entry(rec.txn)
                    .or_insert_with(|| TxnState::new(rec.txn, pos))
                    .logged_update(pos);
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
            LogPayloadRef::CheckpointBegin => {}
        }
    }

    /// Installs the rebuilt tables on `node`, every loser rolling back,
    /// and reports a scan of `[start, end)`.
    fn install(self, node: &mut Node, start: Lsn, end: Lsn) -> AnalysisResult {
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
    /// Bytes of log scanned.
    pub bytes_scanned: u64,
}

/// One page as [`Node::restart_redo`] leaves it: its disk image with
/// every record of the node's log that the PSN filter accepted applied.
#[derive(Clone, Debug)]
pub struct RedoImage {
    /// The redone image.
    pub page: Page,
    /// The PSN of the disk image redo started from.
    pub disk_psn: Psn,
    /// Records applied to it.
    pub applied: u64,
}

/// Refuses an Update or CLR at `lsn` of a page that a node whose
/// database holds `capacity` pages does not hold: its log may update
/// only pages it owns, or redo would write another node's page.
fn own_page(node: NodeId, capacity: u32, pid: PageId, lsn: Lsn) -> Result<()> {
    if pid.owner != node || pid.index >= capacity {
        return Err(Error::Corrupt(format!(
            "{node}'s log updates {pid}, which its database does not hold, at LSN {}",
            lsn.0
        )));
    }
    Ok(())
}

/// `pid`'s image in `db`, where its redo starts.
fn disk_image(db: &mut Option<Database>, pid: PageId) -> Result<RedoImage> {
    let page = db
        .as_mut()
        .ok_or(Error::NoSuchPage(pid))?
        .read_page(pid.index)?;
    Ok(RedoImage {
        disk_psn: page.psn(),
        page,
        applied: 0,
    })
}

/// The one log collector (DESIGN §13): reads `[from, end)` of `log`
/// once and hands every record, with its LSN and the frame it was
/// decoded from, to `each`, stopping at the first error either returns.
/// A function of the log alone, so that `each` may borrow the rest of
/// the node.
fn collect(
    log: &mut LogManager,
    from: Lsn,
    mut each: impl FnMut(Lsn, &[u8], &LogRecordRef<'_>) -> Result<()>,
) -> Result<()> {
    let mut scan = log.scan(from);
    while let Some(r) = scan.next_framed() {
        let (pos, frame, rec) = r?;
        each(pos, frame, &rec)?;
    }
    Ok(())
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

/// One step back along `txn`'s log chain, from the record at `at`,
/// which `writer` wrote, to `next`. A chain moves strictly backward
/// within its transaction; any other step is a corrupt log, and a walk
/// that took it would loop or undo another transaction's update.
fn chain_step(txn: TxnId, at: Lsn, writer: TxnId, next: Lsn) -> Result<Lsn> {
    if writer != txn || next >= at {
        return Err(Error::Corrupt(format!(
            "log chain of {txn} leaves it or does not move backward at LSN {}",
            at.0
        )));
    }
    Ok(next)
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
            db.allocate_pages(PageKind::Raw, cfg.owned_pages)?;
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

    /// Committed-transaction count.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// The node's metrics registry (`subsystem/metric` names; see
    /// `cblog_common::obs`).
    pub fn registry(&self) -> &Registry {
        &self.registry
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
    /// durable: DESIGN §16). The caller owns the force: either at once
    /// or batched by the cluster's force scheduler.
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

    /// Ends `txn` as committed once the server holds its Commit record
    /// (the client-server paradigm): the status becomes `Committed` and
    /// the transaction-level locks release. No record is written here.
    pub(crate) fn commit_at_server(&mut self, txn: TxnId) -> Result<()> {
        let t = active_in(&mut self.txns, txn)?;
        t.status = TxnStatus::Committed;
        self.local_locks.release_all(txn);
        self.commits.bump();
        Ok(())
    }

    /// Refuses `txn` unless it may still issue operations: an aborted
    /// transaction is `TxnAborted`, a committed one `NoSuchTxn`.
    pub(crate) fn check_active(&mut self, txn: TxnId) -> Result<()> {
        active_in(&mut self.txns, txn).map(drop)
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
    #[cfg(test)]
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
            let next = match rec.payload {
                LogPayload::Clr { undo_next, .. } => undo_next,
                _ => rec.prev_lsn,
            };
            let next = chain_step(txn, cursor, rec.txn, next)?;
            match rec.payload {
                LogPayload::Begin => return Ok(RollbackStep::Done),
                LogPayload::Clr { .. } => {
                    cursor = next;
                    let t = self.txns.get_mut(&txn).expect("checked");
                    t.undo_next = next;
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
                            undo_next: next,
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
                    t.undo_next = next;
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

    /// The records of `txn` logged after `after`, oldest first, read
    /// back along its `prev_lsn` chain (`Lsn::ZERO` reads them all).
    pub(crate) fn txn_records(&mut self, txn: TxnId, after: Lsn) -> Result<Vec<LogRecord>> {
        let mut lsn = self.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?.last_lsn;
        let mut out = Vec::new();
        while lsn > after {
            let (rec, _) = self.log.read_record(lsn)?;
            lsn = chain_step(txn, lsn, rec.txn, rec.prev_lsn)?;
            out.push(rec);
        }
        out.reverse();
        Ok(out)
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

    /// The cached dirty copy of remote page `pid`, for its owner; the
    /// page stays cached here but clean. Serves a callback and a §2.5
    /// force request; the caller meets the WAL rule and delivers the
    /// copy.
    pub fn ship_to_owner(&mut self, pid: PageId) -> Result<Page> {
        let copy = self.buffer.peek(pid).ok_or(Error::NoSuchPage(pid))?.clone();
        self.buffer.mark_clean(pid);
        Ok(copy)
    }

    /// The victim's side of a callback on `pid` (paper §2.2).
    /// `Ok(Err(holders))`: local transactions defer it
    /// ([`answer_callback`]). `Ok(Ok(copy))`: the cached lock was
    /// demoted or released, and `copy` is the dirty image to return to
    /// the owner once the caller has met the WAL rule. The owner keeps
    /// its copy, since its buffer is where the authoritative image
    /// lives; elsewhere a released page leaves the cache.
    pub fn on_callback(
        &mut self,
        pid: PageId,
        action: CallbackAction,
    ) -> Result<std::result::Result<Option<Page>, Vec<TxnId>>> {
        if let Err(holders) =
            answer_callback(&self.local_locks, &mut self.cached_locks, pid, action)
        {
            return Ok(Err(holders));
        }
        if pid.owner == self.id {
            return Ok(Ok(None));
        }
        let copy = match self.buffer.is_dirty(pid) {
            Some(true) => Some(self.ship_to_owner(pid)?),
            _ => None,
        };
        if action == CallbackAction::Release {
            self.buffer.remove(pid);
        }
        Ok(Ok(copy))
    }

    /// The owner's side of a `LockRequest` from `from` for `mode` on
    /// `pid` (paper §2.2): granted, or the callbacks to run first.
    pub(crate) fn on_lock_request(
        &mut self,
        pid: PageId,
        from: NodeId,
        mode: LockMode,
    ) -> GlobalRequestOutcome {
        self.global_locks.request(pid, from, mode)
    }

    /// The requester's side of a `LockGrant`: the node caches the lock
    /// across transactions until a callback takes it back.
    pub(crate) fn on_lock_grant(&mut self, pid: PageId, mode: LockMode) {
        self.cached_locks.grant(pid, mode);
    }

    /// The owner's side of a `CallbackAck` from `victim`: the owner's
    /// table records the demotion or release `action` it asked for.
    pub(crate) fn on_callback_ack(&mut self, pid: PageId, victim: NodeId, action: CallbackAction) {
        self.global_locks.callback_applied(pid, victim, action);
    }

    /// A replacer's side of a `FlushAck` for `pid`: the owner's disk
    /// holds the image it shipped, so its DPT entry may go (§2.5).
    pub(crate) fn on_flush_ack(&mut self, pid: PageId) {
        self.dpt.on_flush_ack(pid);
    }

    /// A primary-copy owner's side of a `LogShip` at commit (paper
    /// §3.2): it logs the committed records of its page a second time
    /// and forces. The copies are unchained (`prev_lsn` zero) and enter
    /// no DPT entry: committed work is never undone, and the page they
    /// updated arrives beside them and reaches this node's disk by its
    /// own write. [`Node::on_log_ship`] is the chained receipt of
    /// ARIES/CSA, kept apart because its records differ in both.
    pub(crate) fn on_commit_ship(&mut self, records: &[&LogRecord]) -> Result<()> {
        for &r in records {
            self.log.append(&LogRecord {
                prev_lsn: Lsn::ZERO,
                ..r.clone()
            })?;
        }
        self.log.force_all()
    }

    /// The ARIES/CSA server's side of a `LogShip` (paper §3.1): it
    /// appends a client transaction's records after `prev`, that
    /// transaction's last record here, each chained to the one before
    /// by `prev_lsn` so that the server can undo the transaction, and
    /// enters each updated page in its DPT so that it can redo it.
    /// Returns the last LSN appended.
    pub(crate) fn on_log_ship(&mut self, mut prev: Lsn, records: Vec<LogRecord>) -> Result<Lsn> {
        for mut r in records {
            r.prev_lsn = prev;
            prev = self.log.append(&r)?;
            if let LogPayload::Update {
                pid, psn_before, ..
            } = r.payload
            {
                self.dpt.on_update(pid, psn_before.next(), prev);
            }
        }
        Ok(prev)
    }

    /// An ARIES/CSA client's side of the server's `CheckpointSync`
    /// (paper §3.1): its dirty pages and their PSNs.
    pub(crate) fn on_checkpoint_sync(&self) -> Vec<(PageId, Psn)> {
        self.buffer
            .dirty_ids()
            .into_iter()
            .map(|pid| (pid, self.buffer.peek(pid).expect("dirty").psn()))
            .collect()
    }

    /// The ARIES/CSA server's side of a client's `CheckpointSync`
    /// reply: each page it names enters the server's DPT, at the end
    /// of the log unless already there, so the checkpoint covers it.
    pub(crate) fn on_dirty_pages(&mut self, dirty: &[(PageId, Psn)]) {
        let end = self.log.end_lsn();
        for &(pid, psn) in dirty {
            self.dpt.ensure(pid, psn, end);
        }
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

    /// The range of a restart pass: where analysis starts, where the
    /// pass starts, and the pages the last checkpoint's DPT names,
    /// ascending. The master record names the last checkpoint; its end
    /// record's DPT names the lowest RedoLSN, and the pass starts at the
    /// lower of that and the checkpoint. Records from the checkpoint on
    /// go through the analysis fold; the collector sees every record of
    /// the pass. No update lies between the two starts that analysis
    /// would need, since a checkpoint's begin and end records are
    /// adjacent ([`Node::checkpoint`]).
    fn restart_range(&mut self) -> Result<(Lsn, Lsn, Vec<PageId>)> {
        let ckpt = self.analysis_start();
        let base = self.log.base_lsn();
        let mut from = ckpt;
        let mut pages = Vec::new();
        if !self.log.last_checkpoint().is_zero() {
            // No page needs a record below the truncation point.
            let mut scan = self.log.scan(ckpt);
            while let Some(r) = scan.next_ref() {
                if let LogPayloadRef::CheckpointEnd(body) = &r?.1.payload {
                    let redo = body.dpt.iter().map(|e| e.redo_lsn);
                    from = redo.fold(from, Lsn::min).max(base);
                    pages.extend(body.dpt.iter().map(|e| e.pid));
                    break;
                }
            }
        }
        pages.sort_unstable();
        Ok((ckpt, from, pages))
    }

    /// Restart in one pass over the local log (DESIGN §13): ARIES
    /// analysis (the loser table and a DPT superset, paper §2.3.1 /
    /// §2.4) and the redo of every page the rebuilt DPT names, in the
    /// same loop, reading each record once. This is the threaded
    /// engine's restart: its writes are owner-local, so a page's whole
    /// history is in its owner's log and redo needs no other node's
    /// records, nor any order across pages (DESIGN §16). Returns the
    /// DPT's pages redone, ascending.
    ///
    /// Each Update and CLR goes through the PSN filter (paper §2.3.2)
    /// as it is read: it applies iff its `psn_before` is the page's PSN,
    /// and then sets the next one. It applies to the page's image, read
    /// from the database the first time a record touches the page; a
    /// record below the checkpoint touches its page only if the
    /// checkpoint's DPT names it, since any other page was clean then.
    /// The images live in one table for the pass, one per page of the
    /// rebuilt DPT: a page each, where a list of redo records holds
    /// every record of those pages. A record, or a checkpoint
    /// DPT entry, of a page the node's database does not hold is a
    /// corrupt log: the pass stops with [`Error::Corrupt`] naming its
    /// LSN, and nothing is installed.
    pub fn restart_redo(&mut self) -> Result<(AnalysisResult, Vec<RedoImage>)> {
        let (ckpt, from, ckpt_pages) = self.restart_range()?;
        let end = self.log.end_lsn();
        let id = self.id;
        let capacity = self.db.as_ref().map_or(0, Database::capacity);
        for &pid in &ckpt_pages {
            own_page(id, capacity, pid, ckpt)?;
        }
        let db = &mut self.db;
        let mut analysis = Analysis::default();
        let mut images: IdMap<PageId, RedoImage> = IdMap::default();
        collect(&mut self.log, from, |pos, _, rec| {
            if pos >= ckpt {
                analysis.fold(id, pos, rec);
            }
            let Some((pid, psn, op)) = rec.update() else {
                return Ok(());
            };
            own_page(id, capacity, pid, pos)?;
            if pos < ckpt && ckpt_pages.binary_search(&pid).is_err() {
                return Ok(());
            }
            let image = match images.entry(pid) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(disk_image(db, pid)?),
            };
            if psn == image.page.psn() {
                op.apply_redo(&mut image.page)?;
                image.page.set_psn(psn.next());
                image.applied += 1;
            }
            Ok(())
        })?;
        let result = analysis.install(self, from, end);
        // `entries` is ascending.
        let mut redone = Vec::with_capacity(self.dpt.len());
        for e in self.dpt.entries() {
            let image = match images.remove(&e.pid) {
                Some(image) => image,
                // Named by the checkpoint, with no record since.
                None => disk_image(&mut self.db, e.pid)?,
            };
            redone.push(image);
        }
        Ok((result, redone))
    }

    /// [`Node::restart_redo`]'s analysis, and instead of its redo the
    /// NodePSNList and the redo records of the rebuilt DPT's pages, from
    /// the same single pass: the simulator's restart, whose replay
    /// merges the lists of every involved node (paper §2.3.4).
    pub fn restart_pass(&mut self) -> Result<(AnalysisResult, Vec<NodePsnEntry>, RedoRecords)> {
        let (ckpt, from, _) = self.restart_range()?;
        let end = self.log.end_lsn();
        let id = self.id;
        let mut analysis = Analysis::default();
        let mut updates = PageUpdates::new(from, end);
        collect(&mut self.log, from, |pos, frame, rec| {
            if pos >= ckpt {
                analysis.fold(id, pos, rec);
            }
            updates.enter(pos, frame, rec)
        })?;
        let result = analysis.install(self, from, end);
        let (list, redo) = updates.keep(|pid| self.dpt.contains(pid));
        Ok((result, list, redo))
    }

    /// This node's answer to a `PsnListRequest` (paper §2.3.4): the
    /// NodePSNList of `pages` (ascending) and their redo records, from
    /// one collection starting at the lowest RedoLSN this node's DPT
    /// names for them. Returns both and the log bytes read.
    pub fn psn_list(&mut self, pages: &[PageId]) -> Result<(Vec<NodePsnEntry>, RedoRecords, u64)> {
        let from = pages
            .iter()
            .filter_map(|p| self.dpt.get(*p).map(|e| e.redo_lsn))
            .min();
        let Some(from) = from else {
            return Ok((Vec::new(), RedoRecords::default(), 0));
        };
        let end = self.log.end_lsn();
        let mut updates = PageUpdates::new(from, end);
        collect(&mut self.log, from, |pos, frame, rec| {
            updates.enter(pos, frame, rec)
        })?;
        let (list, redo) = updates.keep(|pid| pages.binary_search(&pid).is_ok());
        let bytes = end.0 - from.0;
        Ok((list, redo, bytes))
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
    /// [`Node::restart_pass`] has rebuilt the loser table.
    pub fn loser_page_locks(&mut self, owner: NodeId) -> Result<Vec<PageId>> {
        let losers: Vec<(TxnId, Lsn)> = self
            .txns
            .values()
            .filter(|t| t.status == TxnStatus::Aborting)
            .map(|t| (t.id, t.undo_next))
            .collect();
        let mut pages: BTreeSet<PageId> = BTreeSet::new();
        for (txn, mut cursor) in losers {
            while !cursor.is_zero() {
                let (step, _) = self.log.read_ref(cursor, |rec| match rec.payload {
                    LogPayloadRef::Update { pid, .. } => Some((pid, rec.txn, rec.prev_lsn)),
                    LogPayloadRef::Clr { pid, undo_next, .. } => Some((pid, rec.txn, undo_next)),
                    _ => None,
                })?;
                let Some((pid, writer, next)) = step else {
                    break;
                };
                if pid.owner == owner {
                    pages.insert(pid);
                }
                cursor = chain_step(txn, cursor, writer, next)?;
            }
        }
        Ok(pages.into_iter().collect())
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
    use cblog_common::Encoder;

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
        assert_eq!(n.txns.get(&t).unwrap().status, TxnStatus::Committed);
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
        assert_eq!(n.txns.get(&t).unwrap().status, TxnStatus::Aborted);
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
        assert!(n.buffer().cached_ids().is_empty());
        n.mark_restarting().unwrap();
        let (a, _, _) = n.restart_pass().unwrap();
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
        let (a, _, _) = n.restart_pass().unwrap();
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
        let (list, redo, _) = n.psn_list(&[pid]).unwrap();
        assert_eq!(redo.index.len(), 4, "every record kept");
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
            n.restart_range().unwrap().1 < n.log().last_checkpoint(),
            "starts at a RedoLSN"
        );
        assert_eq!(n.dpt().entries().len(), 2);
        assert!(!n.dpt().contains(other) && list.iter().all(|e| e.pid != other));
        assert!(redo.of(other).next().is_none());
        assert_eq!(list, psn_list_reference(&mut n, &pages));
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
            assert_eq!(records, log_records(&mut n, pid, first.lsn));
            let disk = n.db.as_mut().unwrap().read_page(pid.index).unwrap();
            let mut by_log = disk.clone();
            for (psn_before, op) in &records {
                if *psn_before == by_log.psn() {
                    op.apply_redo(&mut by_log).unwrap();
                    by_log.set_psn(psn_before.next());
                }
            }
            let from = disk.psn();
            let mut by_arena = disk;
            let applied = redo.replay(&mut by_arena, from, None).unwrap();
            assert_eq!(applied, records.len() as u64);
            assert_eq!(by_arena.to_bytes(), by_log.to_bytes());
        }
        assert_eq!(
            redo.index.len(),
            kept,
            "nothing is kept for a page not asked for"
        );
    }

    /// One page's redo records, owned, in log order.
    type PageRedo = Vec<(Psn, PageOp)>;

    /// `pid`'s records in `n`'s log from `from` on, read back one at a
    /// time.
    fn log_records(n: &mut Node, pid: PageId, from: Lsn) -> PageRedo {
        let mut out = Vec::new();
        let mut at = from;
        while at < n.log().end_lsn() {
            let (rec, next) = n.log.read_record(at).unwrap();
            if let Some((p, psn, op)) = LogRecordRef::from(&rec).update() {
                if p == pid {
                    out.push((psn, op.to_owned()));
                }
            }
            at = next;
        }
        out
    }

    /// The analysis scan the simulator ran before restart was one pass:
    /// the fold alone, from the last complete checkpoint.
    fn analysis_reference(n: &mut Node) -> AnalysisResult {
        let start = n.analysis_start();
        let end = n.log.end_lsn();
        let mut analysis = Analysis::default();
        let mut scan = n.log.scan(start);
        while let Some(r) = scan.next_ref() {
            let (pos, rec) = r.unwrap();
            analysis.fold(n.id, pos, &rec);
        }
        analysis.install(n, start, end)
    }

    /// The NodePSNList scan the simulator ran before it kept the
    /// restart pass's list: from the minimum RedoLSN of the DPT entries
    /// for `pages`, an entry whenever a record updates one of them for
    /// another transaction than the page's previous entry.
    fn psn_list_reference(n: &mut Node, pages: &[PageId]) -> Vec<NodePsnEntry> {
        let from = pages
            .iter()
            .filter_map(|p| n.dpt.get(*p).map(|e| e.redo_lsn))
            .min();
        let Some(from) = from else {
            return Vec::new();
        };
        let mut last: IdMap<PageId, Option<TxnId>> = pages.iter().map(|&p| (p, None)).collect();
        let mut list = Vec::new();
        let mut scan = n.log.scan(from);
        while let Some(r) = scan.next_ref() {
            let (lsn, rec) = r.unwrap();
            if let Some((pid, psn, _)) = rec.update() {
                if let Some(last_txn) = last.get_mut(&pid) {
                    psn_list_entry(&mut list, last_txn, pid, psn, lsn, rec.txn);
                }
            }
        }
        list
    }

    /// What recovery did on a restarted node before the one pass:
    /// analysis, then the NodePSNList over the rebuilt DPT, plus each
    /// page's records from the lowest RedoLSN, read back one at a time.
    fn two_passes(n: &mut Node) -> (Vec<TxnId>, Vec<NodePsnEntry>, Vec<PageRedo>) {
        let losers = analysis_reference(n).losers;
        let pages: Vec<PageId> = n.dpt().entries().iter().map(|e| e.pid).collect();
        let list = psn_list_reference(n, &pages);
        let from = n.dpt().min_redo_lsn().unwrap();
        let redo = pages.iter().map(|&pid| log_records(n, pid, from)).collect();
        (losers, list, redo)
    }

    /// The threaded engine's shape on its second restart: the first one
    /// rolled a loser back with CLRs and checkpointed, so the
    /// checkpoint's DPT names a RedoLSN below the checkpoint. Returns
    /// the crashed node, its four pages, the loser of its second life
    /// and the checkpoint.
    fn crashed_twice() -> (Node, Vec<PageId>, TxnId, Lsn) {
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
        (n, pages, loser, ckpt)
    }

    #[test]
    fn one_restart_pass_equals_analysis_then_the_psn_list_pass() {
        let (mut n, _, loser, ckpt) = crashed_twice();
        n.mark_restarting().unwrap();
        let (a, list, redo) = n.restart_pass().unwrap();
        let dpt = n.dpt().entries();
        let from = n.restart_range().unwrap().1;
        assert!(from < ckpt, "the pass starts below the checkpoint");
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
        assert_eq!(
            redo.index.len(),
            want_redo.iter().map(Vec::len).sum::<usize>()
        );
    }

    /// Writes `a` and `b` in one committed transaction that rolls part
    /// of its work back to a savepoint first: two CLRs, one per page.
    fn partial_rollback(n: &mut Node, a: PageId, b: PageId, v: u64) {
        let t = n.begin().unwrap();
        upd(n, t, a, 2, v);
        let sp = n.savepoint(t).unwrap();
        upd(n, t, b, 2, v + 1);
        upd(n, t, a, 3, v + 2);
        while n.rollback_step(t, sp.at_lsn).unwrap() != RollbackStep::Done {}
        upd(n, t, b, 3, v + 3);
        n.commit(t).unwrap();
    }

    /// A crashed node whose log has every case the restart pass tells
    /// apart: a checkpoint in mid-log whose DPT names pages with records
    /// before it (page 3 has none after it), pages written clean before
    /// the checkpoint with records before it (page 5 is updated again
    /// after it), CLRs of partial rollbacks on both sides of the
    /// checkpoint, and a durable loser. Returns the node, its pages and
    /// the loser.
    fn reference_log() -> (Node, Vec<PageId>, TxnId) {
        let mut n = Node::new(
            NodeId(0),
            NodeConfig {
                page_size: 512,
                buffer_frames: 8,
                owned_pages: 6,
                log_capacity: None,
            },
        )
        .unwrap();
        let p: Vec<PageId> = (0..6).map(|i| load(&mut n, i)).collect();
        for round in 0..12u64 {
            let t = n.begin().unwrap();
            upd(&mut n, t, p[(round % 6) as usize], 0, round);
            upd(&mut n, t, p[((round + 1) % 6) as usize], 1, round);
            n.commit(t).unwrap();
        }
        partial_rollback(&mut n, p[0], p[1], 100);
        for clean in [p[4], p[5]] {
            let image = n.buffer.peek(clean).unwrap().clone();
            n.write_owned_page(&image).unwrap();
        }
        n.checkpoint().unwrap();
        for round in 0..4u64 {
            let t = n.begin().unwrap();
            upd(&mut n, t, p[[0, 5][(round % 2) as usize]], 4, 200 + round);
            n.commit(t).unwrap();
        }
        partial_rollback(&mut n, p[1], p[2], 300);
        let loser = n.begin().unwrap();
        upd(&mut n, loser, p[2], 5, 400);
        upd(&mut n, loser, p[0], 5, 401);
        n.force_log().unwrap();
        n.crash();
        (n, p, loser)
    }

    #[test]
    fn the_redo_pass_leaves_what_the_restart_pass_and_its_replay_leave() {
        let (mut n, p, loser) = reference_log();
        n.mark_restarting().unwrap();
        let (want, _, redo) = n.restart_pass().unwrap();
        let dpt = n.dpt().entries();
        // The log has the cases it was built to have.
        let ckpt = n.log().last_checkpoint();
        let from = n.restart_range().unwrap().1;
        assert!(from < ckpt, "the pass starts below the checkpoint");
        let named: Vec<PageId> = dpt.iter().map(|e| e.pid).collect();
        assert_eq!(named, [p[0], p[1], p[2], p[3], p[5]]);
        assert!(dpt.iter().all(|e| e.pid == p[5] || e.redo_lsn < ckpt));
        assert!(!log_records(&mut n, p[4], from).is_empty());
        let clrs = n
            .log
            .scan(from)
            .filter(|r| matches!(r.as_ref().unwrap().1.payload, LogPayload::Clr { .. }))
            .count();
        assert_eq!(clrs, 4);
        assert_eq!(want.losers, vec![loser]);
        // What the simulator's pass and its replay leave: every DPT page
        // from its disk image through the PSN filter.
        let replayed: Vec<(PageId, Psn, Vec<u8>, u64)> = named
            .iter()
            .map(|&pid| {
                let mut page = n.db.as_mut().unwrap().read_page(pid.index).unwrap();
                let disk = page.psn();
                let applied = redo.replay(&mut page, disk, None).unwrap();
                (pid, disk, page.to_bytes(), applied)
            })
            .collect();
        assert!(replayed.iter().all(|r| r.3 > 0), "every page has redo");

        n.crash();
        n.mark_restarting().unwrap();
        let (a, images) = n.restart_redo().unwrap();
        assert_eq!(a.losers, want.losers);
        assert_eq!(a.bytes_scanned, want.bytes_scanned);
        assert_eq!(n.dpt().entries(), dpt);
        let redone: Vec<(PageId, Psn, Vec<u8>, u64)> = images
            .iter()
            .map(|i| (i.page.id(), i.disk_psn, i.page.to_bytes(), i.applied))
            .collect();
        assert_eq!(redone, replayed);
    }

    /// A restarting node's log that updates a page of another node, or
    /// one past its database, is corrupt: the redo pass names the
    /// record's LSN and installs nothing. The simulator's pass keeps
    /// such records, since a client's log holds updates of the pages
    /// it cached from their owners (paper §2.1).
    #[test]
    fn the_redo_pass_refuses_an_update_of_a_page_the_node_does_not_hold() {
        for foreign in [PageId::new(NodeId(1), 0), PageId::new(NodeId(0), 4)] {
            let mut n = node();
            let own = load(&mut n, 0);
            let t = n.begin().unwrap();
            upd(&mut n, t, own, 0, 1);
            let at = n
                .log
                .append(&LogRecord {
                    txn: t,
                    prev_lsn: n.txns[&t].last_lsn,
                    payload: LogPayload::Update {
                        pid: foreign,
                        psn_before: Psn(1),
                        op: PageOp::WriteRange {
                            off: 0,
                            before: vec![0; 8],
                            after: vec![1; 8],
                        },
                    },
                })
                .unwrap();
            n.commit(t).unwrap();
            n.crash();
            n.mark_restarting().unwrap();
            match n.restart_redo() {
                Err(Error::Corrupt(m)) => {
                    assert!(m.contains(&format!("at LSN {}", at.0)), "{foreign}: {m}")
                }
                r => panic!("{foreign}: expected Corrupt, got {:?}", r.map(|_| ())),
            }
            assert!(n.dpt().is_empty() && n.txns.is_empty(), "nothing installed");
            n.crash();
            n.mark_restarting().unwrap();
            n.restart_pass().unwrap();
            assert!(n.dpt().contains(foreign));
        }
    }

    /// A frame whose CRC holds but whose payload tag names no record
    /// kind is corrupt, like any other bad frame: the decode refuses
    /// it, and a restart over a synced log that holds one fails naming
    /// the tag, with nothing installed and no page written.
    #[test]
    fn a_frame_with_an_unknown_payload_tag_is_corrupt() {
        let pid = PageId::new(NodeId(0), 0);
        let disk = node().page_image(pid).unwrap();
        let t = TxnId::new(NodeId(0), 1);
        let rec = |prev_lsn: u64, payload| LogRecord {
            txn: t,
            prev_lsn: Lsn(prev_lsn),
            payload,
        };
        let update = LogPayload::Update {
            pid,
            psn_before: Page::from_bytes(disk.clone()).unwrap().psn(),
            op: PageOp::WriteRange {
                off: 0,
                before: vec![0; 8],
                after: vec![1; 8],
            },
        };
        for tag in [7u8, 8, 9] {
            // A Commit frame with its tag (body offset 20, behind the
            // transaction id and the previous LSN) replaced.
            let mut bad = rec(0, LogPayload::Commit).encode();
            bad[8 + 20] = tag;
            let crc = cblog_common::crc32(&bad[8..]);
            bad[4..8].copy_from_slice(&crc.to_le_bytes());
            let want = format!("bad log payload tag {tag}");
            match LogRecordRef::decode(&bad) {
                Err(Error::Corrupt(m)) => assert_eq!(m, want),
                r => panic!("tag {tag}: expected Corrupt, got {r:?}"),
            }
            // The log preamble, then Begin, an update of `pid` and the
            // bad frame, all synced, so no tail repair drops it.
            let mut store = MemLogStore::new();
            store.append(b"CBLOG\0\0\0").unwrap();
            let begin = rec(0, LogPayload::Begin).encode();
            store.append(&begin).unwrap();
            store.append(&rec(8, update.clone()).encode()).unwrap();
            store.append(&bad).unwrap();
            store.sync().unwrap();
            let mut n = Node::with_log_store(NodeId(0), node().cfg, Box::new(store)).unwrap();
            n.crash();
            assert_eq!(n.mark_restarting().unwrap(), 0, "tag {tag}: nothing torn");
            match n.restart_redo() {
                Err(Error::Corrupt(m)) => assert_eq!(m, want),
                r => panic!("tag {tag}: expected Corrupt, got {:?}", r.map(|_| ())),
            }
            assert!(n.dpt().is_empty() && n.txns.is_empty(), "nothing installed");
            assert_eq!(
                n.page_image(pid).unwrap(),
                disk,
                "tag {tag}: a page was written"
            );
        }
    }

    #[test]
    fn the_pass_list_restricted_to_the_pages_asked_for_is_their_psn_list() {
        // What the simulator's phase 6 takes from a crashed node: its
        // pass list cut to the pages it is asked for, where it used to
        // scan again from their lowest RedoLSN.
        let (mut n, pages, _, _) = crashed_twice();
        n.mark_restarting().unwrap();
        let (_, list, _) = n.restart_pass().unwrap();
        let asked = [pages[1], pages[3]];
        let restricted: Vec<NodePsnEntry> = list
            .into_iter()
            .filter(|e| asked.contains(&e.pid))
            .collect();
        assert!(asked.iter().all(|&p| restricted.iter().any(|e| e.pid == p)));
        assert_eq!(restricted, psn_list_reference(&mut n, &asked));
        let (collected, redo, _) = n.psn_list(&asked).unwrap();
        assert_eq!(collected, restricted);
        assert!(
            redo.of(pages[0]).next().is_none(),
            "only the pages asked for"
        );
    }

    /// The collection before ops were copied out of their frames: each
    /// Update's and CLR's op from `from` on decoded and encoded again,
    /// pages numbered as they first appear, and the records of the
    /// `kept` pages indexed by page, ascending, in log order.
    fn reencoded_reference(n: &mut Node, from: Lsn, kept: &[PageId]) -> RedoRecords {
        let mut ops = Encoder::default();
        let mut ids: Vec<PageId> = Vec::new();
        let mut by_page: BTreeMap<PageId, Vec<(u32, Psn, u32)>> = BTreeMap::new();
        let mut scan = n.log.scan(from);
        while let Some(r) = scan.next_ref() {
            let (_, rec) = r.unwrap();
            let Some((pid, psn, op)) = rec.update() else {
                continue;
            };
            if !ids.contains(&pid) {
                ids.push(pid);
            }
            let page = ids.iter().position(|&p| p == pid).unwrap() as u32;
            if kept.contains(&pid) {
                let at = ops.as_slice().len() as u32;
                by_page.entry(pid).or_default().push((page, psn, at));
            }
            op.encode(&mut ops);
        }
        let mut index = Vec::new();
        let mut at = vec![0];
        for records in by_page.values() {
            index.extend_from_slice(records);
            at.push(index.len());
        }
        RedoRecords {
            ops: ops.into_vec(),
            index,
            pages: by_page.into_keys().collect(),
            at,
        }
    }

    #[test]
    fn the_redo_arena_holds_every_op_as_encode_lays_it_out() {
        let mut n = node();
        n.format_owned_page(1, PageKind::Slotted).unwrap();
        let raw = load(&mut n, 0);
        let slotted = load(&mut n, 1);
        let insert = |slot, data: &[u8]| PageOp::Insert {
            slot,
            data: data.to_vec(),
        };
        let update = |slot, old: &[u8], new: &[u8]| PageOp::UpdateRec {
            slot,
            old: old.to_vec(),
            new: new.to_vec(),
        };
        let delete = |slot, old: &[u8]| PageOp::Delete {
            slot,
            old: old.to_vec(),
        };
        let winner = n.begin().unwrap();
        upd(&mut n, winner, raw, 0, 1);
        for op in [
            insert(0, b"alpha"),
            update(0, b"alpha", b"beta"),
            insert(1, b"gamma"),
            delete(1, b"gamma"),
        ] {
            n.log_update(winner, slotted, op).unwrap();
        }
        n.commit(winner).unwrap();
        // Rolled back: CLRs of a range write, a delete, an update and an
        // insert.
        let rolled = n.begin().unwrap();
        upd(&mut n, rolled, raw, 1, 2);
        for op in [
            insert(1, b"delta"),
            update(0, b"beta", b"epsilon-longer"),
            delete(0, b"epsilon-longer"),
        ] {
            n.log_update(rolled, slotted, op).unwrap();
        }
        n.start_abort(rolled).unwrap();
        loop {
            match n.rollback_step(rolled, Lsn::ZERO).unwrap() {
                RollbackStep::Undone(_) => {}
                RollbackStep::Done => break,
                RollbackStep::NeedPage(p) => panic!("page {p} should be cached"),
            }
        }
        n.finish_abort(rolled).unwrap();
        let loser = n.begin().unwrap();
        n.log_update(loser, slotted, insert(2, b"zeta")).unwrap();
        n.force_log().unwrap();
        n.crash();

        let mut kinds = BTreeSet::new();
        for r in n.log.scan(n.log.base_lsn()) {
            let (_, rec) = r.unwrap();
            if let (Some(op), clr) = (rec.op(), matches!(rec.payload, LogPayload::Clr { .. })) {
                let kind = match op {
                    PageOp::WriteRange { .. } => 0,
                    PageOp::Insert { .. } => 1,
                    PageOp::Delete { .. } => 2,
                    PageOp::UpdateRec { .. } => 3,
                };
                kinds.insert((clr, kind));
            }
        }
        assert_eq!(kinds.len(), 8, "four op kinds, as Updates and as CLRs");
        n.mark_restarting().unwrap();
        let (_, _, redo) = n.restart_pass().unwrap();
        let kept: Vec<PageId> = n.dpt().entries().iter().map(|e| e.pid).collect();
        assert_eq!(kept, [raw, slotted]);
        let from = n.restart_range().unwrap().1;
        let want = reencoded_reference(&mut n, from, &kept);
        assert_eq!(redo.ops, want.ops);
        assert_eq!(redo.index, want.index);
        assert_eq!(redo.pages, want.pages);
        assert_eq!(redo.at, want.at);
    }

    #[test]
    fn redo_replay_applies_only_matching_psns_and_honours_bound() {
        let mut n = node();
        let pid = load(&mut n, 0);
        let t1 = n.begin().unwrap();
        upd(&mut n, t1, pid, 0, 11); // psn 1->2
        upd(&mut n, t1, pid, 1, 22); // psn 2->3
        upd(&mut n, t1, pid, 2, 33); // psn 3->4
        n.commit(t1).unwrap();
        let (_, redo, _) = n.psn_list(&[pid]).unwrap();
        // Rebuild from the disk version (psn 1, all zeros).
        let mut page = n.db.as_mut().unwrap().read_page(0).unwrap();
        assert_eq!(page.psn(), Psn(1));
        // Bound at PSN 2: apply records with psn_before <= 2.
        let applied = redo.replay(&mut page, Psn(1), Some(Psn(2))).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(page.psn(), Psn(3));
        assert_eq!(page.read_slot(0).unwrap(), 11);
        assert_eq!(page.read_slot(1).unwrap(), 22);
        assert_eq!(page.read_slot(2).unwrap(), 0);
        // A hop starting at PSN 3 resumes where the bound stopped.
        let applied2 = redo.replay(&mut page, Psn(3), None).unwrap();
        assert_eq!(applied2, 1);
        assert_eq!(page.psn(), Psn(4));
        assert_eq!(page.read_slot(2).unwrap(), 33);
        // Replaying again is a no-op (PSN filter).
        assert_eq!(redo.replay(&mut page, Psn(1), None).unwrap(), 0);
        // A hop past the records applies none of them.
        let mut fresh = n.db.as_mut().unwrap().read_page(0).unwrap();
        assert_eq!(redo.replay(&mut fresh, Psn(4), None).unwrap(), 0);
        assert_eq!(fresh.psn(), Psn(1));
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
        let (a, _, _) = n.restart_pass().unwrap();
        // Unforced records vanished; nothing to analyze.
        assert_eq!(a.bytes_scanned, 0);
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
        let (a, _, _) = n.restart_pass().unwrap();
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
                assert_eq!(edge.1, n.txns.get(&t).unwrap().last_lsn);
                edges.push(edge);
            }
            let state = n.txns.get(&t).unwrap().clone();
            n.commit(t).unwrap();
            let mut h = Fnv1a::new();
            n.log.durable_hash(&mut h).unwrap();
            let page = n.buffer.peek(pid).unwrap().to_bytes();
            let dirty = n.buffer.is_dirty(pid);
            let dpt = n.dpt().entries();
            (edges, h.finish(), page, dirty, dpt, state.undo_next)
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
        assert!(!n.txns.contains_key(&t1));
        assert!(matches!(n.forget(t1), Err(Error::NoSuchTxn(_))));
        n.start_abort(t2).unwrap();
        assert!(matches!(n.forget(t2), Err(Error::Protocol(_))), "aborting");
        n.finish_abort(t2).unwrap();
        n.forget(t2).unwrap();
        assert_eq!((n.commits(), n.aborts.get()), (1, 1), "the tallies stay");
        // A checkpoint no longer has anybody to list or to filter out.
        n.checkpoint().unwrap();
        assert!(n.txns.is_empty());
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

    /// Every walk back along a transaction's log chain refuses a step
    /// that does not land strictly below it within the transaction: a
    /// CLR whose `undo_next` is its own LSN, an Update whose `prev_lsn`
    /// is its own, and an Update chained to another transaction's
    /// record. Each walk stops with `Corrupt` naming the LSN of the
    /// record it cannot step from.
    #[test]
    fn a_chain_that_does_not_move_backward_is_corrupt() {
        for case in 0..3 {
            let mut n = node();
            let pid = load(&mut n, 0);
            let other = n.begin().unwrap();
            upd(&mut n, other, pid, 1, 7);
            let theirs = n.txns[&other].last_lsn;
            let t = n.begin().unwrap();
            upd(&mut n, t, pid, 0, 5);
            let at = n.log().end_lsn();
            let op = PageOp::WriteRange {
                off: 16,
                before: vec![0; 8],
                after: vec![1; 8],
            };
            let psn_before = n.buffer().peek(pid).unwrap().psn();
            let (prev_lsn, payload, bad) = match case {
                0 => {
                    let undo_next = at;
                    let clr = LogPayload::Clr {
                        pid,
                        psn_before,
                        op,
                        undo_next,
                    };
                    (n.txns[&t].last_lsn, clr, at)
                }
                1 => (
                    at,
                    LogPayload::Update {
                        pid,
                        psn_before,
                        op,
                    },
                    at,
                ),
                _ => (
                    theirs,
                    LogPayload::Update {
                        pid,
                        psn_before,
                        op,
                    },
                    theirs,
                ),
            };
            let rec = LogRecord {
                txn: t,
                prev_lsn,
                payload,
            };
            n.log.append(&rec).unwrap();
            n.force_log().unwrap();
            n.crash();
            n.mark_restarting().unwrap();
            let (a, _) = n.restart_redo().unwrap();
            assert_eq!(a.losers, vec![other, t], "case {case}");
            let want = format!("at LSN {}", bad.0);
            let corrupt = |r: Result<()>| match r {
                Err(Error::Corrupt(m)) => assert!(m.contains(&want), "case {case}: {m}"),
                r => panic!("case {case}: expected Corrupt, got {r:?}"),
            };
            corrupt(n.loser_page_locks(NodeId(0)).map(drop));
            if case > 0 {
                corrupt(n.txn_records(t, Lsn::ZERO).map(drop));
            }
            // Bounded: a chain that loops through Updates would undo
            // forever, writing a CLR each time.
            let mut undo = Ok(());
            for _ in 0..8 {
                match n.rollback_step(t, Lsn::ZERO) {
                    Ok(RollbackStep::NeedPage(p)) => drop(load(&mut n, p.index)),
                    Ok(RollbackStep::Undone(_)) => {}
                    r => {
                        undo = r.map(drop);
                        break;
                    }
                }
            }
            corrupt(undo);
        }
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
        assert!(n.db.is_none());
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
