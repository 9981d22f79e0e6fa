//! The per-node log manager.
//!
//! * `LSN` = byte address of a record in the local log. The file begins
//!   with an 8-byte preamble so the first real record has a non-zero
//!   LSN ([`cblog_common::Lsn::ZERO`] stays free as the "no record"
//!   sentinel).
//! * A record is written once: [`LogManager::append`] encodes it at
//!   the end of one contiguous in-memory tail, and
//!   [`LogManager::force`] hands that buffer to the store as it is, one
//!   write and one sync for however many records it holds. The WAL
//!   protocol (force before a dirty page leaves the cache; force at
//!   commit) is enforced by the node, which is the only caller.
//! * A write or sync the store fails stops the log: nothing says how
//!   much of the tail reached the device, so appending behind it could
//!   put records at LSNs that are not their file offsets. The manager
//!   refuses to append or force until a crash and
//!   [`LogManager::repair_tail`] restart it from what the store holds.
//! * Log space is bounded when constructed `with_capacity`: the live
//!   window is `[base_lsn, end_lsn)` and appends that would overflow it
//!   fail with [`cblog_common::Error::LogFull`], triggering the §2.5
//!   space-management protocol. [`LogManager::truncate`] advances
//!   `base_lsn` once the minimum RedoLSN moves forward.
//! * The master record anchors restart: it stores the LSN of the last
//!   complete checkpoint and the truncation point.

use crate::record::{check_frame, LogRecord, LogRecordRef};
use crate::store::LogStore;
use cblog_common::{Counter, Decoder, Encoder, Error, Fnv1a, Lsn, NodeId, Result};

const PREAMBLE: &[u8; 8] = b"CBLOG\0\0\0";
const MASTER_MAGIC: u32 = 0x4D53_5452;

/// Restart anchor stored in the master record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MasterRecord {
    /// LSN of the begin-checkpoint record of the last complete
    /// checkpoint ([`Lsn::ZERO`] if none yet).
    pub last_checkpoint: Lsn,
    /// Truncation point: no record below this LSN is needed.
    pub base_lsn: Lsn,
}

/// A node's local write-ahead log.
pub struct LogManager {
    node: NodeId,
    store: Box<dyn LogStore>,
    /// Records appended but not yet written to the store, encoded end
    /// to end in the order of their LSNs: the buffer a force writes
    /// from, and what a read at or above `tail_start` decodes out of.
    tail: Vec<u8>,
    /// Encoded length of each record in `tail`, oldest first: the
    /// record boundaries a torn write can land between.
    tail_lens: Vec<u32>,
    /// LSN of the first byte of `tail` (== durable end of the store).
    tail_start: Lsn,
    /// Next LSN to be assigned.
    end_lsn: Lsn,
    /// Everything below this is durable.
    flushed_lsn: Lsn,
    /// Logical truncation point (space below is reclaimable).
    base_lsn: Lsn,
    /// Bounded log size in bytes, if any.
    capacity: Option<u64>,
    master: MasterRecord,
    records: Counter,
    forces: Counter,
    /// Bytes rescanned by [`LogManager::repair_tail`] (cumulative).
    /// The scan starts at the last synced boundary, so this stays
    /// O(torn tail) per restart — a test hook for that guarantee.
    repair_scanned: Counter,
    /// The first write or sync the store failed, as text. Set, the log
    /// takes no append, force or master write (see the module doc).
    failed: Option<String>,
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LogManager(node={} end={} flushed={} base={} cap={:?})",
            self.node, self.end_lsn, self.flushed_lsn, self.base_lsn, self.capacity
        )
    }
}

impl LogManager {
    /// Creates a log manager over `store`. If the store already holds a
    /// log (restart), positions at its durable end and loads the master
    /// record; otherwise writes the preamble.
    pub fn new(node: NodeId, mut store: Box<dyn LogStore>) -> Result<Self> {
        let master = Self::load_master(&mut *store)?;
        if store.is_empty() {
            store.append(PREAMBLE)?;
            store.sync()?;
        } else {
            let mut p = [0u8; 8];
            store.read_at(0, &mut p)?;
            if &p != PREAMBLE {
                return Err(Error::Corrupt("bad log preamble".into()));
            }
        }
        let end = Lsn(store.len());
        Ok(LogManager {
            node,
            store,
            tail: Vec::new(),
            tail_lens: Vec::new(),
            tail_start: end,
            end_lsn: end,
            flushed_lsn: end,
            base_lsn: if master.base_lsn.is_zero() {
                Lsn(PREAMBLE.len() as u64)
            } else {
                master.base_lsn
            },
            capacity: None,
            master,
            records: Counter::new(),
            forces: Counter::new(),
            repair_scanned: Counter::new(),
            failed: None,
        })
    }

    /// As [`LogManager::new`] but with a bounded log of `capacity`
    /// bytes (the live window `[base_lsn, end_lsn)` may not exceed it).
    pub fn with_capacity(node: NodeId, store: Box<dyn LogStore>, capacity: u64) -> Result<Self> {
        let mut lm = Self::new(node, store)?;
        lm.capacity = Some(capacity);
        Ok(lm)
    }

    fn load_master(store: &mut dyn LogStore) -> Result<MasterRecord> {
        let bytes = store.read_master()?;
        if bytes.is_empty() {
            return Ok(MasterRecord::default());
        }
        let mut d = Decoder::new(&bytes);
        if d.get_u32()? != MASTER_MAGIC {
            return Err(Error::Corrupt("bad master record".into()));
        }
        Ok(MasterRecord {
            last_checkpoint: d.get_lsn()?,
            base_lsn: d.get_lsn()?,
        })
    }

    /// Next LSN to be assigned (current end of log). This is the value
    /// the paper's DPT maintenance uses as the conservative RedoLSN.
    pub fn end_lsn(&self) -> Lsn {
        self.end_lsn
    }

    /// Durable prefix end.
    pub fn flushed_lsn(&self) -> Lsn {
        self.flushed_lsn
    }

    /// True iff the log has no volatile tail at all (`force_all` has
    /// nothing to do) — the conservative WAL-rule check used when a
    /// dirty page leaves the node.
    pub fn fully_forced(&self) -> bool {
        self.flushed_lsn >= self.end_lsn
    }

    /// Truncation point.
    pub fn base_lsn(&self) -> Lsn {
        self.base_lsn
    }

    /// Bytes in the live window.
    pub fn used_space(&self) -> u64 {
        self.end_lsn.0 - self.base_lsn.0
    }

    /// Remaining space before [`Error::LogFull`], if bounded.
    pub fn available_space(&self) -> Option<u64> {
        self.capacity.map(|c| c.saturating_sub(self.used_space()))
    }

    /// Number of records appended since construction.
    pub fn records_appended(&self) -> u64 {
        self.records.get()
    }

    /// Number of forces (device syncs) issued.
    pub fn forces(&self) -> u64 {
        self.forces.get()
    }

    /// Bytes appended to the durable store (excludes unflushed tail).
    pub fn bytes_written(&self) -> u64 {
        self.store.bytes_appended().get()
    }

    /// Shared handle to the record-append counter, for registration in
    /// a metrics registry.
    pub fn records_counter(&self) -> &Counter {
        &self.records
    }

    /// Shared handle to the force counter.
    pub fn forces_counter(&self) -> &Counter {
        &self.forces
    }

    /// Shared handle to the underlying store's sync counter.
    pub fn store_syncs_counter(&self) -> &Counter {
        self.store.syncs()
    }

    /// Shared handle to the underlying store's appended-bytes counter.
    pub fn bytes_appended_counter(&self) -> &Counter {
        self.store.bytes_appended()
    }

    /// Shared handle to the repair-scan byte counter (bytes rescanned
    /// by [`LogManager::repair_tail`], cumulatively).
    pub fn repair_scanned_counter(&self) -> &Counter {
        &self.repair_scanned
    }

    /// Shared handle to the store's per-fsync wall-clock histogram
    /// (`None` for stores with no real sync to time — see
    /// [`LogStore::fsync_hist`]).
    pub fn fsync_histogram(&self) -> Option<&cblog_common::Histogram> {
        self.store.fsync_hist()
    }

    /// Last complete checkpoint anchor.
    pub fn last_checkpoint(&self) -> Lsn {
        self.master.last_checkpoint
    }

    /// Appends a record, returning its LSN. Fails with
    /// [`Error::LogFull`] if a bounded log's live window would
    /// overflow — the caller then runs the §2.5 space protocol and
    /// retries; the log is then exactly as it was before the call.
    pub fn append(&mut self, rec: &LogRecord) -> Result<Lsn> {
        self.append_ref(&rec.into())
    }

    /// [`LogManager::append`] for a record whose images are borrowed
    /// (the physical write path borrows its before-image from the
    /// cached page): the same bytes at the same LSN, with no owned
    /// record built on the way. The record is encoded at the end of the
    /// tail, in place, so its bytes are written once, where the next
    /// force writes them from.
    pub fn append_ref(&mut self, rec: &LogRecordRef<'_>) -> Result<Lsn> {
        self.check_live()?;
        let start = self.tail.len();
        let len = rec.encode_into(&mut self.tail) as u64;
        if let Some(cap) = self.capacity {
            if self.used_space() + len > cap {
                self.tail.truncate(start);
                return Err(Error::LogFull(self.node));
            }
        }
        let lsn = self.end_lsn;
        self.tail_lens.push(len as u32);
        self.end_lsn = lsn.advance(len);
        self.records.bump();
        Ok(lsn)
    }

    /// Refuses the call if the store has failed a write or sync.
    fn check_live(&self) -> Result<()> {
        match &self.failed {
            None => Ok(()),
            Some(first) => Err(std::io::Error::other(format!(
                "log of {} stopped after a failed force ({first}): crash and recover it",
                self.node
            ))
            .into()),
        }
    }

    /// Bytes sitting in the unflushed tail.
    pub fn tail_bytes(&self) -> u64 {
        self.end_lsn.0 - self.tail_start.0
    }

    /// Encoded byte length of each unforced tail record, oldest first
    /// (sums to [`LogManager::tail_bytes`]).
    pub fn tail_record_sizes(&self) -> Vec<u64> {
        self.tail_lens.iter().map(|&n| n as u64).collect()
    }

    /// The distinct `landed` arguments to
    /// [`LogManager::simulate_crash_torn`] worth exploring: every
    /// record boundary in the unforced tail, plus every byte offset
    /// within the final record. A tear mid-record truncates back to
    /// that record's start boundary on repair, so any position not
    /// listed converges to the same durable state as a listed one —
    /// the list enumerates the tear space exhaustively up to that
    /// equivalence, while the per-byte coverage of the last record
    /// still drives the repair scan through every partial-header,
    /// partial-body and CRC-mismatch length of a torn final record.
    pub fn torn_landing_points(&self) -> Vec<u64> {
        let sizes = self.tail_record_sizes();
        let mut out = vec![0u64];
        let mut at = 0u64;
        for (i, s) in sizes.iter().enumerate() {
            if i + 1 == sizes.len() {
                for b in 1..=*s {
                    out.push(at + b);
                }
            } else {
                at += s;
                out.push(at);
            }
        }
        out
    }

    /// The record-boundary subset of
    /// [`LogManager::torn_landing_points`]: 0, each whole-record
    /// prefix, and the full tail. Multi-victim crash products use this
    /// coarser grid — per-byte positions inside a record converge to
    /// the preceding boundary after repair anyway (the equivalence the
    /// model checker's state-hash dedup independently verifies).
    pub fn torn_record_boundaries(&self) -> Vec<u64> {
        let mut out = vec![0u64];
        let mut at = 0u64;
        for s in self.tail_record_sizes() {
            at += s;
            out.push(at);
        }
        out
    }

    /// Forces the log so the record whose LSN is `upto` (and everything
    /// before it) is durable. No-op if already durable. The whole tail
    /// — however many records accumulated since the last force — goes
    /// down as one write followed by one sync, so a batch of commit
    /// records costs a single device operation.
    ///
    /// A failure here stops the log (see the module doc): the tail is
    /// kept but never written again, so no record can land behind a
    /// copy of itself and no later force can make this batch look
    /// durable. The caller acknowledges nothing the force was to cover.
    pub fn force(&mut self, upto: Lsn) -> Result<()> {
        self.check_live()?;
        if self.tail.is_empty() || upto < self.flushed_lsn {
            return Ok(());
        }
        let written = self.store.append(&self.tail);
        if let Err(e) = written.and_then(|()| self.store.sync()) {
            self.failed = Some(e.to_string());
            return Err(e);
        }
        self.tail.clear();
        self.tail_lens.clear();
        self.tail_start = self.end_lsn;
        self.flushed_lsn = self.end_lsn;
        self.forces.bump();
        Ok(())
    }

    /// Forces everything.
    pub fn force_all(&mut self) -> Result<()> {
        self.force(self.end_lsn)
    }

    /// Advances the truncation point (never backwards).
    pub fn truncate(&mut self, upto: Lsn) {
        if upto > self.base_lsn {
            self.base_lsn = Lsn(upto.0.min(self.end_lsn.0));
        }
    }

    /// Reads the record at `lsn`, returning it and the LSN of the next
    /// record. Reads from the unflushed tail transparently. This is the
    /// point read (undo chains follow `prev_lsn` backwards); forward
    /// passes use [`LogManager::scan`].
    pub fn read_record(&mut self, lsn: Lsn) -> Result<(LogRecord, Lsn)> {
        self.read_ref(lsn, |rec| rec.to_owned())
    }

    /// [`LogManager::read_record`] without the copy: `f` sees the record
    /// decoded in place, and what it returns comes back with the LSN of
    /// the next record.
    pub fn read_ref<T>(
        &mut self,
        lsn: Lsn,
        f: impl FnOnce(&LogRecordRef<'_>) -> T,
    ) -> Result<(T, Lsn)> {
        let mut win = ReadWindow::default();
        let (rec, n) = LogRecordRef::decode(self.frame(lsn, &mut win, POINT_READ_AHEAD)?)?;
        Ok((f(&rec), lsn.advance(n as u64)))
    }

    fn check_readable(&self, lsn: Lsn) -> Result<()> {
        if lsn < self.base_lsn {
            return Err(Error::Protocol(format!(
                "read below truncation point: {lsn} < {}",
                self.base_lsn
            )));
        }
        if lsn >= self.end_lsn {
            return Err(Error::Protocol(format!(
                "read past end of log: {lsn} >= {}",
                self.end_lsn
            )));
        }
        Ok(())
    }

    /// The bytes a record at `lsn` decodes from, for every read: past
    /// `tail_start`, the unflushed tail from that offset on, whatever
    /// the record's length; below it, the record's frame in `win`,
    /// refilled with one `read_at` of the record plus up to
    /// `read_ahead` bytes when the record is not wholly inside it.
    fn frame<'s>(
        &'s mut self,
        lsn: Lsn,
        win: &'s mut ReadWindow,
        read_ahead: usize,
    ) -> Result<&'s [u8]> {
        self.check_readable(lsn)?;
        if lsn >= self.tail_start {
            return Ok(&self.tail[(lsn.0 - self.tail_start.0) as usize..]);
        }
        let durable = self.tail_start.0;
        // A store-resident record's 8-byte header must lie wholly below
        // the durable boundary. A stale LSN within 8 bytes of a
        // torn-tail truncation point would otherwise short-read the
        // store; every genuine record has total ≥ 8, so rejecting here
        // loses nothing.
        if lsn.0 + 8 > durable {
            return Err(Error::Corrupt(format!(
                "record header at {lsn} crosses the durable boundary {}",
                self.tail_start
            )));
        }
        // Makes `win` hold `need` bytes at `lsn`; returns their offset.
        let store = &mut self.store;
        let mut fill = |win: &mut ReadWindow, need: usize| -> Result<usize> {
            if lsn.0 < win.start || lsn.0 + need as u64 > win.start + win.bytes.len() as u64 {
                let len = (need.max(read_ahead) as u64).min(durable - lsn.0) as usize;
                win.bytes.resize(len, 0);
                win.start = lsn.0;
                store.read_at(lsn.0, &mut win.bytes)?;
            }
            Ok((lsn.0 - win.start) as usize)
        };
        let off = fill(win, 8)?;
        let total = u32::from_le_bytes(win.bytes[off..off + 4].try_into().unwrap()) as usize;
        if total < 8 || lsn.0 + total as u64 > durable {
            return Err(Error::Corrupt(format!(
                "bad record length {total} at {lsn}"
            )));
        }
        let off = fill(win, total)?;
        Ok(&win.bytes[off..off + total])
    }

    /// Iterates records from `from` to the end of the log (including
    /// the unflushed tail) — the one forward-scan primitive. The
    /// cursor reads the log a [`Batch`] at a time
    /// ([`LogManager::read_batch`]) and parses records out of it in
    /// place ([`LogScan::next_ref`] lends them; the iterator copies
    /// each out); at every edge (truncation point, durable boundary,
    /// tail) a record reads exactly as [`LogManager::read_record`] reads
    /// it. The cursor borrows the manager, so the log cannot change
    /// under it.
    pub fn scan(&mut self, from: Lsn) -> LogScan<'_> {
        LogScan {
            lm: self,
            batch: Batch {
                from,
                ..Batch::default()
            },
            off: 0,
            failed: false,
        }
    }

    /// Reads the records from `from` into `batch` and checks each
    /// one's length and checksum, parsing none: those wholly inside one
    /// `read_at` of [`BATCH`] bytes at `from` (of the whole record, when
    /// it is larger), then those of the unflushed tail that follow them
    /// within [`BATCH`] bytes, the first of them always. A record that
    /// starts the batch is framed by `frame`, the point read's framer,
    /// and the rest inside the window it filled, so batch after batch
    /// holds the records a [`LogManager::read_record`] loop from `from`
    /// reads, and ends at the error that loop ends with. That error, or
    /// the end of the log, ends the range ([`Batch::is_last`]); else
    /// the next batch starts at [`Batch::end`].
    pub fn read_batch(&mut self, from: Lsn, batch: &mut Batch) {
        // An empty window: the batch's first record refills it from its
        // own start.
        batch.win.bytes.clear();
        batch.from = from;
        batch.end = 0;
        batch.error = None;
        let mut lsn = from;
        while lsn < self.end_lsn {
            match self.batch_frame(lsn, batch) {
                Ok(true) => lsn = batch.end(),
                Ok(false) => {
                    batch.last = false;
                    return;
                }
                Err(e) => {
                    batch.error = Some(e);
                    break;
                }
            }
        }
        batch.last = true;
    }

    /// Adds the record at `lsn`, the end of `batch`, to it, checked;
    /// `false` if the record belongs to the next batch.
    fn batch_frame(&mut self, lsn: Lsn, batch: &mut Batch) -> Result<bool> {
        let empty = batch.end == 0;
        let n = if lsn < self.tail_start {
            let n = match batch.win.holds(lsn) {
                Some((_, n)) => n,
                None if empty => self.frame(lsn, &mut batch.win, BATCH)?.len(),
                None => return Ok(false),
            };
            check_frame(&batch.win.bytes[batch.end..batch.end + n])?;
            n
        } else {
            // The unflushed tail is copied in, behind the batch's
            // records when they end the bytes it read.
            if empty {
                batch.win.start = lsn.0;
            } else if batch.end != batch.win.bytes.len() {
                return Ok(false);
            }
            let n = check_frame(self.frame(lsn, &mut batch.win, BATCH)?)?;
            if !empty && batch.end + n > BATCH {
                return Ok(false);
            }
            let at = (lsn.0 - self.tail_start.0) as usize;
            batch.win.bytes.extend_from_slice(&self.tail[at..at + n]);
            n
        };
        batch.end += n;
        Ok(true)
    }

    /// Records a completed checkpoint in the master record (durably).
    pub fn write_master(&mut self, last_checkpoint: Lsn) -> Result<()> {
        self.check_live()?;
        self.master.last_checkpoint = last_checkpoint;
        self.master.base_lsn = self.base_lsn;
        let mut e = Encoder::with_capacity(20);
        e.put_u32(MASTER_MAGIC);
        e.put_lsn(self.master.last_checkpoint);
        e.put_lsn(self.master.base_lsn);
        self.store.write_master(e.as_slice())
    }

    /// Simulates a node crash: the tail buffer and any unsynced store
    /// bytes vanish; durable state is what restart will see.
    /// Folds the durable (on-device) log state into `h`: the store's
    /// landed bytes plus the master record. The volatile tail is
    /// excluded — this hashes exactly what a crash at this instant
    /// would preserve, which is what the model checker fingerprints to
    /// prune crash branches that converge on the same durable state.
    pub fn durable_hash(&mut self, h: &mut Fnv1a) -> Result<()> {
        let len = self.store.len();
        h.write_u64(len);
        let mut pos = 0u64;
        let mut buf = [0u8; 4096];
        while pos < len {
            let n = (len - pos).min(buf.len() as u64) as usize;
            self.store.read_at(pos, &mut buf[..n])?;
            h.write(&buf[..n]);
            pos += n as u64;
        }
        h.write(&self.store.read_master()?);
        Ok(())
    }

    pub fn simulate_crash(&mut self) {
        self.tail.clear();
        self.tail_lens.clear();
        self.store.crash();
        let end = Lsn(self.store.len());
        self.end_lsn = end;
        self.flushed_lsn = end;
        self.tail_start = end;
    }

    /// Simulates a crash that tears an in-flight log write: the first
    /// `landed` bytes of the in-memory tail physically reached the
    /// device before the crash (with the last landed byte flipped if
    /// `corrupt`); the rest of the tail is lost. The surviving fragment
    /// is whatever the interrupted write left behind — restart calls
    /// [`LogManager::repair_tail`] to cut the log back to the last
    /// checksum-valid record boundary before scanning.
    pub fn simulate_crash_torn(&mut self, landed: u64, corrupt: bool) {
        self.tail.truncate(landed.min(self.tail_bytes()) as usize);
        if corrupt {
            if let Some(last) = self.tail.last_mut() {
                *last ^= 0xFF;
            }
        }
        self.store.crash_with_partial_tail(&self.tail);
        self.tail.clear();
        self.tail_lens.clear();
        let end = Lsn(self.store.len());
        self.end_lsn = end;
        self.flushed_lsn = end;
        self.tail_start = end;
    }

    /// Validates the log's tail after a crash: scans forward from the
    /// last synced boundary checking record framing and checksums, and
    /// cuts the store back to the end of the last valid record. Returns
    /// the number of torn bytes discarded — 0 on a clean log.
    /// Idempotent; a torn tail is discarded here and never replayed.
    ///
    /// Every byte below the store's synced boundary went down inside a
    /// completed `sync` of whole records, so only the bytes a torn
    /// write landed past it need rescanning: restart cost is O(torn
    /// tail), not O(live log). A store that cannot report its synced
    /// boundary (a freshly reopened file) falls back to the master
    /// record's checkpoint anchor — durable and record-aligned — then
    /// to the truncation point.
    pub fn repair_tail(&mut self) -> Result<u64> {
        debug_assert!(self.tail.is_empty(), "repair runs on a post-crash log");
        // Restarting from what the store holds is what un-stops a log
        // that a failed force stopped.
        self.failed = None;
        let len = self.store.len();
        let pos = self
            .store
            .synced_len()
            .unwrap_or(self.master.last_checkpoint.0)
            .max(self.base_lsn.0)
            .min(len);
        self.repair_scanned.add(len - pos);
        let mut scan = self.scan(Lsn(pos));
        let pos = loop {
            match scan.next_ref() {
                Some(Ok(_)) => {}
                // Bad framing or checksum: the valid prefix ends here.
                Some(Err(Error::Corrupt(_))) | None => break scan.position().0,
                Some(Err(e)) => return Err(e),
            }
        };
        let torn = len - pos;
        if torn > 0 {
            self.store.truncate_to(pos);
            let end = Lsn(pos);
            self.end_lsn = end;
            self.flushed_lsn = end;
            self.tail_start = end;
        }
        Ok(torn)
    }
}

/// Read-ahead of a point read: a typical record arrives with its
/// header in one `read_at`.
const POINT_READ_AHEAD: usize = 512;

/// Bytes of one [`Batch`]: one `read_at` of the store, or of the
/// unflushed tail copied. Large enough that a scan is a handful of
/// syscalls per MiB, small enough that a reader a few batches ahead of
/// the parse holds a sliver of the log.
pub const BATCH: usize = 64 * 1024;

/// Whole records read and checked by [`LogManager::read_batch`], each
/// parsed later by [`Batch::parse_each`]: a batch moves the checksum
/// off the thread that parses. A batch is a buffer meant for reuse: one
/// from [`Batch::new`] holds a whole batch, so reading into it again
/// allocates only for a record larger than [`BATCH`].
#[derive(Default)]
pub struct Batch {
    win: ReadWindow,
    /// `win.bytes[..end]` are the checked records, end to end.
    end: usize,
    /// LSN of the first record.
    from: Lsn,
    /// Why the range ended at `end`, when a record there failed to read
    /// or check.
    error: Option<Error>,
    /// Whether the range ends with this batch.
    last: bool,
}

impl Batch {
    /// An empty batch with room for [`BATCH`] bytes.
    pub fn new() -> Batch {
        Batch {
            win: ReadWindow {
                bytes: Vec::with_capacity(BATCH),
                start: 0,
            },
            ..Batch::default()
        }
    }

    /// The LSN past the batch's last record: where the next batch
    /// starts.
    pub fn end(&self) -> Lsn {
        self.from.advance(self.end as u64)
    }

    /// Whether the range ends with this batch: at the end of the log,
    /// or at a record that failed to read or check.
    pub fn is_last(&self) -> bool {
        self.last
    }

    /// Parses each record of the batch in LSN order, its checksum not
    /// computed again, and hands it to `each` with its LSN and frame;
    /// then returns the error that ended the range here, if one did.
    /// Stops at the first error a parse or `each` returns.
    pub fn parse_each(
        &mut self,
        mut each: impl FnMut(Lsn, &[u8], &LogRecordRef<'_>) -> Result<()>,
    ) -> Result<()> {
        let mut off = 0;
        while let Some((lsn, frame, rec)) = self.parsed(off) {
            each(lsn, frame, &rec?)?;
            off += frame.len();
        }
        self.error.take().map_or(Ok(()), Err)
    }

    /// The checked record at offset `off`, with its LSN and frame, and
    /// its parse; `None` past the last.
    #[inline]
    fn parsed(&self, off: usize) -> Option<(Lsn, &[u8], Result<LogRecordRef<'_>>)> {
        let header = self.win.bytes[..self.end].get(off..off + 4)?;
        let frame =
            &self.win.bytes[off..off + u32::from_le_bytes(header.try_into().unwrap()) as usize];
        Some((
            self.from.advance(off as u64),
            frame,
            LogRecordRef::parse(frame),
        ))
    }
}

/// Store bytes `[start, start + bytes.len())` held in memory.
#[derive(Default)]
struct ReadWindow {
    bytes: Vec<u8>,
    start: u64,
}

impl ReadWindow {
    /// The offset and length of the record at `lsn` when its header
    /// and the whole length that header gives lie inside the window.
    #[inline]
    fn holds(&self, lsn: Lsn) -> Option<(usize, usize)> {
        let off = lsn.0.checked_sub(self.start)? as usize;
        let header = self.bytes.get(off..off + 8)?;
        let total = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        (total >= 8 && off + total <= self.bytes.len()).then_some((off, total))
    }
}

/// Forward scan over log records (see [`LogManager::scan`]).
pub struct LogScan<'a> {
    lm: &'a mut LogManager,
    batch: Batch,
    /// Offset in `batch` of the next record.
    off: usize,
    /// Set by a record that does not parse: the scan yields the error
    /// and then ends.
    failed: bool,
}

impl LogScan<'_> {
    /// LSN of the record the scan would read next: the end of the last
    /// record yielded, and where the scan stopped if it failed.
    pub fn position(&self) -> Lsn {
        self.batch.from.advance(self.off as u64)
    }

    /// The next record and its LSN, parsed in place: its op images
    /// borrow the scan's batch, so a pass that drops most records
    /// allocates for none of them. The record lives until the next
    /// call. After an error, which is yielded once, the scan ends.
    pub fn next_ref(&mut self) -> Option<Result<(Lsn, LogRecordRef<'_>)>> {
        if self.failed {
            return None;
        }
        if self.off == self.batch.end && !self.batch.last {
            self.lm.read_batch(self.batch.end(), &mut self.batch);
            self.off = 0;
        }
        if self.off == self.batch.end {
            return self.batch.error.take().map(Err);
        }
        let (lsn, frame, rec) = self.batch.parsed(self.off)?;
        self.failed = rec.is_err();
        if !self.failed {
            self.off += frame.len();
        }
        Some(rec.map(|rec| (lsn, rec)))
    }
}

impl Iterator for LogScan<'_> {
    type Item = Result<(Lsn, LogRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_ref()
            .map(|r| r.map(|(lsn, rec)| (lsn, rec.to_owned())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogPayload, PageOp};
    use crate::store::{MemLogStore, SyncFaultStore, TempLog};
    use cblog_common::{PageId, Psn, TxnId};

    fn lm() -> LogManager {
        LogManager::new(NodeId(1), Box::new(MemLogStore::new())).unwrap()
    }

    fn rec(seq: u64, prev: Lsn) -> LogRecord {
        LogRecord {
            txn: TxnId::new(NodeId(1), seq),
            prev_lsn: prev,
            payload: LogPayload::Update {
                pid: PageId::new(NodeId(1), 0),
                psn_before: Psn(seq),
                op: PageOp::WriteRange {
                    off: 0,
                    before: vec![0; 8],
                    after: seq.to_le_bytes().to_vec(),
                },
            },
        }
    }

    /// A record whose after-image is `n` bytes, so a log of these has
    /// records of every alignment against a batch's window.
    fn sized_rec(seq: u64, prev: Lsn, n: usize) -> LogRecord {
        LogRecord {
            txn: TxnId::new(NodeId(1), seq),
            prev_lsn: prev,
            payload: LogPayload::Update {
                pid: PageId::new(NodeId(1), (seq % 7) as u32),
                psn_before: Psn(seq),
                op: PageOp::WriteRange {
                    off: 0,
                    before: vec![0; 8],
                    after: (0..n).map(|i| (seq as usize + i) as u8).collect(),
                },
            },
        }
    }

    /// `scan(from)` must be a `read_record` loop: the same `(lsn,
    /// record)` sequence, and where the loop would fail, that error
    /// once and then the end — through the iterator and through the
    /// lending `next_ref`, whose records copy out to the same values.
    fn assert_scan_matches_reads(lm: &mut LogManager, from: Lsn) {
        let mut want = Vec::new();
        let mut pos = from;
        while pos < lm.end_lsn() {
            match lm.read_record(pos) {
                Ok((rec, next)) => {
                    want.push(Ok((pos, rec)));
                    pos = next;
                }
                Err(e) => {
                    want.push(Err(e.to_string()));
                    break;
                }
            }
        }
        let mut scan = lm.scan(from);
        let got: Vec<_> = scan
            .by_ref()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        assert_eq!(got, want, "scan from {from}");
        if want.last().is_some_and(|r| r.is_ok()) {
            assert_eq!(
                scan.position(),
                pos,
                "a clean scan ends at the end of the log"
            );
        }
        assert!(scan.next().is_none(), "a finished scan stays finished");
        let stopped = scan.position();

        let mut scan = lm.scan(from);
        let mut lent = Vec::new();
        while let Some(r) = scan.next_ref() {
            lent.push(
                r.map(|(lsn, rec)| (lsn, rec.to_owned()))
                    .map_err(|e| e.to_string()),
            );
        }
        assert_eq!(lent, want, "next_ref from {from}");
        assert_eq!(scan.position(), stopped, "both stop at one place");
        assert!(scan.next_ref().is_none(), "a finished scan stays finished");

        assert_eq!(batched(lm, from), want, "read_batch from {from}");
    }

    /// `read_batch` from `from`, batch after batch until the last, each
    /// batch's records parsed: what the log collector sees. Each frame
    /// spans its record, and a batch holds at most [`BATCH`] bytes or
    /// one record.
    fn batched(
        lm: &mut LogManager,
        from: Lsn,
    ) -> Vec<std::result::Result<(Lsn, LogRecord), String>> {
        let mut got = Vec::new();
        let mut batch = Batch::new();
        let mut next = from;
        loop {
            lm.read_batch(next, &mut batch);
            let mut records = 0;
            let parsed = batch.parse_each(|lsn, frame, rec| {
                assert_eq!(
                    LogRecordRef::decode(frame).unwrap(),
                    (rec.clone(), frame.len())
                );
                got.push(Ok((lsn, rec.to_owned())));
                records += 1;
                Ok(())
            });
            assert!(
                records <= 1 || batch.end().0 - next.0 <= BATCH as u64,
                "{records} records in {} bytes",
                batch.end().0 - next.0
            );
            if let Err(e) = parsed {
                got.push(Err(e.to_string()));
                return got;
            }
            if batch.is_last() {
                return got;
            }
            assert!(
                batch.end() > next,
                "a batch that is not the last holds a record"
            );
            next = batch.end();
        }
    }

    /// Fills `lm` past several batches with records of mixed sizes
    /// (one larger than a batch), forces most of it and
    /// leaves a multi-record unflushed tail.
    fn fill_past_read_ahead(lm: &mut LogManager) -> Vec<Lsn> {
        let mut lsns = Vec::new();
        let mut prev = Lsn::ZERO;
        let mut seq = 0u64;
        while lm.end_lsn().0 < 3 * BATCH as u64 {
            seq += 1;
            let n = match seq % 50 {
                0 => BATCH + 1000,
                k => 8 + (seq as usize * 37 + k as usize * 101) % 3000,
            };
            prev = lm.append(&sized_rec(seq, prev, n)).unwrap();
            lsns.push(prev);
            if seq % 16 == 0 {
                lm.force_all().unwrap();
            }
        }
        lm.force_all().unwrap();
        for _ in 0..5 {
            seq += 1;
            prev = lm.append(&sized_rec(seq, prev, 100)).unwrap();
            lsns.push(prev);
        }
        assert!(lm.tail_bytes() > 0);
        lsns
    }

    fn scan_equals_read_loop_on(mut lm: LogManager) {
        let lsns = fill_past_read_ahead(&mut lm);
        // Replay the windowing: a record that starts inside the window
        // and ends beyond it forces a refill from its own start.
        let durable = lm.flushed_lsn().0;
        let mut win_end = (8 + BATCH as u64).min(durable);
        let mut straddlers = 0;
        for w in lsns.windows(2) {
            let (a, b) = (w[0].0, w[1].0);
            if b <= durable && b > win_end {
                straddlers += (a < win_end) as usize;
                win_end = (a + (b - a).max(BATCH as u64)).min(durable);
            }
        }
        assert!(straddlers >= 2, "records must cross window boundaries");
        assert_scan_matches_reads(&mut lm, Lsn(8));
        let got: Vec<Lsn> = lm.scan(Lsn(8)).map(|r| r.unwrap().0).collect();
        assert_eq!(got, lsns);
        // From the middle of the store, from the first tail record,
        // from inside the tail, and from a mid-record offset (garbage
        // framing or a checksum error, the same either way).
        let n = lsns.len();
        for from in [
            lsns[n / 2],
            lsns[n - 5],
            lsns[n - 2],
            lsns[n / 3].advance(3),
        ] {
            assert_scan_matches_reads(&mut lm, from);
        }
        // Below the truncation point both refuse.
        lm.truncate(lsns[10]);
        assert_scan_matches_reads(&mut lm, lsns[9]);
        assert_scan_matches_reads(&mut lm, lsns[10]);
    }

    #[test]
    fn scan_equals_read_loop_past_the_read_ahead_mem() {
        scan_equals_read_loop_on(lm());
    }

    #[test]
    fn scan_equals_read_loop_past_the_read_ahead_file() {
        let path = std::env::temp_dir().join(format!(
            "cblog-scan-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let store = crate::store::FileLogStore::open(&path).unwrap();
        scan_equals_read_loop_on(LogManager::new(NodeId(1), Box::new(store)).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    /// A record inside a batch's window is framed there, not by
    /// `frame`, and must still be refused where `frame` refuses it. In
    /// a file log that one batch holds, a record mid-window has
    /// a body byte flipped, its header zeroed, or a length that runs
    /// past the durable end: the scan yields `Corrupt` at that record,
    /// where `read_record` fails, and ends.
    #[test]
    fn an_in_window_record_is_refused_where_a_read_refuses_it() {
        let t = TempLog::new("in-window");
        let mut lm = LogManager::new(NodeId(1), Box::new(t.fresh())).unwrap();
        let mut lsns = Vec::new();
        let mut prev = Lsn::ZERO;
        for seq in 1..=40 {
            prev = lm.append(&rec(seq, prev)).unwrap();
            lsns.push(prev);
        }
        lm.force_all().unwrap();
        let durable = lm.end_lsn().0;
        assert!(durable < BATCH as u64, "one batch holds the log");
        drop(lm);
        let clean = std::fs::read(t.path()).unwrap();
        let at = lsns[20];
        let i = at.0 as usize;
        let mid = i + (lsns[21].0 - at.0) as usize / 2;
        let past_end = (durable - at.0 + 1) as u32;
        let mut flipped = clean.clone();
        flipped[mid] ^= 0x40;
        let mut zeroed = clean.clone();
        zeroed[i..i + 8].fill(0);
        let mut long = clean;
        long[i..i + 4].copy_from_slice(&past_end.to_le_bytes());
        for (what, bytes) in [
            ("a flipped body byte", flipped),
            ("a zeroed header", zeroed),
            ("a length past the durable end", long),
        ] {
            std::fs::write(t.path(), &bytes).unwrap();
            let mut lm = LogManager::new(NodeId(1), Box::new(t.open())).unwrap();
            assert!(
                matches!(lm.read_record(at), Err(Error::Corrupt(_))),
                "{what}: the read refuses it"
            );
            assert_scan_matches_reads(&mut lm, Lsn(8));
            let mut scan = lm.scan(Lsn(8));
            let mut last = None;
            while let Some(r) = scan.next_ref() {
                last = Some(r.map(|(lsn, _)| lsn));
            }
            assert!(
                matches!(last, Some(Err(Error::Corrupt(_)))),
                "{what}: {last:?}"
            );
            assert_eq!(scan.position(), at, "{what}: the scan stops at that record");
        }
    }

    #[test]
    fn append_assigns_increasing_lsns_past_preamble() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        let b = lm.append(&rec(2, a)).unwrap();
        assert_eq!(a, Lsn(8), "first record after preamble");
        assert!(b > a);
        assert_eq!(lm.records_appended(), 2);
    }

    #[test]
    fn read_back_from_tail_and_store() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        let b = lm.append(&rec(2, a)).unwrap();
        // Unflushed: reads come from the tail.
        let (r1, next) = lm.read_record(a).unwrap();
        assert_eq!(r1, rec(1, Lsn::ZERO));
        assert_eq!(next, b);
        lm.force_all().unwrap();
        let c = lm.append(&rec(3, b)).unwrap();
        // Mixed: a,b from store; c from tail.
        assert_eq!(lm.read_record(a).unwrap().0, rec(1, Lsn::ZERO));
        assert_eq!(lm.read_record(b).unwrap().0, rec(2, a));
        assert_eq!(lm.read_record(c).unwrap().0, rec(3, b));
    }

    #[test]
    fn scan_yields_all_records_in_order() {
        let mut lm = lm();
        let mut prev = Lsn::ZERO;
        let mut lsns = Vec::new();
        for i in 1..=5 {
            prev = lm.append(&rec(i, prev)).unwrap();
            lsns.push(prev);
        }
        lm.force(lsns[2]).unwrap();
        let got: Vec<Lsn> = lm.scan(Lsn(8)).map(|r| r.unwrap().0).collect();
        assert_eq!(got, lsns);
    }

    #[test]
    fn force_is_idempotent_and_counted() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        lm.force(a).unwrap();
        lm.force(a).unwrap();
        assert_eq!(lm.forces(), 1);
        assert_eq!(lm.flushed_lsn(), lm.end_lsn());
    }

    #[test]
    fn one_force_covers_a_batch_of_records() {
        let mut lm = lm();
        let mut prev = Lsn::ZERO;
        let mut lsns = Vec::new();
        for i in 1..=4 {
            prev = lm.append(&rec(i, prev)).unwrap();
            lsns.push(prev);
        }
        let syncs0 = lm.store_syncs_counter().get();
        assert_eq!(lm.tail_bytes(), lm.end_lsn().0 - lsns[0].0);
        // One force makes the whole batch durable: one sync, one force.
        lm.force(lsns[1]).unwrap();
        assert_eq!(lm.forces(), 1);
        assert_eq!(lm.store_syncs_counter().get(), syncs0 + 1);
        assert_eq!(lm.flushed_lsn(), lm.end_lsn());
        assert_eq!(lm.tail_bytes(), 0);
        // Every record in the batch reads back from the store.
        for (i, l) in lsns.iter().enumerate() {
            assert_eq!(
                lm.read_record(*l).unwrap().0.txn,
                TxnId::new(NodeId(1), i as u64 + 1)
            );
        }
    }

    #[test]
    fn crash_drops_unforced_tail() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        lm.force_all().unwrap();
        let b = lm.append(&rec(2, a)).unwrap();
        assert!(lm.read_record(b).is_ok());
        lm.simulate_crash();
        assert_eq!(lm.end_lsn(), b, "end rewinds to durable prefix");
        assert!(lm.read_record(b).is_err());
        assert_eq!(lm.read_record(a).unwrap().0, rec(1, Lsn::ZERO));
    }

    #[test]
    fn torn_crash_keeps_valid_prefix_and_repair_discards_the_rest() {
        torn_crash_sweep(&|| Box::new(MemLogStore::new()));
    }

    /// The same sweep on a file store: every torn byte lands inside
    /// the reservation, over zeros, and the repair cuts by zeroing.
    #[test]
    fn torn_crash_sweep_inside_a_file_reservation() {
        let tmp = TempLog::new("torn-sweep");
        torn_crash_sweep(&|| Box::new(tmp.fresh()));
    }

    fn torn_crash_sweep(store: &dyn Fn() -> Box<dyn LogStore>) {
        // Tear at every byte offset of a 3-record unsynced batch: after
        // repair, exactly the records fully (and validly) landed
        // survive; everything else is discarded, never replayed.
        let lm = || LogManager::new(NodeId(1), store()).unwrap();
        let mut probe = lm();
        let mut prev = Lsn::ZERO;
        let mut sizes = Vec::new();
        for i in 1..=3 {
            let l = probe.append(&rec(i, prev)).unwrap();
            sizes.push(probe.end_lsn().0 - l.0);
            prev = l;
        }
        let batch: u64 = sizes.iter().sum();
        for landed in 0..=batch {
            for corrupt in [false, true] {
                let mut lm = lm();
                let base = lm.end_lsn();
                let mut prev = Lsn::ZERO;
                for i in 1..=3 {
                    prev = lm.append(&rec(i, prev)).unwrap();
                }
                lm.simulate_crash_torn(landed, corrupt);
                let torn = lm.repair_tail().unwrap();
                // How many whole records does the (possibly corrupted)
                // landed prefix cover?
                let mut valid = 0u64;
                let mut acc = 0u64;
                for s in &sizes {
                    if acc + s < landed || (acc + s == landed && !corrupt) {
                        acc += s;
                        valid += 1;
                    } else {
                        break;
                    }
                }
                assert_eq!(
                    lm.end_lsn().0 - base.0,
                    acc,
                    "landed={landed} corrupt={corrupt}: exact valid prefix survives"
                );
                assert_eq!(torn, landed - acc, "exact torn suffix discarded");
                // The survivors read back intact; the log appends again.
                let mut n = 0u64;
                for r in lm.scan(base) {
                    r.unwrap();
                    n += 1;
                }
                assert_eq!(n, valid);
                assert!(lm.append(&rec(9, Lsn::ZERO)).is_ok());
            }
        }
    }

    #[test]
    fn repair_scan_is_bounded_by_the_torn_tail_not_the_log() {
        // A long history of forced batches, then a small torn tail: the
        // restart scan must cover only the bytes landed past the last
        // sync, not the whole live window.
        let mut lm = lm();
        let mut prev = Lsn::ZERO;
        for i in 1..=100 {
            prev = lm.append(&rec(i, prev)).unwrap();
            lm.force_all().unwrap();
        }
        let synced = lm.flushed_lsn().0;
        assert!(synced > 4_000, "plenty of history below the boundary");
        // One unsynced record, torn mid-write.
        lm.append(&rec(101, prev)).unwrap();
        let pending = lm.end_lsn().0 - synced;
        let landed = pending / 2;
        lm.simulate_crash_torn(landed, true);
        let scanned0 = lm.repair_scanned_counter().get();
        let torn = lm.repair_tail().unwrap();
        assert_eq!(torn, landed, "whole fragment discarded");
        let scanned = lm.repair_scanned_counter().get() - scanned0;
        assert_eq!(scanned, landed, "scan covers exactly the landed fragment");
        assert!(scanned < synced, "O(torn tail), not O(log)");
        // A second repair on the now-clean log rescans nothing.
        let torn = lm.repair_tail().unwrap();
        assert_eq!(torn, 0);
        assert_eq!(
            lm.repair_scanned_counter().get() - scanned0,
            landed,
            "idempotent repair adds no scan work"
        );
    }

    #[test]
    fn repair_still_discards_torn_records_that_survive_below_store_end() {
        // The fragment contains whole valid records followed by a torn
        // one: the scan starting at the synced boundary must keep the
        // valid prefix and discard only the genuinely torn suffix.
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        lm.force_all().unwrap();
        let b = lm.append(&rec(2, a)).unwrap();
        let c = lm.append(&rec(3, b)).unwrap();
        let second = c.0 - b.0;
        let tail = lm.end_lsn().0 - b.0;
        // Record 2 fully lands, record 3 half-lands.
        let landed = second + (tail - second) / 2;
        lm.simulate_crash_torn(landed, false);
        let torn = lm.repair_tail().unwrap();
        assert_eq!(torn, landed - second);
        assert_eq!(lm.end_lsn(), c, "record 2 survives");
        assert_eq!(lm.read_record(b).unwrap().0, rec(2, a));
    }

    #[test]
    fn reads_near_the_durable_boundary_fail_gracefully() {
        // A record LSN within 8 bytes of `tail_start` (as a stale
        // pointer can produce after a torn-tail truncation) must return
        // Corrupt from every byte offset — never short-read or panic.
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        lm.append(&rec(2, a)).unwrap();
        lm.force_all().unwrap();
        let end = lm.end_lsn().0;
        for off in 1..=8 {
            match lm.read_record(Lsn(end - off)) {
                Err(Error::Corrupt(_)) => {}
                other => panic!("offset {off} below boundary: {other:?}"),
            }
            assert_scan_matches_reads(&mut lm, Lsn(end - off));
        }
        // The same sweep against a truncated torn tail: the boundary
        // moved back, stale LSNs beyond it must still fail cleanly.
        lm.append(&rec(3, Lsn::ZERO)).unwrap();
        let pending = lm.end_lsn().0 - lm.flushed_lsn().0;
        lm.simulate_crash_torn(pending / 2, true);
        lm.repair_tail().unwrap();
        let end = lm.end_lsn().0;
        for off in 1..=8 {
            match lm.read_record(Lsn(end - off)) {
                Err(Error::Corrupt(_)) => {}
                other => panic!("offset {off} after repair: {other:?}"),
            }
            assert_scan_matches_reads(&mut lm, Lsn(end - off));
        }
    }

    #[test]
    fn repair_tail_is_noop_on_clean_log() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        lm.force_all().unwrap();
        lm.simulate_crash();
        assert_eq!(lm.repair_tail().unwrap(), 0);
        assert_eq!(lm.read_record(a).unwrap().0, rec(1, Lsn::ZERO));
    }

    #[test]
    fn bounded_log_reports_full_then_recovers_after_truncate() {
        let mut lm =
            LogManager::with_capacity(NodeId(1), Box::new(MemLogStore::new()), 200).unwrap();
        let mut prev = Lsn::ZERO;
        let mut appended = 0;
        loop {
            match lm.append(&rec(appended + 1, prev)) {
                Ok(l) => {
                    prev = l;
                    appended += 1;
                }
                Err(Error::LogFull(n)) => {
                    assert_eq!(n, NodeId(1));
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(appended < 100, "capacity must bind");
        }
        assert!(appended >= 1);
        // Truncating frees logical space.
        lm.truncate(lm.end_lsn());
        assert!(lm.append(&rec(99, prev)).is_ok());
    }

    #[test]
    fn a_refused_append_leaves_no_trace() {
        // Two logs take the same appends; one is also offered a record
        // too large for what is left. Its tail, its LSNs and what a
        // force then writes must not show that the append was tried.
        let bounded = || {
            let mut lm =
                LogManager::with_capacity(NodeId(1), Box::new(MemLogStore::new()), 400).unwrap();
            let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
            lm.append(&rec(2, a)).unwrap();
            lm
        };
        let (mut tried, mut plain) = (bounded(), bounded());
        let big = sized_rec(3, Lsn::ZERO, 4000);
        assert!(matches!(tried.append(&big), Err(Error::LogFull(_))));
        assert_eq!(tried.tail_bytes(), plain.tail_bytes());
        assert_eq!(tried.tail_record_sizes(), plain.tail_record_sizes());
        assert_eq!(tried.end_lsn(), plain.end_lsn());
        assert_eq!(tried.records_appended(), plain.records_appended());
        for lm in [&mut tried, &mut plain] {
            let b = lm.end_lsn();
            assert_eq!(lm.append(&rec(4, Lsn::ZERO)).unwrap(), b);
            lm.force_all().unwrap();
        }
        assert_eq!(tried.bytes_written(), plain.bytes_written());
        let records =
            |lm: &mut LogManager| -> Vec<_> { lm.scan(Lsn(8)).map(|r| r.unwrap()).collect() };
        assert_eq!(records(&mut tried), records(&mut plain));
        assert_eq!(records(&mut tried).len(), 3);
    }

    #[test]
    fn a_failed_sync_stops_the_log_instead_of_appending_the_tail_twice() {
        let store = SyncFaultStore::new(Box::new(MemLogStore::new()));
        let fail_next = store.fail_next_syncs();
        let mut lm = LogManager::new(NodeId(1), Box::new(store)).unwrap();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        let b = lm.append(&rec(2, a)).unwrap();
        fail_next.store(1, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(lm.force_all(), Err(Error::Io(_))));
        // The write landed and the sync did not. Whatever the manager
        // lets a caller do next, an LSN stays a file offset: a retried
        // force must not write records a and b again behind themselves
        // and then put c at L156 of a 378-byte file.
        let _ = lm.force_all();
        let _ = lm.append(&rec(3, b));
        let _ = lm.force_all();
        assert_eq!(lm.end_lsn().0, lm.store.len());

        // What it lets a caller do is nothing, with the cause named.
        let refused = |r: Result<()>| match r {
            Err(Error::Io(e)) => assert!(e.to_string().contains("injected sync failure"), "{e}"),
            other => panic!("a stopped log accepted the call: {other:?}"),
        };
        refused(lm.append(&rec(3, b)).map(|_| ()));
        refused(lm.force_all());
        refused(lm.write_master(a));
        assert_eq!(lm.flushed_lsn(), a, "the batch was never durable");
        assert_eq!(lm.forces(), 0);
        assert_eq!(lm.read_record(b).unwrap().0, rec(2, a), "reads go on");

        // Restart from the file: the unsynced batch is gone, the log
        // appends and forces again, and c lands where the file ends.
        lm.simulate_crash();
        assert_eq!(lm.repair_tail().unwrap(), 0);
        assert_eq!(lm.end_lsn(), a);
        let c = lm.append(&rec(3, Lsn::ZERO)).unwrap();
        assert_eq!(c, a);
        lm.force_all().unwrap();
        assert_eq!(lm.end_lsn().0, lm.store.len());
        assert_eq!(lm.read_record(c).unwrap().0, rec(3, Lsn::ZERO));
    }

    /// An unforced tail of `n` records; returns their LSNs.
    fn long_tail(lm: &mut LogManager, n: u64) -> Vec<Lsn> {
        let mut prev = Lsn::ZERO;
        (1..=n)
            .map(|i| {
                prev = lm
                    .append(&sized_rec(i, prev, 8 + (i as usize * 13) % 40))
                    .unwrap();
                prev
            })
            .collect()
    }

    #[test]
    fn a_point_read_in_the_tail_does_not_walk_it() {
        let mut lm = lm();
        let lsns = long_tail(&mut lm, 2_000);
        assert_eq!(lm.flushed_lsn(), Lsn(8), "all of it is tail");
        let scanned: Vec<_> = lm.scan(Lsn(8)).map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len(), lsns.len());
        for (i, (lsn, rec)) in scanned.iter().enumerate() {
            assert_eq!(*lsn, lsns[i]);
            let next = lsns.get(i + 1).copied().unwrap_or(lm.end_lsn());
            assert_eq!(lm.read_record(*lsn).unwrap(), (rec.clone(), next));
        }

        // Reading the newest records (what a rollback inside a full
        // batch does) costs the same behind 20 000 records as behind
        // 20. Walking per-record buffers from the first made it ~200×;
        // the best of five rounds keeps the scheduler out of it.
        let newest_16 = |n: u64| {
            let mut lm = self::lm();
            let lsns = long_tail(&mut lm, n);
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    for _ in 0..50 {
                        for &l in &lsns[lsns.len() - 16..] {
                            std::hint::black_box(lm.read_record(l).unwrap());
                        }
                    }
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let (short, long) = (newest_16(20), newest_16(20_000));
        assert!(
            long < short * 8,
            "16 reads at the end of a 20 000-record tail took {long:?}, of a 20-record tail {short:?}"
        );
    }

    #[test]
    fn truncate_never_regresses() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        let b = lm.append(&rec(2, a)).unwrap();
        lm.truncate(b);
        lm.truncate(a); // ignored
        assert_eq!(lm.base_lsn(), b);
        assert!(lm.read_record(a).is_err(), "below truncation point");
    }

    #[test]
    fn master_record_round_trips_through_restart() {
        let mut store = Box::new(MemLogStore::new());
        // First life.
        let ckpt;
        {
            let mut lm = LogManager::new(NodeId(1), store).unwrap();
            let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
            ckpt = a;
            lm.force_all().unwrap();
            lm.write_master(ckpt).unwrap();
            lm.simulate_crash();
            // Reclaim the store for the "restart".
            store = Box::new(MemLogStore::new());
            // (MemLogStore cannot be moved out of lm; rebuild a real
            // restart scenario below with a fresh manager over the same
            // data via FileLogStore in the integration tests. Here we
            // at least verify master round-trip by re-reading.)
            assert_eq!(lm.last_checkpoint(), ckpt);
        }
        let lm2 = LogManager::new(NodeId(1), store).unwrap();
        assert_eq!(lm2.last_checkpoint(), Lsn::ZERO);
    }

    #[test]
    fn scan_from_middle() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        let b = lm.append(&rec(2, a)).unwrap();
        let c = lm.append(&rec(3, b)).unwrap();
        let got: Vec<Lsn> = lm.scan(b).map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![b, c]);
    }

    #[test]
    fn reads_outside_the_log_are_rejected() {
        let mut lm = lm();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        // Past the end.
        assert!(lm.read_record(lm.end_lsn()).is_err());
        // Mid-record offset decodes garbage and is caught by the crc.
        assert!(lm.read_record(a.advance(4)).is_err());
        // Below the preamble.
        lm.truncate(a);
        assert!(lm.read_record(Lsn(0)).is_err());
    }

    #[test]
    fn scan_from_end_is_empty() {
        let mut lm = lm();
        lm.append(&rec(1, Lsn::ZERO)).unwrap();
        let end = lm.end_lsn();
        assert_eq!(lm.scan(end).count(), 0);
    }

    #[test]
    fn end_lsn_is_conservative_redo_lsn_source() {
        let mut lm = lm();
        let end0 = lm.end_lsn();
        let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
        assert_eq!(a, end0, "record lands exactly at prior end-of-log");
    }

    /// A store that cannot report its synced boundary — the freshly
    /// reopened file case — so [`LogManager::repair_tail`] must fall
    /// back to the master record's checkpoint anchor and rescan the
    /// forced suffix it can no longer trust blindly.
    struct OpaqueSyncStore(Box<dyn LogStore>);

    impl LogStore for OpaqueSyncStore {
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn append(&mut self, bytes: &[u8]) -> Result<()> {
            self.0.append(bytes)
        }
        fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> Result<()> {
            self.0.read_at(pos, buf)
        }
        fn sync(&mut self) -> Result<()> {
            self.0.sync()
        }
        fn synced_len(&self) -> Option<u64> {
            None
        }
        fn write_master(&mut self, bytes: &[u8]) -> Result<()> {
            self.0.write_master(bytes)
        }
        fn read_master(&mut self) -> Result<Vec<u8>> {
            self.0.read_master()
        }
        fn crash(&mut self) {
            self.0.crash()
        }
        fn crash_with_partial_tail(&mut self, partial: &[u8]) {
            self.0.crash_with_partial_tail(partial)
        }
        fn truncate_to(&mut self, len: u64) {
            self.0.truncate_to(len)
        }
        fn syncs(&self) -> &Counter {
            self.0.syncs()
        }
        fn bytes_appended(&self) -> &Counter {
            self.0.bytes_appended()
        }
    }

    /// Per-byte torn-tail sweep over the checkpoint-anchor fallback
    /// path: with no synced boundary available the repair scan starts
    /// at the anchor, revalidates the forced records above it, and
    /// must (a) never cut below the forced boundary, (b) always land
    /// on a record boundary — exactly the landed prefix for a clean
    /// tear on a boundary (including `landed == 0`, the tear exactly
    /// on the durable end), one record back when the boundary byte is
    /// corrupted.
    #[test]
    fn repair_fallback_per_byte_sweep_over_anchor_boundary() {
        repair_fallback_sweep(&|| Box::new(MemLogStore::new()));
    }

    /// The same sweep with the torn bytes landing inside a file
    /// store's reservation.
    #[test]
    fn repair_fallback_sweep_inside_a_file_reservation() {
        let tmp = TempLog::new("fallback-sweep");
        repair_fallback_sweep(&|| Box::new(tmp.fresh()));
    }

    fn repair_fallback_sweep(store: &dyn Fn() -> Box<dyn LogStore>) {
        let build = || {
            let mut lm = LogManager::new(NodeId(1), Box::new(OpaqueSyncStore(store()))).unwrap();
            // Anchored history: two records forced, master points at
            // the second (the checkpoint stand-in), two more forced
            // past the anchor, two left pending in the tail.
            let a = lm.append(&rec(1, Lsn::ZERO)).unwrap();
            let ckpt = lm.append(&rec(2, a)).unwrap();
            lm.force_all().unwrap();
            lm.write_master(ckpt).unwrap();
            let c = lm.append(&rec(3, ckpt)).unwrap();
            let d = lm.append(&rec(4, c)).unwrap();
            lm.force_all().unwrap();
            let e = lm.append(&rec(5, d)).unwrap();
            lm.append(&rec(6, e)).unwrap();
            lm
        };
        let probe = build();
        let forced_end = probe.flushed_lsn().0;
        let sizes = probe.tail_record_sizes();
        assert_eq!(sizes.len(), 2);
        let pending = probe.tail_bytes();
        for landed in 0..=pending {
            for corrupt in [false, true] {
                let mut lm = build();
                lm.simulate_crash_torn(landed, corrupt);
                lm.repair_tail().unwrap();
                let end = lm.end_lsn().0;
                assert!(
                    end >= forced_end,
                    "landed={landed} corrupt={corrupt}: repair cut below \
                     the forced boundary ({end} < {forced_end})"
                );
                let boundary_at = |n: u64| forced_end + sizes.iter().take(n as usize).sum::<u64>();
                let whole = if landed >= sizes[0] + sizes[1] {
                    2
                } else if landed >= sizes[0] {
                    1
                } else {
                    0
                };
                let on_boundary = landed == boundary_at(whole) - forced_end;
                let want = if corrupt && landed > 0 {
                    // The corrupted byte invalidates the record it
                    // lands in — even when the tear is otherwise
                    // boundary-aligned.
                    boundary_at(whole.saturating_sub(on_boundary as u64))
                } else {
                    boundary_at(whole)
                };
                assert_eq!(
                    end, want,
                    "landed={landed} corrupt={corrupt}: repair landed off-boundary"
                );
                // Everything kept is readable from the anchor down,
                // by scan exactly as by point reads.
                let kept: Vec<_> = lm.scan(Lsn(8)).collect::<Result<_>>().unwrap();
                assert!(kept.len() >= 4, "landed={landed}: forced records lost");
                assert_scan_matches_reads(&mut lm, Lsn(8));
            }
        }
    }

    /// Unclean exit of a file store: its reservation stays on disk, so
    /// the reopened store is physically longer than the log and cannot
    /// say where it was synced. Restart must end at the last synced
    /// record and lose none — from the checkpoint anchor when there is
    /// one, from the truncation point when there is not.
    #[test]
    fn unclean_exit_leaves_a_reservation_that_repair_cuts_off() {
        for anchored in [false, true] {
            let tmp = TempLog::new("unclean");
            let mut lm = LogManager::new(NodeId(1), Box::new(tmp.open())).unwrap();
            let mut prev = Lsn::ZERO;
            let mut lsns = Vec::new();
            for i in 1..=40 {
                prev = lm
                    .append(&sized_rec(i, prev, 30 + (i as usize * 37) % 300))
                    .unwrap();
                lsns.push(prev);
                if i % 4 == 0 {
                    lm.force_all().unwrap();
                }
                if anchored && i == 20 {
                    lm.write_master(prev).unwrap();
                }
            }
            let end = lm.end_lsn();
            assert_eq!(lm.flushed_lsn(), end);
            std::mem::forget(lm);

            let store = tmp.open();
            assert!(store.len() > end.0, "the reservation survived the exit");
            let mut lm = LogManager::new(NodeId(1), Box::new(store)).unwrap();
            let reserved = lm.end_lsn().0 - end.0;
            assert_eq!(lm.repair_tail().unwrap(), reserved, "only zeros are cut");
            assert_eq!(lm.end_lsn(), end, "restart ends at the last synced record");
            let got: Vec<Lsn> = lm.scan(lsns[0]).map(|r| r.unwrap().0).collect();
            assert_eq!(got, lsns, "no synced record lost");
            assert_eq!(lm.repair_tail().unwrap(), 0, "idempotent");
            // The log goes on from there, and a clean exit trims it.
            let next = lm.append(&rec(41, prev)).unwrap();
            assert_eq!(next, end);
            lm.force_all().unwrap();
            let end = lm.end_lsn();
            drop(lm);
            assert_eq!(tmp.open().len(), end.0);
        }
    }
}
