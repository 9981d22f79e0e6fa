//! The dirty page table (DPT), maintained exactly as paper §2.2 and
//! §2.5 prescribe.
//!
//! A node's DPT has an entry for every page the node has modified whose
//! updates may not yet be reflected in the disk version of the database
//! — including pages owned by *remote* nodes. The entry records:
//!
//! * `PSN` — the page's PSN when the entry was created (first update /
//!   X-lock grant),
//! * `CurrPSN` — the page's PSN after its most recent local update,
//! * `RedoLSN` — the LSN of the earliest local log record that may need
//!   to be redone for the page.
//!
//! Entries are added when the node obtains an exclusive lock (with
//! RedoLSN conservatively set to the current end of the log) and
//! removed when:
//!
//! * an *owned* page is forced to the local disk, or
//! * a flush acknowledgment arrives from the owner of a *remote* page
//!   and the page has not been updated again since it was last replaced
//!   from the cache.
//!
//! For the §2.5 log-space protocol, the entry also remembers the local
//! end-of-log LSN at the moment the page was last replaced from the
//! cache: on flush-ack, if the page *was* re-updated, RedoLSN advances
//! to that remembered LSN instead of the entry being dropped.

use cblog_common::{Decoder, Encoder, IdMap, Lsn, NodeId, PageId, Psn, Result};

/// One DPT entry (paper §2.2 fields plus §2.5 bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DptEntry {
    /// The page.
    pub pid: PageId,
    /// Page PSN when the entry was created.
    pub psn_first: Psn,
    /// Page PSN after the most recent local update.
    pub curr_psn: Psn,
    /// Earliest local log record that may need redo for this page.
    pub redo_lsn: Lsn,
    /// Local end-of-log when the page was last replaced from the cache
    /// (None if never replaced since entry creation).
    pub replaced_at_lsn: Option<Lsn>,
    /// Has the page been updated locally since the last replacement?
    pub updated_since_replace: bool,
}

impl DptEntry {
    /// Fresh entry created at X-lock grant / first update time.
    pub fn new(pid: PageId, psn: Psn, end_of_log: Lsn) -> Self {
        DptEntry {
            pid,
            psn_first: psn,
            curr_psn: psn,
            redo_lsn: end_of_log,
            replaced_at_lsn: None,
            updated_since_replace: true,
        }
    }

    /// Serializes the entry (checkpoint bodies, recovery messages).
    pub fn encode(&self, e: &mut Encoder) {
        e.put_page(self.pid);
        e.put_psn(self.psn_first);
        e.put_psn(self.curr_psn);
        e.put_lsn(self.redo_lsn);
        match self.replaced_at_lsn {
            Some(l) => {
                e.put_u8(1);
                e.put_lsn(l);
            }
            None => e.put_u8(0),
        }
        e.put_u8(self.updated_since_replace as u8);
    }

    /// Inverse of [`DptEntry::encode`].
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        let pid = d.get_page()?;
        let psn_first = d.get_psn()?;
        let curr_psn = d.get_psn()?;
        let redo_lsn = d.get_lsn()?;
        let replaced_at_lsn = if d.get_u8()? != 0 {
            Some(d.get_lsn()?)
        } else {
            None
        };
        let updated_since_replace = d.get_u8()? != 0;
        Ok(DptEntry {
            pid,
            psn_first,
            curr_psn,
            redo_lsn,
            replaced_at_lsn,
            updated_since_replace,
        })
    }
}

/// A node's dirty page table.
#[derive(Clone, Debug, Default)]
pub struct DirtyPageTable {
    entries: IdMap<PageId, DptEntry>,
}

impl DirtyPageTable {
    /// Empty table.
    pub fn new() -> Self {
        DirtyPageTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `pid`, if any.
    pub fn get(&self, pid: PageId) -> Option<&DptEntry> {
        self.entries.get(&pid)
    }

    /// True if `pid` has an entry.
    pub fn contains(&self, pid: PageId) -> bool {
        self.entries.contains_key(&pid)
    }

    /// Adds an entry if absent (X-lock grant path, §2.2). `psn` is the
    /// page's current PSN; `end_of_log` the conservative RedoLSN.
    pub fn ensure(&mut self, pid: PageId, psn: Psn, end_of_log: Lsn) -> &mut DptEntry {
        self.entries
            .entry(pid)
            .or_insert_with(|| DptEntry::new(pid, psn, end_of_log))
    }

    /// Records a local update: CurrPSN becomes the PSN *after* the
    /// update; creates the entry if needed (a cached X lock lets a node
    /// update a page long after the lock-grant-time entry was dropped
    /// by a flush-ack).
    pub fn on_update(&mut self, pid: PageId, psn_after: Psn, rec_lsn: Lsn) {
        let e = self
            .entries
            .entry(pid)
            .or_insert_with(|| DptEntry::new(pid, Psn(psn_after.0.saturating_sub(1)), rec_lsn));
        e.curr_psn = psn_after;
        e.updated_since_replace = true;
    }

    /// Records that the page was replaced from the local cache and sent
    /// away; remembers the end-of-log LSN for the §2.5 protocol.
    pub fn on_replace(&mut self, pid: PageId, end_of_log: Lsn) {
        if let Some(e) = self.entries.get_mut(&pid) {
            e.replaced_at_lsn = Some(end_of_log);
            e.updated_since_replace = false;
        }
    }

    /// Handles a flush acknowledgment from the owner of a remote page:
    /// drops the entry if the page was not updated again after its last
    /// replacement; otherwise advances RedoLSN to the remembered
    /// end-of-log (§2.5). Returns true if the entry was dropped.
    pub fn on_flush_ack(&mut self, pid: PageId) -> bool {
        match self.entries.get_mut(&pid) {
            Some(e) if !e.updated_since_replace => {
                self.entries.remove(&pid);
                true
            }
            Some(e) => {
                if let Some(l) = e.replaced_at_lsn {
                    e.redo_lsn = Lsn(e.redo_lsn.0.max(l.0));
                }
                false
            }
            None => false,
        }
    }

    /// Removes the entry for an *owned* page forced to the local disk.
    pub fn remove(&mut self, pid: PageId) -> Option<DptEntry> {
        self.entries.remove(&pid)
    }

    /// Inserts a pre-built entry (restart analysis, checkpoint replay).
    pub fn insert(&mut self, e: DptEntry) {
        self.entries.insert(e.pid, e);
    }

    /// Clears the table (node crash loses it; restart rebuilds).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Minimum RedoLSN across all entries — the point below which the
    /// local log can be truncated (§2.5).
    pub fn min_redo_lsn(&self) -> Option<Lsn> {
        self.entries.values().map(|e| e.redo_lsn).min()
    }

    /// The entry with the minimum RedoLSN (the §2.5 protocol replaces
    /// this page first when log space runs short).
    pub fn min_redo_entry(&self) -> Option<&DptEntry> {
        self.entries.values().min_by_key(|e| (e.redo_lsn, e.pid))
    }

    /// All entries, sorted by page id (deterministic iteration).
    pub fn entries(&self) -> Vec<DptEntry> {
        let mut v: Vec<DptEntry> = self.entries.values().copied().collect();
        v.sort_by_key(|e| e.pid);
        v
    }

    /// Entries for pages owned by `owner` (recovery information
    /// requests, §2.3.1/§2.4).
    pub fn entries_for_owner(&self, owner: NodeId) -> Vec<DptEntry> {
        let mut v: Vec<DptEntry> = self
            .entries
            .values()
            .filter(|e| e.pid.owner == owner)
            .copied()
            .collect();
        v.sort_by_key(|e| e.pid);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PageId {
        PageId::new(NodeId(2), i)
    }

    #[test]
    fn ensure_is_idempotent_and_conservative() {
        let mut dpt = DirtyPageTable::new();
        dpt.ensure(pid(1), Psn(10), Lsn(100));
        dpt.ensure(pid(1), Psn(99), Lsn(999)); // no effect
        let e = dpt.get(pid(1)).unwrap();
        assert_eq!(e.psn_first, Psn(10));
        assert_eq!(e.curr_psn, Psn(10));
        assert_eq!(e.redo_lsn, Lsn(100));
    }

    #[test]
    fn update_tracks_curr_psn() {
        let mut dpt = DirtyPageTable::new();
        dpt.ensure(pid(1), Psn(10), Lsn(100));
        dpt.on_update(pid(1), Psn(11), Lsn(120));
        dpt.on_update(pid(1), Psn(12), Lsn(140));
        let e = dpt.get(pid(1)).unwrap();
        assert_eq!(e.curr_psn, Psn(12));
        assert_eq!(e.redo_lsn, Lsn(100), "RedoLSN stays at entry creation");
    }

    #[test]
    fn update_without_entry_recreates_one() {
        // A cached X lock allows updates long after a flush-ack dropped
        // the entry; the update itself must re-create it.
        let mut dpt = DirtyPageTable::new();
        dpt.on_update(pid(3), Psn(21), Lsn(500));
        let e = dpt.get(pid(3)).unwrap();
        assert_eq!(e.curr_psn, Psn(21));
        assert_eq!(e.redo_lsn, Lsn(500));
    }

    #[test]
    fn flush_ack_drops_entry_when_not_redirtied() {
        let mut dpt = DirtyPageTable::new();
        dpt.ensure(pid(1), Psn(10), Lsn(100));
        dpt.on_update(pid(1), Psn(11), Lsn(100));
        dpt.on_replace(pid(1), Lsn(200));
        assert!(dpt.on_flush_ack(pid(1)), "entry should drop");
        assert!(!dpt.contains(pid(1)));
    }

    #[test]
    fn flush_ack_advances_redo_lsn_when_redirtied() {
        let mut dpt = DirtyPageTable::new();
        dpt.ensure(pid(1), Psn(10), Lsn(100));
        dpt.on_update(pid(1), Psn(11), Lsn(100));
        dpt.on_replace(pid(1), Lsn(200));
        // Page comes back and is updated again before the owner's
        // flush-ack arrives.
        dpt.on_update(pid(1), Psn(12), Lsn(250));
        assert!(!dpt.on_flush_ack(pid(1)), "entry must survive");
        let e = dpt.get(pid(1)).unwrap();
        assert_eq!(
            e.redo_lsn,
            Lsn(200),
            "RedoLSN advances to remembered end-of-log"
        );
        assert_eq!(e.curr_psn, Psn(12));
    }

    #[test]
    fn flush_ack_for_unknown_page_is_noop() {
        let mut dpt = DirtyPageTable::new();
        assert!(!dpt.on_flush_ack(pid(9)));
    }

    #[test]
    fn min_redo_lsn_and_entry() {
        let mut dpt = DirtyPageTable::new();
        assert_eq!(dpt.min_redo_lsn(), None);
        dpt.ensure(pid(1), Psn(1), Lsn(300));
        dpt.ensure(pid(2), Psn(1), Lsn(100));
        dpt.ensure(pid(3), Psn(1), Lsn(200));
        assert_eq!(dpt.min_redo_lsn(), Some(Lsn(100)));
        assert_eq!(dpt.min_redo_entry().unwrap().pid, pid(2));
    }

    #[test]
    fn entries_for_owner_filters_and_sorts() {
        let mut dpt = DirtyPageTable::new();
        let remote = PageId::new(NodeId(7), 0);
        dpt.ensure(pid(2), Psn(1), Lsn(1));
        dpt.ensure(remote, Psn(1), Lsn(2));
        dpt.ensure(pid(1), Psn(1), Lsn(3));
        let own = dpt.entries_for_owner(NodeId(2));
        assert_eq!(own.len(), 2);
        assert_eq!(own[0].pid, pid(1));
        assert_eq!(own[1].pid, pid(2));
        assert_eq!(dpt.entries_for_owner(NodeId(7)).len(), 1);
        assert_eq!(dpt.entries().len(), 3);
    }

    #[test]
    fn entry_encode_decode_round_trips() {
        let mut e = Encoder::new();
        let ent = DptEntry {
            pid: pid(4),
            psn_first: Psn(5),
            curr_psn: Psn(9),
            redo_lsn: Lsn(77),
            replaced_at_lsn: Some(Lsn(88)),
            updated_since_replace: true,
        };
        ent.encode(&mut e);
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(DptEntry::decode(&mut d).unwrap(), ent);

        let mut e2 = Encoder::new();
        let ent2 = DptEntry::new(pid(1), Psn(3), Lsn(10));
        ent2.encode(&mut e2);
        let v2 = e2.into_vec();
        let mut d2 = Decoder::new(&v2);
        assert_eq!(DptEntry::decode(&mut d2).unwrap(), ent2);
    }
}
