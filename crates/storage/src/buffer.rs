//! Buffer pool (node cache) with steal / no-force semantics.
//!
//! Paper §2.1: "Each node has a buffer pool (node cache) where
//! frequently accessed pages are cached to minimize disk I/O and
//! communication with owner nodes. The buffer manager of each node
//! follows the steal and no-force strategies."
//!
//! The pool is policy-only: it never performs I/O. When insertion of a
//! new page requires evicting a victim, the victim is handed back to
//! the caller ([`EvictedPage`]), and the node decides the destination —
//! written in place for locally owned pages, shipped to the owner node
//! for remote pages (§2.1) — after satisfying the WAL rule. This keeps
//! the paper's protocol decisions out of the replacement mechanism and
//! makes both independently testable.
//!
//! Replacement is the clock (second-chance) algorithm; pinned frames
//! are never victims.

use crate::page::Page;
use cblog_common::{Counter, Error, IdMap, PageId, Result};

#[derive(Debug)]
struct Frame {
    page: Page,
    dirty: bool,
    pins: u32,
    refbit: bool,
}

/// A page pushed out of the pool, to be routed by the caller.
#[derive(Debug)]
pub struct EvictedPage {
    /// The evicted page image.
    pub page: Page,
    /// Whether the image differs from the last image the node wrote /
    /// shipped (i.e. whether the destination must absorb it).
    pub dirty: bool,
}

/// Fixed-capacity page cache.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Option<Frame>>,
    map: IdMap<PageId, usize>,
    clock_hand: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl BufferPool {
    /// Pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: (0..capacity).map(|_| None).collect(),
            map: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            clock_hand: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Cache-hit counter.
    pub fn hits(&self) -> &Counter {
        &self.hits
    }

    /// Cache-miss counter (bumped by lookups that return `None`).
    pub fn misses(&self) -> &Counter {
        &self.misses
    }

    /// Eviction counter.
    pub fn evictions(&self) -> &Counter {
        &self.evictions
    }

    /// True if `pid` is cached.
    pub fn contains(&self, pid: PageId) -> bool {
        self.map.contains_key(&pid)
    }

    /// Mutable lookup. Does **not** set the dirty flag — pure reads
    /// through mutable access stay clean; update paths call
    /// [`BufferPool::mark_dirty`] explicitly alongside logging.
    pub fn get_mut(&mut self, pid: PageId) -> Option<&mut Page> {
        self.get_for_update(pid).map(|(page, _)| page)
    }

    /// The lookup of an update path: the page and its dirty flag from
    /// one probe of the map, counted and marked recently used like
    /// [`BufferPool::get_mut`]. The caller sets the flag once the
    /// update it logs has been applied.
    pub fn get_for_update(&mut self, pid: PageId) -> Option<(&mut Page, &mut bool)> {
        match self.map.get(&pid) {
            Some(&i) => {
                self.hits.bump();
                let f = self.frames[i].as_mut().expect("mapped frame occupied");
                f.refbit = true;
                Some((&mut f.page, &mut f.dirty))
            }
            None => {
                self.misses.bump();
                None
            }
        }
    }

    /// Peeks without touching hit/miss counters or the ref bit.
    pub fn peek(&self, pid: PageId) -> Option<&Page> {
        self.map
            .get(&pid)
            .map(|&i| &self.frames[i].as_ref().expect("mapped frame occupied").page)
    }

    /// Marks a cached page dirty.
    pub fn mark_dirty(&mut self, pid: PageId) {
        if let Some(&i) = self.map.get(&pid) {
            self.frames[i]
                .as_mut()
                .expect("mapped frame occupied")
                .dirty = true;
        }
    }

    /// Clears the dirty flag (after the image has been written/shipped).
    pub fn mark_clean(&mut self, pid: PageId) {
        if let Some(&i) = self.map.get(&pid) {
            self.frames[i]
                .as_mut()
                .expect("mapped frame occupied")
                .dirty = false;
        }
    }

    /// Whether a cached page is dirty (None if not cached).
    pub fn is_dirty(&self, pid: PageId) -> Option<bool> {
        self.map.get(&pid).map(|&i| {
            self.frames[i]
                .as_ref()
                .expect("mapped frame occupied")
                .dirty
        })
    }

    /// Pins a page (excluded from eviction until unpinned).
    pub fn pin(&mut self, pid: PageId) -> Result<()> {
        let &i = self.map.get(&pid).ok_or(Error::NoSuchPage(pid))?;
        self.frames[i].as_mut().expect("mapped frame occupied").pins += 1;
        Ok(())
    }

    /// Unpins a page.
    pub fn unpin(&mut self, pid: PageId) -> Result<()> {
        let &i = self.map.get(&pid).ok_or(Error::NoSuchPage(pid))?;
        let f = self.frames[i].as_mut().expect("mapped frame occupied");
        if f.pins == 0 {
            return Err(Error::Protocol(format!("unpin of unpinned page {pid}")));
        }
        f.pins -= 1;
        Ok(())
    }

    /// Inserts (or replaces) a page image. Returns the victim evicted
    /// to make room, if any. Replacing an existing entry keeps the
    /// frame and ORs the dirty flag.
    pub fn insert(&mut self, page: Page, dirty: bool) -> Result<Option<EvictedPage>> {
        let pid = page.id();
        if let Some(&i) = self.map.get(&pid) {
            let f = self.frames[i].as_mut().expect("mapped frame occupied");
            f.page = page;
            f.dirty |= dirty;
            f.refbit = true;
            return Ok(None);
        }
        let (slot, victim) = self.find_slot()?;
        self.frames[slot] = Some(Frame {
            page,
            dirty,
            pins: 0,
            refbit: true,
        });
        self.map.insert(pid, slot);
        Ok(victim)
    }

    fn find_slot(&mut self) -> Result<(usize, Option<EvictedPage>)> {
        if self.map.len() < self.capacity {
            let slot = self
                .frames
                .iter()
                .position(|f| f.is_none())
                .expect("len < capacity implies a free frame");
            return Ok((slot, None));
        }
        // Clock sweep: up to two full passes (first clears ref bits).
        for _ in 0..2 * self.capacity {
            let i = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % self.capacity;
            let f = self.frames[i].as_mut().expect("full pool");
            if f.pins > 0 {
                continue;
            }
            if f.refbit {
                f.refbit = false;
                continue;
            }
            let frame = self.frames[i].take().expect("occupied");
            self.map.remove(&frame.page.id());
            self.evictions.bump();
            return Ok((
                i,
                Some(EvictedPage {
                    page: frame.page,
                    dirty: frame.dirty,
                }),
            ));
        }
        Err(Error::Protocol("all buffer frames pinned".into()))
    }

    /// Removes a specific page (e.g. callback purge, targeted
    /// replacement by the log-space protocol §2.5), returning it.
    pub fn remove(&mut self, pid: PageId) -> Option<EvictedPage> {
        let i = self.map.remove(&pid)?;
        let f = self.frames[i].take().expect("mapped frame occupied");
        Some(EvictedPage {
            page: f.page,
            dirty: f.dirty,
        })
    }

    /// Drops everything (node crash: cache contents are lost, §2.3).
    pub fn clear(&mut self) {
        self.map.clear();
        for f in &mut self.frames {
            *f = None;
        }
        self.clock_hand = 0;
    }

    /// Ids of all cached pages.
    pub fn cached_ids(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.map.keys().copied().collect();
        v.sort();
        v
    }

    /// Ids of all dirty cached pages.
    pub fn dirty_ids(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .map
            .iter()
            .filter(|(_, &i)| self.frames[i].as_ref().expect("occupied").dirty)
            .map(|(pid, _)| *pid)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;
    use cblog_common::{NodeId, Psn};

    fn page(i: u32) -> Page {
        Page::new(PageId::new(NodeId(1), i), PageKind::Raw, Psn(1), 128)
    }

    fn pid(i: u32) -> PageId {
        PageId::new(NodeId(1), i)
    }

    #[test]
    fn insert_and_get_counts_hits_and_misses() {
        let mut bp = BufferPool::new(4);
        bp.insert(page(0), false).unwrap();
        assert!(bp.get_mut(pid(0)).is_some());
        assert!(bp.get_mut(pid(1)).is_none());
        assert_eq!(bp.hits().get(), 1);
        assert_eq!(bp.misses().get(), 1);
    }

    #[test]
    fn eviction_returns_victim_when_full() {
        let mut bp = BufferPool::new(2);
        assert!(bp.insert(page(0), false).unwrap().is_none());
        assert!(bp.insert(page(1), true).unwrap().is_none());
        let victim = bp.insert(page(2), false).unwrap().expect("must evict");
        assert_eq!(bp.cached_ids().len(), 2);
        assert_eq!(bp.evictions().get(), 1);
        assert!(victim.page.id() == pid(0) || victim.page.id() == pid(1));
    }

    #[test]
    fn clock_gives_referenced_frames_a_second_chance() {
        let mut bp = BufferPool::new(3);
        bp.insert(page(0), false).unwrap();
        bp.insert(page(1), false).unwrap();
        bp.insert(page(2), false).unwrap();
        // All ref bits set: the first sweep clears them in frame order
        // and evicts frame 0 on the second visit.
        let v1 = bp.insert(page(3), false).unwrap().unwrap();
        assert_eq!(v1.page.id(), pid(0));
        // Re-reference page 2; page 1's ref bit stays clear, so it is
        // the next victim even though page 2 sits behind the hand.
        bp.get_mut(pid(2));
        let v2 = bp.insert(page(4), false).unwrap().unwrap();
        assert_eq!(v2.page.id(), pid(1));
        assert!(bp.contains(pid(2)));
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let mut bp = BufferPool::new(2);
        bp.insert(page(0), false).unwrap();
        bp.insert(page(1), false).unwrap();
        bp.pin(pid(0)).unwrap();
        let v = bp.insert(page(2), false).unwrap().unwrap();
        assert_eq!(v.page.id(), pid(1));
        bp.pin(pid(2)).unwrap();
        // Both remaining pages pinned: insertion must fail.
        assert!(bp.insert(page(3), false).is_err());
        bp.unpin(pid(0)).unwrap();
        assert!(bp.insert(page(3), false).unwrap().is_some());
    }

    #[test]
    fn unpin_underflow_is_protocol_error() {
        let mut bp = BufferPool::new(2);
        bp.insert(page(0), false).unwrap();
        assert!(matches!(bp.unpin(pid(0)), Err(Error::Protocol(_))));
        assert!(matches!(bp.pin(pid(9)), Err(Error::NoSuchPage(_))));
    }

    #[test]
    fn dirty_tracking_and_replacement_or_semantics() {
        let mut bp = BufferPool::new(2);
        bp.insert(page(0), true).unwrap();
        assert_eq!(bp.is_dirty(pid(0)), Some(true));
        // Replacing with a clean image keeps dirty (OR semantics).
        bp.insert(page(0), false).unwrap();
        assert_eq!(bp.is_dirty(pid(0)), Some(true));
        bp.mark_clean(pid(0));
        assert_eq!(bp.is_dirty(pid(0)), Some(false));
        bp.mark_dirty(pid(0));
        assert_eq!(bp.dirty_ids(), vec![pid(0)]);
    }

    #[test]
    fn get_for_update_is_one_counted_lookup_with_the_dirty_flag() {
        let mut bp = BufferPool::new(2);
        bp.insert(page(0), false).unwrap();
        assert!(bp.get_for_update(pid(1)).is_none());
        let (p, dirty) = bp.get_for_update(pid(0)).unwrap();
        assert!(!*dirty);
        p.bump_psn();
        *dirty = true;
        assert_eq!(bp.is_dirty(pid(0)), Some(true));
        assert_eq!(bp.peek(pid(0)).unwrap().psn(), Psn(2));
        assert_eq!((bp.hits().get(), bp.misses().get()), (1, 1));
    }

    #[test]
    fn remove_and_clear() {
        let mut bp = BufferPool::new(4);
        bp.insert(page(0), true).unwrap();
        bp.insert(page(1), false).unwrap();
        let ev = bp.remove(pid(0)).unwrap();
        assert!(ev.dirty);
        assert!(bp.remove(pid(0)).is_none());
        bp.clear();
        assert!(bp.cached_ids().is_empty());
        assert!(!bp.contains(pid(1)));
    }

    #[test]
    fn cached_ids_sorted() {
        let mut bp = BufferPool::new(4);
        bp.insert(page(3), false).unwrap();
        bp.insert(page(1), false).unwrap();
        bp.insert(page(2), true).unwrap();
        assert_eq!(bp.cached_ids(), vec![pid(1), pid(2), pid(3)]);
    }

    #[test]
    fn peek_does_not_perturb_stats() {
        let mut bp = BufferPool::new(2);
        bp.insert(page(0), false).unwrap();
        assert!(bp.peek(pid(0)).is_some());
        assert!(bp.peek(pid(1)).is_none());
        assert_eq!(bp.hits().get(), 0);
        assert_eq!(bp.misses().get(), 0);
    }
}
