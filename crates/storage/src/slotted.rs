//! Slotted record pages for logical (record-operation) logging.
//!
//! The paper (§3.2, comparing against PCA) points out that its
//! algorithms support "both physical and logical logging". Physical
//! logging works on raw byte ranges; logical logging needs a record
//! abstraction whose operations (insert / delete / update by slot) have
//! well-defined inverses. This module provides that abstraction.
//!
//! Body layout (offsets relative to the page body):
//!
//! ```text
//! 0      2   slot directory length (number of slots, including dead)
//! 2      2   heap floor: lowest byte offset used by record data
//! 4      4*n slot directory: per slot { offset u16, len u16 },
//!            offset == 0xFFFF marks a dead (deleted) slot
//! ...    ... free space
//! heap.. end record payloads, allocated from the end backwards
//! ```
//!
//! Deletions leave a dead slot so slot numbers (rids) remain stable;
//! re-inserting *at a specific slot* is required to undo a delete.
//! Compaction slides live payloads to the end to defragment free space
//! without renumbering slots.

use crate::page::Page;
use cblog_common::{Error, Result};

const DIR_HEADER: usize = 4;
const SLOT_ENTRY: usize = 4;
const DEAD: u16 = 0xFFFF;

/// A view over a [`Page`] interpreting its body as a slotted page.
///
/// All mutating operations leave PSN management to the caller, matching
/// the raw-page discipline: one logged operation = one PSN bump.
pub struct SlottedPage<'a> {
    page: &'a mut Page,
}

impl<'a> SlottedPage<'a> {
    /// Wraps `page`; formats the directory if the body is all zero and
    /// unformatted (fresh page).
    pub fn new(page: &'a mut Page) -> Self {
        let mut sp = SlottedPage { page };
        if sp.heap_floor() == 0 {
            let end = sp.body_len() as u16;
            sp.set_heap_floor(end);
        }
        sp
    }

    fn body_len(&self) -> usize {
        self.page.body().len()
    }

    fn read_u16(&self, off: usize) -> u16 {
        let b = self.page.body();
        u16::from_le_bytes([b[off], b[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        let b = self.page.body_mut();
        b[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of directory entries (live + dead).
    pub fn dir_len(&self) -> u16 {
        self.read_u16(0)
    }

    fn set_dir_len(&mut self, v: u16) {
        self.write_u16(0, v);
    }

    fn heap_floor(&self) -> u16 {
        self.read_u16(2)
    }

    fn set_heap_floor(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let off = DIR_HEADER + slot as usize * SLOT_ENTRY;
        (self.read_u16(off), self.read_u16(off + 2))
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let off = DIR_HEADER + slot as usize * SLOT_ENTRY;
        self.write_u16(off, offset);
        self.write_u16(off + 2, len);
    }

    /// Contiguous free space between directory and heap.
    pub fn free_space(&self) -> usize {
        let dir_end = DIR_HEADER + self.dir_len() as usize * SLOT_ENTRY;
        (self.heap_floor() as usize).saturating_sub(dir_end)
    }

    /// Returns the record in `slot`, or an error for dead/out-of-range
    /// slots.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        if slot >= self.dir_len() {
            return Err(Error::Invalid(format!("slot {slot} out of range")));
        }
        let (off, len) = self.slot_entry(slot);
        if off == DEAD {
            return Err(Error::Invalid(format!("slot {slot} is dead")));
        }
        Ok(&self.page.body()[off as usize..off as usize + len as usize])
    }

    /// The slot an insert takes: the first dead slot, or a new slot
    /// at the directory's end.
    pub fn free_slot(&self) -> u16 {
        (0..self.dir_len())
            .find(|&s| self.slot_entry(s).0 == DEAD)
            .unwrap_or(self.dir_len())
    }

    fn ensure_room(&mut self, need: usize, new_slot: bool) -> Result<()> {
        let extra_dir = if new_slot { SLOT_ENTRY } else { 0 };
        if self.free_space() >= need + extra_dir {
            return Ok(());
        }
        self.compact();
        if self.free_space() >= need + extra_dir {
            Ok(())
        } else {
            Err(Error::Invalid(format!(
                "slotted page full: need {need}, free {}",
                self.free_space()
            )))
        }
    }

    fn alloc_heap(&mut self, len: usize) -> u16 {
        let floor = self.heap_floor() as usize - len;
        self.set_heap_floor(floor as u16);
        floor as u16
    }

    /// Inserts a record at a specific slot number (the inverse of
    /// [`SlottedPage::delete`], used by logical undo and redo replay).
    pub fn insert_at(&mut self, slot: u16, data: &[u8]) -> Result<()> {
        if slot < self.dir_len() && self.slot_entry(slot).0 != DEAD {
            return Err(Error::Invalid(format!("slot {slot} already live")));
        }
        let new_slot = slot >= self.dir_len();
        if new_slot && slot != self.dir_len() {
            return Err(Error::Invalid(format!(
                "slot {slot} skips past directory end {}",
                self.dir_len()
            )));
        }
        self.ensure_room(data.len(), new_slot)?;
        if new_slot {
            self.set_dir_len(slot + 1);
        }
        let off = self.alloc_heap(data.len());
        let body = self.page.body_mut();
        body[off as usize..off as usize + data.len()].copy_from_slice(data);
        self.set_slot_entry(slot, off, data.len() as u16);
        Ok(())
    }

    /// Deletes the record in `slot`, returning its former contents (the
    /// before-image needed for the undo log record).
    pub fn delete(&mut self, slot: u16) -> Result<Vec<u8>> {
        let old = self.get(slot)?.to_vec();
        self.set_slot_entry(slot, DEAD, 0);
        Ok(old)
    }

    /// Replaces the record in `slot`, returning the old contents.
    pub fn update(&mut self, slot: u16, data: &[u8]) -> Result<Vec<u8>> {
        let old = self.get(slot)?.to_vec();
        let (off, len) = self.slot_entry(slot);
        if data.len() <= len as usize {
            // In-place shrink/replace.
            let body = self.page.body_mut();
            body[off as usize..off as usize + data.len()].copy_from_slice(data);
            self.set_slot_entry(slot, off, data.len() as u16);
        } else {
            self.set_slot_entry(slot, DEAD, 0);
            self.ensure_room(data.len(), false)?;
            let noff = self.alloc_heap(data.len());
            let body = self.page.body_mut();
            body[noff as usize..noff as usize + data.len()].copy_from_slice(data);
            self.set_slot_entry(slot, noff, data.len() as u16);
        }
        Ok(old)
    }

    /// Slides live payloads to the end of the body, reclaiming dead
    /// space. Slot numbers are unchanged.
    pub fn compact(&mut self) {
        let dir_len = self.dir_len();
        let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
        for s in 0..dir_len {
            let (off, len) = self.slot_entry(s);
            if off != DEAD {
                let data = self.page.body()[off as usize..off as usize + len as usize].to_vec();
                live.push((s, data));
            }
        }
        let mut floor = self.body_len();
        for (s, data) in live {
            floor -= data.len();
            let body = self.page.body_mut();
            body[floor..floor + data.len()].copy_from_slice(&data);
            self.set_slot_entry(s, floor as u16, data.len() as u16);
        }
        self.set_heap_floor(floor as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;
    use cblog_common::{NodeId, PageId, Psn};

    fn page() -> Page {
        Page::new(PageId::new(NodeId(1), 1), PageKind::Slotted, Psn(0), 512)
    }

    #[test]
    fn insert_get_round_trip() {
        let mut p = page();
        let mut sp = SlottedPage::new(&mut p);
        let a = sp.free_slot();
        sp.insert_at(a, b"alpha").unwrap();
        let b = sp.free_slot();
        sp.insert_at(b, b"bravo").unwrap();
        assert_ne!(a, b);
        assert_eq!(sp.get(a).unwrap(), b"alpha");
        assert_eq!(sp.get(b).unwrap(), b"bravo");
        assert_eq!((0..sp.dir_len()).filter(|&s| sp.get(s).is_ok()).count(), 2);
    }

    #[test]
    fn delete_then_reinsert_at_same_slot() {
        let mut p = page();
        let mut sp = SlottedPage::new(&mut p);
        let a = sp.free_slot();
        sp.insert_at(a, b"alpha").unwrap();
        let old = sp.delete(a).unwrap();
        assert_eq!(old, b"alpha");
        assert!(sp.get(a).is_err());
        sp.insert_at(a, b"alpha").unwrap();
        assert_eq!(sp.get(a).unwrap(), b"alpha");
    }

    #[test]
    fn insert_reuses_dead_slots() {
        let mut p = page();
        let mut sp = SlottedPage::new(&mut p);
        let a = sp.free_slot();
        sp.insert_at(a, b"one").unwrap();
        let b = sp.free_slot();
        sp.insert_at(b, b"two").unwrap();
        sp.delete(a).unwrap();
        let c = sp.free_slot();
        sp.insert_at(c, b"three").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = page();
        let mut sp = SlottedPage::new(&mut p);
        let a = sp.free_slot();
        sp.insert_at(a, b"abcdef").unwrap();
        let old = sp.update(a, b"xy").unwrap();
        assert_eq!(old, b"abcdef");
        assert_eq!(sp.get(a).unwrap(), b"xy");
        let old2 = sp.update(a, b"a-much-longer-record").unwrap();
        assert_eq!(old2, b"xy");
        assert_eq!(sp.get(a).unwrap(), b"a-much-longer-record");
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = page();
        let mut sp = SlottedPage::new(&mut p);
        let mut slots = Vec::new();
        for i in 0..10 {
            let slot = sp.free_slot();
            sp.insert_at(slot, format!("record-{i}-padding").as_bytes())
                .unwrap();
            slots.push(slot);
        }
        let before = sp.free_space();
        for &s in slots.iter().step_by(2) {
            sp.delete(s).unwrap();
        }
        sp.compact();
        assert!(sp.free_space() > before);
        // Survivors intact after compaction.
        for &s in slots.iter().skip(1).step_by(2) {
            assert!(sp.get(s).unwrap().starts_with(b"record-"));
        }
    }

    #[test]
    fn fills_up_then_errors() {
        let mut p = page();
        let mut sp = SlottedPage::new(&mut p);
        let rec = vec![7u8; 64];
        let mut n = 0;
        while sp.insert_at(sp.free_slot(), &rec).is_ok() {
            n += 1;
            assert!(n < 100, "should run out of space");
        }
        assert!(n >= 5, "512-byte page should fit several 64-byte records");
    }

    #[test]
    fn insert_at_rejects_live_and_gapped_slots() {
        let mut p = page();
        let mut sp = SlottedPage::new(&mut p);
        let a = sp.free_slot();
        sp.insert_at(a, b"a").unwrap();
        assert!(sp.insert_at(a, b"clobber").is_err());
        assert!(sp.insert_at(5, b"gap").is_err());
    }
}
