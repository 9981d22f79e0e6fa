//! Space allocation map with PSN-at-allocation tracking.
//!
//! Paper §2.1: "The owner node initializes the PSN value of a page when
//! this page is allocated by following the approach presented in \[15\]
//! (i.e., the PSN stored on the space allocation map containing
//! information about the page in question is assigned to the PSN field
//! of the page)."
//!
//! The point of the trick (from ARIES/CSA): when a page is deallocated
//! and later reallocated, its new PSN must be *larger* than any PSN the
//! page ever had, so stale log records from its previous incarnation
//! can never satisfy the `page.psn == record.psn_before` redo test. We
//! achieve that by recording, on deallocation, the page's final PSN in
//! the map; reallocation hands the page `final_psn + 1` as its initial
//! PSN.
//!
//! The map itself lives in reserved blocks at the front of the database
//! device and is rewritten atomically (it is tiny), so allocation state
//! survives crashes. Allocation/deallocation of pages is itself logged
//! at a higher level by the node; the map here is the durable source of
//! PSN floors.

use cblog_common::{Decoder, Encoder, Error, Psn, Result};

/// Per-page allocation entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceEntry {
    /// Is the page currently allocated?
    pub allocated: bool,
    /// Lower bound for the page's next initial PSN: one past the
    /// largest PSN the page has ever reached while deallocated, or the
    /// PSN assigned at the most recent allocation.
    pub psn_floor: Psn,
    /// Page kind tag recorded at allocation (storage::PageKind as u8).
    pub kind: u8,
}

/// The space allocation map for one node's database.
#[derive(Clone, Debug, Default)]
pub struct SpaceMap {
    entries: Vec<SpaceEntry>,
}

const MAGIC: u32 = 0x534D_4150; // "SMAP"

impl SpaceMap {
    /// Empty map for a fresh database of `capacity` pages.
    pub fn new(capacity: u32) -> Self {
        SpaceMap {
            entries: vec![
                SpaceEntry {
                    allocated: false,
                    psn_floor: Psn(1),
                    kind: 0,
                };
                capacity as usize
            ],
        }
    }

    /// Number of page slots the map covers.
    pub fn capacity(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Number of allocated pages.
    pub fn allocated_count(&self) -> u32 {
        self.entries.iter().filter(|e| e.allocated).count() as u32
    }

    /// Entry for page `index`.
    pub fn entry(&self, index: u32) -> Result<SpaceEntry> {
        self.entries
            .get(index as usize)
            .copied()
            .ok_or_else(|| Error::Invalid(format!("page index {index} out of map")))
    }

    /// Allocates the lowest free page index, returning `(index,
    /// initial_psn)`. The page must be formatted with exactly this PSN.
    #[cfg(test)]
    pub fn allocate(&mut self, kind: u8) -> Result<(u32, Psn)> {
        Ok(self.allocate_many(kind, 1)?[0])
    }

    /// Allocates the `count` lowest free page indices in one pass over
    /// the map, returning `(index, initial_psn)` for each in order: what
    /// `count` one-page allocations return. Each page must be formatted
    /// with exactly its PSN. All or nothing: a map without `count` free
    /// pages is left as it was.
    pub fn allocate_many(&mut self, kind: u8, count: u32) -> Result<Vec<(u32, Psn)>> {
        let free: Vec<usize> = (0..self.entries.len())
            .filter(|&i| !self.entries[i].allocated)
            .take(count as usize)
            .collect();
        if free.len() < count as usize {
            return Err(Error::Invalid("database full".into()));
        }
        Ok(free
            .into_iter()
            .map(|i| {
                let e = &mut self.entries[i];
                e.allocated = true;
                e.kind = kind;
                (i as u32, e.psn_floor)
            })
            .collect())
    }

    /// Deallocates page `index`; `final_psn` is the page's PSN at
    /// deallocation time and raises the floor for the next incarnation.
    pub fn deallocate(&mut self, index: u32, final_psn: Psn) -> Result<()> {
        let e = self
            .entries
            .get_mut(index as usize)
            .ok_or_else(|| Error::Invalid(format!("page index {index} out of map")))?;
        if !e.allocated {
            return Err(Error::Invalid(format!("page {index} not allocated")));
        }
        e.allocated = false;
        e.kind = 0;
        e.psn_floor = Psn(e.psn_floor.0.max(final_psn.0 + 1));
        Ok(())
    }

    /// Serializes the map (with CRC via the page-level codec caller).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(8 + self.entries.len() * 10);
        e.put_u32(MAGIC);
        e.put_u32(self.entries.len() as u32);
        for ent in &self.entries {
            e.put_u8(ent.allocated as u8);
            e.put_u8(ent.kind);
            e.put_psn(ent.psn_floor);
        }
        e.into_vec()
    }

    /// Inverse of [`SpaceMap::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(buf);
        if d.get_u32()? != MAGIC {
            return Err(Error::Corrupt("bad spacemap magic".into()));
        }
        // Allocated flag, kind, PSN floor.
        let n = d.get_count(1 + 1 + 8)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let allocated = d.get_u8()? != 0;
            let kind = d.get_u8()?;
            let psn_floor = d.get_psn()?;
            entries.push(SpaceEntry {
                allocated,
                psn_floor,
                kind,
            });
        }
        Ok(SpaceMap { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_hands_out_lowest_free_index() {
        let mut m = SpaceMap::new(4);
        let (i0, p0) = m.allocate(1).unwrap();
        let (i1, _) = m.allocate(1).unwrap();
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(p0, Psn(1));
        assert_eq!(m.allocated_count(), 2);
    }

    #[test]
    fn allocate_many_equals_one_at_a_time() {
        let mut one = SpaceMap::new(6);
        one.allocate(1).unwrap();
        one.allocate(1).unwrap();
        one.deallocate(0, Psn(40)).unwrap();
        let mut many = one.clone();
        let singles: Vec<_> = (0..4).map(|_| one.allocate(2).unwrap()).collect();
        assert_eq!(many.allocate_many(2, 4).unwrap(), singles);
        assert_eq!(many.encode(), one.encode());
        // All or nothing: one page is left.
        assert!(many.allocate_many(2, 2).is_err());
        assert_eq!(many.encode(), one.encode());
    }

    #[test]
    fn reallocation_raises_psn_floor_past_final_psn() {
        let mut m = SpaceMap::new(2);
        let (idx, p0) = m.allocate(1).unwrap();
        assert_eq!(p0, Psn(1));
        // Page lived to PSN 57 before being freed.
        m.deallocate(idx, Psn(57)).unwrap();
        let (idx2, p1) = m.allocate(2).unwrap();
        assert_eq!(idx2, idx, "lowest free index reused");
        assert_eq!(p1, Psn(58), "new incarnation starts past old PSNs");
    }

    #[test]
    fn deallocate_never_lowers_floor() {
        let mut m = SpaceMap::new(1);
        let (idx, _) = m.allocate(1).unwrap();
        m.deallocate(idx, Psn(100)).unwrap();
        assert_eq!(m.allocate(1).unwrap(), (idx, Psn(101)));
        // Deallocate again with a *smaller* final psn (cannot actually
        // happen, but the map must be monotone anyway).
        m.deallocate(idx, Psn(5)).unwrap();
        assert_eq!(m.entry(idx).unwrap().psn_floor, Psn(101));
    }

    #[test]
    fn double_alloc_and_double_free_rejected() {
        let mut m = SpaceMap::new(1);
        let (idx, _) = m.allocate(1).unwrap();
        assert!(m.allocate(1).is_err(), "database full");
        m.deallocate(idx, Psn(1)).unwrap();
        assert!(m.deallocate(idx, Psn(1)).is_err());
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut m = SpaceMap::new(3);
        m.allocate(1).unwrap();
        let (i, _) = m.allocate(2).unwrap();
        m.deallocate(i, Psn(9)).unwrap();
        let bytes = m.encode();
        let m2 = SpaceMap::decode(&bytes).unwrap();
        assert_eq!(m2.capacity(), 3);
        assert_eq!(m2.entry(0).unwrap(), m.entry(0).unwrap());
        assert_eq!(m2.entry(1).unwrap(), m.entry(1).unwrap());
        assert_eq!(m2.entry(2).unwrap(), m.entry(2).unwrap());
    }

    #[test]
    fn a_count_past_the_map_is_corrupt() {
        let mut bytes = SpaceMap::new(4).encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(SpaceMap::decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SpaceMap::decode(&[1, 2, 3]).is_err());
        assert!(SpaceMap::decode(&[0; 16]).is_err());
    }

    #[test]
    fn out_of_range_index_errors() {
        let mut m = SpaceMap::new(1);
        assert!(m.entry(5).is_err());
        assert!(m.deallocate(5, Psn(1)).is_err());
    }
}
