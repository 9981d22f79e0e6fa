//! A node's database: a block device holding a superblock, the space
//! allocation map, and data pages.
//!
//! Device layout:
//!
//! ```text
//! block 0                superblock { magic, page_size, capacity, map_blocks }
//! blocks 1..=map_blocks  serialized SpaceMap (rewritten on alloc/free)
//! blocks map_blocks+1..  data pages, page index i at block map_blocks+1+i
//! ```
//!
//! The database performs real (counted) I/O through its [`Storage`];
//! the buffer pool above it decides *when* pages move. `write_page` is
//! the force operation the recovery and log-space protocols reason
//! about.

use crate::page::{Page, PageKind};
use crate::spacemap::SpaceMap;
use crate::storage::Storage;
use cblog_common::{Counter, Decoder, Encoder, Error, NodeId, PageId, Psn, Result};

const SUPER_MAGIC: u32 = 0x4342_4442; // "CBDB"

/// A single node's database file.
pub struct Database {
    storage: Box<dyn Storage>,
    node: NodeId,
    page_size: usize,
    capacity: u32,
    map_blocks: u64,
    map: SpaceMap,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Database(node={} pages={}/{} page_size={})",
            self.node,
            self.map.allocated_count(),
            self.capacity,
            self.page_size
        )
    }
}

/// The space map's tag for a page kind that can be allocated.
fn kind_tag(kind: PageKind) -> Result<u8> {
    match kind {
        PageKind::Free => Err(Error::Invalid("cannot allocate Free".into())),
        PageKind::Raw => Ok(1),
        PageKind::Slotted => Ok(2),
    }
}

fn map_blocks_for(capacity: u32, page_size: usize) -> u64 {
    let map_bytes = 8 + capacity as usize * 10;
    map_bytes.div_ceil(page_size) as u64
}

impl Database {
    /// Formats a fresh database of `capacity` pages on `storage`.
    pub fn create(mut storage: Box<dyn Storage>, node: NodeId, capacity: u32) -> Result<Self> {
        let page_size = storage.block_size();
        let map = SpaceMap::new(capacity);
        let map_blocks = map_blocks_for(capacity, page_size);

        let mut sb = Encoder::with_capacity(page_size);
        sb.put_u32(SUPER_MAGIC);
        sb.put_u32(node.0);
        sb.put_u32(page_size as u32);
        sb.put_u32(capacity);
        sb.put_u64(map_blocks);
        let mut block = sb.into_vec();
        block.resize(page_size, 0);
        storage.write_block(0, &block)?;

        let mut db = Database {
            storage,
            node,
            page_size,
            capacity,
            map_blocks,
            map,
        };
        db.persist_map()?;
        db.storage.sync()?;
        Ok(db)
    }

    /// Opens an existing database, reading superblock and space map.
    pub fn open(mut storage: Box<dyn Storage>) -> Result<Self> {
        let page_size = storage.block_size();
        let mut block = vec![0u8; page_size];
        storage.read_block(0, &mut block)?;
        let mut d = Decoder::new(&block);
        if d.get_u32()? != SUPER_MAGIC {
            return Err(Error::Corrupt("bad database superblock".into()));
        }
        let node = NodeId(d.get_u32()?);
        let stored_ps = d.get_u32()? as usize;
        if stored_ps != page_size {
            return Err(Error::Corrupt(format!(
                "page size mismatch: file {stored_ps}, device {page_size}"
            )));
        }
        let capacity = d.get_u32()?;
        let map_blocks = d.get_u64()?;
        // The map lies in blocks 1..=map_blocks of the device.
        let map_len = Some(map_blocks)
            .filter(|&b| b < storage.num_blocks())
            .and_then(|b| usize::try_from(b).ok()?.checked_mul(page_size))
            .ok_or_else(|| {
                Error::Corrupt(format!(
                    "superblock names {map_blocks} map blocks on a device of {}",
                    storage.num_blocks()
                ))
            })?;

        let mut map_bytes = vec![0u8; map_len];
        for b in 0..map_blocks {
            storage.read_block(
                1 + b,
                &mut map_bytes[(b as usize) * page_size..][..page_size],
            )?;
        }
        let map = SpaceMap::decode(&map_bytes)?;
        if map.capacity() != capacity {
            return Err(Error::Corrupt("spacemap capacity mismatch".into()));
        }
        Ok(Database {
            storage,
            node,
            page_size,
            capacity,
            map_blocks,
            map,
        })
    }

    fn persist_map(&mut self) -> Result<()> {
        let mut bytes = self.map.encode();
        bytes.resize((self.map_blocks as usize) * self.page_size, 0);
        for b in 0..self.map_blocks {
            self.storage.write_block(
                1 + b,
                &bytes[(b as usize) * self.page_size..][..self.page_size],
            )?;
        }
        Ok(())
    }

    fn data_block(&self, index: u32) -> u64 {
        1 + self.map_blocks + index as u64
    }

    /// Maximum number of pages.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Allocates a page, formats it on disk with the PSN the space map
    /// dictates, and returns the in-memory copy: the reference
    /// [`Database::allocate_pages`] is tested against.
    #[cfg(test)]
    pub fn allocate_page(&mut self, kind: PageKind) -> Result<Page> {
        let (index, psn) = self.map.allocate(kind_tag(kind)?)?;
        let page = self.format_page(kind, index, psn)?;
        self.persist_map()?;
        Ok(page)
    }

    /// Allocates `count` pages and formats each on disk with the PSN
    /// the space map dictates (paper §2.1 / ARIES-CSA trick). Leaves
    /// the bytes that many one-page allocations would, but writes the
    /// space map once instead of once a page.
    pub fn allocate_pages(&mut self, kind: PageKind, count: u32) -> Result<()> {
        for (index, psn) in self.map.allocate_many(kind_tag(kind)?, count)? {
            self.format_page(kind, index, psn)?;
        }
        self.persist_map()
    }

    /// Writes the fresh image of page `index` with its initial PSN.
    fn format_page(&mut self, kind: PageKind, index: u32, psn: Psn) -> Result<Page> {
        let page = Page::new(PageId::new(self.node, index), kind, psn, self.page_size);
        self.storage
            .write_block(self.data_block(index), &page.to_bytes())?;
        Ok(page)
    }

    /// Frees page `index`; `final_psn` raises the PSN floor for the
    /// next incarnation.
    pub fn free_page(&mut self, index: u32, final_psn: Psn) -> Result<()> {
        self.map.deallocate(index, final_psn)?;
        self.persist_map()
    }

    /// Reads a page from disk (validating CRC and identity).
    pub fn read_page(&mut self, index: u32) -> Result<Page> {
        let e = self.map.entry(index)?;
        if !e.allocated {
            return Err(Error::NoSuchPage(PageId::new(self.node, index)));
        }
        let mut buf = vec![0u8; self.page_size];
        self.storage.read_block(self.data_block(index), &mut buf)?;
        let page = Page::from_bytes(buf)?;
        let expect = PageId::new(self.node, index);
        if page.id() != expect {
            return Err(Error::Corrupt(format!(
                "page identity mismatch: read {:?}, expected {:?}",
                page.id(),
                expect
            )));
        }
        Ok(page)
    }

    /// PSN of the on-disk version of page `index` — the comparison
    /// point of the recovery protocol (§2.3.2).
    pub fn disk_psn(&mut self, index: u32) -> Result<Psn> {
        Ok(self.read_page(index)?.psn())
    }

    /// Forces a page image to disk (in place). This is the only way
    /// page updates become durable in the database file.
    pub fn write_page(&mut self, page: &Page) -> Result<()> {
        let pid = page.id();
        if pid.owner != self.node {
            return Err(Error::Invalid(format!(
                "page {pid} does not belong to {}'s database",
                self.node
            )));
        }
        let e = self.map.entry(pid.index)?;
        if !e.allocated {
            return Err(Error::NoSuchPage(pid));
        }
        self.storage
            .write_block(self.data_block(pid.index), &page.to_bytes())?;
        Ok(())
    }

    /// Durably syncs the device.
    pub fn sync(&mut self) -> Result<()> {
        self.storage.sync()
    }

    /// Shared handle to the device's read counter, for registration in
    /// a metrics registry.
    pub fn reads_counter(&self) -> &Counter {
        self.storage.reads()
    }

    /// Shared handle to the device's write counter.
    pub fn writes_counter(&self) -> &Counter {
        self.storage.writes()
    }

    /// Shared handle to the device's sync counter.
    pub fn syncs_counter(&self) -> &Counter {
        self.storage.syncs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn db() -> Database {
        Database::create(Box::new(MemStorage::new(512)), NodeId(1), 16).unwrap()
    }

    #[test]
    fn allocate_read_write_cycle() {
        let mut db = db();
        let mut p = db.allocate_page(PageKind::Raw).unwrap();
        assert_eq!(p.id(), PageId::new(NodeId(1), 0));
        assert_eq!(p.psn(), Psn(1));
        p.write_range(0, &99u64.to_le_bytes()).unwrap();
        p.bump_psn();
        db.write_page(&p).unwrap();
        let q = db.read_page(0).unwrap();
        assert_eq!(q.read_slot(0).unwrap(), 99);
        assert_eq!(q.psn(), Psn(2));
        assert_eq!(db.disk_psn(0).unwrap(), Psn(2));
    }

    #[test]
    fn free_then_reallocate_gets_higher_psn() {
        let mut db = db();
        let mut p = db.allocate_page(PageKind::Raw).unwrap();
        for _ in 0..10 {
            p.bump_psn();
        }
        db.write_page(&p).unwrap();
        db.free_page(0, p.psn()).unwrap();
        let p2 = db.allocate_page(PageKind::Raw).unwrap();
        assert_eq!(p2.id().index, 0);
        assert!(
            p2.psn() > Psn(10),
            "PSN floor must exceed prior life: {:?}",
            p2.psn()
        );
    }

    #[test]
    fn reading_unallocated_page_fails() {
        let mut db = db();
        assert!(matches!(db.read_page(3), Err(Error::NoSuchPage(_))));
    }

    #[test]
    fn writing_foreign_page_rejected() {
        let mut db = db();
        db.allocate_page(PageKind::Raw).unwrap();
        let foreign = Page::new(PageId::new(NodeId(9), 0), PageKind::Raw, Psn(1), 512);
        assert!(db.write_page(&foreign).is_err());
    }

    #[test]
    fn a_superblock_naming_more_map_blocks_than_the_device_is_corrupt() {
        let mut storage = db().storage;
        let mut block = vec![0u8; 512];
        storage.read_block(0, &mut block).unwrap();
        // Magic, node, page size, capacity, then the map block count.
        block[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        storage.write_block(0, &block).unwrap();
        assert!(matches!(Database::open(storage), Err(Error::Corrupt(_))));
    }

    #[test]
    fn reopen_preserves_map_and_pages() {
        let mut storage = Box::new(MemStorage::new(512));
        // Build, mutate, then steal the storage back via open-over-same
        // backing: emulate by create/open on a FileStorage instead.
        let path = std::env::temp_dir().join(format!(
            "cblog-db-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let fs = crate::storage::FileStorage::open(&path, 512).unwrap();
            let mut db = Database::create(Box::new(fs), NodeId(2), 8).unwrap();
            let mut p = db.allocate_page(PageKind::Slotted).unwrap();
            p.write_range(0, b"persisted").unwrap();
            p.bump_psn();
            db.write_page(&p).unwrap();
            db.sync().unwrap();
        }
        {
            let fs = crate::storage::FileStorage::open(&path, 512).unwrap();
            let mut db = Database::open(Box::new(fs)).unwrap();
            assert_eq!(db.node, NodeId(2));
            assert_eq!(db.capacity(), 8);
            assert_eq!(db.map.allocated_count(), 1);
            let p = db.read_page(0).unwrap();
            assert_eq!(p.read_range(0, 9).unwrap(), b"persisted");
        }
        let _ = std::fs::remove_file(&path);
        // Keep clippy quiet about the unused mem storage above.
        storage.write_block(0, &vec![0u8; 512]).unwrap();
    }

    /// Every block of `db`'s device: superblock, map and allocated
    /// pages (the lowest indices).
    fn device_bytes(db: &mut Database) -> Vec<u8> {
        let blocks = 1 + db.map_blocks + db.map.allocated_count() as u64;
        let mut out = vec![0u8; blocks as usize * db.page_size];
        for (b, block) in (0..blocks).zip(out.chunks_exact_mut(db.page_size)) {
            db.storage.read_block(b, block).unwrap();
        }
        out
    }

    #[test]
    fn bulk_allocation_leaves_the_bytes_of_one_at_a_time() {
        // 200 pages of 512 B: a space map of four blocks.
        let fresh = || Database::create(Box::new(MemStorage::new(512)), NodeId(3), 200).unwrap();
        let (mut one, mut bulk) = (fresh(), fresh());
        for _ in 0..150 {
            one.allocate_page(PageKind::Raw).unwrap();
        }
        bulk.allocate_pages(PageKind::Raw, 150).unwrap();
        assert!(bulk.map_blocks > 1);
        assert_eq!(device_bytes(&mut bulk), device_bytes(&mut one));
        for _ in 0..50 {
            one.allocate_page(PageKind::Slotted).unwrap();
        }
        bulk.allocate_pages(PageKind::Slotted, 50).unwrap();
        assert_eq!(device_bytes(&mut bulk), device_bytes(&mut one));
        assert!(bulk.allocate_pages(PageKind::Raw, 1).is_err());
        assert!(bulk.allocate_pages(PageKind::Free, 0).is_err());
    }

    #[test]
    fn capacity_exhaustion() {
        let mut db = Database::create(Box::new(MemStorage::new(512)), NodeId(1), 2).unwrap();
        db.allocate_page(PageKind::Raw).unwrap();
        db.allocate_page(PageKind::Raw).unwrap();
        assert!(db.allocate_page(PageKind::Raw).is_err());
    }
}
