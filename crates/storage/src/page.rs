//! Database page format.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic (0x50_43_42_4C, "LBCP")
//! 4       8     page id (packed)
//! 12      8     PSN
//! 20      1     kind (0 = free, 1 = raw counter slots, 2 = slotted)
//! 21      3     reserved
//! 24      4     crc32 over the page with this field zeroed
//! 28      4     reserved
//! 32      ...   body
//! ```
//!
//! The PSN is the heart of the paper's recovery protocol: it is bumped
//! by one on **every** update (including compensation updates during
//! rollback), every log record stores the PSN the page had just before
//! the update, and recovery replays a record iff the page's current PSN
//! equals the record's stored PSN. Updates to a page are serialized by
//! page-level X locks, so PSNs order updates across all nodes without
//! synchronized clocks.

use cblog_common::{Crc32, Error, PageId, Psn, Result};

/// Bytes reserved for the page header.
pub const PAGE_HEADER_LEN: usize = 32;

const MAGIC: u32 = 0x5043_424C;
const OFF_MAGIC: usize = 0;
const OFF_PID: usize = 4;
const OFF_PSN: usize = 12;
const OFF_KIND: usize = 20;
const OFF_CRC: usize = 24;

/// What the page body contains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageKind {
    /// Unallocated page.
    Free,
    /// Array of u64 counter slots (physical byte-range logging).
    Raw,
    /// Slotted record page (logical record-operation logging).
    Slotted,
}

impl PageKind {
    fn to_u8(self) -> u8 {
        match self {
            PageKind::Free => 0,
            PageKind::Raw => 1,
            PageKind::Slotted => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(PageKind::Free),
            1 => Ok(PageKind::Raw),
            2 => Ok(PageKind::Slotted),
            k => Err(Error::Corrupt(format!("bad page kind {k}"))),
        }
    }
}

/// An in-memory copy of a database page.
///
/// Pages are plain byte buffers; all mutation goes through methods that
/// keep the header consistent. The PSN is *not* bumped implicitly —
/// callers (the transaction manager) bump it once per logged update via
/// [`Page::bump_psn`], keeping the page/log coupling explicit.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    buf: Vec<u8>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Page({:?} psn={:?} kind={:?} len={})",
            self.id(),
            self.psn(),
            self.kind(),
            self.buf.len()
        )
    }
}

/// CRC-32 over a page image with the CRC field read as zero, whatever
/// the field holds: the bytes before it, four zeros, the bytes after.
fn checksum(buf: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&buf[..OFF_CRC]);
    c.update(&[0; 4]);
    c.update(&buf[OFF_CRC + 4..]);
    c.finish()
}

impl Page {
    /// Creates a fresh page of `size` bytes with the given identity.
    pub fn new(id: PageId, kind: PageKind, psn: Psn, size: usize) -> Self {
        assert!(size >= PAGE_HEADER_LEN + 8, "page too small");
        let mut p = Page { buf: vec![0; size] };
        p.buf[OFF_MAGIC..OFF_MAGIC + 4].copy_from_slice(&MAGIC.to_le_bytes());
        p.buf[OFF_PID..OFF_PID + 8].copy_from_slice(&id.to_u64().to_le_bytes());
        p.set_psn(psn);
        p.buf[OFF_KIND] = kind.to_u8();
        p
    }

    /// Wraps raw bytes read from disk, validating magic and CRC.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self> {
        if buf.len() < PAGE_HEADER_LEN {
            return Err(Error::Corrupt("short page".into()));
        }
        let magic = u32::from_le_bytes(buf[OFF_MAGIC..OFF_MAGIC + 4].try_into().unwrap());
        if magic != MAGIC {
            return Err(Error::Corrupt(format!("bad page magic {magic:#x}")));
        }
        let stored = u32::from_le_bytes(buf[OFF_CRC..OFF_CRC + 4].try_into().unwrap());
        let actual = checksum(&buf);
        if stored != 0 && stored != actual {
            return Err(Error::Corrupt(format!(
                "page crc mismatch: stored {stored:#x}, computed {actual:#x}"
            )));
        }
        PageKind::from_u8(buf[OFF_KIND])?;
        Ok(Page { buf })
    }

    /// Serializes the page for disk, stamping the CRC.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.buf.clone();
        let c = checksum(&out);
        out[OFF_CRC..OFF_CRC + 4].copy_from_slice(&c.to_le_bytes());
        out
    }

    /// Total page size in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    /// The page's identifier.
    #[inline]
    pub fn id(&self) -> PageId {
        PageId::from_u64(u64::from_le_bytes(
            self.buf[OFF_PID..OFF_PID + 8].try_into().unwrap(),
        ))
    }

    /// Current page sequence number.
    #[inline]
    pub fn psn(&self) -> Psn {
        Psn(u64::from_le_bytes(
            self.buf[OFF_PSN..OFF_PSN + 8].try_into().unwrap(),
        ))
    }

    /// Overwrites the PSN (used by allocation and recovery replay).
    #[inline]
    pub fn set_psn(&mut self, psn: Psn) {
        self.buf[OFF_PSN..OFF_PSN + 8].copy_from_slice(&psn.0.to_le_bytes());
    }

    /// Increments the PSN by one; returns the PSN *before* the bump —
    /// the value that belongs in the log record for the update.
    pub fn bump_psn(&mut self) -> Psn {
        let before = self.psn();
        self.set_psn(before.next());
        before
    }

    /// The page kind.
    pub fn kind(&self) -> PageKind {
        PageKind::from_u8(self.buf[OFF_KIND]).expect("kind validated on construction")
    }

    /// Changes the kind (page reallocation / format).
    pub fn set_kind(&mut self, kind: PageKind) {
        self.buf[OFF_KIND] = kind.to_u8();
    }

    /// Read-only body (bytes after the header).
    pub fn body(&self) -> &[u8] {
        &self.buf[PAGE_HEADER_LEN..]
    }

    /// Mutable body. Callers must log the change and bump the PSN.
    #[inline]
    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.buf[PAGE_HEADER_LEN..]
    }

    /// Reads counter slot `i` of a raw page.
    pub fn read_slot(&self, i: usize) -> Result<u64> {
        let body = self.body();
        let off = i * 8;
        if off + 8 > body.len() {
            return Err(Error::Invalid(format!("slot {i} out of range")));
        }
        Ok(u64::from_le_bytes(body[off..off + 8].try_into().unwrap()))
    }

    /// Reads `len` body bytes at `off` (physical logging before-image).
    pub fn read_range(&self, off: usize, len: usize) -> Result<&[u8]> {
        let body = self.body();
        if off + len > body.len() {
            return Err(Error::Invalid(format!("range {off}+{len} out of page")));
        }
        Ok(&body[off..off + len])
    }

    /// Overwrites body bytes at `off` (physical logging redo/undo
    /// application). Does not touch the PSN.
    #[inline]
    pub fn write_range(&mut self, off: usize, data: &[u8]) -> Result<()> {
        let body = self.body_mut();
        if off + data.len() > body.len() {
            return Err(Error::Invalid(format!(
                "range {off}+{} out of page",
                data.len()
            )));
        }
        body[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    fn pid() -> PageId {
        PageId::new(NodeId(1), 7)
    }

    #[test]
    fn new_page_has_identity() {
        let p = Page::new(pid(), PageKind::Raw, Psn(100), 4096);
        assert_eq!(p.id(), pid());
        assert_eq!(p.psn(), Psn(100));
        assert_eq!(p.kind(), PageKind::Raw);
        assert_eq!(p.size(), 4096);
    }

    #[test]
    fn bump_psn_returns_before_value() {
        let mut p = Page::new(pid(), PageKind::Raw, Psn(5), 256);
        assert_eq!(p.bump_psn(), Psn(5));
        assert_eq!(p.psn(), Psn(6));
        assert_eq!(p.bump_psn(), Psn(6));
        assert_eq!(p.psn(), Psn(7));
    }

    #[test]
    fn slots_round_trip() {
        let mut p = Page::new(pid(), PageKind::Raw, Psn(0), 256);
        p.write_range(0, &42u64.to_le_bytes()).unwrap();
        p.write_range(24, &u64::MAX.to_le_bytes()).unwrap();
        assert_eq!(p.read_slot(0).unwrap(), 42);
        assert_eq!(p.read_slot(1).unwrap(), 0);
        assert_eq!(p.read_slot(3).unwrap(), u64::MAX);
        assert!(p.read_slot(1000).is_err());
    }

    #[test]
    fn ranges_round_trip_and_bounds_checked() {
        let mut p = Page::new(pid(), PageKind::Raw, Psn(0), 256);
        p.write_range(10, b"abcdef").unwrap();
        assert_eq!(p.read_range(10, 6).unwrap(), b"abcdef");
        assert!(p.write_range(250, b"abcdef").is_err());
        assert!(p.read_range(250, 6).is_err());
    }

    #[test]
    fn serialization_round_trips_with_crc() {
        let mut p = Page::new(pid(), PageKind::Slotted, Psn(9), 512);
        p.write_range(0, b"payload").unwrap();
        let bytes = p.to_bytes();
        let q = Page::from_bytes(bytes).unwrap();
        assert_eq!(q.id(), pid());
        assert_eq!(q.psn(), Psn(9));
        assert_eq!(q.kind(), PageKind::Slotted);
        assert_eq!(q.read_range(0, 7).unwrap(), b"payload");
    }

    #[test]
    fn serialized_bytes_are_the_format() {
        // Byte for byte what every earlier version wrote for this page
        // (CRC at 24..28): the checksum kernel may change, the format
        // may not, or existing database files stop verifying.
        let mut p = Page::new(pid(), PageKind::Raw, Psn(9), 64);
        p.write_range(0, &0x0123_4567_89AB_CDEFu64.to_le_bytes())
            .unwrap();
        p.write_range(24, &42u64.to_le_bytes()).unwrap();
        #[rustfmt::skip]
        let golden: [u8; 64] = [
            0x4c, 0x42, 0x43, 0x50, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x11, 0x57, 0x81, 0x5f, 0x00, 0x00, 0x00, 0x00,
            0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        assert_eq!(p.to_bytes(), golden);
        // A page that came from disk carries its stored CRC in the
        // buffer; re-serializing it must not checksum that field.
        let q = Page::from_bytes(golden.to_vec()).unwrap();
        assert_eq!(q.to_bytes(), golden);
    }

    #[test]
    fn torn_write_detected() {
        let p = Page::new(pid(), PageKind::Raw, Psn(1), 256);
        let mut bytes = p.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(Page::from_bytes(bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn bad_magic_detected() {
        let p = Page::new(pid(), PageKind::Raw, Psn(1), 256);
        let mut bytes = p.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(Page::from_bytes(bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(Page::from_bytes(vec![0; 8]).is_err());
    }
}
