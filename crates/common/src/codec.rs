//! Minimal binary codec used by the page store and the write-ahead log.
//!
//! Little-endian, length-prefixed, with a CRC32 helper for torn-write
//! detection. We deliberately avoid serde here: page and log layouts are
//! explicit on-disk formats whose byte layout is part of the system's
//! contract (and must stay stable for restart recovery to read old logs).

use crate::error::{Error, Result};
use crate::ids::{Lsn, NodeId, PageId, Psn, TxnId};

/// Appends primitive values to a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// New encoder with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Encoder that appends to `buf`, keeping what it holds; with
    /// [`Encoder::into_vec`], the way to encode into a buffer the
    /// caller owns (`Encoder::from_vec(std::mem::take(out))`).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed (u32) byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a node id.
    pub fn put_node(&mut self, v: NodeId) {
        self.put_u32(v.0);
    }

    /// Writes a page id (packed u64).
    pub fn put_page(&mut self, v: PageId) {
        self.put_u64(v.to_u64());
    }

    /// Writes a transaction id.
    pub fn put_txn(&mut self, v: TxnId) {
        self.put_u32(v.node.0);
        self.put_u64(v.seq);
    }

    /// Writes an LSN.
    pub fn put_lsn(&mut self, v: Lsn) {
        self.put_u64(v.0);
    }

    /// Writes a PSN.
    pub fn put_psn(&mut self, v: Psn) {
        self.put_u64(v.0);
    }
}

/// Reads primitive values back from a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corrupt(format!(
                "decode underrun: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Reads a node id.
    pub fn get_node(&mut self) -> Result<NodeId> {
        Ok(NodeId(self.get_u32()?))
    }

    /// Reads a page id.
    pub fn get_page(&mut self) -> Result<PageId> {
        Ok(PageId::from_u64(self.get_u64()?))
    }

    /// Reads a transaction id.
    pub fn get_txn(&mut self) -> Result<TxnId> {
        let node = NodeId(self.get_u32()?);
        let seq = self.get_u64()?;
        Ok(TxnId { node, seq })
    }

    /// Reads an LSN.
    pub fn get_lsn(&mut self) -> Result<Lsn> {
        Ok(Lsn(self.get_u64()?))
    }

    /// Reads a PSN.
    pub fn get_psn(&mut self) -> Result<Psn> {
        Ok(Psn(self.get_u64()?))
    }
}

/// Incremental FNV-1a (64-bit) hasher.
///
/// Used by the model checker to fingerprint durable state so
/// convergent crash branches can be pruned; not a cryptographic hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The offset-basis state.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds `data` into the state.
    pub fn write(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a u64 (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Slice-by-8 lookup tables for the reflected IEEE 802.3 polynomial:
/// `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the state with eight independent
/// lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Incremental CRC-32 (IEEE 802.3 polynomial, reflected): the state
/// behind [`crc32`], for data that is checksummed in pieces. Feeding
/// the pieces of a buffer in order, however it is split, gives the
/// CRC of the whole buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// The state of an empty message.
    pub fn new() -> Self {
        Crc32::default()
    }

    /// Folds `data` into the state, eight bytes per step.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// The CRC of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
///
/// Used to detect torn page writes and truncated log records; the
/// values are part of the page and log formats.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(0x0123_4567_89AB_CDEF);
        e.put_bytes(b"hello");
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u16().unwrap(), 0xBEEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.get_bytes().unwrap(), b"hello");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn round_trip_ids() {
        let mut e = Encoder::new();
        let pid = PageId::new(NodeId(9), 77);
        let tid = TxnId::new(NodeId(3), 12345);
        e.put_node(NodeId(9));
        e.put_page(pid);
        e.put_txn(tid);
        e.put_lsn(Lsn(42));
        e.put_psn(Psn(43));
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.get_node().unwrap(), NodeId(9));
        assert_eq!(d.get_page().unwrap(), pid);
        assert_eq!(d.get_txn().unwrap(), tid);
        assert_eq!(d.get_lsn().unwrap(), Lsn(42));
        assert_eq!(d.get_psn().unwrap(), Psn(43));
    }

    #[test]
    fn underrun_is_corrupt_not_panic() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(d.get_u64(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn bytes_with_bogus_length_is_corrupt() {
        let mut e = Encoder::new();
        e.put_u32(1000); // claims 1000 bytes follow
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert!(matches!(d.get_bytes(), Err(Error::Corrupt(_))));
    }

    /// The byte-at-a-time loop `crc32` used to be: the reference the
    /// slice-by-8 kernel must agree with bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut rng = crate::rng::Rng::seed_from_u64(0xC4C3_2016);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let data = seeded_bytes(4096);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        // Every length around the 8-byte step, at every alignment of
        // the slice start.
        for start in 0..8 {
            for len in 0..=80 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_in_pieces_equals_one_shot() {
        let data = seeded_bytes(300);
        let whole = crc32(&data);
        for a in 0..=data.len() {
            // Two cuts: [0, a), [a, b), [b, len) with b stepping past
            // word boundaries relative to a.
            for b in (a..=data.len()).step_by(7) {
                let mut c = Crc32::new();
                c.update(&data[..a]);
                c.update(&data[a..b]);
                c.update(&data[b..]);
                assert_eq!(c.finish(), whole, "cuts at {a} and {b}");
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let c0 = crc32(&data);
        data[3] ^= 0x40;
        assert_ne!(crc32(&data), c0);
    }
}
