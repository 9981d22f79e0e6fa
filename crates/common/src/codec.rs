//! Minimal binary codec used by the page store and the write-ahead log.
//!
//! Little-endian, length-prefixed, with a CRC32 helper for torn-write
//! detection. We deliberately avoid serde here: page and log layouts are
//! explicit on-disk formats whose byte layout is part of the system's
//! contract (and must stay stable for restart recovery to read old logs).

use crate::error::{Error, Result};
use crate::ids::{Lsn, NodeId, PageId, Psn, TxnId};

#[cfg(target_arch = "x86_64")]
mod clmul;

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
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed (u32) byte slice.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a page id (packed u64).
    #[inline]
    pub fn put_page(&mut self, v: PageId) {
        self.put_u64(v.to_u64());
    }

    /// Writes a transaction id.
    #[inline]
    pub fn put_txn(&mut self, v: TxnId) {
        self.put_u32(v.node.0);
        self.put_u64(v.seq);
    }

    /// Writes an LSN.
    #[inline]
    pub fn put_lsn(&mut self, v: Lsn) {
        self.put_u64(v.0);
    }

    /// Writes a PSN.
    #[inline]
    pub fn put_psn(&mut self, v: Psn) {
        self.put_u64(v.0);
    }
}

/// The error of a read past the end of a [`Decoder`]'s input: built
/// out of line, so the reads that can fail with it stay small enough to
/// inline.
#[cold]
fn underrun(need: usize, have: usize) -> Error {
    Error::Corrupt(format!("decode underrun: need {need} bytes, have {have}"))
}

/// Reads primitive values back from a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
    /// Length of the whole input.
    len: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf` starting at offset 0.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Current read offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(underrun(n, self.rest.len()));
        }
        let (s, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(s)
    }

    /// The next `N` bytes, with one length check.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a u32 count of entries of at least `entry` bytes each, and
    /// refuses one the rest of the input cannot hold: a count is read
    /// before the entries it sizes an allocation for, so a corrupt one
    /// must come back `Corrupt` rather than as an allocation failure.
    #[inline]
    pub fn get_count(&mut self, entry: usize) -> Result<usize> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() / entry {
            return Err(Error::Corrupt(format!(
                "count {n} of {entry}-byte entries exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte slice.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Reads a page id.
    #[inline]
    pub fn get_page(&mut self) -> Result<PageId> {
        Ok(PageId::from_u64(self.get_u64()?))
    }

    /// Reads a transaction id.
    #[inline]
    pub fn get_txn(&mut self) -> Result<TxnId> {
        let node = NodeId(self.get_u32()?);
        let seq = self.get_u64()?;
        Ok(TxnId { node, seq })
    }

    /// Reads an LSN.
    #[inline]
    pub fn get_lsn(&mut self) -> Result<Lsn> {
        Ok(Lsn(self.get_u64()?))
    }

    /// Reads a PSN.
    #[inline]
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

/// Folds `data` into the register `crc` eight bytes per step: the
/// portable kernel, and the reference for [`clmul`].
fn update_tables(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// Incremental CRC-32 (IEEE 802.3 polynomial, reflected): the state
/// behind [`crc32`], for data that is checksummed in pieces. Feeding
/// the pieces of a buffer in order, however it is split, gives the
/// CRC of the whole buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    #[inline]
    fn default() -> Self {
        Crc32(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// The state of an empty message.
    #[inline]
    pub fn new() -> Self {
        Crc32::default()
    }

    /// Folds `data` into the state: through the carry-less-multiply
    /// kernel where the CPU has one and the input is long enough to
    /// repay it, through the slice-by-8 tables otherwise.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN {
            if let Some(crc) = clmul::update(self.0, data) {
                self.0 = crc;
                return;
            }
        }
        self.0 = update_tables(self.0, data);
    }

    /// The CRC of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
///
/// Used to detect torn page writes and truncated log records; the
/// values are part of the page and log formats.
#[inline]
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
        e.put_page(pid);
        e.put_txn(tid);
        e.put_lsn(Lsn(42));
        e.put_psn(Psn(43));
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
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

    /// The byte-at-a-time loop `crc32` used to be: the reference every
    /// kernel must agree with bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this CPU runs, called directly whatever the input's
    /// length: a register and data in, the register out.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("tables", update_tables)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("pclmulqdq") {
            all.push(("clmul", |crc, data| {
                clmul::update(crc, data).expect("the CPU has pclmulqdq")
            }));
        }
        all
    }

    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut rng = crate::rng::Rng::seed_from_u64(0xC4C3_2016);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let data = seeded_bytes(8 << 20);
        for (name, kernel) in kernels() {
            // Every length past the kernel's four-lane loop, at every
            // alignment of the slice start.
            for start in 0..16 {
                for len in 0..=320 {
                    let s = &data[start..start + len];
                    let want = crc32_bytewise(s);
                    assert_eq!(!kernel(!0, s), want, "{name}: start {start} len {len}");
                }
            }
            assert_eq!(!kernel(!0, &data), crc32_bytewise(&data), "{name}: 8 MiB");
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
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
    fn the_page_checksum_split_equals_one_shot_on_every_kernel() {
        // A page is checksummed as its first 24 bytes, four zeros where
        // the CRC is stored, then the rest (`storage::page`).
        for size in [512, 1024, 4096] {
            let mut page = seeded_bytes(size);
            let mut c = Crc32::new();
            c.update(&page[..24]);
            c.update(&[0; 4]);
            c.update(&page[28..]);
            let split = c.finish();
            for (name, kernel) in kernels() {
                let crc = kernel(kernel(kernel(!0, &page[..24]), &[0; 4]), &page[28..]);
                assert_eq!(!crc, split, "{name}: {size} B");
            }
            page[24..28].fill(0);
            assert_eq!(split, crc32_bytewise(&page), "{size} B");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_cpu_with_pclmulqdq_takes_the_kernel() {
        // The fast path must not rot unnoticed behind the tables.
        if !std::is_x86_feature_detected!("pclmulqdq") {
            return;
        }
        let calls = || clmul::CALLS.with(std::cell::Cell::get);
        let before = calls();
        crc32(&[0x5A; 1024]);
        crc32(&[0x5A; clmul::MIN_LEN]);
        assert_eq!(calls() - before, 2, "a 1 KiB page and the shortest input");
        crc32(&[0x5A; clmul::MIN_LEN - 1]);
        assert_eq!(calls() - before, 2, "shorter inputs stay on the tables");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_kernel_constants_come_from_the_polynomial() {
        const POLY: u64 = 0x1_04C1_1DB7;
        // x^n mod P over GF(2), bit i the coefficient of x^i.
        let x_pow_mod = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= POLY;
                }
            }
            r as u32
        };
        // Reflected and shifted left one, as the multiplies take them.
        let folded = |n: u32| (u64::from(x_pow_mod(n).reverse_bits()) << 1) as i64;
        assert_eq!(clmul::K1, folded(4 * 128 + 32));
        assert_eq!(clmul::K2, folded(4 * 128 - 32));
        assert_eq!(clmul::K3, folded(128 + 32));
        assert_eq!(clmul::K4, folded(128 - 32));
        assert_eq!(clmul::K5, folded(64));
        // x^64 div P by long division; both 33-bit values reflected.
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        while rem >> 32 != 0 {
            let shift = 127 - rem.leading_zeros() - 32;
            quot |= 1u64 << shift;
            rem ^= u128::from(POLY) << shift;
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(clmul::MU, reflect33(quot));
        assert_eq!(clmul::P, reflect33(POLY));
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
