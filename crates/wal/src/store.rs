//! Byte-oriented backing stores for a node's local log.
//!
//! The log manager appends framed records; the store persists bytes and
//! a small side "master record" holding the restart anchor (last
//! checkpoint LSN and truncation point). Both an in-memory store (fast,
//! deterministic, counted) and a file-backed store are provided.
//!
//! The in-memory store keeps the log in fixed segments of
//! [`BATCH`] bytes, each allocated once, so a growing log is neither
//! copied nor held twice and a force costs the copy of its batch. The
//! segments are not zero-filled: only appended bytes are ever written,
//! and zeroing each new segment would cost a 64 KiB memset every ~20th
//! force ([`MemLogStore`]). The file store keeps its file longer than
//! the log, with written zeros ahead of the end ([`FileLogStore`]).
//!
//! Crash semantics: bytes appended but not yet [`LogStore::sync`]ed are
//! lost by [`LogStore::crash`]. The log manager only writes to the
//! store at force time, so in practice crashes drop the manager's tail
//! buffer plus any unsynced store bytes.

use crate::manager::BATCH;
use cblog_common::{Counter, Error, Result};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Append-oriented durable byte store with a master record side-slot.
///
/// `Send` is a supertrait so a `Box<dyn LogStore>` (and therefore the
/// `LogManager` and `Node` built on it) can move into a worker thread
/// of the threaded runtime, where each node owns its file-backed WAL.
pub trait LogStore: Send {
    /// Durable + appended (possibly unsynced) length in bytes.
    fn len(&self) -> u64;

    /// True if nothing has ever been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends bytes at the current end, as one write. A log force is
    /// one call of this with the manager's whole tail (every record
    /// since the last force, already contiguous) followed by one
    /// [`LogStore::sync`].
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Reads `buf.len()` bytes at absolute offset `pos`.
    fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> Result<()>;

    /// Makes all appended bytes durable.
    fn sync(&mut self) -> Result<()>;

    /// Byte length the store is *known* to have been synced at — the
    /// position of the last [`LogStore::sync`], clamped by
    /// [`LogStore::truncate_to`]. Unlike the durable length this is
    /// **not** advanced by a torn write landing on the platter
    /// ([`LogStore::crash_with_partial_tail`]), so every byte below it
    /// is a checksum-valid record prefix and restart repair may begin
    /// its scan here. `None` when the store cannot tell (a freshly
    /// reopened file store: its on-disk tail may predate this
    /// process), in which case repair falls back to the master-record
    /// anchor.
    fn synced_len(&self) -> Option<u64>;

    /// Atomically replaces the master record.
    fn write_master(&mut self, bytes: &[u8]) -> Result<()>;

    /// Reads the master record (empty vec if never written).
    fn read_master(&mut self) -> Result<Vec<u8>>;

    /// Simulates a crash: discards appended-but-unsynced bytes. The
    /// master record is always written synchronously and survives.
    fn crash(&mut self);

    /// Simulates a crash that interrupts a write mid-flight: as
    /// [`LogStore::crash`], but `partial` bytes of the interrupted
    /// append physically landed on the device first and will be seen by
    /// restart. The landed bytes count as durable (they are on the
    /// platter) without counting as a sync.
    fn crash_with_partial_tail(&mut self, partial: &[u8]);

    /// Discards every byte at or beyond `len` (both appended and
    /// durable) — restart uses this to cut a torn tail back to the last
    /// checksum-valid record boundary. Growing the store is not
    /// possible; `len` past the end is a no-op.
    fn truncate_to(&mut self, len: u64);

    /// Counter of sync operations (log forces hitting the device).
    fn syncs(&self) -> &Counter;

    /// Counter of bytes appended.
    fn bytes_appended(&self) -> &Counter;

    /// Wall-clock histogram of individual [`LogStore::sync`] calls,
    /// µs — one sample per force hitting the device, so group-commit
    /// batching gains show up per force and not only as forces/commit.
    /// `None` for stores with no real sync to time (the in-memory
    /// store: recording wall time there would leak nondeterminism into
    /// byte-identical sim exports).
    fn fsync_hist(&self) -> Option<&cblog_common::Histogram> {
        None
    }
}

/// Bytes of one [`MemLogStore`] segment: a batch read, so a
/// [`crate::LogManager::read_batch`] spans at most two segments.
const SEG: usize = BATCH;

/// In-memory log store.
///
/// The log is a list of segments of [`BATCH`] bytes, each allocated once
/// with that capacity and filled by `extend_from_slice`, so a growing
/// log never copies what it holds and never holds it twice. Every
/// segment but the last is full, and none is empty. Moving the end
/// back ([`LogStore::crash`], [`LogStore::crash_with_partial_tail`],
/// [`LogStore::truncate_to`]) cuts the last kept segment and drops the
/// ones past it.
#[derive(Debug, Default)]
pub struct MemLogStore {
    segs: Vec<Vec<u8>>,
    durable_len: u64,
    synced_len: u64,
    master: Vec<u8>,
    syncs: Counter,
    bytes: Counter,
}

impl MemLogStore {
    /// New empty store.
    pub fn new() -> Self {
        MemLogStore::default()
    }

    /// Writes `bytes` at the end, opening segments as they fill.
    fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let seg = match self.segs.last_mut() {
                Some(seg) if seg.len() < SEG => seg,
                _ => {
                    self.segs.push(Vec::with_capacity(SEG));
                    self.segs.last_mut().expect("just pushed")
                }
            };
            let n = bytes.len().min(SEG - seg.len());
            seg.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
    }

    /// Moves the end back to `len`, which is at most [`LogStore::len`].
    fn cut(&mut self, len: u64) {
        let len = len as usize;
        let kept = len.div_ceil(SEG);
        self.segs.truncate(kept);
        if let Some(last) = self.segs.last_mut() {
            last.truncate(len - (kept - 1) * SEG);
        }
    }
}

impl LogStore for MemLogStore {
    fn len(&self) -> u64 {
        self.segs
            .last()
            .map_or(0, |last| ((self.segs.len() - 1) * SEG + last.len()) as u64)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.push(bytes);
        self.bytes.add(bytes.len() as u64);
        Ok(())
    }

    fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> Result<()> {
        let len = self.len();
        if pos + buf.len() as u64 > len {
            return Err(Error::Corrupt(format!(
                "log read past end: {pos}+{} > {len}",
                buf.len()
            )));
        }
        let mut at = pos as usize;
        let mut out = buf;
        while !out.is_empty() {
            let (seg, off) = (&self.segs[at / SEG], at % SEG);
            let n = out.len().min(SEG - off);
            out[..n].copy_from_slice(&seg[off..off + n]);
            out = &mut out[n..];
            at += n;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.durable_len = self.len();
        self.synced_len = self.durable_len;
        self.syncs.bump();
        Ok(())
    }

    fn synced_len(&self) -> Option<u64> {
        Some(self.synced_len)
    }

    fn write_master(&mut self, bytes: &[u8]) -> Result<()> {
        self.master = bytes.to_vec();
        Ok(())
    }

    fn read_master(&mut self) -> Result<Vec<u8>> {
        Ok(self.master.clone())
    }

    fn crash(&mut self) {
        self.cut(self.durable_len);
    }

    fn crash_with_partial_tail(&mut self, partial: &[u8]) {
        self.crash();
        self.push(partial);
        self.durable_len = self.len();
    }

    fn truncate_to(&mut self, len: u64) {
        let len = len.min(self.len());
        self.cut(len);
        self.durable_len = self.durable_len.min(len);
        self.synced_len = self.synced_len.min(self.durable_len);
    }

    fn syncs(&self) -> &Counter {
        &self.syncs
    }

    fn bytes_appended(&self) -> &Counter {
        &self.bytes
    }
}

/// Fault injection: a store whose [`LogStore::sync`] fails on demand,
/// after the write it was to make durable has landed in `inner`. That
/// is what a failed `fdatasync` leaves behind: the store's length has
/// moved and nothing says which of the new bytes are on the device.
/// Everything else is `inner`'s.
pub struct SyncFaultStore {
    inner: Box<dyn LogStore>,
    fail_next: Arc<AtomicU32>,
}

impl SyncFaultStore {
    /// A store over `inner` with no fault armed.
    pub fn new(inner: Box<dyn LogStore>) -> Self {
        SyncFaultStore {
            inner,
            fail_next: Default::default(),
        }
    }

    /// The arming handle, to keep when the store moves into a log
    /// manager: storing `n` makes the next `n` syncs fail.
    pub fn fail_next_syncs(&self) -> Arc<AtomicU32> {
        self.fail_next.clone()
    }
}

impl LogStore for SyncFaultStore {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.append(bytes)
    }
    fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(pos, buf)
    }
    fn sync(&mut self) -> Result<()> {
        let armed = self
            .fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        match armed {
            Ok(_) => Err(std::io::Error::other("injected sync failure").into()),
            Err(_) => self.inner.sync(),
        }
    }
    fn synced_len(&self) -> Option<u64> {
        self.inner.synced_len()
    }
    fn write_master(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.write_master(bytes)
    }
    fn read_master(&mut self) -> Result<Vec<u8>> {
        self.inner.read_master()
    }
    fn crash(&mut self) {
        self.inner.crash()
    }
    fn crash_with_partial_tail(&mut self, partial: &[u8]) {
        self.inner.crash_with_partial_tail(partial)
    }
    fn truncate_to(&mut self, len: u64) {
        self.inner.truncate_to(len)
    }
    fn syncs(&self) -> &Counter {
        self.inner.syncs()
    }
    fn bytes_appended(&self) -> &Counter {
        self.inner.bytes_appended()
    }
    fn fsync_hist(&self) -> Option<&cblog_common::Histogram> {
        self.inner.fsync_hist()
    }
}

/// Reservations end on a multiple of this, so the first step (taken by
/// the preamble) is one page.
const RESERVE_ALIGN: u64 = 4096;
/// Largest reservation step: a long log pays one extending force per
/// this many bytes.
const RESERVE_MAX: u64 = 4 << 20;
/// What reservations and cuts are filled from.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// File-backed log store (`<path>` data file + `<path>.master`).
///
/// The file is kept physically longer than the log. An `fdatasync`
/// after a write that extends the file must also journal the new size,
/// and one into a hole or an unwritten (`fallocate`d) extent must
/// journal the extent's conversion; only a write over blocks that were
/// already written flushes data alone, which on this class of device
/// halves the force. So before an append would pass the reserved end
/// the store writes real zeros ahead (`FileLogStore::reserve`), and
/// steady-state appends overwrite them.
///
/// **Invariant: every byte in `[len, physical_len)` is zero.** A zero
/// record header has `total < 8`, which the log manager's readers
/// reject as `Corrupt`, so reserved bytes can never pass for a record:
/// restart repair that meets them (a reopened file after an unclean
/// exit) stops exactly as it stops at a torn write. Everything that
/// moves `len` back — [`LogStore::crash`],
/// [`LogStore::crash_with_partial_tail`], [`LogStore::truncate_to`] —
/// therefore zeroes the range it cuts instead of shrinking the file,
/// which also keeps the reservation for the forces recovery itself
/// issues. Lengths, reads, the durable hash and `bytes_appended` are
/// all logical: reserved zeros are not log bytes.
///
/// A clean drop trims the file to `len`. After an unclean exit the
/// reservation is still on disk and [`FileLogStore::open`] can only
/// report the physical length, with `synced_len() == None`: the
/// manager's `repair_tail` then rescans from the checkpoint anchor and
/// cuts the zeros off like any torn tail.
#[derive(Debug)]
pub struct FileLogStore {
    file: File,
    master_path: PathBuf,
    /// Logical end of the log.
    len: u64,
    /// File size; `>= len`, and zero from `len` on.
    physical_len: u64,
    durable_len: u64,
    /// `None` until the first in-process sync: the reopened file's
    /// tail cannot be distinguished from a torn write.
    synced_len: Option<u64>,
    syncs: Counter,
    bytes: Counter,
    fsync_us: cblog_common::Histogram,
}

impl FileLogStore {
    /// Opens (creating if absent) the log at `path`. Nothing is
    /// reserved here; the first append takes the first step.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut master_path = path.as_os_str().to_owned();
        master_path.push(".master");
        Ok(FileLogStore {
            file,
            master_path: PathBuf::from(master_path),
            len,
            physical_len: len,
            durable_len: len,
            synced_len: None,
            syncs: Counter::new(),
            bytes: Counter::new(),
            fsync_us: cblog_common::Histogram::new(),
        })
    }

    /// Writes zeros over `[from, to)`.
    fn zero(&mut self, from: u64, to: u64) -> std::io::Result<()> {
        let mut pos = from;
        while pos < to {
            let n = (to - pos).min(ZEROS.len() as u64) as usize;
            self.file.write_all_at(&ZEROS[..n], pos)?;
            pos += n as u64;
        }
        Ok(())
    }

    /// Makes the file reach at least `end`, extending it with written
    /// zeros by as much again as the log will hold ([`RESERVE_MAX`] at
    /// most, up to a page boundary): the steps double with the log, so
    /// a run pays a handful of extending forces and a short log never
    /// reserves much more than it uses.
    fn reserve(&mut self, end: u64) -> std::io::Result<()> {
        if end <= self.physical_len {
            return Ok(());
        }
        let to = (end + end.min(RESERVE_MAX)).next_multiple_of(RESERVE_ALIGN);
        self.zero(self.physical_len, to)?;
        self.physical_len = to;
        Ok(())
    }

    /// One positioned write of `bytes` at the logical end, over
    /// reserved zeros. A failed write may have landed a prefix, which
    /// is zeroed again (best effort) to keep the invariant.
    fn write_at_end(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let end = self.len + bytes.len() as u64;
        self.reserve(end)?;
        if let Err(e) = self.file.write_all_at(bytes, self.len) {
            let _ = self.zero(self.len, end);
            return Err(e);
        }
        self.len = end;
        Ok(())
    }
}

impl Drop for FileLogStore {
    fn drop(&mut self) {
        if self.physical_len > self.len {
            let _ = self.file.set_len(self.len);
        }
    }
}

impl LogStore for FileLogStore {
    fn len(&self) -> u64 {
        self.len
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.write_at_end(bytes)?;
        self.bytes.add(bytes.len() as u64);
        Ok(())
    }

    fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> Result<()> {
        if pos + buf.len() as u64 > self.len {
            return Err(Error::Corrupt("log read past end".into()));
        }
        self.file.read_exact_at(buf, pos)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let t = std::time::Instant::now();
        self.file.sync_data()?;
        self.fsync_us.record(t.elapsed().as_micros() as u64);
        self.durable_len = self.len;
        self.synced_len = Some(self.len);
        self.syncs.bump();
        Ok(())
    }

    fn synced_len(&self) -> Option<u64> {
        self.synced_len
    }

    fn write_master(&mut self, bytes: &[u8]) -> Result<()> {
        // Write-then-rename for atomicity.
        let tmp = self.master_path.with_extension("master.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.master_path)?;
        // The rename survives a crash only once the directory entry
        // that names the file is durable.
        let dir = match self.master_path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        Ok(())
    }

    fn read_master(&mut self) -> Result<Vec<u8>> {
        match std::fs::read(&self.master_path) {
            Ok(v) => Ok(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn crash(&mut self) {
        let _ = self.zero(self.durable_len, self.len);
        self.len = self.durable_len;
    }

    fn crash_with_partial_tail(&mut self, partial: &[u8]) {
        self.crash();
        let _ = self.write_at_end(partial);
        self.durable_len = self.len;
    }

    fn truncate_to(&mut self, len: u64) {
        if len < self.len {
            // This is the cut restart repair makes, the one that also
            // runs after a real crash. It must be on the device before
            // records are appended over it: were the zeros and the new
            // records to reach the device in one later flush that a
            // second crash interrupts, a stale record from the cut
            // range could line up behind the new ones and read back
            // as valid. (Shrinking the file got this ordering from the
            // file system's journal.) Not a log force, so not counted.
            let _ = self
                .zero(len, self.len)
                .and_then(|()| self.file.sync_data());
            self.len = len;
        }
        self.durable_len = self.durable_len.min(self.len);
        self.synced_len = self.synced_len.map(|s| s.min(self.durable_len));
    }

    fn syncs(&self) -> &Counter {
        &self.syncs
    }

    fn bytes_appended(&self) -> &Counter {
        &self.bytes
    }

    fn fsync_hist(&self) -> Option<&cblog_common::Histogram> {
        Some(&self.fsync_us)
    }
}

/// A file store at a fresh temporary path, for tests here and in the
/// log manager; the files go when the guard does.
#[cfg(test)]
pub(crate) struct TempLog(PathBuf);

#[cfg(test)]
impl TempLog {
    pub(crate) fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("cblog-log-{tag}-{}-{n}", std::process::id());
        let t = TempLog(std::env::temp_dir().join(name));
        t.remove();
        t
    }

    pub(crate) fn open(&self) -> FileLogStore {
        FileLogStore::open(&self.0).unwrap()
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }

    /// Opens an empty store at the path, unlinking what was there.
    pub(crate) fn fresh(&self) -> FileLogStore {
        self.remove();
        self.open()
    }

    fn remove(&self) {
        let mut master = self.0.clone().into_os_string();
        master.push(".master");
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(master);
    }
}

#[cfg(test)]
impl Drop for TempLog {
    fn drop(&mut self) {
        self.remove();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(s: &mut dyn LogStore) {
        assert!(s.is_empty());
        s.append(b"hello ").unwrap();
        s.append(b"world").unwrap();
        assert_eq!(s.len(), 11);
        let mut buf = [0u8; 5];
        s.read_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        assert!(s.read_at(8, &mut [0u8; 5]).is_err());
        s.sync().unwrap();
        assert_eq!(s.synced_len(), Some(11));
        s.append(b" lost").unwrap();
        assert_eq!(s.synced_len(), Some(11), "append alone does not sync");
        s.crash();
        assert_eq!(s.len(), 11, "unsynced tail dropped");
        s.write_master(b"anchor").unwrap();
        assert_eq!(s.read_master().unwrap(), b"anchor");
        s.write_master(b"anchor2").unwrap();
        assert_eq!(s.read_master().unwrap(), b"anchor2");
        assert_eq!(s.syncs().get(), 1);
        assert_eq!(s.bytes_appended().get(), 16);
    }

    #[test]
    fn mem_store() {
        let mut s = MemLogStore::new();
        exercise(&mut s);
    }

    #[test]
    fn file_store() {
        let tmp = TempLog::new("basic");
        {
            let mut s = tmp.open();
            exercise(&mut s);
        }
        {
            // Reopen: synced bytes and master survive.
            let mut s = tmp.open();
            assert_eq!(s.len(), 11);
            assert_eq!(s.read_master().unwrap(), b"anchor2");
        }
    }

    #[test]
    fn master_missing_reads_empty() {
        let mut s = MemLogStore::new();
        assert_eq!(s.read_master().unwrap(), Vec::<u8>::new());
    }

    /// `n` log bytes from offset `from`, each telling its offset apart
    /// from its neighbours' and from the same byte one segment on.
    fn pattern(from: usize, n: usize) -> Vec<u8> {
        (from..from + n)
            .map(|i| (i % 251) as u8 ^ (i / SEG) as u8)
            .collect()
    }

    /// Appends the next `n` bytes of the pattern to both the store and
    /// its model.
    fn grow(s: &mut MemLogStore, model: &mut Vec<u8>, n: usize) {
        let piece = pattern(model.len(), n);
        s.append(&piece).unwrap();
        model.extend_from_slice(&piece);
    }

    /// The store holds `model`: full segments of one allocation each but
    /// the last, and `read_at` returns the model's bytes at every window
    /// of the widths below that starts within a few bytes of a segment
    /// boundary or on a stride, and at every position for short ones.
    fn assert_holds(s: &mut MemLogStore, model: &[u8]) {
        let len = model.len();
        assert_eq!(s.len(), len as u64);
        assert_eq!(s.segs.len(), len.div_ceil(SEG), "segments for {len} B");
        for seg in &s.segs {
            assert_eq!(seg.capacity(), SEG, "a segment is allocated once");
            assert!(!seg.is_empty(), "no empty segment");
        }
        for seg in s.segs.iter().rev().skip(1) {
            assert_eq!(seg.len(), SEG, "every segment but the last is full");
        }
        let mut whole = vec![0u8; len];
        s.read_at(0, &mut whole).unwrap();
        assert!(whole == model, "the whole log reads back");
        for width in [1, 2, 9, 100, 4096, SEG - 1, SEG, SEG + 1, 2 * SEG + 3] {
            if width > len {
                continue;
            }
            let mut starts: Vec<usize> = if width <= 100 {
                (0..=len - width).collect()
            } else {
                (0..=len - width).step_by(997).collect()
            };
            for b in (SEG..len).step_by(SEG) {
                let near = b.saturating_sub(width + 4)..(b + 4).min(len - width + 1);
                starts.extend(near.clone().take(9).chain(near.rev().take(9)));
                starts.extend((b.saturating_sub(width / 2)..).take(3));
            }
            let mut buf = vec![0u8; width];
            for pos in starts.into_iter().filter(|&p| p + width <= len) {
                s.read_at(pos as u64, &mut buf).unwrap();
                assert!(buf == model[pos..pos + width], "window {pos}+{width}");
            }
            let past = (len - width + 1) as u64;
            assert!(
                s.read_at(past, &mut buf).is_err(),
                "{past}+{width} is past the end"
            );
        }
    }

    #[test]
    fn mem_store_appends_straddle_segment_boundaries() {
        let (mut s, mut model) = (MemLogStore::new(), Vec::new());
        assert_holds(&mut s, &model);
        // Batch-sized forces: most land inside a segment, every ~20th
        // straddles a boundary.
        while model.len() < SEG + 5000 {
            grow(&mut s, &mut model, 3000);
        }
        assert_holds(&mut s, &model);
        // Onto a boundary exactly, then nothing, then one byte past it.
        let to_boundary = 2 * SEG - model.len();
        grow(&mut s, &mut model, to_boundary);
        assert_eq!(s.segs.len(), 2);
        grow(&mut s, &mut model, 0);
        assert_eq!(s.segs.len(), 2, "an empty append opens no segment");
        grow(&mut s, &mut model, 1);
        assert_holds(&mut s, &model);
        // One piece over three segments.
        grow(&mut s, &mut model, 2 * SEG + 10);
        assert_holds(&mut s, &model);
        assert_eq!(s.bytes_appended().get(), model.len() as u64);
    }

    #[test]
    fn mem_store_crash_inside_a_segment_then_append() {
        let (mut s, mut model) = (MemLogStore::new(), Vec::new());
        grow(&mut s, &mut model, SEG + 100);
        s.sync().unwrap();
        let durable = model.len();
        grow(&mut s, &mut model, 2 * SEG);
        assert_eq!(s.segs.len(), 4);
        s.crash();
        model.truncate(durable);
        assert_holds(&mut s, &model);
        assert_eq!(s.synced_len(), Some(durable as u64));
        grow(&mut s, &mut model, SEG);
        assert_holds(&mut s, &model);
        s.crash();
        model.truncate(durable);
        assert_holds(&mut s, &model);
    }

    #[test]
    fn mem_store_truncate_onto_and_inside_segments_then_append() {
        let (mut s, mut model) = (MemLogStore::new(), Vec::new());
        grow(&mut s, &mut model, 3 * SEG + 500);
        s.sync().unwrap();
        // Onto a boundary: the last kept segment stays full.
        s.truncate_to(2 * SEG as u64);
        model.truncate(2 * SEG);
        assert_holds(&mut s, &model);
        assert_eq!(s.synced_len(), Some(2 * SEG as u64), "the cut clamps it");
        grow(&mut s, &mut model, 700);
        assert_holds(&mut s, &model);
        // Inside a segment, below the synced length.
        s.truncate_to(SEG as u64 + 33);
        model.truncate(SEG + 33);
        assert_holds(&mut s, &model);
        assert_eq!(s.synced_len(), Some(SEG as u64 + 33));
        grow(&mut s, &mut model, SEG);
        assert_holds(&mut s, &model);
        // Past the end: nothing moves.
        s.truncate_to(10 * SEG as u64);
        assert_holds(&mut s, &model);
        // The appended bytes above the cut are not durable.
        s.crash();
        model.truncate(SEG + 33);
        assert_holds(&mut s, &model);
        s.truncate_to(0);
        assert_holds(&mut s, &[]);
        assert_eq!(s.synced_len(), Some(0));
    }

    #[test]
    fn mem_store_torn_tail_across_a_boundary() {
        let (mut s, mut model) = (MemLogStore::new(), Vec::new());
        grow(&mut s, &mut model, SEG - 50);
        s.sync().unwrap();
        let appended = model.len() + 200;
        grow(&mut s, &mut model, 200);
        // The first 100 bytes of the 200 landed: 50 below the boundary
        // and 50 above it.
        s.crash_with_partial_tail(&model[SEG - 50..SEG + 50]);
        model.truncate(SEG + 50);
        assert_holds(&mut s, &model);
        assert_eq!(s.synced_len(), Some(SEG as u64 - 50), "landed, not synced");
        assert_eq!(
            s.bytes_appended().get(),
            appended as u64,
            "a landing is no append"
        );
        s.crash();
        assert_holds(&mut s, &model);
        s.truncate_to(SEG as u64 - 50);
        model.truncate(SEG - 50);
        assert_holds(&mut s, &model);
        grow(&mut s, &mut model, 3000);
        assert_holds(&mut s, &model);
    }

    fn exercise_torn(s: &mut dyn LogStore) {
        s.append(b"durable!").unwrap();
        s.sync().unwrap();
        s.append(b"in-flight-batch").unwrap();
        // Crash mid-write: the first 4 bytes of the batch landed.
        s.crash_with_partial_tail(b"in-f");
        assert_eq!(s.len(), 12, "durable prefix + torn fragment");
        assert_eq!(
            s.synced_len(),
            Some(8),
            "torn landed bytes are durable but not *synced*: repair must scan them"
        );
        let mut buf = [0u8; 12];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable!in-f");
        // The torn fragment survives a further plain crash: it is on
        // the platter, not in a volatile buffer.
        s.crash();
        assert_eq!(s.len(), 12);
        // Restart cuts the tail back to the valid boundary.
        s.truncate_to(8);
        assert_eq!(s.len(), 8);
        s.truncate_to(100); // past end: no-op
        assert_eq!(s.len(), 8);
        // The store still appends normally afterwards.
        s.append(b"more").unwrap();
        s.sync().unwrap();
        assert_eq!(s.len(), 12);
    }

    #[test]
    fn mem_store_torn_tail() {
        let mut s = MemLogStore::new();
        exercise_torn(&mut s);
    }

    #[test]
    fn file_store_torn_tail() {
        let tmp = TempLog::new("torn");
        {
            let mut s = tmp.open();
            exercise_torn(&mut s);
        }
        {
            // Reopen: the repaired, re-appended log is what restart sees.
            let mut s = tmp.open();
            assert_eq!(s.len(), 12);
            let mut buf = [0u8; 12];
            s.read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"durable!more");
        }
    }

    #[test]
    fn fsync_histogram_counts_file_syncs_only() {
        // The in-memory store must expose no wall-clock histogram —
        // that is what keeps sim exports byte-deterministic.
        assert!(MemLogStore::new().fsync_hist().is_none());

        let tmp = TempLog::new("fsync");
        {
            let mut s = tmp.open();
            s.append(b"payload").unwrap();
            s.sync().unwrap();
            s.append(b"more").unwrap();
            s.sync().unwrap();
            let h = s.fsync_hist().expect("file store times its syncs");
            assert_eq!(h.snapshot().count, 2, "one sample per sync");
            assert_eq!(h.snapshot().count, s.syncs().get());
        }
    }

    /// The reservation invariant: the file is `physical_len` long and
    /// every byte of it past the logical end is zero.
    fn assert_reserved_zeros(s: &FileLogStore, when: &str) {
        assert!(s.physical_len >= s.len, "{when}: reservation below the log");
        assert_eq!(
            s.file.metadata().unwrap().len(),
            s.physical_len,
            "{when}: physical length is the file's"
        );
        let mut rest = vec![0xAAu8; (s.physical_len - s.len) as usize];
        s.file.read_exact_at(&mut rest, s.len).unwrap();
        let nonzero = rest.iter().position(|&b| b != 0);
        assert_eq!(nonzero, None, "{when}: non-zero byte past the log end");
    }

    #[test]
    fn reservation_is_zero_after_every_operation() {
        let tmp = TempLog::new("reserve");
        let mut s = tmp.open();
        assert_eq!(s.physical_len, 0, "nothing reserved at open");
        s.append(b"preamble").unwrap();
        assert_eq!(s.physical_len, RESERVE_ALIGN, "the first step is a page");
        assert_reserved_zeros(&s, "append");
        s.sync().unwrap();
        assert_reserved_zeros(&s, "sync");

        // Past-end reads stay logical: reserved zeros are not log bytes.
        assert_eq!(s.len(), 8);
        assert!(s.read_at(4, &mut [0u8; 8]).is_err());
        assert!(s.read_at(8, &mut [0u8; 1]).is_err());

        // Unsynced bytes, some of them past the first reservation.
        let chunk = [0xC5u8; 1500];
        s.append(&[chunk; 4].concat()).unwrap();
        assert!(s.physical_len > RESERVE_ALIGN);
        assert_reserved_zeros(&s, "append past the reservation");
        let reserved = s.physical_len;
        s.crash();
        assert_eq!(s.len(), 8);
        assert_eq!(s.physical_len, reserved, "crash keeps the reservation");
        assert_reserved_zeros(&s, "crash");

        s.append(&chunk).unwrap();
        s.sync().unwrap();
        s.append(&chunk).unwrap();
        s.crash_with_partial_tail(&chunk[..700]);
        assert_eq!(s.len(), 8 + 1500 + 700);
        assert_eq!(s.physical_len, reserved);
        assert_reserved_zeros(&s, "crash_with_partial_tail");

        s.truncate_to(8 + 1500);
        assert_eq!(s.len(), 8 + 1500);
        assert_eq!(s.physical_len, reserved, "a cut keeps the reservation");
        assert_reserved_zeros(&s, "truncate_to");
        assert!(s.read_at(8 + 1500, &mut [0u8; 1]).is_err());
        let mut kept = [0u8; 1500];
        s.read_at(8, &mut kept).unwrap();
        assert_eq!(kept, chunk, "the cut touched nothing below it");

        // A torn fragment longer than what is reserved extends it.
        let long = vec![0x3Cu8; 2 * reserved as usize];
        s.crash_with_partial_tail(&long);
        assert_eq!(s.len(), 8 + 1500 + long.len() as u64);
        assert_reserved_zeros(&s, "long torn tail");
        s.truncate_to(8);
        assert_reserved_zeros(&s, "deep cut");
    }

    #[test]
    fn reservation_steps_are_few_and_uncounted() {
        let tmp = TempLog::new("steps");
        let mut s = tmp.open();
        let rec = [0x5Au8; 3300];
        let (mut steps, mut last) = (0, 0);
        for i in 0..400u64 {
            s.append(&rec).unwrap();
            s.sync().unwrap();
            if s.physical_len != last {
                steps += 1;
                last = s.physical_len;
            }
            assert_eq!(s.len(), (i + 1) * 3300);
            assert_eq!(s.bytes_appended().get(), s.len(), "log bytes only");
        }
        assert!((5..=12).contains(&steps), "{steps} steps for 1.3 MB");
        assert!(s.physical_len < 3 * s.len(), "reserves about the log again");
        assert_reserved_zeros(&s, "steady state");
        let mut back = [0u8; 3300];
        s.read_at(399 * 3300, &mut back).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn clean_drop_trims_the_reservation_and_forget_leaves_it() {
        let tmp = TempLog::new("drop");
        let mut s = tmp.open();
        s.append(b"synced").unwrap();
        s.sync().unwrap();
        let reserved = s.physical_len;
        assert!(reserved > 6);
        drop(s);
        let s = tmp.open();
        assert_eq!(s.len(), 6, "a clean drop leaves the logical length");
        assert_eq!(s.synced_len(), None);
        drop(s);

        // Unclean exit: nothing trims the file.
        let mut s = tmp.open();
        s.append(b"+more").unwrap();
        s.sync().unwrap();
        let reserved = s.physical_len;
        std::mem::forget(s);
        let mut s = tmp.open();
        assert_eq!(s.len(), reserved, "only the physical length is known");
        assert_eq!(
            s.synced_len(),
            None,
            "so repair must rescan from its anchor"
        );
        let mut buf = vec![0u8; reserved as usize];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..11], b"synced+more");
        assert!(buf[11..].iter().all(|&b| b == 0));
    }
}
