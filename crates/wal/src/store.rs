//! Byte-oriented backing stores for a node's local log.
//!
//! The log manager appends framed records; the store persists bytes and
//! a small side "master record" holding the restart anchor (last
//! checkpoint LSN and truncation point). Both an in-memory store (fast,
//! deterministic, counted) and a file-backed store are provided.
//!
//! Crash semantics: bytes appended but not yet [`LogStore::sync`]ed are
//! lost by [`LogStore::crash`]. The log manager only writes to the
//! store at force time, so in practice crashes drop the manager's tail
//! buffer plus any unsynced store bytes.

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

/// In-memory log store.
#[derive(Debug, Default)]
pub struct MemLogStore {
    data: Vec<u8>,
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
}

impl LogStore for MemLogStore {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.data.extend_from_slice(bytes);
        self.bytes.add(bytes.len() as u64);
        Ok(())
    }

    fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> Result<()> {
        let end = pos as usize + buf.len();
        if end > self.data.len() {
            return Err(Error::Corrupt(format!(
                "log read past end: {pos}+{} > {}",
                buf.len(),
                self.data.len()
            )));
        }
        buf.copy_from_slice(&self.data[pos as usize..end]);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.durable_len = self.data.len() as u64;
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
        self.data.truncate(self.durable_len as usize);
    }

    fn crash_with_partial_tail(&mut self, partial: &[u8]) {
        self.crash();
        self.data.extend_from_slice(partial);
        self.durable_len = self.data.len() as u64;
    }

    fn truncate_to(&mut self, len: u64) {
        if len < self.data.len() as u64 {
            self.data.truncate(len as usize);
        }
        self.durable_len = self.durable_len.min(self.data.len() as u64).min(len);
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
/// the store writes real zeros ahead ([`FileLogStore::reserve`]), and
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
            assert_eq!(h.count(), 2, "one sample per sync");
            assert_eq!(h.count(), s.syncs().get());
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
