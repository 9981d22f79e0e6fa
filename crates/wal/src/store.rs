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
use std::io::{IoSlice, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

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

    /// Appends bytes at the current end.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Appends a batch of buffers at the current end as one logical
    /// write (group commit: the coalesced tail goes down in a single
    /// operation followed by a single [`LogStore::sync`]). The default
    /// implementation loops over [`LogStore::append`]; stores backed by
    /// real I/O should override it with a vectored write.
    fn append_vectored(&mut self, bufs: &[&[u8]]) -> Result<()> {
        for b in bufs {
            self.append(b)?;
        }
        Ok(())
    }

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

/// File-backed log store (`<path>` data file + `<path>.master`).
#[derive(Debug)]
pub struct FileLogStore {
    file: File,
    master_path: PathBuf,
    len: u64,
    durable_len: u64,
    /// `None` until the first in-process sync: the reopened file's
    /// tail cannot be distinguished from a torn write.
    synced_len: Option<u64>,
    syncs: Counter,
    bytes: Counter,
    fsync_us: cblog_common::Histogram,
}

impl FileLogStore {
    /// Opens (creating if absent) the log at `path`.
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
            durable_len: len,
            synced_len: None,
            syncs: Counter::new(),
            bytes: Counter::new(),
            fsync_us: cblog_common::Histogram::new(),
        })
    }
}

impl LogStore for FileLogStore {
    fn len(&self) -> u64 {
        self.len
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        self.bytes.add(bytes.len() as u64);
        Ok(())
    }

    fn append_vectored(&mut self, bufs: &[&[u8]]) -> Result<()> {
        let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        if total == 0 {
            return Ok(());
        }
        self.file.seek(SeekFrom::Start(self.len))?;
        let bufs: Vec<&[u8]> = bufs.iter().filter(|b| !b.is_empty()).copied().collect();
        // write_vectored may write a prefix; rebuild the slice list past
        // what landed and retry until the whole batch is down.
        let mut written = 0u64;
        while written < total {
            let mut skip = written as usize;
            let slices: Vec<IoSlice<'_>> = bufs
                .iter()
                .filter_map(|b| {
                    if skip >= b.len() {
                        skip -= b.len();
                        None
                    } else {
                        let s = &b[skip..];
                        skip = 0;
                        Some(IoSlice::new(s))
                    }
                })
                .collect();
            let n = self.file.write_vectored(&slices)?;
            if n == 0 {
                return Err(Error::Io(std::io::ErrorKind::WriteZero.into()));
            }
            written += n as u64;
        }
        self.len += total;
        self.bytes.add(total);
        Ok(())
    }

    fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> Result<()> {
        if pos + buf.len() as u64 > self.len {
            return Err(Error::Corrupt("log read past end".into()));
        }
        // Positioned: one syscall, and the cursor `append` writes at
        // stays where the last append left it.
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
        let _ = self.file.set_len(self.durable_len);
        self.len = self.durable_len;
    }

    fn crash_with_partial_tail(&mut self, partial: &[u8]) {
        self.crash();
        if !partial.is_empty() {
            let r = self
                .file
                .seek(SeekFrom::Start(self.len))
                .and_then(|_| self.file.write_all(partial));
            if r.is_ok() {
                self.len += partial.len() as u64;
            }
        }
        self.durable_len = self.len;
    }

    fn truncate_to(&mut self, len: u64) {
        if len < self.len {
            let _ = self.file.set_len(len);
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
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "cblog-log-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let master = {
            let mut m = path.as_os_str().to_owned();
            m.push(".master");
            PathBuf::from(m)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
        {
            let mut s = FileLogStore::open(&path).unwrap();
            exercise(&mut s);
        }
        {
            // Reopen: synced bytes and master survive.
            let mut s = FileLogStore::open(&path).unwrap();
            assert_eq!(s.len(), 11);
            assert_eq!(s.read_master().unwrap(), b"anchor2");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
    }

    #[test]
    fn master_missing_reads_empty() {
        let mut s = MemLogStore::new();
        assert_eq!(s.read_master().unwrap(), Vec::<u8>::new());
    }

    fn exercise_vectored(s: &mut dyn LogStore) {
        s.append_vectored(&[b"abc", b"", b"defg"]).unwrap();
        assert_eq!(s.len(), 7);
        let mut buf = [0u8; 7];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdefg");
        s.sync().unwrap();
        s.append_vectored(&[]).unwrap();
        assert_eq!(s.len(), 7, "empty batch is a no-op");
        s.append(b"!").unwrap();
        s.crash();
        assert_eq!(s.len(), 7, "unsynced single append dropped");
        assert_eq!(s.bytes_appended().get(), 8);
    }

    #[test]
    fn mem_store_vectored() {
        let mut s = MemLogStore::new();
        exercise_vectored(&mut s);
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
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "cblog-log-torn-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let master = {
            let mut m = path.as_os_str().to_owned();
            m.push(".master");
            PathBuf::from(m)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
        {
            let mut s = FileLogStore::open(&path).unwrap();
            exercise_torn(&mut s);
        }
        {
            // Reopen: the repaired, re-appended log is what restart sees.
            let mut s = FileLogStore::open(&path).unwrap();
            assert_eq!(s.len(), 12);
            let mut buf = [0u8; 12];
            s.read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"durable!more");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
    }

    #[test]
    fn file_store_vectored_is_one_write_per_batch() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "cblog-log-vec-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let master = {
            let mut m = path.as_os_str().to_owned();
            m.push(".master");
            PathBuf::from(m)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
        {
            let mut s = FileLogStore::open(&path).unwrap();
            exercise_vectored(&mut s);
        }
        {
            let mut s = FileLogStore::open(&path).unwrap();
            assert_eq!(s.len(), 7);
            let mut buf = [0u8; 7];
            s.read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"abcdefg");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
    }

    #[test]
    fn fsync_histogram_counts_file_syncs_only() {
        // The in-memory store must expose no wall-clock histogram —
        // that is what keeps sim exports byte-deterministic.
        assert!(MemLogStore::new().fsync_hist().is_none());

        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "cblog-log-fsync-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let master = {
            let mut m = path.as_os_str().to_owned();
            m.push(".master");
            PathBuf::from(m)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
        {
            let mut s = FileLogStore::open(&path).unwrap();
            s.append(b"payload").unwrap();
            s.sync().unwrap();
            s.append(b"more").unwrap();
            s.sync().unwrap();
            let h = s.fsync_hist().expect("file store times its syncs");
            assert_eq!(h.count(), 2, "one sample per sync");
            assert_eq!(h.count(), s.syncs().get());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&master);
    }
}
