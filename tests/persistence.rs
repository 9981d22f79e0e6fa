//! File-backed durability: the database and WAL survive real process
//! restarts (the file handles are dropped and re-opened), and ARIES
//! restart over the on-disk log reconstructs exactly the committed
//! state. This exercises `FileStorage` / `FileLogStore` end to end —
//! the same code paths the in-memory stores simulate everywhere else.

use cblog_common::{Lsn, NodeId, PageId, Psn, TxnId};
use cblog_storage::{Database, FileStorage, Page, PageKind};
use cblog_wal::{
    CheckpointBody, FileLogStore, LogManager, LogPayload, LogRecord, LogRecordRef, PageOp,
};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "cblog-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const PAGE: usize = 512;
const NODE: NodeId = NodeId(1);

fn open_db(dir: &TempDir, create: bool) -> Database {
    let storage = Box::new(FileStorage::open(&dir.path("db"), PAGE).unwrap());
    if create {
        let mut db = Database::create(storage, NODE, 4).unwrap();
        db.allocate_pages(PageKind::Raw, 4).unwrap();
        db
    } else {
        Database::open(storage).unwrap()
    }
}

fn open_log(dir: &TempDir) -> LogManager {
    let store = Box::new(FileLogStore::open(&dir.path("wal")).unwrap());
    LogManager::new(NODE, store).unwrap()
}

fn upd(
    txn: TxnId,
    prev: Lsn,
    pid: PageId,
    psn: Psn,
    slot: usize,
    before: u64,
    after: u64,
) -> LogRecord {
    LogRecord {
        txn,
        prev_lsn: prev,
        payload: LogPayload::Update {
            pid,
            psn_before: psn,
            op: PageOp::WriteRange {
                off: (slot * 8) as u32,
                before: before.to_le_bytes().to_vec(),
                after: after.to_le_bytes().to_vec(),
            },
        },
    }
}

#[test]
fn committed_work_survives_reopen_without_page_writes() {
    let dir = TempDir::new("redo");
    let pid = PageId::new(NODE, 0);
    let txn = TxnId::new(NODE, 1);

    // Life 1: log a committed update, force the log, but never write
    // the page — then "crash" by dropping everything.
    {
        let mut db = open_db(&dir, true);
        let mut log = open_log(&dir);
        let page = db.read_page(0).unwrap();
        assert_eq!(page.psn(), Psn(1));
        let begin = log
            .append(&LogRecord {
                txn,
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::Begin,
            })
            .unwrap();
        let u = log
            .append(&upd(txn, begin, pid, Psn(1), 0, 0, 777))
            .unwrap();
        let c = log
            .append(&LogRecord {
                txn,
                prev_lsn: u,
                payload: LogPayload::Commit,
            })
            .unwrap();
        log.force(c).unwrap();
        // Page deliberately NOT written: disk still has PSN 1, zeros.
    }

    // Life 2: reopen, replay with the PSN filter, verify.
    {
        let mut db = open_db(&dir, false);
        let mut log = open_log(&dir);
        let mut page = db.read_page(0).unwrap();
        assert_eq!(page.psn(), Psn(1), "page never reached disk");
        let mut pos = Lsn(8);
        let end = log.end_lsn();
        let mut applied = 0;
        while pos < end {
            let (rec, next) = log.read_record(pos).unwrap();
            if let Some((p, psn, op)) = LogRecordRef::from(&rec).update() {
                if p == pid && psn == page.psn() {
                    op.apply_redo(&mut page).unwrap();
                    page.set_psn(psn.next());
                    applied += 1;
                }
            }
            pos = next;
        }
        assert_eq!(applied, 1);
        assert_eq!(page.read_slot(0).unwrap(), 777);
        db.write_page(&page).unwrap();
        db.sync().unwrap();
    }

    // Life 3: the replayed write is durable; replay is now a no-op.
    {
        let mut db = open_db(&dir, false);
        let page = db.read_page(0).unwrap();
        assert_eq!(page.psn(), Psn(2));
        assert_eq!(page.read_slot(0).unwrap(), 777);
    }
}

#[test]
fn unforced_tail_is_lost_on_reopen() {
    let dir = TempDir::new("tail");
    let pid = PageId::new(NODE, 0);
    let txn = TxnId::new(NODE, 1);
    let forced_end;
    {
        let mut _db = open_db(&dir, true);
        let mut log = open_log(&dir);
        let begin = log
            .append(&LogRecord {
                txn,
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::Begin,
            })
            .unwrap();
        log.force_all().unwrap();
        forced_end = log.end_lsn();
        // Unforced records: lost when the handle drops without force.
        let _ = log.append(&upd(txn, begin, pid, Psn(1), 0, 0, 1)).unwrap();
    }
    {
        let log = open_log(&dir);
        assert_eq!(
            log.end_lsn(),
            forced_end,
            "reopen sees only the forced prefix"
        );
    }
}

#[test]
fn master_record_and_checkpoint_survive_reopen() {
    let dir = TempDir::new("master");
    let sys = TxnId::new(NODE, 0);
    let ckpt;
    {
        let mut log = open_log(&dir);
        ckpt = log
            .append(&LogRecord {
                txn: sys,
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::CheckpointBegin,
            })
            .unwrap();
        log.append(&LogRecord {
            txn: sys,
            prev_lsn: ckpt,
            payload: LogPayload::CheckpointEnd(CheckpointBody::default()),
        })
        .unwrap();
        log.force_all().unwrap();
        log.write_master(ckpt).unwrap();
    }
    {
        let mut log = open_log(&dir);
        assert_eq!(log.last_checkpoint(), ckpt);
        // The checkpoint records are readable from the anchor.
        let (rec, next) = log.read_record(ckpt).unwrap();
        assert_eq!(rec.payload, LogPayload::CheckpointBegin);
        let (rec2, _) = log.read_record(next).unwrap();
        assert!(matches!(rec2.payload, LogPayload::CheckpointEnd(_)));
    }
}

#[test]
fn database_space_map_persists_across_alloc_free_cycles() {
    let dir = TempDir::new("spacemap");
    {
        let mut db = open_db(&dir, true);
        // Free page 2 at a high PSN.
        let mut page = db.read_page(2).unwrap();
        for _ in 0..20 {
            page.bump_psn();
        }
        db.write_page(&page).unwrap();
        db.free_page(2, page.psn()).unwrap();
        db.sync().unwrap();
    }
    {
        let mut db = open_db(&dir, false);
        assert!(db.read_page(2).is_err(), "page 2 stays free");
        assert!(db.read_page(3).is_ok());
        // Reallocation respects the persisted PSN floor.
        db.allocate_pages(PageKind::Raw, 1).unwrap();
        let p = db.read_page(2).unwrap();
        assert!(p.psn() > Psn(20), "PSN floor persisted: {:?}", p.psn());
    }
}

#[test]
fn torn_page_write_detected_on_reopen() {
    let dir = TempDir::new("torn");
    {
        let mut db = open_db(&dir, true);
        let mut page = db.read_page(0).unwrap();
        page.write_range(0, &42u64.to_le_bytes()).unwrap();
        page.bump_psn();
        db.write_page(&page).unwrap();
        db.sync().unwrap();
    }
    // Corrupt one byte of page 0 on disk (it lives after the
    // superblock + space map block).
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.path("db"))
            .unwrap();
        let page0_offset = (2 * PAGE + PAGE / 2) as u64; // middle of page 0's block
        f.seek(SeekFrom::Start(page0_offset)).unwrap();
        f.write_all(&[0xAB]).unwrap();
        f.sync_data().unwrap();
    }
    {
        let mut db = open_db(&dir, false);
        let r = db.read_page(0);
        assert!(
            matches!(r, Err(cblog_common::Error::Corrupt(_))),
            "torn write must be detected, got {r:?}"
        );
    }
}

#[test]
fn full_node_lifecycle_on_files_via_manual_composition() {
    // A miniature single-node "engine" built directly on the
    // file-backed parts: run transactions, checkpoint, crash (drop),
    // restart with analysis + PSN-filtered redo, verify.
    let dir = TempDir::new("engine");
    let pid = PageId::new(NODE, 0);

    // Life 1: two committed transactions and one loser.
    {
        let mut db = open_db(&dir, true);
        let mut log = open_log(&dir);
        let mut page = db.read_page(0).unwrap();

        let do_txn =
            |log: &mut LogManager, page: &mut Page, seq: u64, slot: usize, v: u64, commit: bool| {
                let txn = TxnId::new(NODE, seq);
                let begin = log
                    .append(&LogRecord {
                        txn,
                        prev_lsn: Lsn::ZERO,
                        payload: LogPayload::Begin,
                    })
                    .unwrap();
                let before = page.read_slot(slot).unwrap();
                let u = log
                    .append(&upd(txn, begin, pid, page.psn(), slot, before, v))
                    .unwrap();
                page.write_range(slot * 8, &v.to_le_bytes()).unwrap();
                page.bump_psn();
                if commit {
                    let c = log
                        .append(&LogRecord {
                            txn,
                            prev_lsn: u,
                            payload: LogPayload::Commit,
                        })
                        .unwrap();
                    log.force(c).unwrap();
                } else {
                    // Loser: records durable (forced) but no commit.
                    log.force_all().unwrap();
                }
            };
        do_txn(&mut log, &mut page, 1, 0, 11, true);
        do_txn(&mut log, &mut page, 2, 1, 22, true);
        do_txn(&mut log, &mut page, 3, 2, 33, false); // loser
                                                      // Crash: nothing written to the database file.
    }

    // Life 2: restart — redo everything (PSN filter), undo the loser.
    {
        let mut db = open_db(&dir, false);
        let mut log = open_log(&dir);
        let mut page = db.read_page(0).unwrap();
        assert_eq!(page.psn(), Psn(1));

        // Analysis: find losers.
        let mut active: std::collections::HashMap<TxnId, Vec<(Psn, PageOp)>> =
            std::collections::HashMap::new();
        let mut pos = Lsn(8);
        let end = log.end_lsn();
        let mut history: Vec<(Psn, PageOp)> = Vec::new();
        while pos < end {
            let (rec, next) = log.read_record(pos).unwrap();
            match &rec.payload {
                LogPayload::Begin => {
                    active.insert(rec.txn, Vec::new());
                }
                LogPayload::Update { psn_before, op, .. } => {
                    history.push((*psn_before, op.clone()));
                    if let Some(v) = active.get_mut(&rec.txn) {
                        v.push((*psn_before, op.clone()));
                    }
                }
                LogPayload::Commit | LogPayload::Abort => {
                    active.remove(&rec.txn);
                }
                _ => {}
            }
            pos = next;
        }
        // Redo.
        for (psn, op) in &history {
            if page.psn() == *psn {
                op.apply_redo(&mut page).unwrap();
                page.set_psn(psn.next());
            }
        }
        assert_eq!(page.read_slot(0).unwrap(), 11);
        assert_eq!(page.read_slot(1).unwrap(), 22);
        assert_eq!(page.read_slot(2).unwrap(), 33, "loser redone before undo");
        // Undo losers (reverse order), with CLRs.
        assert_eq!(active.len(), 1);
        for (txn, ops) in active {
            let mut prev = Lsn::ZERO;
            for (_, op) in ops.iter().rev() {
                let inv = op.inverse();
                let psn_before = page.psn();
                inv.apply_redo(&mut page).unwrap();
                page.set_psn(psn_before.next());
                prev = log
                    .append(&LogRecord {
                        txn,
                        prev_lsn: prev,
                        payload: LogPayload::Clr {
                            pid,
                            psn_before,
                            op: inv,
                            undo_next: Lsn::ZERO,
                        },
                    })
                    .unwrap();
            }
            log.append(&LogRecord {
                txn,
                prev_lsn: prev,
                payload: LogPayload::Abort,
            })
            .unwrap();
        }
        log.force_all().unwrap();
        db.write_page(&page).unwrap();
        db.sync().unwrap();
    }

    // Life 3: stable, loser gone.
    {
        let mut db = open_db(&dir, false);
        let page = db.read_page(0).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 11);
        assert_eq!(page.read_slot(1).unwrap(), 22);
        assert_eq!(page.read_slot(2).unwrap(), 0, "loser undone durably");
    }
}
