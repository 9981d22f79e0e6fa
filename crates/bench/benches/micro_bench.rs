//! Micro-benchmarks of the substrate (DESIGN.md §4: m1–m6): log
//! append/force batching, buffer pool, lock tables, PSN-filtered
//! replay, DPT maintenance, and the B+-tree access method.
//!
//! Plain `harness = false` timers (the build has no crates.io access,
//! so no criterion): each case runs a warmup round then reports
//! mean wall-clock per iteration over a fixed iteration count.

use std::hint::black_box;
use std::time::Instant;

use cblog_common::{Lsn, NodeId, PageId, Psn, TxnId};
use cblog_locks::{GlobalLockTable, LocalLockTable, LockMode};
use cblog_storage::{BufferPool, Page, PageKind};
use cblog_wal::{
    DirtyPageTable, LogManager, LogPayload, LogRecord, LogRecordRef, MemLogStore, PageOp,
};

fn bench<F: FnMut() -> u64>(name: &str, iters: u32, mut f: F) {
    let mut sink = 0u64;
    // Warmup.
    for _ in 0..iters.div_ceil(4).max(1) {
        sink = sink.wrapping_add(black_box(f()));
    }
    let start = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(black_box(f()));
    }
    let total = start.elapsed();
    let per = total.as_nanos() / iters as u128;
    println!("{name:<40} {per:>12} ns/iter   ({iters} iters, sink {sink})");
}

fn update_record(seq: u64, prev: Lsn) -> LogRecord {
    LogRecord {
        txn: TxnId::new(NodeId(1), seq),
        prev_lsn: prev,
        payload: LogPayload::Update {
            pid: PageId::new(NodeId(1), (seq % 64) as u32),
            psn_before: Psn(seq),
            op: PageOp::WriteRange {
                off: ((seq % 100) * 8) as u32,
                before: seq.to_le_bytes().to_vec(),
                after: (seq + 1).to_le_bytes().to_vec(),
            },
        },
    }
}

fn m1_log_append() {
    bench("m1/append_1000_then_force", 50, || {
        let mut lm = LogManager::new(NodeId(1), Box::new(MemLogStore::new())).unwrap();
        let mut prev = Lsn::ZERO;
        for i in 0..1000 {
            prev = lm.append(&update_record(i, prev)).unwrap();
        }
        lm.force_all().unwrap();
        lm.end_lsn().0
    });
    bench("m1/append_1000_force_each", 50, || {
        let mut lm = LogManager::new(NodeId(1), Box::new(MemLogStore::new())).unwrap();
        let mut prev = Lsn::ZERO;
        for i in 0..1000 {
            prev = lm.append(&update_record(i, prev)).unwrap();
            lm.force(prev).unwrap();
        }
        lm.forces()
    });
}

fn m2_buffer_pool() {
    let mut bp = BufferPool::new(128);
    for i in 0..128u32 {
        bp.insert(
            Page::new(PageId::new(NodeId(1), i), PageKind::Raw, Psn(1), 1024),
            false,
        )
        .unwrap();
    }
    bench("m2/hit_heavy_lookup_10k", 100, || {
        let mut acc = 0u64;
        for i in 0..10_000u32 {
            if bp.get_mut(PageId::new(NodeId(1), i % 128)).is_some() {
                acc += 1;
            }
        }
        acc
    });
    bench("m2/evict_heavy_insert_10k", 20, || {
        let mut bp = BufferPool::new(64);
        for i in 0..10_000u32 {
            bp.insert(
                Page::new(PageId::new(NodeId(1), i), PageKind::Raw, Psn(1), 1024),
                i % 3 == 0,
            )
            .unwrap();
        }
        bp.evictions().get()
    });
}

fn m3_lock_tables() {
    bench("m3/local_grant_release_cycle_1k", 100, || {
        let mut lt = LocalLockTable::new();
        for i in 0..1000u64 {
            let t = TxnId::new(NodeId(1), i);
            let p = PageId::new(NodeId(0), (i % 32) as u32);
            let _ = lt.request(t, p, LockMode::Exclusive);
            lt.release_all(t);
        }
        lt.holders(PageId::new(NodeId(0), 0)).len() as u64
    });
    bench("m3/global_callback_cycle_1k", 100, || {
        let mut gt = GlobalLockTable::new();
        let p = PageId::new(NodeId(0), 0);
        for i in 0..1000u32 {
            let a = NodeId(1 + (i % 4));
            match gt.request(p, a, LockMode::Exclusive) {
                cblog_locks::GlobalRequestOutcome::Granted => {}
                cblog_locks::GlobalRequestOutcome::NeedsCallbacks(cbs) => {
                    for (v, act) in cbs {
                        gt.callback_applied(p, v, act);
                    }
                    let _ = gt.request(p, a, LockMode::Exclusive);
                }
            }
        }
        gt.holders(p).len() as u64
    });
}

fn m4_psn_replay() {
    // Replay filtering: a page with 1000 logged updates rebuilt from
    // PSN 1.
    let mut lm = LogManager::new(NodeId(1), Box::new(MemLogStore::new())).unwrap();
    let pid = PageId::new(NodeId(1), 0);
    let mut prev = Lsn::ZERO;
    for i in 0..1000u64 {
        prev = lm
            .append(&LogRecord {
                txn: TxnId::new(NodeId(1), 1),
                prev_lsn: prev,
                payload: LogPayload::Update {
                    pid,
                    psn_before: Psn(1 + i),
                    op: PageOp::WriteRange {
                        off: ((i % 100) * 8) as u32,
                        before: i.to_le_bytes().to_vec(),
                        after: (i + 1).to_le_bytes().to_vec(),
                    },
                },
            })
            .unwrap();
    }
    lm.force_all().unwrap();
    bench("m4/scan_and_apply_1000", 50, || {
        let mut page = Page::new(pid, PageKind::Raw, Psn(1), 1024);
        let mut pos = Lsn(8);
        let end = lm.end_lsn();
        let mut applied = 0u64;
        while pos < end {
            let (rec, next) = lm.read_record(pos).unwrap();
            if let Some((p, psn, op)) = LogRecordRef::from(&rec).update() {
                if p == pid && psn == page.psn() {
                    op.apply_redo(&mut page).unwrap();
                    page.set_psn(psn.next());
                    applied += 1;
                }
            }
            pos = next;
        }
        applied
    });
}

fn m5_dpt() {
    bench("m5/update_replace_ack_cycle_1k", 100, || {
        let mut dpt = DirtyPageTable::new();
        for i in 0..1000u64 {
            let pid = PageId::new(NodeId(0), (i % 64) as u32);
            dpt.ensure(pid, Psn(i), Lsn(i * 10));
            dpt.on_update(pid, Psn(i + 1), Lsn(i * 10));
            if i % 3 == 0 {
                dpt.on_replace(pid, Lsn(i * 10 + 5));
                dpt.on_flush_ack(pid);
            }
        }
        dpt.min_redo_lsn().map(|l| l.0).unwrap_or(0)
    });
}

fn m6_btree() {
    use cblog_access::BTree;
    use cblog_common::CostModel;
    use cblog_core::{Cluster, ClusterConfig};

    bench("m6/insert_500_then_probe", 10, || {
        let mut cl = Cluster::new(
            ClusterConfig::builder()
                .owned_pages(vec![24, 0])
                .page_size(2048)
                .buffer_frames(48)
                .cost(CostModel::unit())
                .build(),
        )
        .unwrap();
        let pages: Vec<PageId> = (0..24).map(|i| PageId::new(NodeId(0), i)).collect();
        for p in &pages {
            cl.format_slotted(*p).unwrap();
        }
        let t = cl.begin(NodeId(1)).unwrap();
        let tree = BTree::create(&mut cl, t, pages, 16).unwrap();
        for k in 0..500u64 {
            tree.insert(&mut cl, t, k.wrapping_mul(2654435761) % 10000, k)
                .unwrap();
        }
        let mut hits = 0u64;
        for k in 0..500u64 {
            if tree
                .get(&mut cl, t, k.wrapping_mul(2654435761) % 10000)
                .unwrap()
                .is_some()
            {
                hits += 1;
            }
        }
        cl.commit(t).unwrap();
        hits
    });
}

fn main() {
    m1_log_append();
    m2_buffer_pool();
    m3_lock_tables();
    m4_psn_replay();
    m5_dpt();
    m6_btree();
}
