//! Layer probes: each times one layer crate's public functions with
//! inputs shaped like the workload's (record size, locks and writes per
//! transaction, group size, WAL backing), on its own, outside any run.
//! A probe runs 5 batches and reports the median cost per call; its
//! batches add up to at least 10^5 calls, or to about a second where one
//! call is a device force or a whole recovery plan.

use crate::spans::Recorder;
use crate::workload::{Spec, Wal, PAGE_SIZE};
use cblog_common::{
    Histogram, Lsn, NodeId, PageId, Psn, Reservoir, SpanBuf, SpanCtx, SpanId, SpanKind, TxnId,
};
use cblog_core::{plan_replay, ForceScheduler, Node, NodeConfig, NodePsnEntry, PlanOp, TxnPlan};
use cblog_locks::{LockMode, ShardedLockTable};
use cblog_net::transport::{ChannelMesh, Transport};
use cblog_net::MsgKind;
use cblog_storage::{BufferPool, Page, PageKind};
use cblog_wal::{FileLogStore, LogManager, LogPayload, LogRecord, LogStore, MemLogStore, PageOp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// Pages a probe cycles over: one lane's private pages.
const PAGES: u32 = 4;

fn pid(index: u32) -> PageId {
    PageId::new(NodeId(0), index)
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(0), seq)
}

/// The engine's update: an 8-byte `WriteRange` with its before-image.
fn write_op(i: u64) -> PageOp {
    PageOp::WriteRange {
        off: (i % 64 * 8) as u32,
        before: (i ^ 0x55).to_le_bytes().to_vec(),
        after: i.to_le_bytes().to_vec(),
    }
}

fn update_record(i: u64) -> LogRecord {
    LogRecord {
        txn: txn(i / 4 + 1),
        prev_lsn: Lsn(8 + i),
        payload: LogPayload::Update {
            pid: pid(i as u32 % PAGES),
            psn_before: Psn(i),
            op: write_op(i),
        },
    }
}

fn mem_log() -> LogManager {
    LogManager::new(NodeId(0), Box::new(MemLogStore::new())).expect("fresh in-memory log")
}

struct Probes<'a> {
    rec: &'a mut Recorder,
    out: BTreeMap<&'static str, Duration>,
}

impl Probes<'_> {
    /// Runs `batch` (which times `calls` calls and returns the time
    /// they took) [`BATCHES`] times; median cost of one call.
    fn time(&mut self, name: &str, calls: u64, mut batch: impl FnMut(u64) -> Duration) -> Duration {
        let mut per_call: Vec<Duration> = (0..BATCHES)
            .map(|_| self.rec.span(name, |_| batch(calls)) / calls as u32)
            .collect();
        per_call.sort();
        per_call[BATCHES / 2]
    }

    /// [`Probes::time`], reported under `name`.
    fn probe(&mut self, name: &'static str, calls: u64, batch: impl FnMut(u64) -> Duration) {
        let d = self.time(name, calls, batch);
        self.out.insert(name, d);
    }
}

/// Per-call cost in ns (`_ns` probes) or µs (`_us` probes), by name.
/// `shrink` divides the call counts (`--quick`).
pub fn run_all(
    spec: &Spec,
    plans: &[TxnPlan],
    dir: &Path,
    shrink: u64,
    rec: &mut Recorder,
) -> BTreeMap<&'static str, f64> {
    let shape = spec.txn_shape();
    let calls = 20_000 / shrink;
    let mut p = Probes {
        rec,
        out: BTreeMap::new(),
    };

    // ---- wal ----
    let d = p.time("wal.encode_ns", calls, |n| {
        let t = Instant::now();
        for i in 0..n {
            black_box(black_box(update_record(i)).encode());
        }
        t.elapsed()
    });
    // `update_record` builds the record each time; take that out.
    let build = p.time("wal.encode_ns/build", calls, |n| {
        let t = Instant::now();
        for i in 0..n {
            black_box(update_record(i));
        }
        t.elapsed()
    });
    p.out.insert("wal.encode_ns", d.saturating_sub(build));

    let records: Vec<LogRecord> = (0..calls).map(update_record).collect();
    p.probe("wal.append_ns", calls, |_| {
        let mut log = mem_log();
        let t = Instant::now();
        for r in &records {
            black_box(log.append(r).expect("append"));
        }
        t.elapsed()
    });

    p.probe("wal.read_record_ns", calls, |_| {
        let mut log = mem_log();
        for r in &records {
            log.append(r).expect("append");
        }
        log.force_all().expect("force");
        let mut at = log.base_lsn();
        let t = Instant::now();
        while at < log.end_lsn() {
            let (r, next) = log.read_record(at).expect("read_record");
            black_box(r);
            at = next;
        }
        t.elapsed()
    });

    let ops: Vec<PageOp> = (0..calls).map(write_op).collect();
    p.probe("wal.apply_redo_ns", calls, |_| {
        let mut page = Page::new(pid(0), PageKind::Raw, Psn::ZERO, PAGE_SIZE);
        let t = Instant::now();
        for op in &ops {
            op.apply_redo(&mut page).expect("apply_redo");
            page.bump_psn();
        }
        black_box(&page);
        t.elapsed()
    });

    // One group as the workload's scheduler forms it: `lanes`
    // transactions of Begin + writes + Commit, then one force, on the
    // workload's WAL backing.
    let group: Vec<LogRecord> = (0..shape.lanes as u64)
        .flat_map(|t| {
            let bracket = |payload| LogRecord {
                txn: txn(t + 1),
                prev_lsn: Lsn::ZERO,
                payload,
            };
            let mut g = vec![bracket(LogPayload::Begin)];
            g.extend((0..shape.writes as u64).map(update_record));
            g.push(bracket(LogPayload::Commit));
            g
        })
        .collect();
    let wal_file = crate::trial::wal_dir(dir).join(format!("probe-{}.wal", std::process::id()));
    let forces = match spec.wal {
        Wal::Disk => 400 / shrink,
        Wal::Mem => calls,
    };
    p.probe("wal.force_us", forces, |n| {
        let store: Box<dyn LogStore> = match spec.wal {
            Wal::Disk => {
                let _ = std::fs::remove_file(&wal_file);
                std::fs::create_dir_all(wal_file.parent().expect("wal dir")).expect("wal dir");
                Box::new(FileLogStore::open(&wal_file).expect("open probe wal"))
            }
            Wal::Mem => Box::new(MemLogStore::new()),
        };
        let mut log = LogManager::new(NodeId(0), store).expect("probe log");
        let t = Instant::now();
        for _ in 0..n {
            for r in &group {
                log.append(r).expect("append");
            }
            log.force_all().expect("force");
        }
        t.elapsed()
    });
    let _ = std::fs::remove_file(&wal_file);

    // ---- locks ----
    // One transaction's lock work: its page locks, then `release_all`.
    let table = ShardedLockTable::new(16);
    p.probe("locks.acquire_release_ns", calls, |n| {
        let t = Instant::now();
        for i in 0..n {
            for l in 0..shape.locks as u32 {
                black_box(table.try_acquire(pid(l), i, LockMode::Exclusive));
            }
            table.release_all(i);
        }
        t.elapsed()
    });

    // The same with a second thread hammering the one shard.
    let one_shard = ShardedLockTable::new(1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                one_shard.try_acquire(pid(1_000), u64::MAX, LockMode::Exclusive);
                one_shard.release(pid(1_000), u64::MAX);
            }
        });
        p.probe("locks.contended_acquire_ns", calls, |n| {
            let t = Instant::now();
            for i in 0..n {
                black_box(one_shard.try_acquire(pid(0), i, LockMode::Exclusive));
                one_shard.release(pid(0), i);
            }
            t.elapsed()
        });
        stop.store(true, Ordering::Relaxed);
    });

    // ---- storage ----
    let owned = spec.owned_pages()[0];
    p.probe("storage.buffer_get_ns", calls, |n| {
        let mut pool = BufferPool::new(owned as usize + 16);
        for i in 0..owned {
            pool.insert(
                Page::new(pid(i), PageKind::Raw, Psn::ZERO, PAGE_SIZE),
                false,
            )
            .expect("insert");
        }
        let t = Instant::now();
        for i in 0..n {
            black_box(pool.get_mut(pid((i.wrapping_mul(2_654_435_761) % owned as u64) as u32)));
        }
        t.elapsed()
    });

    let page = Page::new(pid(0), PageKind::Raw, Psn(7), PAGE_SIZE);
    p.probe("storage.page_roundtrip_ns", calls, |n| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(Page::from_bytes(black_box(&page).to_bytes()).expect("page"));
        }
        t.elapsed()
    });

    // ---- net ----
    let image = page.to_bytes();
    p.probe("net.mesh_send_ns", calls, |n| {
        let eps = ChannelMesh::endpoints(2);
        let t = Instant::now();
        for _ in 0..n {
            eps[0]
                .send_ctx(NodeId(1), MsgKind::PageShip, image.clone(), SpanCtx::NONE)
                .expect("send");
        }
        let d = t.elapsed();
        eps[1].drain();
        d
    });

    // The engine's remote read: an 8-byte request one way, a page image
    // back, two threads.
    p.probe("net.mesh_rtt_us", calls, |n| {
        let mut eps = ChannelMesh::endpoints(2);
        let server = eps.pop().expect("endpoint 1");
        let client = eps.pop().expect("endpoint 0");
        let wait = Duration::from_secs(5);
        let image = &image;
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..n {
                    server.recv_timeout(wait).expect("request");
                    server
                        .send_ctx(NodeId(0), MsgKind::PageShip, image.clone(), SpanCtx::NONE)
                        .expect("ship");
                }
            });
            let t = Instant::now();
            for _ in 0..n {
                client
                    .send_ctx(NodeId(1), MsgKind::LockRequest, vec![0; 8], SpanCtx::NONE)
                    .expect("request");
                black_box(client.recv_timeout(wait).expect("ship"));
            }
            t.elapsed()
        })
    });

    // ---- core ----
    let node = || {
        let mut node = Node::new(
            NodeId(0),
            NodeConfig {
                page_size: PAGE_SIZE,
                buffer_frames: PAGES as usize + 16,
                owned_pages: PAGES,
                log_capacity: None,
            },
        )
        .expect("probe node");
        for i in 0..PAGES {
            let (page, _) = node.authoritative_copy(pid(i)).expect("owned page");
            node.cache_page(page, false).expect("cache");
        }
        node
    };
    // Apply + encode + append together, as the engine's write does.
    let d = p.time("core.log_update_ns", calls, |_| {
        let mut node = node();
        let t0 = node.begin().expect("begin");
        let t = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            node.log_update(t0, pid(i as u32 % PAGES), op.clone())
                .expect("log_update");
        }
        t.elapsed()
    });
    let clone = p.time("core.log_update_ns/clone", calls, |_| {
        let t = Instant::now();
        for op in &ops {
            black_box(op.clone());
        }
        t.elapsed()
    });
    p.out.insert("core.log_update_ns", d.saturating_sub(clone));

    // The transaction bracket: begin + commit_begin + finish_commit,
    // with the force (in memory) once per group.
    p.probe("core.commit_begin_ns", calls, |n| {
        let mut node = node();
        let mut parked = Vec::with_capacity(shape.lanes);
        let t = Instant::now();
        for _ in 0..n {
            let id = node.begin().expect("begin");
            black_box(node.commit_begin(id).expect("commit_begin"));
            parked.push(id);
            if parked.len() == shape.lanes {
                node.force_log().expect("force");
                for id in parked.drain(..) {
                    node.finish_commit(id).expect("finish_commit");
                }
            }
        }
        t.elapsed()
    });

    // Submit and ack under the workload's policy; commits arrive 5 µs
    // apart, so batches fill before their window closes.
    p.probe("core.sched_ns", calls, |n| {
        let mut sched = ForceScheduler::new(spec.policy);
        let t = Instant::now();
        for i in 0..n {
            let now = i * 5;
            sched.submit(txn(i + 1), Lsn(8 + i), now);
            if sched.is_due(now) {
                black_box(sched.drain_acked(Lsn(9 + i)));
            }
        }
        t.elapsed()
    });

    // The replay planner on the PSN lists this workload leaves behind
    // on node 0: one entry per page a transaction wrote.
    let mut involved = BTreeMap::new();
    let mut list = Vec::new();
    let mut psn = BTreeMap::new();
    let node0 = plans.iter().filter(|plan| plan.client == NodeId(0));
    for (seq, plan) in node0.enumerate() {
        let mut last = None;
        for op in &plan.ops {
            if let PlanOp::Write { pid, .. } = *op {
                let at = psn.entry(pid).or_insert(0u64);
                if last != Some(pid) {
                    involved.insert(pid, vec![NodeId(0)]);
                    list.push(NodePsnEntry {
                        pid,
                        psn: Psn(*at),
                        lsn: Lsn(8 + list.len() as u64 * 64),
                        txn: txn(seq as u64 + 1),
                    });
                    last = Some(pid);
                }
                *at += 1;
            }
        }
    }
    let lists = BTreeMap::from([(NodeId(0), list)]);
    p.probe("core.plan_replay_us", 1, |_| {
        let t = Instant::now();
        black_box(plan_replay(&involved, &lists));
        t.elapsed()
    });

    // ---- common: what sits on the ack path ----
    let reservoir = Reservoir::new(4096);
    p.probe("common.reservoir_record_ns", calls, |n| {
        let t = Instant::now();
        for i in 0..n {
            reservoir.record(i);
        }
        t.elapsed()
    });

    let hist = Histogram::new();
    p.probe("common.histogram_record_ns", calls, |n| {
        let t = Instant::now();
        for i in 0..n {
            hist.record(i);
        }
        t.elapsed()
    });

    p.probe("common.spanbuf_point_ns", calls, |n| {
        let mut buf = SpanBuf::new(0, n as usize);
        let t = Instant::now();
        for i in 0..n {
            black_box(buf.point(
                i,
                NodeId(0),
                SpanId::NONE,
                SpanKind::Update {
                    pid: pid(0),
                    txn: txn(1),
                    psn: Psn(i),
                    lsn: Lsn(i),
                    clr: false,
                },
            ));
        }
        t.elapsed()
    });

    p.out
        .into_iter()
        .map(|(name, d)| {
            let ns = d.as_nanos() as f64;
            (name, if unit(name) == "us" { ns / 1e3 } else { ns })
        })
        .collect()
}

/// The unit a probe reports in, which its name ends with.
pub fn unit(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else {
        "ns"
    }
}
