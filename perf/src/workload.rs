//! The four workloads: their cluster shape, their seeded plan
//! generators, and the durability oracle the generator derives.
//!
//! The engine only ever sees the `TxnPlan` list. Every workload keeps
//! writes on lane-private pages, so the last committed value of every
//! (page, slot) is known from the plans alone whatever the thread
//! interleaving, and sorts the operations of a transaction by page id,
//! so lock order is global and no workload can deadlock.

use cblog_common::{NodeId, PageId, Rng};
use cblog_core::{GroupCommitPolicy, PlanOp, ReplayMode, TxnPlan};
use std::collections::HashMap;

/// Nodes (= worker threads) of every workload; this sandbox has 2 vCPUs.
pub const NODES: usize = 2;
/// Page size of every workload.
pub const PAGE_SIZE: usize = 1024;
/// Slots the generators write to (a 1 KiB raw page holds more).
const SLOTS: u64 = 64;
/// The issue's sizes are divided by this to fit the driver's time cap.
pub const FULL_DIV: usize = 10;
/// `--quick` sizes: a tenth of the full ones.
pub const QUICK_DIV: usize = 100;

/// Where a workload keeps its WAL.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wal {
    /// `FileLogStore` inside the checkout: every force is an `fdatasync`.
    Disk,
    /// `MemLogStore`: same engine path, no device.
    Mem,
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `mpl` lanes per node, each with 4 private pages: 2 writes + 1 read.
    Grouped { mpl: usize, txns: usize },
    /// As `Grouped`, plus one read of a page the other node is writing.
    SharedRead { mpl: usize, txns: usize },
    /// Node 0 logs `lanes × txns × writes` updates spread over
    /// `pages_per_lane` pages per lane, one transaction in `abort_every`
    /// ends in a planned abort; node 1 runs one light local lane.
    CrashRecover {
        lanes: usize,
        txns: usize,
        writes: usize,
        pages_per_lane: usize,
        abort_every: usize,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub wal: Wal,
    pub policy: GroupCommitPolicy,
    pub replay: ReplayMode,
    shape: Shape,
}

const fn adaptive(target_batch: usize) -> GroupCommitPolicy {
    GroupCommitPolicy::Adaptive {
        min_window_us: 50,
        max_window_us: 2_000,
        target_batch,
    }
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
/// Sizes are the issue's; [`Spec::plans`] divides them by its `div`.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "grouped-disk",
        wal: Wal::Disk,
        policy: adaptive(16),
        replay: ReplayMode::Serial,
        shape: Shape::Grouped {
            mpl: 16,
            txns: 10_000,
        },
    },
    Spec {
        name: "grouped-mem",
        wal: Wal::Mem,
        policy: adaptive(16),
        replay: ReplayMode::Serial,
        shape: Shape::Grouped {
            mpl: 16,
            txns: 10_000,
        },
    },
    Spec {
        name: "shared-read",
        wal: Wal::Disk,
        policy: adaptive(4),
        replay: ReplayMode::Serial,
        shape: Shape::SharedRead {
            mpl: 4,
            txns: 10_000,
        },
    },
    Spec {
        name: "crash-recover",
        wal: Wal::Disk,
        policy: adaptive(8),
        replay: ReplayMode::Parallel { workers: 2 },
        shape: Shape::CrashRecover {
            lanes: 8,
            txns: 7_800,
            writes: 16,
            pages_per_lane: 128,
            abort_every: 20,
        },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What the generator hands a trial: the plans for the engine and what
/// the benchmark itself needs to know about them.
pub struct Generated {
    pub plans: Vec<TxnPlan>,
    /// Last value a committed transaction wrote to each touched
    /// (page, slot); 0 where only aborted transactions wrote.
    pub expected: HashMap<(PageId, usize), u64>,
    /// Transactions planned to commit.
    pub planned_commits: u64,
}

fn pid(node: usize, index: usize) -> PageId {
    PageId::new(NodeId(node as u32), index as u32)
}

impl Spec {
    /// Pages each node owns.
    pub fn owned_pages(&self) -> [u32; NODES] {
        match self.shape {
            Shape::Grouped { mpl, .. } | Shape::SharedRead { mpl, .. } => [4 * mpl as u32; NODES],
            Shape::CrashRecover {
                lanes,
                pages_per_lane,
                ..
            } => [(lanes * pages_per_lane) as u32, 4],
        }
    }

    /// Whether the plans read pages of the other node, the only thing
    /// that sends a message.
    pub fn remote_reads(&self) -> bool {
        matches!(self.shape, Shape::SharedRead { .. })
    }

    /// Commits per force where that count is exact: the grouped pair's
    /// lanes commit in lockstep, so every batch fills to the policy's
    /// target and nothing else forces the log.
    pub fn full_batches(&self) -> Option<usize> {
        match self.shape {
            Shape::Grouped { mpl, .. } => Some(mpl),
            _ => None,
        }
    }

    /// Writes and locks per transaction and the lanes per node, the
    /// shape the layer probes copy.
    pub fn txn_shape(&self) -> TxnShape {
        match self.shape {
            Shape::Grouped { mpl, .. } => TxnShape {
                writes: 2,
                locks: 3,
                lanes: mpl,
            },
            Shape::SharedRead { mpl, .. } => TxnShape {
                writes: 2,
                locks: 4,
                lanes: mpl,
            },
            Shape::CrashRecover { lanes, writes, .. } => TxnShape {
                writes,
                locks: writes,
                lanes,
            },
        }
    }

    /// One line for the environment block.
    pub fn sizes(&self, div: usize) -> String {
        match self.shape {
            Shape::Grouped { mpl, txns } | Shape::SharedRead { mpl, txns } => {
                format!("{NODES} nodes x MPL {mpl} x {} txns", txns / div)
            }
            Shape::CrashRecover {
                lanes,
                txns,
                writes,
                pages_per_lane,
                abort_every,
            } => format!(
                "node 0: {lanes} lanes x {} txns x {writes} writes over {} pages, 1 in {abort_every} aborts; node 1: 1 lane",
                txns / div,
                lanes * pages_per_lane
            ),
        }
    }

    /// Generates the plans from `seed`, with the issue's sizes divided
    /// by `div`.
    pub fn plans(&self, seed: u64, div: usize) -> Generated {
        let mut g = Gen {
            rng: Rng::seed_from_u64(seed ^ 0xC0B1_09E5),
            out: Generated {
                plans: Vec::new(),
                expected: HashMap::new(),
                planned_commits: 0,
            },
        };
        match self.shape {
            Shape::Grouped { mpl, txns } => {
                for node in 0..NODES {
                    for lane in 0..mpl {
                        for _ in 0..txns / div {
                            let ops = g.local_ops(node, lane);
                            g.push(node, lane, ops, false);
                        }
                    }
                }
            }
            Shape::SharedRead { mpl, txns } => {
                let pages = 4 * mpl as u64;
                for node in 0..NODES {
                    for lane in 0..mpl {
                        for _ in 0..txns / div {
                            let mut ops = g.local_ops(node, lane);
                            // Skewed towards low indices: the other
                            // node's first lanes see most of the reads.
                            let hot = g.rng.gen_range(0..pages).min(g.rng.gen_range(0..pages));
                            ops.push(PlanOp::Read {
                                pid: pid(1 - node, hot as usize),
                                slot: g.slot(),
                            });
                            g.push(node, lane, ops, false);
                        }
                    }
                }
            }
            Shape::CrashRecover {
                lanes,
                txns,
                writes,
                pages_per_lane,
                abort_every,
            } => {
                for lane in 0..lanes {
                    // Seeded phase, fixed count: every seed aborts the
                    // same number of transactions, so the log that
                    // recovery reads has the same size on every run.
                    let phase = g.rng.gen_range_usize(0..abort_every);
                    for t in 0..txns / div {
                        let ops = (0..writes)
                            .map(|_| {
                                let page = g.rng.gen_range_usize(0..pages_per_lane);
                                g.write(pid(0, lane * pages_per_lane + page))
                            })
                            .collect();
                        g.push(0, lane, ops, t % abort_every == phase);
                    }
                }
                for _ in 0..txns / div / 4 {
                    let ops = g.local_ops(1, 0);
                    g.push(1, 0, ops, false);
                }
            }
        }
        g.out
    }
}

#[derive(Clone, Copy, Debug)]
pub struct TxnShape {
    pub writes: usize,
    pub locks: usize,
    pub lanes: usize,
}

struct Gen {
    rng: Rng,
    out: Generated,
}

impl Gen {
    fn slot(&mut self) -> usize {
        self.rng.gen_range(0..SLOTS) as usize
    }

    fn write(&mut self, pid: PageId) -> PlanOp {
        PlanOp::Write {
            pid,
            slot: self.slot(),
            // Never 0, so a lost write cannot pass for an untouched slot.
            value: self.rng.next_u64() | 1,
        }
    }

    /// 2 writes to distinct pages and 1 read, all on the lane's 4 pages.
    fn local_ops(&mut self, node: usize, lane: usize) -> Vec<PlanOp> {
        let a = self.rng.gen_range_usize(0..4);
        let b = (a + 1 + self.rng.gen_range_usize(0..3)) % 4;
        let r = self.rng.gen_range_usize(0..4);
        vec![
            self.write(pid(node, 4 * lane + a)),
            self.write(pid(node, 4 * lane + b)),
            PlanOp::Read {
                pid: pid(node, 4 * lane + r),
                slot: self.slot(),
            },
        ]
    }

    fn push(&mut self, node: usize, lane: usize, mut ops: Vec<PlanOp>, abort: bool) {
        // Global lock order; on one page the write goes first, so the
        // read never needs a lock upgrade. The sort is stable: two
        // writes of one page keep their order.
        ops.sort_by_key(|op| match *op {
            PlanOp::Write { pid, .. } => (pid, 0),
            PlanOp::Read { pid, .. } => (pid, 1),
        });
        for op in &ops {
            if let PlanOp::Write { pid, slot, value } = *op {
                if abort {
                    self.out.expected.entry((pid, slot)).or_insert(0);
                } else {
                    self.out.expected.insert((pid, slot), value);
                }
            }
        }
        self.out.planned_commits += u64::from(!abort);
        self.out.plans.push(TxnPlan {
            client: NodeId(node as u32),
            stream: lane,
            ops,
            abort,
        });
    }
}
