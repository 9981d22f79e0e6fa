//! Execution runtimes: one protocol, two engines.
//!
//! The protocol code in this crate is driven two ways:
//!
//! * the **deterministic simulator** ([`Cluster`]) — single-threaded,
//!   simulated clock, in-memory stores; every run is reproducible and
//!   serves as the correctness oracle;
//! * the **threaded runtime** (`cblog-rt`) — one OS thread per node,
//!   file-backed WALs with real fsync, mpsc-channel transport,
//!   wall-clock group-commit deadlines; it measures real commits/sec
//!   and commit latency.
//!
//! [`Runtime`] is the seam between them: a workload compiled to
//! [`TxnPlan`]s runs on either engine, and the final database state of
//! the threaded engine is cross-checked byte-for-byte against the
//! simulator on the same seeded plan list.
//!
//! Plans keep equivalence checkable under real concurrency: when each
//! `(client, stream)` pair touches its own private pages, every page's
//! update sequence is stream-local, so the final page images are
//! independent of how the engine interleaves streams — any divergence
//! is an engine bug, not scheduling noise.

use crate::recovery::{RecoveryOptions, RecoveryReport};
use crate::Cluster;
use cblog_common::{Error, NodeId, PageId, Result, Snapshot, TxnId};
use std::collections::HashMap;

/// One operation of a planned transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOp {
    /// Read `slot` of `pid`.
    Read {
        /// Page to read.
        pid: PageId,
        /// Slot within the page.
        slot: usize,
    },
    /// Write `value` into `slot` of `pid`.
    Write {
        /// Page to write.
        pid: PageId,
        /// Slot within the page.
        slot: usize,
        /// Value stored.
        value: u64,
    },
}

/// One planned transaction: which node runs it, which of that node's
/// concurrent streams it belongs to, its operations, and whether it
/// ends in a user abort instead of a commit.
#[derive(Clone, Debug)]
pub struct TxnPlan {
    /// Node the transaction runs on.
    pub client: NodeId,
    /// Stream index within the client (MPL lane); transactions of one
    /// stream run sequentially, streams interleave.
    pub stream: usize,
    /// Operations in order.
    pub ops: Vec<PlanOp>,
    /// End with rollback instead of commit.
    pub abort: bool,
}

/// What happened when a plan list ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that ended in their planned user abort.
    pub user_aborts: u64,
    /// Transactions the engine had to abort (conflict/deadlock).
    pub forced_aborts: u64,
    /// Individual operations executed (including rolled-back ones).
    pub ops_executed: u64,
}

/// An engine that can execute planned transactions against the CBL
/// protocol stack.
pub trait Runtime {
    /// Engine name for reports ("sim", "threads").
    fn name(&self) -> &'static str;

    /// Executes every plan (streams interleaved, each stream in
    /// order) and returns the tally.
    fn run(&mut self, plans: &[TxnPlan]) -> Result<RunReport>;

    /// Serialized final image of `pid`, for cross-engine comparison.
    fn page_image(&mut self, pid: PageId) -> Result<Vec<u8>>;

    /// Metrics snapshot after the run.
    fn metrics(&self) -> Snapshot;

    /// Runs distributed crash recovery per `opts` (paper §2.3/§2.4).
    /// Both engines plan Redo through the same pure [`crate::plan_replay`]
    /// step: under [`crate::ReplayMode::Parallel`] the simulator
    /// overlaps the service times of a wave's units; the threaded
    /// engine replays the waves in order on the calling thread.
    fn recover(&mut self, opts: &RecoveryOptions) -> Result<RecoveryReport>;
}

/// Buckets `plans` into `(client, stream)` lanes for an engine to
/// interleave. A lane keeps its plans in list order, and the lanes come
/// in the order their first plan appears; no lane is empty. The plans
/// are borrowed: both engines execute them where the caller holds them.
pub fn lanes(plans: &[TxnPlan]) -> Vec<Vec<&TxnPlan>> {
    let mut lanes: Vec<Vec<&TxnPlan>> = Vec::new();
    let mut index: HashMap<(NodeId, usize), usize> = HashMap::new();
    for plan in plans {
        let lane = *index
            .entry((plan.client, plan.stream))
            .or_insert(lanes.len());
        if lane == lanes.len() {
            lanes.push(Vec::new());
        }
        lanes[lane].push(plan);
    }
    lanes
}

/// Per-stream execution state of the sim-backed driver.
enum StreamState {
    Idle,
    Running { txn: TxnId, op: usize },
    Committing { txn: TxnId },
}

struct Stream<'a> {
    plans: Vec<&'a TxnPlan>,
    next: usize,
    state: StreamState,
}

/// The deterministic simulator as a [`Runtime`]: a round-robin driver
/// over streams using the cluster's asynchronous commit interface
/// (submit → poll → pump), so group-commit batching behaves exactly as
/// it does under the full experiment driver.
impl Runtime for Cluster {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&mut self, plans: &[TxnPlan]) -> Result<RunReport> {
        let mut report = RunReport::default();
        let mut streams: Vec<Stream> = lanes(plans)
            .into_iter()
            .map(|plans| Stream {
                plans,
                next: 0,
                state: StreamState::Idle,
            })
            .collect();

        loop {
            let mut progressed = false;
            let mut live = false;
            for s in streams.iter_mut() {
                match s.state {
                    StreamState::Idle => {
                        if s.next >= s.plans.len() {
                            continue;
                        }
                        live = true;
                        let txn = self.begin(s.plans[s.next].client)?;
                        s.state = StreamState::Running { txn, op: 0 };
                        progressed = true;
                    }
                    StreamState::Running { txn, op } => {
                        live = true;
                        let plan = s.plans[s.next];
                        if op < plan.ops.len() {
                            let res = match plan.ops[op] {
                                PlanOp::Read { pid, slot } => {
                                    self.read_u64(txn, pid, slot).map(|_| ())
                                }
                                PlanOp::Write { pid, slot, value } => {
                                    self.write_u64(txn, pid, slot, value)
                                }
                            };
                            match res {
                                Ok(()) => {
                                    report.ops_executed += 1;
                                    s.state = StreamState::Running { txn, op: op + 1 };
                                    progressed = true;
                                }
                                Err(Error::WouldBlock { .. }) => {
                                    // Plans for equivalence runs use
                                    // private pages, so a conflict
                                    // means cross-stream contention:
                                    // abort, consume the plan.
                                    self.abort(txn)?;
                                    report.forced_aborts += 1;
                                    s.next += 1;
                                    s.state = StreamState::Idle;
                                    progressed = true;
                                }
                                Err(e) => return Err(e),
                            }
                        } else if plan.abort {
                            self.abort(txn)?;
                            report.user_aborts += 1;
                            s.next += 1;
                            s.state = StreamState::Idle;
                            progressed = true;
                        } else {
                            self.commit_submit(txn)?;
                            s.state = StreamState::Committing { txn };
                            progressed = true;
                        }
                    }
                    StreamState::Committing { txn } => {
                        live = true;
                        if self.poll_committed(txn)? {
                            report.committed += 1;
                            s.next += 1;
                            s.state = StreamState::Idle;
                            progressed = true;
                        }
                    }
                }
            }
            if !live {
                break;
            }
            if !progressed {
                // Everyone is waiting on a group-commit window:
                // advance the simulated clock until a flush fires.
                self.pump_commits()?;
            }
        }
        Ok(report)
    }

    fn page_image(&mut self, pid: PageId) -> Result<Vec<u8>> {
        self.node_mut(pid.owner).page_image(pid)
    }

    fn metrics(&self) -> Snapshot {
        self.metrics_snapshot()
    }

    fn recover(&mut self, opts: &RecoveryOptions) -> Result<RecoveryReport> {
        crate::recovery::recover_sim(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, GroupCommitPolicy, Node};

    fn pid(owner: u32, index: u32) -> PageId {
        PageId::new(NodeId(owner), index)
    }

    /// `Node` must be `Send` so the threaded runtime can move one into
    /// each worker thread. Compile-time check.
    #[test]
    fn node_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Node>();
        assert_send::<TxnPlan>();
    }

    fn plan(client: u32, stream: usize, ops: Vec<PlanOp>, abort: bool) -> TxnPlan {
        TxnPlan {
            client: NodeId(client),
            stream,
            ops,
            abort,
        }
    }

    #[test]
    fn lanes_keep_list_order_within_and_first_appearance_order_between() {
        // (client, stream) of each plan, tagged by its position.
        let keys = [(1, 0), (0, 1), (1, 0), (0, 0), (0, 1), (1, 1), (0, 0)];
        let plans: Vec<TxnPlan> = keys
            .iter()
            .enumerate()
            .map(|(i, &(client, stream))| {
                let op = PlanOp::Read {
                    pid: pid(client, 0),
                    slot: i,
                };
                plan(client, stream, vec![op], false)
            })
            .collect();
        let got: Vec<Vec<usize>> = lanes(&plans)
            .iter()
            .map(|lane| {
                assert!(lane
                    .iter()
                    .all(|p| (p.client, p.stream) == (lane[0].client, lane[0].stream)));
                lane.iter()
                    .map(|p| match p.ops[0] {
                        PlanOp::Read { slot, .. } => slot,
                        PlanOp::Write { .. } => unreachable!(),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(got, [vec![0, 2], vec![1, 4], vec![3, 6], vec![5]]);
        assert!(lanes(&[]).is_empty());
    }

    #[test]
    fn sim_runtime_executes_plans_and_reports() {
        let mut c = Cluster::new(ClusterConfig::builder().owned_pages(vec![4, 4]).build()).unwrap();
        let plans = vec![
            plan(
                0,
                0,
                vec![
                    PlanOp::Write {
                        pid: pid(0, 0),
                        slot: 0,
                        value: 7,
                    },
                    PlanOp::Read {
                        pid: pid(0, 0),
                        slot: 0,
                    },
                ],
                false,
            ),
            plan(
                1,
                0,
                vec![PlanOp::Write {
                    pid: pid(1, 0),
                    slot: 1,
                    value: 9,
                }],
                false,
            ),
            // User abort: the write must not survive.
            plan(
                0,
                1,
                vec![PlanOp::Write {
                    pid: pid(0, 1),
                    slot: 0,
                    value: 99,
                }],
                true,
            ),
        ];
        let report = Runtime::run(&mut c, &plans).unwrap();
        assert_eq!(report.committed, 2);
        assert_eq!(report.user_aborts, 1);
        assert_eq!(report.forced_aborts, 0);
        assert_eq!(report.ops_executed, 4);

        let t = c.begin(NodeId(0)).unwrap();
        assert_eq!(c.read_u64(t, pid(0, 0), 0).unwrap(), 7);
        assert_eq!(c.read_u64(t, pid(0, 1), 0).unwrap(), 0, "abort undone");
        c.commit(t).unwrap();
        let img = Runtime::page_image(&mut c, pid(1, 0)).unwrap();
        assert!(!img.is_empty());
    }

    #[test]
    fn sim_runtime_pumps_group_commit_windows() {
        // Window policy: commits park until the window elapses; the
        // driver must pump the clock instead of spinning forever.
        let mut c = Cluster::new(
            ClusterConfig::builder()
                .owned_pages(vec![2])
                .group_commit(GroupCommitPolicy::Window {
                    window_us: 500,
                    max_batch: 64,
                })
                .build(),
        )
        .unwrap();
        let plans: Vec<TxnPlan> = (0..3)
            .map(|i| {
                plan(
                    0,
                    i,
                    vec![PlanOp::Write {
                        pid: pid(0, (i % 2) as u32),
                        slot: i,
                        value: i as u64,
                    }],
                    false,
                )
            })
            .collect();
        let report = Runtime::run(&mut c, &plans).unwrap();
        assert_eq!(report.committed + report.forced_aborts, 3);
    }
}
