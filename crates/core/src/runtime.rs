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
//! [`drive`] is the simulator's one transaction driver: `Runtime::run`
//! on [`Cluster`] calls it, and so does every experiment, whatever the
//! cluster's [`crate::Paradigm`].
//!
//! Plans keep equivalence checkable under real concurrency: when each
//! `(client, stream)` pair touches its own private pages, every page's
//! update sequence is stream-local, so the final page images are
//! independent of how the engine interleaves streams — any divergence
//! is an engine bug, not scheduling noise.

use crate::recovery::{RecoveryOptions, RecoveryReport};
use crate::Cluster;
use cblog_common::{Error, NodeId, PageId, Result, Snapshot, TxnId};
use cblog_locks::WaitsForGraph;
use std::collections::{HashMap, VecDeque};

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
    /// order) and returns the tally. The engines differ only in what a
    /// lock conflict costs: the simulator's [`drive`] lets the blocked
    /// plan wait and re-runs a deadlock victim at the back of its lane
    /// (so it may commit after plans listed behind it); the threaded
    /// engine retries a conflicting plan in place. Neither drops a
    /// plan.
    fn run(&mut self, plans: &[TxnPlan]) -> Result<RunReport>;

    /// Serialized final image of `pid`, for cross-engine comparison.
    fn page_image(&mut self, pid: PageId) -> Result<Vec<u8>>;

    /// Metrics snapshot after the run.
    fn metrics(&self) -> Snapshot;

    /// Runs distributed crash recovery per `opts` (paper §2.3/§2.4).
    /// Both engines replay each dirty page alone under the PSN filter,
    /// in one pass over the pages. The simulator merges the involved
    /// nodes' NodePSNLists into each page's hop chain
    /// ([`crate::plan_replay`]), and under
    /// [`crate::ReplayMode::Parallel`] it overlaps the pages' service
    /// times. The threaded engine's writes are owner-local, so it
    /// replays each page from its owner's log, in page order on the
    /// calling thread.
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

/// What [`drive`] made of a plan list.
#[derive(Debug)]
pub struct Driven<'a> {
    /// The tally.
    pub report: RunReport,
    /// The committed plans, in the order their commits were
    /// acknowledged (the serialization order).
    pub acked: Vec<&'a TxnPlan>,
}

/// The transaction a lane is running.
struct Active<'a> {
    txn: TxnId,
    plan: &'a TxnPlan,
    next_op: usize,
}

/// Runs `plans` to completion over `sys`: the one transaction driver
/// of the simulator.
///
/// Each sweep first acknowledges durable commits in submission order,
/// stopping at the first pending one, then gives every [`lanes`] lane
/// one step: begin its next plan and run its first operation, or run
/// its next operation, or end it (abort a planned user abort, submit
/// the commit of any other). A blocked operation is retried on the next
/// sweep; its waits feed a waits-for graph, and a deadlock victim is
/// aborted and its plan re-queued at the **back** of its lane. Transient
/// errors (a lossy network) are retried the same way. When no lane can
/// move, the driver pumps the commit pipeline, which may advance the
/// sim-clock to the next group-commit deadline. The run ends with
/// [`Cluster::trace_check`].
pub fn drive<'a>(sys: &mut Cluster, plans: &'a [TxnPlan]) -> Result<Driven<'a>> {
    let mut queues: Vec<VecDeque<&TxnPlan>> =
        lanes(plans).into_iter().map(VecDeque::from).collect();
    let mut active: Vec<Option<Active>> = (0..queues.len()).map(|_| None).collect();
    let mut wfg = WaitsForGraph::new();
    // Transactions whose commit has been submitted but not yet
    // acknowledged durable, in submission (= serialization) order.
    let mut committing: VecDeque<(TxnId, &TxnPlan)> = VecDeque::new();
    let mut report = RunReport::default();
    let mut acked = Vec::new();

    loop {
        let mut progressed = false;
        let mut all_done = true;
        // Acknowledge durable commits in submission order. Stopping at
        // the first pending one keeps the acknowledgement order
        // identical to the serialization order.
        while let Some(&(txn, plan)) = committing.front() {
            if sys.poll_committed(txn)? {
                committing.pop_front();
                acked.push(plan);
                report.committed += 1;
                progressed = true;
            } else {
                break;
            }
        }
        for lane in 0..queues.len() {
            // Ensure an active transaction.
            if active[lane].is_none() {
                let Some(plan) = queues[lane].pop_front() else {
                    continue;
                };
                all_done = false;
                match sys.begin(plan.client) {
                    Ok(txn) => {
                        active[lane] = Some(Active {
                            txn,
                            plan,
                            next_op: 0,
                        });
                        progressed = true;
                    }
                    Err(e) if e.is_transient() => {
                        queues[lane].push_front(plan);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            all_done = false;
            // Execute one step of the active transaction.
            let a = active[lane].as_mut().expect("just ensured");
            let txn = a.txn;
            let Some(&op) = a.plan.ops.get(a.next_op) else {
                // Terminate.
                let a = active[lane].take().expect("active");
                wfg.remove(a.txn);
                if a.plan.abort {
                    sys.abort(a.txn)?;
                    report.user_aborts += 1;
                } else {
                    // Async commit: the commit counts when the ack
                    // arrives (poll loop above), so concurrent
                    // submissions can share one log force.
                    sys.commit_submit(a.txn)?;
                    committing.push_back((a.txn, a.plan));
                }
                progressed = true;
                continue;
            };
            let r = match op {
                PlanOp::Read { pid, slot } => sys.read_u64(txn, pid, slot).map(|_| ()),
                PlanOp::Write { pid, slot, value } => sys.write_u64(txn, pid, slot, value),
            };
            match r {
                Ok(()) => {
                    a.next_op += 1;
                    report.ops_executed += 1;
                    wfg.remove(txn);
                    progressed = true;
                }
                Err(Error::WouldBlock { holders, .. }) => {
                    wfg.set_waits(txn, &holders);
                    if let Some(victim) = wfg.find_victim() {
                        abort_victim(sys, &mut active, &mut queues, &mut wfg, victim)?;
                        report.forced_aborts += 1;
                        progressed = true;
                    }
                }
                // Retried on the next sweep, like a blocked operation.
                Err(e) if e.is_transient() => {}
                Err(e) => return Err(e),
            }
        }
        if all_done && active.iter().all(Option::is_none) && committing.is_empty() {
            break;
        }
        if !progressed {
            // Everything runnable is drained; drive the commit pipeline
            // (this may advance the sim-clock to the next group-commit
            // window deadline).
            if !committing.is_empty() && sys.pump_commits()? {
                continue;
            }
            return Err(Error::Protocol(
                "driver made no progress: transactions blocked with no deadlock victim".into(),
            ));
        }
    }
    // Every span the run produced has already been checked online as
    // it was emitted; this surfaces the first violation (with its
    // lineage slice) as a hard error so no run passes on a broken
    // invariant.
    sys.trace_check()?;
    Ok(Driven { report, acked })
}

/// Aborts deadlock victim `victim` and re-queues its plan at the back
/// of its lane, to run again from its first operation.
fn abort_victim<'a>(
    sys: &mut Cluster,
    active: &mut [Option<Active<'a>>],
    queues: &mut [VecDeque<&'a TxnPlan>],
    wfg: &mut WaitsForGraph,
    victim: TxnId,
) -> Result<()> {
    let lane = active
        .iter()
        .position(|a| a.as_ref().is_some_and(|a| a.txn == victim))
        .ok_or_else(|| Error::Protocol(format!("victim {victim} not active")))?;
    let a = active[lane].take().expect("found above");
    sys.abort(victim)?;
    wfg.remove(victim);
    queues[lane].push_back(a.plan);
    Ok(())
}

/// The deterministic simulator as a [`Runtime`]: the plans run through
/// [`drive`], the same loop every simulated system runs under.
impl Runtime for Cluster {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&mut self, plans: &[TxnPlan]) -> Result<RunReport> {
        Ok(drive(self, plans)?.report)
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
        assert_eq!(report.committed, 3);
    }

    #[test]
    fn drive_breaks_a_cross_node_deadlock() {
        // N1 writes P0 then P1, N2 writes P1 then P0, both pages owned
        // by N0: each waits on the other through a callback, and
        // `drive`'s waits-for graph must pick a victim and re-run it.
        let mut c =
            Cluster::new(ClusterConfig::builder().owned_pages(vec![2, 0, 0]).build()).unwrap();
        let write = |index, value| PlanOp::Write {
            pid: pid(0, index),
            slot: 0,
            value,
        };
        let plans = vec![
            plan(1, 0, vec![write(0, 1), write(1, 1)], false),
            plan(2, 0, vec![write(1, 2), write(0, 2)], false),
        ];
        let report = Runtime::run(&mut c, &plans).unwrap();
        assert_eq!(report.committed, 2);
        assert!(report.forced_aborts >= 1, "{report:?}");
    }
}
