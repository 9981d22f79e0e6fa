//! Deterministic transaction driver over any of the systems.
//!
//! The driver round-robins operations of concurrent transactions
//! across clients, retries blocked operations as other transactions
//! advance, feeds a waits-for graph for deadlock detection (aborting
//! the victim and re-queueing its transaction), and maintains the
//! committed-state [`Oracle`] for end-of-run verification.

use crate::oracle::Oracle;
use crate::workload::{Op, TxnSpec};
use cblog_common::{Error, NodeId, PageId, Result, SimTime, TxnId};
use cblog_locks::WaitsForGraph;
use cblog_net::{FaultStats, NetStats, Network};
use std::collections::{HashMap, VecDeque};

/// Uniform facade over the client-based-logging cluster and the
/// server-logging baseline.
pub trait System {
    /// Starts a transaction at `node`.
    fn begin(&mut self, node: NodeId) -> Result<TxnId>;
    /// Reads a counter slot.
    fn read(&mut self, txn: TxnId, pid: PageId, slot: usize) -> Result<u64>;
    /// Writes a counter slot.
    fn write(&mut self, txn: TxnId, pid: PageId, slot: usize, value: u64) -> Result<()>;
    /// Commits.
    fn commit(&mut self, txn: TxnId) -> Result<()>;
    /// Aborts (rolls back).
    fn abort(&mut self, txn: TxnId) -> Result<()>;
    /// The accounted network.
    fn network(&self) -> &Network;
    /// Submits a commit to the system's async commit pipeline: the
    /// transaction's commit record is written and its locks release,
    /// but durability is acknowledged via [`System::poll_committed`].
    /// Systems without a pipeline commit synchronously here.
    fn commit_submit(&mut self, txn: TxnId) -> Result<()> {
        self.commit(txn)
    }
    /// True once a submitted commit is durable. Synchronous systems
    /// are always done.
    fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        let _ = txn;
        Ok(true)
    }
    /// Drives the commit pipeline when nothing else can make progress
    /// (e.g. advances the sim-clock to the next group-commit window
    /// deadline). Returns true if any commit was acknowledged.
    fn pump_commits(&mut self) -> Result<bool> {
        Ok(false)
    }
    /// Reports a driver-level lock-queueing delay: `txn` spent `us`
    /// sim-µs being retried before its blocked operation succeeded (or
    /// it was aborted). Systems that already fold retry spans into
    /// their own `locks/wait_us` histogram ignore this; the baselines
    /// record it so all systems report one uniform wait metric.
    fn note_queue_wait(&mut self, txn: TxnId, us: SimTime) {
        let _ = (txn, us);
    }
    /// Feeds the system's interval telemetry sampler, if it has one:
    /// the driver calls this after every scheduling sweep so time
    /// series resolution follows the sim-clock rather than workload
    /// phase boundaries. Systems without telemetry do nothing.
    fn sample_telemetry(&mut self) {}
    /// The system's recent protocol history and the lineage of `pid`,
    /// if it can render one. Printed by the oracle when verification
    /// finds a divergence on that page.
    fn post_mortem(&self, pid: PageId) -> Option<String> {
        let _ = pid;
        None
    }
    /// Runs the system's online invariant watchdog over every span it
    /// traced, failing with the offending lineage slice. Untraced
    /// systems (and traced runs with no violations) return `Ok(())`;
    /// the driver calls this once at the end of every workload run.
    fn trace_check(&self) -> Result<()> {
        Ok(())
    }
}

/// Implements the shared half of [`System`] (begin / read / write /
/// commit / abort / network) for a cluster type by delegating to its
/// inherent methods, then splices in any system-specific overrides
/// passed as extra items. Keeps the delegation — including the
/// fault-aware retry semantics the driver builds on top of it —
/// written exactly once for all three systems.
macro_rules! impl_system {
    ($ty:ty $(, $extra:item)* $(,)?) => {
        impl System for $ty {
            fn begin(&mut self, node: NodeId) -> Result<TxnId> {
                <$ty>::begin(self, node)
            }

            fn read(&mut self, txn: TxnId, pid: PageId, slot: usize) -> Result<u64> {
                self.read_u64(txn, pid, slot)
            }

            fn write(&mut self, txn: TxnId, pid: PageId, slot: usize, value: u64) -> Result<()> {
                self.write_u64(txn, pid, slot, value)
            }

            fn commit(&mut self, txn: TxnId) -> Result<()> {
                <$ty>::commit(self, txn)
            }

            fn abort(&mut self, txn: TxnId) -> Result<()> {
                <$ty>::abort(self, txn)
            }

            fn network(&self) -> &Network {
                <$ty>::network(self)
            }

            $($extra)*
        }
    };
}

// note_queue_wait stays the default no-op for the cluster — it folds
// driver retry spans into locks/wait_us via its own wait tracking.
impl_system!(
    cblog_core::Cluster,
    fn commit_submit(&mut self, txn: TxnId) -> Result<()> {
        cblog_core::Cluster::commit_submit(self, txn)
    },
    fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        cblog_core::Cluster::poll_committed(self, txn)
    },
    fn pump_commits(&mut self) -> Result<bool> {
        cblog_core::Cluster::pump_commits(self)
    },
    fn sample_telemetry(&mut self) {
        cblog_core::Cluster::sample_telemetry(self)
    },
    fn post_mortem(&self, pid: PageId) -> Option<String> {
        Some(cblog_core::Cluster::post_mortem(self, pid))
    },
    fn trace_check(&self) -> Result<()> {
        cblog_core::Cluster::trace_check(self)
    },
);

impl_system!(
    cblog_baselines::ServerCluster,
    fn commit_submit(&mut self, txn: TxnId) -> Result<()> {
        cblog_baselines::ServerCluster::commit_submit(self, txn)
    },
    fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        cblog_baselines::ServerCluster::poll_committed(self, txn)
    },
    fn pump_commits(&mut self) -> Result<bool> {
        cblog_baselines::ServerCluster::pump_commits(self)
    },
    fn note_queue_wait(&mut self, txn: TxnId, us: SimTime) {
        cblog_baselines::ServerCluster::note_queue_wait(self, txn, us);
    },
);

impl_system!(
    cblog_baselines::PcaCluster,
    fn commit_submit(&mut self, txn: TxnId) -> Result<()> {
        cblog_baselines::PcaCluster::commit_submit(self, txn)
    },
    fn poll_committed(&mut self, txn: TxnId) -> Result<bool> {
        cblog_baselines::PcaCluster::poll_committed(self, txn)
    },
    fn pump_commits(&mut self) -> Result<bool> {
        cblog_baselines::PcaCluster::pump_commits(self)
    },
    fn note_queue_wait(&mut self, txn: TxnId, us: SimTime) {
        cblog_baselines::PcaCluster::note_queue_wait(self, txn, us);
    },
);

/// Outcome of a full workload run.
#[derive(Debug)]
pub struct RunStats {
    /// Committed transactions.
    pub committed: u64,
    /// User-initiated aborts (per the workload spec).
    pub user_aborts: u64,
    /// Deadlock-victim aborts (those transactions were re-run).
    pub deadlock_aborts: u64,
    /// Operations executed (including re-runs).
    pub ops_executed: u64,
    /// Network statistics at the end of the run.
    pub net: NetStats,
    /// Injected-fault counters (drops, delays, duplicates, reorders,
    /// reliable-send retries) at the end of the run. All zero when the
    /// fault plan is a no-op.
    pub faults: FaultStats,
    /// Simulated elapsed time, µs.
    pub sim_time: SimTime,
    /// Busy time of the bottleneck node, µs.
    pub max_busy: SimTime,
    /// The bottleneck node.
    pub bottleneck: Option<NodeId>,
    /// Committed-state oracle (verify it against the system!).
    pub oracle: Oracle,
}

struct ActiveTxn {
    txn: TxnId,
    spec: TxnSpec,
    next_op: usize,
    key: u64,
}

/// Runs `specs` to completion over `sys`, interleaving across clients.
pub fn run_workload<S: System>(sys: &mut S, specs: Vec<TxnSpec>) -> Result<RunStats> {
    let mut queues: Vec<(NodeId, VecDeque<TxnSpec>)> = Vec::new();
    for spec in specs {
        match queues.iter_mut().find(|(c, _)| *c == spec.client) {
            Some((_, q)) => q.push_back(spec),
            None => {
                let mut q = VecDeque::new();
                let client = spec.client;
                q.push_back(spec);
                queues.push((client, q));
            }
        }
    }
    let mut active: Vec<Option<ActiveTxn>> = (0..queues.len()).map(|_| None).collect();
    let mut wfg = WaitsForGraph::new();
    let mut oracle = Oracle::new();
    // Transactions whose commit has been submitted but not yet
    // acknowledged durable, in submission (= serialization) order.
    let mut committing: VecDeque<(TxnId, u64)> = VecDeque::new();
    // First-block sim-times of driver-level retry spans, reported to
    // the system via note_queue_wait when the blocked op finally runs.
    let mut blocked_since: HashMap<TxnId, SimTime> = HashMap::new();
    let mut stats = RunStats {
        committed: 0,
        user_aborts: 0,
        deadlock_aborts: 0,
        ops_executed: 0,
        net: NetStats::default(),
        faults: FaultStats::default(),
        sim_time: 0,
        max_busy: 0,
        bottleneck: None,
        oracle: Oracle::new(),
    };
    let mut next_key = 1u64;

    loop {
        let mut progressed = false;
        let mut all_done = true;
        // Acknowledge durable commits in submission order. Stopping at
        // the first pending one keeps oracle commit order identical to
        // the serialization order.
        while let Some(&(txn, key)) = committing.front() {
            if sys.poll_committed(txn)? {
                committing.pop_front();
                oracle.commit(key);
                stats.committed += 1;
                progressed = true;
            } else {
                break;
            }
        }
        for ci in 0..queues.len() {
            // Ensure an active transaction.
            if active[ci].is_none() {
                let Some(spec) = queues[ci].1.pop_front() else {
                    continue;
                };
                all_done = false;
                let client = queues[ci].0;
                match sys.begin(client) {
                    Ok(txn) => {
                        active[ci] = Some(ActiveTxn {
                            txn,
                            spec,
                            next_op: 0,
                            key: next_key,
                        });
                        next_key += 1;
                        progressed = true;
                    }
                    Err(e) if e.is_transient() => {
                        queues[ci].1.push_front(spec);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            all_done = false;
            // Execute one step of the active transaction.
            let a = active[ci].as_mut().expect("just ensured");
            let txn = a.txn;
            if a.next_op < a.spec.ops.len() {
                let op = a.spec.ops[a.next_op];
                let r = match op {
                    Op::Read { pid, slot } => sys.read(txn, pid, slot).map(|_| ()),
                    Op::Write { pid, slot, value } => sys.write(txn, pid, slot, value),
                };
                match r {
                    Ok(()) => {
                        if let Some(t0) = blocked_since.remove(&txn) {
                            let now = sys.network().clock().now();
                            sys.note_queue_wait(txn, now.saturating_sub(t0));
                        }
                        if let Op::Write { pid, slot, value } = op {
                            oracle.stage(a.key, pid, slot, value);
                        }
                        a.next_op += 1;
                        stats.ops_executed += 1;
                        wfg.remove(txn);
                        progressed = true;
                    }
                    Err(Error::WouldBlock { holders, .. }) => {
                        blocked_since
                            .entry(txn)
                            .or_insert_with(|| sys.network().clock().now());
                        wfg.set_waits(txn, &holders);
                        if let Some(victim) = wfg.find_victim() {
                            abort_victim(
                                sys,
                                &mut active,
                                &mut queues,
                                &mut oracle,
                                &mut wfg,
                                &mut blocked_since,
                                victim,
                            )?;
                            stats.deadlock_aborts += 1;
                            progressed = true;
                        }
                    }
                    Err(e) if e.is_transient() => {
                        blocked_since
                            .entry(txn)
                            .or_insert_with(|| sys.network().clock().now());
                    }
                    Err(e) => return Err(e),
                }
            } else {
                // Terminate.
                let a = active[ci].take().expect("active");
                wfg.remove(a.txn);
                blocked_since.remove(&a.txn);
                if a.spec.user_abort {
                    sys.abort(a.txn)?;
                    oracle.abort(a.key);
                    stats.user_aborts += 1;
                } else {
                    // Async commit: the oracle commit and the committed
                    // count land when the ack arrives (poll loop above),
                    // so concurrent submissions can share one log force.
                    sys.commit_submit(a.txn)?;
                    committing.push_back((a.txn, a.key));
                }
                progressed = true;
            }
        }
        sys.sample_telemetry();
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
    let net = sys.network();
    stats.net = net.stats();
    stats.faults = net.fault_stats();
    stats.sim_time = net.clock().now();
    stats.max_busy = net.clock().max_busy();
    stats.bottleneck = net.clock().bottleneck();
    stats.oracle = oracle;
    Ok(stats)
}

fn abort_victim<S: System>(
    sys: &mut S,
    active: &mut [Option<ActiveTxn>],
    queues: &mut [(NodeId, VecDeque<TxnSpec>)],
    oracle: &mut Oracle,
    wfg: &mut WaitsForGraph,
    blocked_since: &mut HashMap<TxnId, SimTime>,
    victim: TxnId,
) -> Result<()> {
    let slot = active
        .iter()
        .position(|a| a.as_ref().is_some_and(|a| a.txn == victim))
        .ok_or_else(|| Error::Protocol(format!("victim {victim} not active")))?;
    let a = active[slot].take().expect("found above");
    if let Some(t0) = blocked_since.remove(&victim) {
        let now = sys.network().clock().now();
        sys.note_queue_wait(victim, now.saturating_sub(t0));
    }
    sys.abort(victim)?;
    oracle.abort(a.key);
    wfg.remove(victim);
    // Re-run the whole transaction later.
    let qi = queues
        .iter()
        .position(|(c, _)| *c == a.spec.client)
        .expect("client queue exists");
    queues[qi].1.push_back(a.spec);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, owned_pages, WorkloadConfig};
    use cblog_baselines::{ServerClientConfig, ServerCluster};
    use cblog_common::CostModel;
    use cblog_core::{Cluster, ClusterConfig};

    fn cbl(clients: usize, pages: u32) -> Cluster {
        let mut owned = vec![pages];
        owned.extend(std::iter::repeat(0).take(clients));
        Cluster::new(
            ClusterConfig::builder()
                .owned_pages(owned)
                .page_size(512)
                .buffer_frames(32)
                .default_owned_pages(0)
                .cost(CostModel::unit())
                .build(),
        )
        .unwrap()
    }

    #[test]
    fn workload_runs_and_verifies_on_cbl() {
        let mut c = cbl(2, 8);
        let cfg = WorkloadConfig {
            txns_per_client: 20,
            ops_per_txn: 6,
            write_ratio: 0.5,
            ..WorkloadConfig::default()
        };
        let specs = generate(
            &cfg,
            &[NodeId(1), NodeId(2)],
            &owned_pages(NodeId(0), 8),
            None,
        );
        let stats = run_workload(&mut c, specs).unwrap();
        assert_eq!(stats.committed, 40);
        let verified = stats.oracle.verify(&mut c, NodeId(1)).unwrap();
        assert!(verified > 0);
    }

    #[test]
    fn workload_runs_and_verifies_on_server_baseline() {
        let mut s = ServerCluster::new(ServerClientConfig {
            clients: 2,
            pages: 8,
            page_size: 512,
            client_buffer_frames: 32,
            server_buffer_frames: 64,
            cost: CostModel::unit(),
            group_commit: cblog_core::GroupCommitPolicy::Immediate,
        })
        .unwrap();
        let cfg = WorkloadConfig {
            txns_per_client: 20,
            ops_per_txn: 6,
            ..WorkloadConfig::default()
        };
        let specs = generate(
            &cfg,
            &[NodeId(1), NodeId(2)],
            &owned_pages(NodeId(0), 8),
            None,
        );
        let stats = run_workload(&mut s, specs).unwrap();
        assert_eq!(stats.committed, 40);
        let verified = stats.oracle.verify(&mut s, NodeId(1)).unwrap();
        assert!(verified > 0);
    }

    #[test]
    fn user_aborts_leave_no_trace() {
        let mut c = cbl(2, 4);
        let cfg = WorkloadConfig {
            txns_per_client: 15,
            ops_per_txn: 4,
            abort_prob: 0.4,
            write_ratio: 1.0,
            seed: 7,
            ..WorkloadConfig::default()
        };
        let specs = generate(
            &cfg,
            &[NodeId(1), NodeId(2)],
            &owned_pages(NodeId(0), 4),
            None,
        );
        let stats = run_workload(&mut c, specs).unwrap();
        assert!(stats.user_aborts > 0);
        assert_eq!(stats.committed + stats.user_aborts, 30);
        stats.oracle.verify(&mut c, NodeId(1)).unwrap();
    }

    #[test]
    fn contended_hotspot_resolves_deadlocks_and_verifies() {
        let mut c = cbl(3, 2);
        let cfg = WorkloadConfig {
            txns_per_client: 15,
            ops_per_txn: 4,
            write_ratio: 0.9,
            hot_access: 1.0,
            hot_fraction: 1.0,
            slots_per_page: 4,
            seed: 99,
            ..WorkloadConfig::default()
        };
        let specs = generate(
            &cfg,
            &[NodeId(1), NodeId(2), NodeId(3)],
            &owned_pages(NodeId(0), 2),
            None,
        );
        let stats = run_workload(&mut c, specs).unwrap();
        assert_eq!(stats.committed, 45, "all transactions eventually commit");
        stats.oracle.verify(&mut c, NodeId(2)).unwrap();
    }
}
