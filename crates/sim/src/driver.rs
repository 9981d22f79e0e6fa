//! Workload runs for the experiments: [`cblog_core::drive`] runs the
//! plans, and [`run_workload`] adds the committed-state [`Oracle`] and
//! the network tallies of the run.

use crate::oracle::Oracle;
use cblog_common::{Result, SimTime};
use cblog_core::{drive, Cluster, PlanOp, RunReport, TxnPlan};
use cblog_net::{FaultStats, NetStats};

/// Outcome of a full workload run.
#[derive(Debug)]
pub struct RunStats {
    /// The driver's tally; deadlock victims count as forced aborts
    /// (those transactions were re-run).
    pub report: RunReport,
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
    /// Committed-state oracle (verify it against the system!).
    pub oracle: Oracle,
}

/// Runs `plans` to completion over `sys` through [`drive`]. The oracle
/// folds each committed plan's writes in the order the commits were
/// acknowledged, which is the serialization order.
pub fn run_workload(sys: &mut Cluster, plans: Vec<TxnPlan>) -> Result<RunStats> {
    let driven = drive(sys, &plans)?;
    let mut oracle = Oracle::new();
    for plan in &driven.acked {
        for op in &plan.ops {
            if let PlanOp::Write { pid, slot, value } = *op {
                oracle.commit(pid, slot, value);
            }
        }
    }
    let net = sys.network();
    Ok(RunStats {
        report: driven.report,
        net: net.stats(),
        faults: net.fault_stats(),
        sim_time: net.clock().now(),
        max_busy: net.clock().max_busy(),
        oracle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::pages0;
    use crate::workload::{generate, WorkloadConfig};
    use cblog_common::{CostModel, NodeId};
    use cblog_core::{ClusterConfig, Paradigm};

    fn cluster(clients: usize, pages: u32, paradigm: Paradigm) -> Cluster {
        let mut owned = vec![pages];
        owned.extend(std::iter::repeat(0).take(clients));
        Cluster::new(
            ClusterConfig::builder()
                .owned_pages(owned)
                .page_size(512)
                .buffer_frames(32)
                .cost(CostModel::unit())
                .paradigm(paradigm)
                .build(),
        )
        .unwrap()
    }

    fn cbl(clients: usize, pages: u32) -> Cluster {
        cluster(clients, pages, Paradigm::ClientBased)
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
        let specs = generate(&cfg, &[NodeId(1), NodeId(2)], &pages0(8), None);
        let stats = run_workload(&mut c, specs).unwrap();
        assert_eq!(stats.report.committed, 40);
        let verified = stats.oracle.verify(&mut c, NodeId(1)).unwrap();
        assert!(verified > 0);
    }

    #[test]
    fn workload_runs_and_verifies_on_server_baseline() {
        let mut s = cluster(2, 8, Paradigm::ClientServer);
        let cfg = WorkloadConfig {
            txns_per_client: 20,
            ops_per_txn: 6,
            ..WorkloadConfig::default()
        };
        let specs = generate(&cfg, &[NodeId(1), NodeId(2)], &pages0(8), None);
        let stats = run_workload(&mut s, specs).unwrap();
        assert_eq!(stats.report.committed, 40);
        let forces = s.node(NodeId(0)).log().forces();
        assert_eq!(forces, 40, "one server force per commit");
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
        let specs = generate(&cfg, &[NodeId(1), NodeId(2)], &pages0(4), None);
        let stats = run_workload(&mut c, specs).unwrap();
        assert!(stats.report.user_aborts > 0);
        assert_eq!(stats.report.committed + stats.report.user_aborts, 30);
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
        let specs = generate(&cfg, &[NodeId(1), NodeId(2), NodeId(3)], &pages0(2), None);
        let stats = run_workload(&mut c, specs).unwrap();
        assert_eq!(
            stats.report.committed, 45,
            "all transactions eventually commit"
        );
        stats.oracle.verify(&mut c, NodeId(2)).unwrap();
    }
}
