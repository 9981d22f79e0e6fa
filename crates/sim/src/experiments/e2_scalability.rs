//! E2 — scalability with client count.
//!
//! Paper §1.2: "additional performance and scalability gains are
//! realized when clients offer transactional facilities, because
//! dependencies on server resources are reduced considerably."
//!
//! Each client works on a private page partition (no lock contention),
//! so the only scaling limit is the busiest resource. Under server
//! logging every commit forces the *server's* log and every record
//! crosses the wire to the server, so server busy-time grows with
//! client count; under client-based logging the commit work stays
//! local and the bottleneck curve stays flat. Throughput is modeled as
//! committed transactions over bottleneck busy time.

use super::{cbl_cluster, csa_cluster, PAGE_SIZE};
use crate::driver::run_workload;
use crate::report::{f, Table};
use crate::workload::{generate, WorkloadConfig};
use cblog_common::{NodeId, PageId};
use cblog_core::{Cluster, ClusterConfig};

const PAGES_PER_CLIENT: u32 = 4;
const TXNS: usize = 30;

/// Sweeps the client count.
pub fn run() -> Table {
    let mut t = Table::new(
        "E2 scalability: throughput vs clients (private partitions)",
        &[
            "clients",
            "cbl tput (txn/s)",
            "cbl 2-owner tput",
            "csa tput (txn/s)",
            "csa server busy us",
            "cbl/csa speedup",
        ],
    );
    for clients in [1usize, 2, 4, 8, 16, 32] {
        let (cbl_tput, _) = run_one(clients, true);
        let (cbl2_tput, _) = run_one_two_owners(clients);
        let (csa_tput, csa_busy) = run_one(clients, false);
        t.row(vec![
            clients.to_string(),
            f(cbl_tput),
            f(cbl2_tput),
            f(csa_tput),
            f(csa_busy),
            f(cbl_tput.max(cbl2_tput) / csa_tput.max(1e-9)),
        ]);
    }
    t
}

/// As [`run_one`] for CBL, but the data is partitioned across **two**
/// owner nodes: once the single owner's page service becomes the
/// bottleneck, adding an owner lifts the ceiling — the residual
/// dependency is data placement, not logging.
pub fn run_one_two_owners(clients: usize) -> (f64, f64) {
    let half = (clients as u32).div_ceil(2) * PAGES_PER_CLIENT;
    let mut owned = vec![half, half];
    owned.extend(std::iter::repeat(0).take(clients));
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(PAGE_SIZE)
            .buffer_frames(PAGES_PER_CLIENT as usize * 2)
            .build(),
    )
    .expect("config");
    let cfg = WorkloadConfig {
        txns_per_client: TXNS,
        ops_per_txn: 4,
        write_ratio: 1.0,
        seed: 1234,
        slots_per_page: 8,
        ..WorkloadConfig::default()
    };
    let client_ids: Vec<NodeId> = (2..2 + clients as u32).map(NodeId).collect();
    let private = move |cl: NodeId| -> Vec<PageId> {
        let i = cl.0 - 2;
        let owner = NodeId(i % 2);
        let base = (i / 2) * PAGES_PER_CLIENT;
        (base..base + PAGES_PER_CLIENT)
            .map(|p| PageId::new(owner, p))
            .collect()
    };
    // The base page list is unused when a private-partition fn is given.
    let base: Vec<PageId> = vec![PageId::new(NodeId(0), 0)];
    let specs = generate(&cfg, &client_ids, &base, Some(&private));
    let stats = run_workload(&mut c, specs).expect("run");
    let busy = stats.max_busy.max(1);
    (
        stats.report.committed as f64 / (busy as f64 / 1e6),
        busy as f64,
    )
}

fn specs(clients: usize) -> Vec<cblog_core::TxnPlan> {
    let cfg = WorkloadConfig {
        txns_per_client: TXNS,
        ops_per_txn: 4,
        write_ratio: 1.0,
        seed: 1234,
        slots_per_page: 8,
        ..WorkloadConfig::default()
    };
    let client_ids: Vec<NodeId> = (1..=clients as u32).map(NodeId).collect();
    let all: Vec<PageId> = (0..clients as u32 * PAGES_PER_CLIENT)
        .map(|i| PageId::new(NodeId(0), i))
        .collect();
    let private = move |c: NodeId| -> Vec<PageId> {
        let base = (c.0 - 1) * PAGES_PER_CLIENT;
        (base..base + PAGES_PER_CLIENT)
            .map(|i| PageId::new(NodeId(0), i))
            .collect()
    };
    generate(&cfg, &client_ids, &all, Some(&private))
}

/// Returns `(throughput txn/s, bottleneck busy µs)`.
pub fn run_one(clients: usize, cbl: bool) -> (f64, f64) {
    let pages = clients as u32 * PAGES_PER_CLIENT;
    let build = if cbl { cbl_cluster } else { csa_cluster };
    let mut c = build(clients, pages, PAGES_PER_CLIENT as usize * 2);
    let stats = run_workload(&mut c, specs(clients)).expect("run");
    let busy = stats.max_busy.max(1);
    let tput = stats.report.committed as f64 / (busy as f64 / 1e6);
    (tput, busy as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_bottleneck_grows_faster_than_cbl() {
        let (_, cbl_busy_2) = run_one(2, true);
        let (_, cbl_busy_8) = run_one(8, true);
        let (_, csa_busy_2) = run_one(2, false);
        let (_, csa_busy_8) = run_one(8, false);
        let cbl_growth = cbl_busy_8 / cbl_busy_2;
        let csa_growth = csa_busy_8 / csa_busy_2;
        assert!(
            csa_growth > cbl_growth * 1.5,
            "server busy must scale with clients: cbl x{cbl_growth:.2}, csa x{csa_growth:.2}"
        );
    }

    #[test]
    fn cbl_throughput_wins_at_scale() {
        let (cbl, _) = run_one(8, true);
        let (csa, _) = run_one(8, false);
        assert!(cbl > csa, "cbl {cbl:.0} txn/s vs csa {csa:.0} txn/s");
    }
}
