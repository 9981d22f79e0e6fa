//! E3 — log-record shipping volume.
//!
//! The byte-level view of the §1.1 claim (and the §3.1 Versant
//! contrast: "our architecture … avoids generating all log records at
//! commit time"): under server logging every update record crosses the
//! network; under client-based logging none do. Both write comparable
//! byte volumes to *some* log — the difference is where the bytes go.

use super::{cbl_cluster, csa_cluster, pages0};
use crate::driver::run_workload;
use crate::report::{f, Table};
use crate::workload::{generate, WorkloadConfig};
use cblog_common::NodeId;
use cblog_net::MsgKind;

const CLIENTS: usize = 2;
const PAGES: u32 = 8;

/// Sweeps the write ratio.
pub fn run() -> Table {
    let mut t = Table::new(
        "E3 log shipping volume vs write ratio (2 clients, 300 txns)",
        &[
            "write ratio",
            "cbl shipped log bytes",
            "cbl local log bytes",
            "csa shipped log bytes",
            "csa server log bytes",
        ],
    );
    for ratio in [0.1f64, 0.25, 0.5, 0.75, 1.0] {
        let (cbl_ship, cbl_local) = run_cbl(ratio);
        let (csa_ship, csa_srv) = run_csa(ratio);
        t.row(vec![
            f(ratio),
            f(cbl_ship),
            f(cbl_local),
            f(csa_ship),
            f(csa_srv),
        ]);
    }
    t
}

fn wl(ratio: f64) -> Vec<cblog_core::TxnPlan> {
    let cfg = WorkloadConfig {
        txns_per_client: 150,
        ops_per_txn: 6,
        write_ratio: ratio,
        seed: 77,
        ..WorkloadConfig::default()
    };
    let clients: Vec<NodeId> = (1..=CLIENTS as u32).map(NodeId).collect();
    generate(&cfg, &clients, &pages0(PAGES), None)
}

fn run_cbl(ratio: f64) -> (f64, f64) {
    let mut c = cbl_cluster(CLIENTS, PAGES, 32);
    let stats = run_workload(&mut c, wl(ratio)).expect("run");
    let shipped = stats.net.bytes_of(MsgKind::LogShip) as f64;
    let local: u64 = (0..=CLIENTS as u32)
        .map(|i| c.node(NodeId(i)).log().bytes_written())
        .sum();
    (shipped, local as f64)
}

fn run_csa(ratio: f64) -> (f64, f64) {
    let mut s = csa_cluster(CLIENTS, PAGES, 32);
    let stats = run_workload(&mut s, wl(ratio)).expect("run");
    let shipped = stats.net.bytes_of(MsgKind::LogShip) as f64;
    (shipped, s.node(NodeId(0)).log().bytes_written() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbl_ships_no_log_bytes_csa_ships_plenty() {
        let (cbl_ship, cbl_local) = run_cbl(0.5);
        let (csa_ship, csa_srv) = run_csa(0.5);
        assert_eq!(cbl_ship, 0.0);
        assert!(cbl_local > 0.0, "records land in local logs");
        assert!(csa_ship > 0.0, "records cross the wire");
        assert!(csa_srv > 0.0);
    }

    #[test]
    fn shipped_bytes_grow_with_write_ratio() {
        let (a, _) = run_csa(0.1);
        let (b, _) = run_csa(1.0);
        assert!(b > 2.0 * a, "low {a} high {b}");
    }
}
