//! E7 — checkpoint independence.
//!
//! Paper §4 contribution (4): "each node can take a checkpoint without
//! synchronizing with the rest of the operational nodes"; §3.1 notes
//! that ARIES/CSA "server checkpointing requires communication with
//! all connected clients". We take one checkpoint per system after an
//! identical warm workload and count the messages it needs.

use super::{cbl_cluster, csa_cluster, pages0};
use crate::driver::run_workload;
use crate::report::{f, Table};
use crate::workload::{generate, WorkloadConfig};
use cblog_common::NodeId;

/// Sweeps the number of clients.
pub fn run() -> Table {
    let mut t = Table::new(
        "E7 checkpoint cost (messages + bytes) vs connected clients",
        &[
            "clients",
            "cbl ckpt msgs",
            "cbl ckpt bytes",
            "csa ckpt msgs",
            "csa ckpt bytes",
        ],
    );
    for clients in [1usize, 2, 4, 8, 16] {
        let (a, b) = run_cbl(clients);
        let (c, d) = run_csa(clients);
        t.row(vec![clients.to_string(), f(a), f(b), f(c), f(d)]);
    }
    t
}

pub(crate) fn warm(clients: usize) -> Vec<cblog_core::TxnPlan> {
    let cfg = WorkloadConfig {
        txns_per_client: 10,
        ops_per_txn: 4,
        write_ratio: 1.0,
        seed: 5,
        ..WorkloadConfig::default()
    };
    let ids: Vec<NodeId> = (1..=clients as u32).map(NodeId).collect();
    generate(&cfg, &ids, &pages0(8), None)
}

fn run_cbl(clients: usize) -> (f64, f64) {
    let mut c = cbl_cluster(clients, 8, 16);
    run_workload(&mut c, warm(clients)).expect("warm");
    let s0 = c.network().stats();
    // Every node checkpoints — still zero messages.
    for n in 0..=clients as u32 {
        c.checkpoint(NodeId(n)).unwrap();
    }
    let d = c.network().stats().since(&s0);
    (d.total_messages() as f64, d.total_bytes() as f64)
}

fn run_csa(clients: usize) -> (f64, f64) {
    let mut s = csa_cluster(clients, 8, 16);
    run_workload(&mut s, warm(clients)).expect("warm");
    let s0 = s.network().stats();
    s.checkpoint(NodeId(0)).unwrap();
    let d = s.network().stats().since(&s0);
    (d.total_messages() as f64, d.total_bytes() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbl_checkpoints_send_nothing() {
        let (msgs, bytes) = run_cbl(4);
        assert_eq!(msgs, 0.0);
        assert_eq!(bytes, 0.0);
    }

    #[test]
    fn csa_checkpoint_messages_scale_with_clients() {
        let (m2, _) = run_csa(2);
        let (m8, _) = run_csa(8);
        assert_eq!(m2, 4.0, "round trip per client");
        assert_eq!(m8, 16.0);
    }
}
