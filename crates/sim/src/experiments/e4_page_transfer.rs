//! E4 — inter-node page transfer without forcing.
//!
//! Paper §4 contribution (1): "updated pages are not forced to disk at
//! transaction commit time or when they are replaced from a node
//! cache"; §3.2 contrasts Rdb/VMS, which forces modified pages to disk
//! before shipping them between nodes. A hot page ping-pongs among
//! sharing writers; the force-on-transfer baseline pays one owner disk
//! write per exchange.

use super::{cbl_cluster_opts, pages0};
use crate::report::{f, Table};
use cblog_common::NodeId;
use cblog_core::Paradigm;

const ROUNDS: u64 = 25;

/// Sweeps the number of sharing writer nodes.
pub fn run() -> Table {
    let mut t = Table::new(
        "E4 page ping-pong: no-force vs force-on-transfer (25 rounds)",
        &[
            "sharing nodes",
            "cbl owner disk IOs",
            "cbl sim ms",
            "fot owner disk IOs",
            "fot sim ms",
            "fot/cbl time",
        ],
    );
    for nodes in [2usize, 4, 8] {
        let (cbl_io, cbl_ms) = run_one(nodes, Paradigm::ClientBased);
        let (fot_io, fot_ms) = run_one(nodes, Paradigm::ForceOnTransfer);
        t.row(vec![
            nodes.to_string(),
            f(cbl_io),
            f(cbl_ms),
            f(fot_io),
            f(fot_ms),
            f(fot_ms / cbl_ms.max(1e-9)),
        ]);
    }
    t
}

/// Returns `(owner disk IOs, simulated milliseconds)`.
pub fn run_one(sharers: usize, paradigm: Paradigm) -> (f64, f64) {
    let mut c = cbl_cluster_opts(sharers, 2, 8, None, paradigm);
    let p = pages0(1)[0];
    for round in 0..ROUNDS {
        for s in 1..=sharers as u32 {
            let t = c.begin(NodeId(s)).unwrap();
            c.write_u64(t, p, 0, round * 100 + s as u64).unwrap();
            c.commit(t).unwrap();
        }
    }
    (
        c.network().disk_ios_of(NodeId(0)) as f64,
        c.network().clock().now() as f64 / 1000.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_on_transfer_pays_disk_per_exchange() {
        let (cbl_io, cbl_ms) = run_one(2, Paradigm::ClientBased);
        let (fot_io, fot_ms) = run_one(2, Paradigm::ForceOnTransfer);
        assert!(
            fot_io > cbl_io + ROUNDS as f64,
            "cbl {cbl_io} vs fot {fot_io}"
        );
        assert!(fot_ms > cbl_ms, "forcing costs simulated time");
    }
}
