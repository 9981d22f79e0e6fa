//! E10 — three-way commit-cost comparison: client-based logging vs
//! server logging (ARIES/CSA, §3.1) vs primary-copy authority (Rahm,
//! §3.2).
//!
//! Paper §3.2 on PCA: "commit processing involves the sending of each
//! updated page to the node that holds the PCA for that page.
//! Furthermore, double logging is required for every page that is
//! modified by a node other than the PCA node. … Our algorithms do not
//! require updated pages to be sent to the owner nodes at transaction
//! commit time, nor do they require log records to be written in two
//! log files."
//!
//! Steady state, one client updating k distinct remote pages per
//! transaction.

use super::{cbl_cluster, csa_cluster, pages0, PAGE_SIZE};
use crate::report::{f, Table};
use cblog_baselines::{PcaCluster, PcaConfig};
use cblog_common::{CostModel, NodeId};
use cblog_core::System;

const TXNS: u64 = 50;
const PAGES: u32 = 8;

/// Sweeps distinct pages updated per transaction.
pub fn run() -> Table {
    let mut t = Table::new(
        "E10 commit cost: CBL vs server logging vs PCA (per txn)",
        &[
            "pages/txn",
            "cbl msgs",
            "cbl bytes",
            "csa msgs",
            "csa bytes",
            "pca msgs",
            "pca bytes",
            "pca 2nd-log recs",
        ],
    );
    for k in [1usize, 2, 4, 8] {
        let (am, ab) = run_cbl(k);
        let (bm, bb) = run_csa(k);
        let (cm, cb, dl) = run_pca(k);
        t.row(vec![
            k.to_string(),
            f(am),
            f(ab),
            f(bm),
            f(bb),
            f(cm),
            f(cb),
            f(dl),
        ]);
    }
    t
}

fn run_cbl(k: usize) -> (f64, f64) {
    let mut c = cbl_cluster(1, PAGES, 16);
    let pages = pages0(PAGES);
    let t = c.begin(NodeId(1)).unwrap();
    for p in &pages {
        c.write_u64(t, *p, 0, 1).unwrap();
    }
    c.commit(t).unwrap();
    let s0 = c.network().stats();
    for i in 0..TXNS {
        let t = c.begin(NodeId(1)).unwrap();
        for p in pages.iter().take(k) {
            c.write_u64(t, *p, 1, i).unwrap();
        }
        c.commit(t).unwrap();
    }
    let d = c.network().stats().since(&s0);
    (
        d.total_messages() as f64 / TXNS as f64,
        d.total_bytes() as f64 / TXNS as f64,
    )
}

fn run_csa(k: usize) -> (f64, f64) {
    let mut s = csa_cluster(1, PAGES, 16);
    let pages = pages0(PAGES);
    let t = s.begin(NodeId(1)).unwrap();
    for p in &pages {
        s.write(t, *p, 0, 1).unwrap();
    }
    s.commit(t).unwrap();
    let s0 = s.network().stats();
    for i in 0..TXNS {
        let t = s.begin(NodeId(1)).unwrap();
        for p in pages.iter().take(k) {
            s.write(t, *p, 1, i).unwrap();
        }
        s.commit(t).unwrap();
    }
    let d = s.network().stats().since(&s0);
    (
        d.total_messages() as f64 / TXNS as f64,
        d.total_bytes() as f64 / TXNS as f64,
    )
}

fn run_pca(k: usize) -> (f64, f64, f64) {
    let mut s = PcaCluster::new(PcaConfig {
        nodes: 2,
        pages: PAGES,
        page_size: PAGE_SIZE,
        buffer_frames: 16,
        cost: CostModel::default(),
    })
    .unwrap();
    let pages = pages0(PAGES);
    let t = s.begin(NodeId(1)).unwrap();
    for p in &pages {
        s.write(t, *p, 0, 1).unwrap();
    }
    s.commit(t).unwrap();
    let s0 = s.network().stats();
    let recs0 = s.log_of(NodeId(0)).records_appended();
    for i in 0..TXNS {
        let t = s.begin(NodeId(1)).unwrap();
        for p in pages.iter().take(k) {
            s.write(t, *p, 1, i).unwrap();
        }
        s.commit(t).unwrap();
    }
    let d = s.network().stats().since(&s0);
    let second_log = s.log_of(NodeId(0)).records_appended() - recs0;
    (
        d.total_messages() as f64 / TXNS as f64,
        d.total_bytes() as f64 / TXNS as f64,
        second_log as f64 / TXNS as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pca_pays_page_shipping_and_double_logging_cbl_pays_nothing() {
        let (cbl_m, _) = run_cbl(4);
        let (pca_m, pca_b, dl) = run_pca(4);
        assert_eq!(cbl_m, 0.0);
        // 4 pages × (page-ship + log-ship + ack) = 12 messages/txn.
        assert!((pca_m - 12.0).abs() < 1e-9, "pca {pca_m} msgs/txn");
        assert!(pca_b > 4.0 * PAGE_SIZE as f64, "pages dominate the bytes");
        assert!((dl - 4.0).abs() < 1e-9, "one duplicated record per update");
    }

    #[test]
    fn pca_costs_scale_with_updated_pages_csa_with_bytes_only() {
        let (pca1, _, _) = run_pca(1);
        let (pca8, _, _) = run_pca(8);
        assert!(pca8 > 6.0 * pca1);
        let (csa1, _) = run_csa(1);
        let (csa8, _) = run_csa(8);
        assert_eq!(csa1, csa8, "CSA message count is flat (3/txn)");
    }
}
