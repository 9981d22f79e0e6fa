//! E11 — expensive links (the §1.2 mobile scenario).
//!
//! "…she may wish to achieve transactional durability guarantees for
//! orders recorded in the notebook computer without repeatedly having
//! to call the server in the central office. … the user chooses to
//! keep the log locally to minimize communication cost and save
//! energy."
//!
//! The same checked-out working set and commit stream run under
//! increasingly expensive links (LAN → WAN → cellular-ish). Client-
//! based logging's elapsed time is flat — after check-out it sends
//! nothing — while server logging degrades linearly with link cost.

use super::{pages0, PAGE_SIZE};
use crate::report::{f, Table};
use cblog_baselines::{ServerClientConfig, ServerCluster};
use cblog_common::{CostModel, NodeId};
use cblog_core::{Cluster, ClusterConfig, System};

const TXNS: u64 = 50;

fn cost(mult: u64) -> CostModel {
    let base = CostModel::default();
    CostModel {
        msg_fixed_us: base.msg_fixed_us * mult,
        wire_us_per_kib: base.wire_us_per_kib * mult,
        ..base
    }
}

/// Sweeps the link-cost multiplier.
pub fn run() -> Table {
    let mut t = Table::new(
        "E11 mobile / expensive links: elapsed ms for 50 commits",
        &["link cost x", "cbl ms", "csa ms", "csa/cbl"],
    );
    for mult in [1u64, 10, 100, 1000] {
        let cbl = run_cbl(mult);
        let csa = run_csa(mult);
        t.row(vec![
            mult.to_string(),
            f(cbl),
            f(csa),
            f(csa / cbl.max(1e-9)),
        ]);
    }
    t
}

/// CBL elapsed milliseconds at one link-cost multiplier.
pub fn run_cbl(mult: u64) -> f64 {
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![4, 0])
            .page_size(PAGE_SIZE)
            .buffer_frames(16)
            .default_owned_pages(0)
            .cost(cost(mult))
            .build(),
    )
    .unwrap();
    let pages = pages0(4);
    // Morning check-out (paid once).
    let t = c.begin(NodeId(1)).unwrap();
    for p in &pages {
        c.write_u64(t, *p, 0, 1).unwrap();
    }
    c.commit(t).unwrap();
    let t0 = c.network().clock().now();
    for i in 0..TXNS {
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, pages[(i % 4) as usize], 1, i).unwrap();
        c.commit(t).unwrap();
    }
    (c.network().clock().now() - t0) as f64 / 1000.0
}

/// Server-logging elapsed milliseconds at one multiplier.
pub fn run_csa(mult: u64) -> f64 {
    let mut s = ServerCluster::new(ServerClientConfig {
        clients: 1,
        pages: 4,
        page_size: PAGE_SIZE,
        client_buffer_frames: 16,
        server_buffer_frames: 32,
        cost: cost(mult),
    })
    .unwrap();
    let pages = pages0(4);
    let t = s.begin(NodeId(1)).unwrap();
    for p in &pages {
        s.write(t, *p, 0, 1).unwrap();
    }
    s.commit(t).unwrap();
    let t0 = s.network().clock().now();
    for i in 0..TXNS {
        let t = s.begin(NodeId(1)).unwrap();
        s.write(t, pages[(i % 4) as usize], 1, i).unwrap();
        s.commit(t).unwrap();
    }
    (s.network().clock().now() - t0) as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbl_is_flat_csa_degrades_with_link_cost() {
        let cbl_lan = run_cbl(1);
        let cbl_wan = run_cbl(1000);
        let csa_lan = run_csa(1);
        let csa_wan = run_csa(1000);
        assert!(
            (cbl_wan - cbl_lan).abs() < 1e-9,
            "CBL commits send nothing, so link cost is irrelevant: {cbl_lan} vs {cbl_wan}"
        );
        assert!(
            csa_wan > 50.0 * csa_lan,
            "CSA pays the link on every commit: {csa_lan} vs {csa_wan}"
        );
        assert!(csa_wan / cbl_wan > 100.0);
    }
}
