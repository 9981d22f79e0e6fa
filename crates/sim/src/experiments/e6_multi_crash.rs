//! E6 — multiple simultaneous crashes (paper §2.4).
//!
//! A Figure-1-style topology (two owners, several clients) suffers k
//! simultaneous crashes. Recovery reconstructs crashed DPT supersets
//! from the logs, merges entries at the owners, and replays per page —
//! still without merging any log files.

use super::PAGE_SIZE;
use crate::report::{f, Table};
use cblog_common::{NodeId, PageId};
use cblog_core::recovery::recover;
use cblog_core::{Cluster, ClusterConfig, RecoveryOptions};

const PAGES_PER_OWNER: u32 = 6;

/// Sweeps the number of simultaneously crashed nodes.
pub fn run() -> Table {
    let mut t = Table::new(
        "E6 multi-node crash recovery (2 owners + 3 clients)",
        &[
            "crashed",
            "which",
            "pages replayed",
            "records",
            "rec messages",
            "losers undone",
            "bytes scanned",
        ],
    );
    for (k, which) in [
        (1usize, vec![NodeId(0)]),
        (2, vec![NodeId(0), NodeId(2)]),
        (3, vec![NodeId(0), NodeId(1), NodeId(2)]),
        (4, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
    ] {
        let rep = run_one(&which);
        t.row(vec![
            k.to_string(),
            format!("{which:?}"),
            rep.pages_recovered.to_string(),
            rep.records_replayed.to_string(),
            rep.messages.to_string(),
            rep.losers_undone.to_string(),
            f(rep.log_bytes_scanned as f64),
        ]);
    }
    t
}

/// The E6 topology (two owners + three clients) — exposed so the
/// tracedump scenarios can rebuild it with tracing enabled.
pub fn builder() -> cblog_core::ClusterConfigBuilder {
    ClusterConfig::builder()
        .owned_pages(vec![PAGES_PER_OWNER, PAGES_PER_OWNER, 0, 0, 0])
        .page_size(PAGE_SIZE)
        .buffer_frames(16)
}

/// Builds the topology, runs a mixed workload, crashes `which`, and
/// recovers them together.
pub fn run_one(which: &[NodeId]) -> cblog_core::RecoveryReport {
    let mut c = Cluster::new(builder().build()).expect("config");
    run_on(&mut c, which)
}

/// Drives the E6 scenario on a caller-provided cluster of the
/// [`builder`] topology.
pub fn run_on(c: &mut Cluster, which: &[NodeId]) -> cblog_core::RecoveryReport {
    workload_and_crash(c, which);
    recover(c, &RecoveryOptions::nodes(which)).expect("multi recovery")
}

/// The pre-recovery half of [`run_on`]: mixed workload, evictions,
/// then crash `which` — E9b recovers the same scene under different
/// [`cblog_core::ReplayMode`]s.
pub fn workload_and_crash(c: &mut Cluster, which: &[NodeId]) {
    // Committed cross-owner traffic from every client.
    for round in 0..3u64 {
        for client in 2..=4u32 {
            for owner in 0..=1u32 {
                let p = PageId::new(NodeId(owner), (client + round as u32) % PAGES_PER_OWNER);
                let t = c.begin(NodeId(client)).unwrap();
                c.write_u64(t, p, client as usize % 8, round * 100 + client as u64)
                    .unwrap();
                c.commit(t).unwrap();
            }
        }
    }
    // Owners also update their own pages; one client leaves a loser.
    for owner in 0..=1u32 {
        let t = c.begin(NodeId(owner)).unwrap();
        c.write_u64(t, PageId::new(NodeId(owner), 5), 0, 777)
            .unwrap();
        c.commit(t).unwrap();
    }
    let loser = c.begin(NodeId(2)).unwrap();
    c.write_u64(loser, PageId::new(NodeId(0), 0), 7, 666)
        .unwrap();
    c.node_mut(NodeId(2)).force_log().unwrap();
    // Push some current images into owner buffers so the crash loses
    // them.
    for client in 2..=4u32 {
        for owner in 0..=1u32 {
            for i in 0..PAGES_PER_OWNER {
                let _ = c.evict_page(NodeId(client), PageId::new(NodeId(owner), i));
            }
        }
    }
    for &n in which {
        c.crash(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_crashes_mean_more_recovery_work() {
        let one = run_one(&[NodeId(0)]);
        let three = run_one(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(three.messages >= one.messages);
        assert!(three.log_bytes_scanned >= one.log_bytes_scanned);
        assert!(three.pages_recovered >= one.pages_recovered);
    }

    #[test]
    fn loser_on_crashed_client_is_undone() {
        let rep = run_one(&[NodeId(0), NodeId(2)]);
        assert_eq!(rep.losers_undone, 1);
    }
}
