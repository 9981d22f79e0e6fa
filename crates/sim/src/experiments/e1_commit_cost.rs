//! E1 — commit-time cost.
//!
//! Paper §1.1: "Local logging eliminates the need to send log records
//! to remote nodes during transaction execution and at transaction
//! commit." Steady state (locks and pages cached), one client updating
//! its working set: client-based logging commits with zero messages
//! and one local force; server logging ships its records and pays a
//! server round trip plus a server force per commit.

use super::{cbl_cluster, cbl_cluster_gc, csa_cluster, pages0};
use crate::report::{f, Table};
use cblog_common::metrics::keys;
use cblog_common::{HistogramSnapshot, NodeId, TxnId};
use cblog_core::GroupCommitPolicy;

const TXNS: u64 = 100;

/// Per-transaction commit costs of the CBL client, including the
/// commit-force latency distribution from the client's metrics
/// registry.
pub struct CblCommitCost {
    /// Messages per transaction.
    pub msgs: f64,
    /// Network bytes per transaction.
    pub bytes: f64,
    /// Log forces per transaction.
    pub forces: f64,
    /// `wal/commit_force_us` distribution over the measured run.
    pub force_us: HistogramSnapshot,
}

/// Runs the sweep over updates-per-transaction.
pub fn run() -> Table {
    let mut t = Table::new(
        "E1 commit cost per transaction (steady state, 1 client)",
        &[
            "updates/txn",
            "cbl msgs",
            "cbl net bytes",
            "cbl forces",
            "cbl force p50us",
            "cbl force p95us",
            "cbl force p99us",
            "csa msgs",
            "csa net bytes",
            "csa server forces",
        ],
    );
    for k in [1usize, 2, 4, 8, 16, 32] {
        let cbl = run_cbl(k);
        let (csa_m, csa_b, csa_f) = run_csa(k);
        t.row(vec![
            k.to_string(),
            f(cbl.msgs),
            f(cbl.bytes),
            f(cbl.forces),
            cbl.force_us.p50().to_string(),
            cbl.force_us.p95().to_string(),
            cbl.force_us.p99().to_string(),
            f(csa_m),
            f(csa_b),
            f(csa_f),
        ]);
    }
    t
}

fn run_cbl(updates: usize) -> CblCommitCost {
    let mut c = cbl_cluster(1, 4, 16);
    let client = NodeId(1);
    let pages = pages0(4);
    // Warm up: cache pages + X locks.
    let t = c.begin(client).unwrap();
    for p in &pages {
        c.write_u64(t, *p, 0, 1).unwrap();
    }
    c.commit(t).unwrap();
    let s0 = c.network().stats();
    let f0 = c.node(client).log().forces();
    let h0 = c
        .node(client)
        .registry()
        .histogram(keys::WAL_COMMIT_FORCE_US)
        .snapshot();
    for i in 0..TXNS {
        let t = c.begin(client).unwrap();
        for u in 0..updates {
            let p = pages[u % pages.len()];
            c.write_u64(t, p, u % 8, i * 100 + u as u64).unwrap();
        }
        c.commit(t).unwrap();
    }
    let d = c.network().stats().since(&s0);
    let forces = c.node(client).log().forces() - f0;
    let force_us = c
        .node(client)
        .registry()
        .histogram(keys::WAL_COMMIT_FORCE_US)
        .snapshot()
        .since(&h0);
    CblCommitCost {
        msgs: d.total_messages() as f64 / TXNS as f64,
        bytes: d.total_bytes() as f64 / TXNS as f64,
        forces: forces as f64 / TXNS as f64,
        force_us,
    }
}

/// One point of the group-commit sweep.
pub struct GroupCommitPoint {
    /// Concurrently committing transactions per round.
    pub mpl: usize,
    /// Group-commit window (0 = immediate; for adaptive policies this
    /// is the configured maximum, see `live_window_us` for the actual).
    pub window_us: u64,
    /// Log forces per committed transaction.
    pub forces_per_commit: f64,
    /// Network messages per committed transaction.
    pub msgs_per_commit: f64,
    /// Mean transactions acknowledged per force.
    pub mean_group: f64,
    /// Final `wal/window_us` gauge reading — the window the scheduler
    /// was actually running at the end of the sweep.
    pub live_window_us: i64,
}

/// MPL × window sweep: `mpl` transactions on one client run
/// concurrently (disjoint pages, so the commit pipeline — not lock
/// contention — is what batches them) and commit through
/// `commit_submit`/`poll_committed`/`pump_commits`. With a nonzero
/// window a single force acknowledges the whole group.
pub fn run_group_commit() -> Table {
    let mut t = Table::new(
        "E1b group commit: forces per commit (MPL × window, 1 client)",
        &[
            "mpl",
            "window us",
            "forces/commit",
            "mean group size",
            "msgs/commit",
        ],
    );
    for mpl in [1usize, 2, 4, 8] {
        for window_us in [0u64, 500, 5_000] {
            let p = run_group_commit_point(mpl, window_us);
            t.row(vec![
                p.mpl.to_string(),
                p.window_us.to_string(),
                f(p.forces_per_commit),
                f(p.mean_group),
                f(p.msgs_per_commit),
            ]);
        }
    }
    t
}

/// Runs `ROUNDS` rounds of `mpl` concurrent single-page transactions
/// under the given window (0 = today's immediate force-per-commit).
pub fn run_group_commit_point(mpl: usize, window_us: u64) -> GroupCommitPoint {
    let policy = if window_us == 0 {
        GroupCommitPolicy::Immediate
    } else {
        GroupCommitPolicy::Window {
            window_us,
            max_batch: mpl.max(2),
        }
    };
    run_policy_point(mpl, policy)
}

/// As [`run_group_commit_point`] for an arbitrary policy — the E1c
/// adaptive sweep reuses the identical workload so its points are
/// directly comparable with the static-window grid.
pub fn run_policy_point(mpl: usize, policy: GroupCommitPolicy) -> GroupCommitPoint {
    const ROUNDS: u64 = 50;
    let window_us = match policy {
        GroupCommitPolicy::Immediate => 0,
        GroupCommitPolicy::Window { window_us, .. } => window_us,
        GroupCommitPolicy::Adaptive { max_window_us, .. } => max_window_us,
    };
    let mut c = cbl_cluster_gc(1, mpl.max(4) as u32, 64, policy);
    let client = NodeId(1);
    let pages = pages0(mpl as u32);
    // Warm up: cache pages + X locks.
    let t = c.begin(client).unwrap();
    for p in &pages {
        c.write_u64(t, *p, 0, 1).unwrap();
    }
    c.commit(t).unwrap();
    let s0 = c.network().stats();
    let f0 = c.node(client).log().forces();
    let g0 = c
        .node(client)
        .registry()
        .histogram(keys::WAL_GROUP_SIZE)
        .snapshot();
    for r in 0..ROUNDS {
        // mpl transactions each update their own page, then all submit
        // before anyone waits for durability.
        let txns: Vec<TxnId> = (0..mpl)
            .map(|i| {
                let t = c.begin(client).unwrap();
                c.write_u64(t, pages[i], 0, r * 1_000 + i as u64).unwrap();
                t
            })
            .collect();
        for &t in &txns {
            c.commit_submit(t).unwrap();
        }
        loop {
            let mut all = true;
            for &t in &txns {
                if !c.poll_committed(t).unwrap() {
                    all = false;
                }
            }
            if all {
                break;
            }
            c.pump_commits().unwrap();
        }
    }
    let commits = ROUNDS * mpl as u64;
    let d = c.network().stats().since(&s0);
    let forces = c.node(client).log().forces() - f0;
    let groups = c
        .node(client)
        .registry()
        .histogram(keys::WAL_GROUP_SIZE)
        .snapshot()
        .since(&g0);
    let live_window_us = c.node(client).registry().gauge(keys::WAL_WINDOW_US).get();
    GroupCommitPoint {
        mpl,
        window_us,
        forces_per_commit: forces as f64 / commits as f64,
        msgs_per_commit: d.total_messages() as f64 / commits as f64,
        mean_group: groups.mean(),
        live_window_us,
    }
}

fn run_csa(updates: usize) -> (f64, f64, f64) {
    let mut s = csa_cluster(1, 4, 16);
    let client = NodeId(1);
    let pages = pages0(4);
    let t = s.begin(client).unwrap();
    for p in &pages {
        s.write_u64(t, *p, 0, 1).unwrap();
    }
    s.commit(t).unwrap();
    let s0 = s.network().stats();
    let f0 = s.node(NodeId(0)).log().forces();
    for i in 0..TXNS {
        let t = s.begin(client).unwrap();
        for u in 0..updates {
            let p = pages[u % pages.len()];
            s.write_u64(t, p, u % 8, i * 100 + u as u64).unwrap();
        }
        s.commit(t).unwrap();
    }
    let d = s.network().stats().since(&s0);
    let forces = s.node(NodeId(0)).log().forces() - f0;
    (
        d.total_messages() as f64 / TXNS as f64,
        d.total_bytes() as f64 / TXNS as f64,
        forces as f64 / TXNS as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbl_commits_with_zero_messages_csa_pays_round_trip() {
        let cbl = run_cbl(4);
        let (csa_m, csa_b, csa_f) = run_csa(4);
        assert_eq!(cbl.msgs, 0.0, "CBL steady-state commit is message-free");
        assert_eq!(cbl.bytes, 0.0);
        assert!(
            (cbl.forces - 1.0).abs() < 1e-9,
            "one local force per commit"
        );
        assert!(csa_m >= 3.0, "log-ship + commit-req + ack");
        assert!(csa_b > 0.0);
        assert_eq!(csa_f, 1.0, "one server force per commit");
    }

    #[test]
    fn commit_force_histogram_covers_every_commit() {
        let cbl = run_cbl(4);
        assert_eq!(cbl.force_us.count, TXNS, "one recorded force per commit");
        assert!(cbl.force_us.p50() > 0, "force latency is non-zero sim-time");
        assert!(cbl.force_us.p99() >= cbl.force_us.p50());
    }

    #[test]
    fn csa_bytes_grow_with_update_count() {
        let (_, b1, _) = run_csa(1);
        let (_, b32, _) = run_csa(32);
        assert!(b32 > 4.0 * b1, "shipped log bytes scale with updates");
    }

    #[test]
    fn table_has_six_rows() {
        let t = run();
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn group_commit_amortizes_forces_without_messages() {
        let p = run_group_commit_point(4, 5_000);
        assert!(
            p.forces_per_commit < 1.0,
            "MPL 4 with a window shares forces: {}",
            p.forces_per_commit
        );
        assert!(p.mean_group > 1.0, "groups really form: {}", p.mean_group);
        assert_eq!(p.msgs_per_commit, 0.0, "commit stays message-free");
    }

    #[test]
    fn immediate_mode_reproduces_one_force_per_commit() {
        let p = run_group_commit_point(4, 0);
        assert!(
            (p.forces_per_commit - 1.0).abs() < 1e-9,
            "immediate = today's behavior: {}",
            p.forces_per_commit
        );
        assert_eq!(p.msgs_per_commit, 0.0);
    }

    #[test]
    fn deeper_mpl_amortizes_further() {
        let p2 = run_group_commit_point(2, 5_000);
        let p8 = run_group_commit_point(8, 5_000);
        assert!(
            p8.forces_per_commit < p2.forces_per_commit,
            "more concurrent commits per force: {} vs {}",
            p8.forces_per_commit,
            p2.forces_per_commit
        );
    }

    #[test]
    fn group_commit_table_has_all_sweep_rows() {
        let t = run_group_commit();
        assert_eq!(t.len(), 12);
    }
}
