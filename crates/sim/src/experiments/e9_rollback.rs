//! E9 — rollback locality.
//!
//! Paper contribution (2): "transaction rollback and node crash
//! recovery are handled exclusively by the nodes". Rollback runs
//! against the local log; the only messages are page re-fetches when
//! an updated page was already replaced from the cache (§2.2). With a
//! tiny cache the re-fetch cost becomes visible; with an adequate one
//! rollback is message-free.

use super::{cbl_cluster, pages0};
use crate::driver::run_workload;
use crate::report::{f, Table};
use crate::workload::{generate, WorkloadConfig};
use cblog_common::NodeId;

/// Sweeps the abort probability at two cache sizes.
pub fn run() -> Table {
    let mut t = Table::new(
        "E9 rollback cost (1 client, 100 txns, messages per abort)",
        &[
            "abort prob",
            "cache frames",
            "aborts",
            "msgs/abort",
            "clr records",
        ],
    );
    for frames in [2usize, 16] {
        for prob in [0.1f64, 0.3, 0.5] {
            let r = run_one(prob, frames);
            t.row(vec![
                f(prob),
                frames.to_string(),
                r.aborts.to_string(),
                f(r.msgs_per_abort),
                r.clrs.to_string(),
            ]);
        }
    }
    t
}

/// One rollback measurement.
pub struct RollbackRow {
    /// User aborts executed.
    pub aborts: u64,
    /// Messages attributable to the abort phase per abort.
    pub msgs_per_abort: f64,
    /// CLR-sized growth of the local log (records appended beyond
    /// Begin/Update/Commit).
    pub clrs: u64,
}

/// Runs the abort-heavy workload.
pub fn run_one(abort_prob: f64, frames: usize) -> RollbackRow {
    let mut c = cbl_cluster(1, 8, frames);
    let cfg = WorkloadConfig {
        txns_per_client: 100,
        ops_per_txn: 5,
        write_ratio: 1.0,
        abort_prob,
        seed: 31,
        ..WorkloadConfig::default()
    };
    let specs = generate(&cfg, &[NodeId(1)], &pages0(8), None);
    // Reference run with the same workload but aborts disabled, to
    // isolate abort-phase messages.
    let mut no_abort = specs.clone();
    for s in &mut no_abort {
        s.abort = false;
    }
    let mut c_ref = cbl_cluster(1, 8, frames);
    let ref_stats = run_workload(&mut c_ref, no_abort).expect("ref");
    let stats = run_workload(&mut c, specs).expect("run");
    let aborts = stats.report.user_aborts.max(1);
    let extra = stats
        .net
        .total_messages()
        .saturating_sub(ref_stats.net.total_messages());
    let ref_recs = c_ref.node(NodeId(1)).log().records_appended();
    let recs = c.node(NodeId(1)).log().records_appended();
    RollbackRow {
        aborts: stats.report.user_aborts,
        msgs_per_abort: extra as f64 / aborts as f64,
        clrs: recs.saturating_sub(ref_recs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_with_ample_cache_is_message_free() {
        let r = run_one(0.3, 16);
        assert!(r.aborts > 0);
        assert!(
            r.msgs_per_abort <= 0.5,
            "rollback should be local, got {} msgs/abort",
            r.msgs_per_abort
        );
    }

    #[test]
    fn clrs_are_written_for_undone_work() {
        let r = run_one(0.5, 16);
        assert!(r.clrs > 0, "undo must log compensation records");
    }
}
