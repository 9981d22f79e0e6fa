//! E7 — fault injection: unreliable network and torn log tails.
//!
//! The paper assumes reliable delivery and atomic log forces; this
//! experiment measures what the protocols pay to *provide* those
//! assumptions on faulty hardware. A seeded [`FaultPlan`] drops,
//! delays, duplicates and reorders messages, and tears the unsynced
//! log tail at crash time. Bounded retries mask message loss; checksum
//! tail-repair discards the torn suffix at restart. The sweep reports,
//! per fault probability, the workload overhead (retries), the crash
//! damage (torn bytes) and the recovery bill (messages, sim-time) —
//! with the committed state oracle-verified end to end.

use super::{cbl_cluster_faults, pages0};
use crate::driver::run_workload;
use crate::report::Table;
use crate::workload::{generate, WorkloadConfig};
use cblog_common::NodeId;
use cblog_core::recovery::recover;
use cblog_core::{FaultPlan, RecoveryOptions};

const CLIENTS: usize = 2;
const PAGES: u32 = 8;

/// Sweeps the fault probability.
pub fn run() -> Table {
    let mut t = Table::new(
        "E7 faults: loss/tear probability vs recovery time and message overhead",
        &[
            "fault prob",
            "committed",
            "drops",
            "retries",
            "torn bytes",
            "rec messages",
            "rec retries",
            "rec time us",
            "verified slots",
        ],
    );
    for (i, p) in [0.0f64, 0.01, 0.05, 0.1, 0.2].into_iter().enumerate() {
        let row = run_one(p, 0xE7 + i as u64);
        t.row(vec![
            format!("{p:.2}"),
            row.committed.to_string(),
            row.drops.to_string(),
            row.retries.to_string(),
            row.torn_bytes.to_string(),
            row.rec_messages.to_string(),
            row.rec_retries.to_string(),
            row.rec_time_us.to_string(),
            row.verified.to_string(),
        ]);
    }
    t
}

/// One measured run at fault probability `p`.
pub struct FaultRow {
    /// Transactions committed (all of them — faults never lose one).
    pub committed: u64,
    /// Messages the injector dropped across the whole run.
    pub drops: u64,
    /// Reliable-send retries during the workload.
    pub retries: u64,
    /// Torn log-tail bytes discarded by checksum repair at restart.
    pub torn_bytes: u64,
    /// Messages exchanged by the recovery protocol.
    pub rec_messages: u64,
    /// Reliable-send retries during recovery.
    pub rec_retries: u64,
    /// Simulated recovery time (sum over protocol phases), µs.
    pub rec_time_us: u64,
    /// Slots the committed-state oracle verified after recovery.
    pub verified: usize,
}

/// Workload under faults → owner crash (torn tail possible) →
/// recovery under faults → oracle verification.
pub fn run_one(p: f64, seed: u64) -> FaultRow {
    let plan = FaultPlan::new(seed)
        .with_drop(p)
        .with_delay(p, 150)
        .with_duplicate(p / 2.0)
        .with_reorder(p / 2.0)
        .with_tear(if p > 0.0 { 1.0 } else { 0.0 });
    let mut c = cbl_cluster_faults(CLIENTS, PAGES, 16, plan);
    let cfg = WorkloadConfig {
        txns_per_client: 30,
        ops_per_txn: 4,
        write_ratio: 0.8,
        seed: 0x5EED ^ seed,
        ..WorkloadConfig::default()
    };
    let clients: Vec<NodeId> = (1..=CLIENTS as u32).map(NodeId).collect();
    let specs = generate(&cfg, &clients, &pages0(PAGES), None);
    let stats = run_workload(&mut c, specs).expect("workload survives faults");
    // Leave an uncommitted update in the owner's unsynced tail so the
    // tear has live bytes to bite; its transaction is a loser either
    // way, so recovery discards it torn or not.
    let loser = c.begin(NodeId(0)).unwrap();
    c.write_u64(loser, pages0(PAGES)[0], 7, 0xDEAD).unwrap();
    let retries = stats.faults.retries;
    c.crash(NodeId(0));
    let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).expect("recovery");
    let after = c.network().fault_stats();
    let verified = stats.oracle.verify(&mut c, NodeId(1)).expect("oracle");
    FaultRow {
        committed: stats.report.committed,
        drops: after.dropped,
        retries,
        torn_bytes: rep.torn_bytes_discarded,
        rec_messages: rep.messages,
        rec_retries: after.retries.saturating_sub(retries),
        rec_time_us: rep.timings.total_us(),
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_run_has_zero_overhead() {
        let row = run_one(0.0, 1);
        assert_eq!(row.committed, 60);
        assert_eq!(row.drops, 0);
        assert_eq!(row.retries, 0);
        assert_eq!(row.torn_bytes, 0);
        assert!(row.verified > 0);
    }

    #[test]
    fn lossy_run_commits_everything_and_verifies() {
        let row = run_one(0.1, 2);
        assert_eq!(row.committed, 60, "faults never lose a commit");
        assert!(row.drops > 0, "injector actually fired");
        assert!(row.retries > 0, "drops were masked by retries");
        assert!(row.verified > 0);
    }

    #[test]
    fn lossy_recovery_costs_more_messages_than_clean() {
        let clean = run_one(0.0, 3);
        let lossy = run_one(0.2, 3);
        assert!(
            lossy.rec_messages + lossy.rec_retries >= clean.rec_messages,
            "retransmissions add message overhead: clean {} vs lossy {}+{}",
            clean.rec_messages,
            lossy.rec_messages,
            lossy.rec_retries
        );
    }
}
