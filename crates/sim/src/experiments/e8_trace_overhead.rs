//! E8b — tracing overhead.
//!
//! The causal tracer is an observer: it charges no sim-time and draws
//! no randomness. Its only accounted effect is the 16-byte span
//! context each protocol message carries while tracing is on. This
//! experiment runs the same E1-style multi-client workload with
//! tracing off and on and reports the deltas — the off row must be
//! bit-identical to the pre-tracing seed (same messages, bytes,
//! sim-time), and the on row may differ only by header bytes.

use super::{cbl_builder, pages0};
use crate::driver::run_workload;
use crate::report::{f, Table};
use crate::workload::{generate, WorkloadConfig};
use cblog_common::NodeId;
use cblog_core::Cluster;

const CLIENTS: usize = 4;

/// One measured run (tracing off or on).
pub struct OverheadRow {
    /// Was the tracer enabled?
    pub traced: bool,
    /// Committed transactions.
    pub committed: u64,
    /// Total simulated time, µs.
    pub sim_us: u64,
    /// Total protocol messages.
    pub msgs: u64,
    /// Total network bytes (headers included).
    pub bytes: u64,
    /// Spans retained by the tracer (0 when off).
    pub spans: usize,
    /// Spans dropped past the capacity bound.
    pub dropped: u64,
}

/// Runs the workload with tracing `traced` and returns the accounting.
pub fn run_one(traced: bool) -> OverheadRow {
    let mut c = Cluster::new(cbl_builder(CLIENTS, 8, 16).tracing(traced).build())
        .expect("cluster config valid");
    let cfg = WorkloadConfig {
        txns_per_client: 25,
        ops_per_txn: 4,
        write_ratio: 0.7,
        seed: 11,
        ..WorkloadConfig::default()
    };
    let ids: Vec<NodeId> = (1..=CLIENTS as u32).map(NodeId).collect();
    let specs = generate(&cfg, &ids, &pages0(8), None);
    let stats = run_workload(&mut c, specs).expect("workload");
    let trace = c.tracer().snapshot();
    OverheadRow {
        traced,
        committed: stats.committed,
        sim_us: stats.sim_time,
        msgs: stats.net.total_messages(),
        bytes: stats.net.total_bytes(),
        spans: trace.len(),
        dropped: trace.dropped(),
    }
}

/// The off/on comparison table.
pub fn run() -> Table {
    let mut t = Table::new(
        "E8b trace overhead (same workload, tracing off vs on)",
        &[
            "tracing",
            "committed",
            "sim ms",
            "msgs",
            "net bytes",
            "spans",
            "sim overhead %",
            "byte overhead %",
        ],
    );
    let off = run_one(false);
    let on = run_one(true);
    let pct = |a: u64, b: u64| {
        if b == 0 {
            0.0
        } else {
            (a as f64 - b as f64) * 100.0 / b as f64
        }
    };
    for row in [&off, &on] {
        t.row(vec![
            if row.traced { "on" } else { "off" }.to_string(),
            row.committed.to_string(),
            f(row.sim_us as f64 / 1000.0),
            row.msgs.to_string(),
            row.bytes.to_string(),
            row.spans.to_string(),
            f(pct(row.sim_us, off.sim_us)),
            f(pct(row.bytes, off.bytes)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_off_is_free_and_deterministic() {
        let a = run_one(false);
        let b = run_one(false);
        assert_eq!(a.sim_us, b.sim_us, "untraced runs are bit-identical");
        assert_eq!(a.msgs, b.msgs);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.spans, 0, "disabled tracer records nothing");
        assert_eq!(a.dropped, 0);
    }

    #[test]
    fn tracing_on_changes_only_header_bytes() {
        let off = run_one(false);
        let on = run_one(true);
        assert_eq!(on.committed, off.committed, "same outcome");
        assert_eq!(on.msgs, off.msgs, "tracing sends no extra messages");
        assert!(on.spans > 0, "spans recorded");
        assert!(
            on.bytes >= off.bytes,
            "traced messages carry the 16B span context"
        );
        let extra = on.bytes - off.bytes;
        assert_eq!(extra % 16, 0, "delta is whole headers: {extra}");
        // Acceptance bound from the issue: well under 2% in sim-time.
        let overhead = (on.sim_us as f64 - off.sim_us as f64) / off.sim_us as f64;
        assert!(
            overhead.abs() < 0.02,
            "trace overhead {:.3}% exceeds 2%",
            overhead * 100.0
        );
    }

    #[test]
    fn table_has_off_and_on_rows() {
        let t = run();
        assert_eq!(t.len(), 2);
        let json = t.to_json();
        assert!(json.contains("sim overhead %"));
    }
}
