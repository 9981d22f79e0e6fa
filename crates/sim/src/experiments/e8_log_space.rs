//! E8 — log space management (paper §2.5).
//!
//! A client with a small bounded log hammers updates to remote pages.
//! When the log fills, the §2.5 protocol replaces the minimum-RedoLSN
//! page, asks the owner to force it, and advances the truncation point
//! on the flush acknowledgment. The workload must complete regardless
//! of log size; the cost shows up as force requests and flush-acks.

use super::{cbl_cluster_opts, pages0};
use crate::report::{f, Table};
use cblog_common::NodeId;
use cblog_core::Paradigm;
use cblog_net::MsgKind;

const TXNS: u64 = 150;

/// Sweeps the client log capacity.
pub fn run() -> Table {
    let mut t = Table::new(
        "E8 log space protocol under bounded client logs (150 txns)",
        &[
            "log capacity B",
            "committed",
            "force-reqs",
            "flush-acks",
            "replace-pages",
            "owner disk IOs",
        ],
    );
    for cap in [4096u64, 8192, 16384, 65536] {
        let r = run_one(cap);
        t.row(vec![
            cap.to_string(),
            r.committed.to_string(),
            r.force_reqs.to_string(),
            r.flush_acks.to_string(),
            r.replaces.to_string(),
            f(r.owner_ios as f64),
        ]);
    }
    t
}

/// Measured quantities of one bounded-log run.
pub struct SpaceRow {
    /// Committed transactions (must equal the offered load).
    pub committed: u64,
    /// §2.5 force requests sent.
    pub force_reqs: u64,
    /// Flush acknowledgments received.
    pub flush_acks: u64,
    /// Dirty replacements shipped to the owner.
    pub replaces: u64,
    /// Owner disk writes.
    pub owner_ios: u64,
}

/// Runs the bounded-log workload at one capacity.
pub fn run_one(cap: u64) -> SpaceRow {
    let mut c = cbl_cluster_opts(1, 8, 16, Some(cap), Paradigm::ClientBased);
    let pages = pages0(8);
    let client = NodeId(1);
    let mut committed = 0u64;
    for i in 0..TXNS {
        let t = c.begin(client).expect("begin");
        let p = pages[(i % 8) as usize];
        c.write_u64(t, p, (i % 16) as usize, i).expect("write");
        c.commit(t).expect("commit");
        committed += 1;
    }
    let s = c.network().stats();
    SpaceRow {
        committed,
        force_reqs: s.count(MsgKind::ForceRequest),
        flush_acks: s.count(MsgKind::FlushAck),
        replaces: s.count(MsgKind::ReplacePage),
        owner_ios: c.network().disk_ios_of(NodeId(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_completes_even_with_tiny_log() {
        let r = run_one(4096);
        assert_eq!(r.committed, TXNS);
        assert!(r.force_reqs > 0, "space protocol must have fired");
        assert!(r.flush_acks > 0);
    }

    #[test]
    fn bigger_logs_need_fewer_forced_flushes() {
        let small = run_one(4096);
        let big = run_one(65536);
        assert!(
            small.force_reqs > big.force_reqs,
            "small {} vs big {}",
            small.force_reqs,
            big.force_reqs
        );
        assert_eq!(big.committed, TXNS);
    }
}
