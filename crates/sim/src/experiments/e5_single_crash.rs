//! E5 — single-node crash recovery cost.
//!
//! Paper §2.3 and contribution (3): "local log files are never merged
//! during the recovery process". The owner crashes with `d` pages whose
//! current images exist only in its (lost) buffer; recovery replays
//! each page from the involved clients' logs in PSN order. The
//! comparator is the analytic cost of merge-based recovery
//! (Mohan–Narang fast schemes): *every* node's log tail must be read
//! and shipped, regardless of how many pages actually need recovery.

use super::{cbl_cluster, pages0};
use crate::logmerge::log_merge_cost;
use crate::report::{f, Table};
use cblog_common::metrics::keys;
use cblog_common::{HistogramSnapshot, NodeId, PageId};
use cblog_core::recovery::recover;
use cblog_core::Cluster;
use cblog_core::{PhaseTimings, RecoveryOptions};

const CLIENTS: usize = 2;
/// Unrelated committed transactions by a third, uninvolved client.
/// Its updates are flushed (and flush-acked) before the crash, so the
/// paper's protocol never opens its log — but a merge-based scheme
/// still reads and ships its whole tail.
const NOISE_TXNS: u64 = 40;

/// Sweeps the number of dirty pages at crash time.
pub fn run() -> Table {
    let mut t = Table::new(
        "E5 single crash (owner): NodePSNList recovery vs log-merge model",
        &[
            "dirty pages",
            "pages replayed",
            "records replayed",
            "rec messages",
            "cbl bytes scanned",
            "merge bytes read",
            "merge msgs",
        ],
    );
    for d in [1u32, 2, 4, 8, 16, 32] {
        let row = run_one(d);
        t.row(vec![
            d.to_string(),
            row.pages.to_string(),
            row.records.to_string(),
            row.messages.to_string(),
            f(row.bytes_scanned as f64),
            f(row.merge_bytes as f64),
            row.merge_msgs.to_string(),
        ]);
    }
    t
}

/// Companion table: where the restart time goes (per-phase sim-time
/// from `RecoveryReport::timings`) plus the clients' commit-force
/// latency distribution (`wal/commit_force_us`) for the same runs.
pub fn run_timings() -> Table {
    let mut t = Table::new(
        "E5b single crash: recovery phase timings and commit-force latency",
        &[
            "dirty pages",
            "analysis us",
            "info_exchange us",
            "lock_rebuild us",
            "recovery_sets us",
            "recovery_locks us",
            "psn_lists us",
            "replay us",
            "undo us",
            "total us",
            "commit force p50us",
            "commit force p95us",
            "commit force p99us",
        ],
    );
    for d in [1u32, 4, 16] {
        let row = run_one(d);
        let tm = &row.timings;
        t.row(vec![
            d.to_string(),
            tm.analysis_us().to_string(),
            tm.info_exchange_us().to_string(),
            tm.lock_rebuild_us().to_string(),
            tm.recovery_sets_us().to_string(),
            tm.recovery_locks_us().to_string(),
            tm.psn_lists_us().to_string(),
            tm.replay_us().to_string(),
            tm.undo_us().to_string(),
            tm.total_us().to_string(),
            row.commit_force_us.p50().to_string(),
            row.commit_force_us.p95().to_string(),
            row.commit_force_us.p99().to_string(),
        ]);
    }
    t
}

/// One crash/recovery measurement.
pub struct CrashRow {
    /// Pages replayed via NodePSNList.
    pub pages: usize,
    /// Records re-applied.
    pub records: u64,
    /// Recovery messages.
    pub messages: u64,
    /// Log bytes scanned by the paper's protocol.
    pub bytes_scanned: u64,
    /// Bytes a merge-based scheme would read.
    pub merge_bytes: u64,
    /// Messages a merge-based scheme would send.
    pub merge_msgs: u64,
    /// Per-phase sim-time of the recovery run.
    pub timings: PhaseTimings,
    /// Commit-force latency distribution of client 1's registry over
    /// the pre-crash workload.
    pub commit_force_us: HistogramSnapshot,
}

/// Dirty `d` pages via client transactions, push the images to the
/// owner's buffer, crash the owner, recover.
pub fn run_one(d: u32) -> CrashRow {
    // Three clients: 1 and 2 produce the recovery-relevant updates;
    // client 3 produces unrelated flushed noise on separate pages.
    let mut c = cbl_cluster(
        CLIENTS + 1,
        d.max(1) + NOISE_PAGES,
        (d as usize + 6).max(12),
    );
    run_on(&mut c, d)
}

/// Cluster shape [`run_one`] uses for `d` dirty pages — exposed so the
/// tracedump scenarios can rebuild it with tracing enabled.
pub fn shape(d: u32) -> (usize, u32, usize) {
    (
        CLIENTS + 1,
        d.max(1) + NOISE_PAGES,
        (d as usize + 6).max(12),
    )
}

const NOISE_PAGES: u32 = 4;

/// Drives the E5 scenario on a caller-provided cluster of the matching
/// [`shape`]: noise workload, dirty pages, owner crash, recovery.
pub fn run_on(c: &mut Cluster, d: u32) -> CrashRow {
    workload(c, d);
    let merge = log_merge_cost(c, &[NodeId(0)]);
    let commit_force_us = c
        .node(NodeId(1))
        .registry()
        .histogram(keys::WAL_COMMIT_FORCE_US)
        .snapshot();
    c.crash(NodeId(0));
    let rep = recover(c, &RecoveryOptions::single(NodeId(0))).expect("recovery");
    CrashRow {
        pages: rep.pages_recovered,
        records: rep.records_replayed,
        messages: rep.messages,
        bytes_scanned: rep.log_bytes_scanned,
        merge_bytes: merge.bytes_read,
        merge_msgs: merge.messages,
        timings: rep.timings,
        commit_force_us,
    }
}

/// The pre-crash E5 workload (noise + `d` dirty pages) without the
/// crash or the recovery — shared by [`run_on`] and E9b, which crashes
/// the same scene and recovers it under different
/// [`cblog_core::ReplayMode`]s.
pub fn workload(c: &mut Cluster, d: u32) {
    let noise_pages = NOISE_PAGES;
    let pages = pages0(d);
    // Noise first: committed, then forced to the owner's disk and
    // flush-acked, so client 3 ends with an empty DPT and is not
    // involved in any recovery.
    let noise_client = NodeId(CLIENTS as u32 + 1);
    for i in 0..NOISE_TXNS {
        let t = c.begin(noise_client).unwrap();
        let p = PageId::new(NodeId(0), d.max(1) + (i % noise_pages as u64) as u32);
        c.write_u64(t, p, (i % 8) as usize, i).unwrap();
        c.commit(t).unwrap();
    }
    for i in 0..noise_pages {
        c.force_page(PageId::new(NodeId(0), d.max(1) + i)).unwrap();
    }
    assert!(
        c.node(noise_client).dpt().is_empty(),
        "noise client fully flushed"
    );
    dirty_pages(c, &pages);
}

fn dirty_pages(c: &mut Cluster, pages: &[PageId]) {
    // Each page gets interleaved committed updates from both clients,
    // then the final holder's copy is evicted to the owner's buffer so
    // the crash loses the only current image.
    for (i, p) in pages.iter().enumerate() {
        for round in 0..2u64 {
            for cl in 1..=CLIENTS as u32 {
                let t = c.begin(NodeId(cl)).unwrap();
                c.write_u64(
                    t,
                    *p,
                    (round as usize + cl as usize) % 8,
                    i as u64 + round + cl as u64,
                )
                .unwrap();
                c.commit(t).unwrap();
            }
        }
        let holder = NodeId(CLIENTS as u32);
        c.evict_page(holder, *p).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::RecoveryPhase;

    #[test]
    fn recovery_work_scales_with_dirty_pages_only() {
        let small = run_one(2);
        let big = run_one(16);
        assert!(big.pages > small.pages);
        assert!(big.records > small.records);
        assert!(big.messages > small.messages);
    }

    #[test]
    fn phase_timings_and_force_histogram_are_populated() {
        let row = run_one(4);
        let phases: u64 = RecoveryPhase::ALL.iter().map(|&p| row.timings.us(p)).sum();
        assert_eq!(phases, row.timings.total_us(), "all nine phases timed");
        assert!(
            row.timings.replay_us() > 0,
            "replay moves pages, so it costs sim-time"
        );
        assert!(row.commit_force_us.count > 0, "commits recorded forces");
        assert!(row.commit_force_us.p50() > 0);
        let t = run_timings();
        assert_eq!(t.len(), 3);
        let json = t.to_json();
        assert!(json.contains("replay us"));
        assert!(json.contains("commit force p99us"));
    }

    #[test]
    fn merge_model_reads_uninvolved_logs_targeted_replay_does_not() {
        let row = run_one(4);
        assert!(row.pages >= 4);
        // The uninvolved client's log tail (40 committed txns) is read
        // and shipped by the merge scheme but never opened by the
        // paper's protocol: the gap must be substantial, not marginal.
        assert!(
            row.merge_bytes > row.bytes_scanned + 2000,
            "merge reads uninvolved logs: merge {} vs targeted {}",
            row.merge_bytes,
            row.bytes_scanned
        );
    }
}
