//! Canonical metric names.
//!
//! Every registry key in the workspace lives here as a `const`, so a
//! typo in a metric name is a compile error instead of a silently
//! fresh counter. Names follow the `subsystem/metric` convention the
//! registry documents; cluster snapshots prefix them with `n<id>/`.

/// The canonical registry key for every metric in the workspace.
pub mod keys {
    // ---- write-ahead log ----
    /// Log records appended.
    pub const WAL_RECORDS: &str = "wal/records";
    /// Log forces (synchronous flushes).
    pub const WAL_FORCES: &str = "wal/forces";
    /// Log bytes appended.
    pub const WAL_BYTES: &str = "wal/bytes";
    /// Backing-store syncs performed by the log.
    pub const WAL_STORE_SYNCS: &str = "wal/store_syncs";
    /// Torn log-tail bytes discarded by checksum repair at restart.
    pub const WAL_TORN_BYTES: &str = "wal/torn_bytes";
    /// Histogram: simulated duration of one log force, µs.
    pub const WAL_FORCE_US: &str = "wal/force_us";
    /// Histogram: commit records covered per group-commit force.
    pub const WAL_GROUP_SIZE: &str = "wal/group_size";
    /// Histogram: commit-force latency, µs.
    pub const WAL_COMMIT_FORCE_US: &str = "wal/commit_force_us";
    /// Gauge: forces per commit ×1000 (running ratio).
    pub const WAL_FORCES_PER_COMMIT: &str = "wal/forces_per_commit";
    /// Gauge: group-commit window currently chosen by the force
    /// scheduler, sim-µs (resized per batch under the adaptive policy).
    pub const WAL_WINDOW_US: &str = "wal/window_us";
    /// Bytes rescanned by torn-tail repair at restart (O(torn tail),
    /// not O(log) — the scan starts at the last synced boundary).
    pub const WAL_REPAIR_SCAN_BYTES: &str = "wal/repair_scan_bytes";
    /// Gauge: commits queued in the force scheduler awaiting their
    /// group force — the commit-pipeline queue depth.
    pub const WAL_PENDING_COMMITS: &str = "wal/pending_commits";
    /// Histogram: wall-clock duration of one `fdatasync` in the
    /// file-backed log store, µs. Only file-backed WALs register it
    /// (the in-memory store has no sync to time), so sim exports stay
    /// byte-deterministic.
    pub const WAL_FSYNC_US: &str = "wal/fsync_us";

    // ---- simulated-time profiler (DESIGN §11) ----
    /// Gauge: cumulative sim-time attributed to disk I/O, µs.
    pub const PROF_DISK_US: &str = "prof/disk_us";
    /// Gauge: cumulative sim-time attributed to plain CPU work, µs.
    pub const PROF_CPU_US: &str = "prof/cpu_us";
    /// Gauge: cumulative sim-time attributed to message handling, µs.
    pub const PROF_NET_US: &str = "prof/net_us";
    /// Gauge: cumulative sim-time spent blocked on locks, µs.
    pub const PROF_LOCK_WAIT_US: &str = "prof/lock_wait_us";
    /// Gauge: cumulative sim-time attributed to crash recovery, µs.
    pub const PROF_REPLAY_US: &str = "prof/replay_us";

    // ---- crash recovery (DESIGN §13) ----
    /// Gauge: replay waves in the last recovery's `ReplayPlan`.
    pub const RECOVERY_REPLAY_WAVES: &str = "recovery/replay_waves";
    /// Gauge: PSN count along the plan's critical path — the lower
    /// bound on replay work no amount of parallelism removes.
    pub const RECOVERY_CRITICAL_PATH_PSNS: &str = "recovery/critical_path_psns";
    /// Histogram: replay units per wave (wave width).
    pub const RECOVERY_WAVE_WIDTH: &str = "recovery/wave_width";

    // ---- buffer pool ----
    /// Buffer hits.
    pub const BUF_HITS: &str = "buf/hits";
    /// Buffer misses.
    pub const BUF_MISSES: &str = "buf/misses";
    /// Evictions.
    pub const BUF_EVICTIONS: &str = "buf/evictions";
    /// Dirty pages stolen (replaced to their owner while dirty).
    pub const BUF_DIRTY_STEALS: &str = "buf/dirty_steals";

    // ---- database (page store) ----
    /// Page reads from disk.
    pub const DB_READS: &str = "db/reads";
    /// Page writes to disk.
    pub const DB_WRITES: &str = "db/writes";
    /// Store syncs.
    pub const DB_SYNCS: &str = "db/syncs";

    // ---- transactions ----
    /// Commits.
    pub const TXN_COMMITS: &str = "txn/commits";
    /// Aborts.
    pub const TXN_ABORTS: &str = "txn/aborts";

    // ---- locking ----
    /// Lock acquisitions.
    pub const LOCKS_ACQUISITIONS: &str = "locks/acquisitions";
    /// Lock requests that had to wait.
    pub const LOCKS_WAITS: &str = "locks/waits";
    /// Histogram: lock wait time, µs.
    pub const LOCKS_WAIT_US: &str = "locks/wait_us";
    /// Deadlocks broken.
    pub const LOCKS_DEADLOCKS: &str = "locks/deadlocks";

    // ---- B+-tree access method ----
    /// Root-to-leaf traversals.
    pub const ACCESS_TRAVERSES: &str = "access/traverses";
    /// Leaf splits.
    pub const ACCESS_SPLITS: &str = "access/splits";
    /// Leaf merges.
    pub const ACCESS_MERGES: &str = "access/merges";
}

/// The profiler gauge key for `bucket` (see the `prof/*` keys).
pub fn prof_key(bucket: crate::simclock::Bucket) -> &'static str {
    use crate::simclock::Bucket;
    match bucket {
        Bucket::Disk => keys::PROF_DISK_US,
        Bucket::Cpu => keys::PROF_CPU_US,
        Bucket::Net => keys::PROF_NET_US,
        Bucket::LockWait => keys::PROF_LOCK_WAIT_US,
        Bucket::Replay => keys::PROF_REPLAY_US,
    }
}

#[cfg(test)]
mod tests {
    use super::keys;

    #[test]
    fn prof_keys_follow_bucket_labels() {
        use crate::simclock::Bucket;
        for b in Bucket::ALL {
            assert_eq!(super::prof_key(b), format!("prof/{}_us", b.label()));
        }
    }

    #[test]
    fn key_names_are_unique_and_well_formed() {
        let all = [
            keys::WAL_RECORDS,
            keys::WAL_FORCES,
            keys::WAL_BYTES,
            keys::WAL_STORE_SYNCS,
            keys::WAL_TORN_BYTES,
            keys::WAL_FORCE_US,
            keys::WAL_GROUP_SIZE,
            keys::WAL_COMMIT_FORCE_US,
            keys::WAL_FORCES_PER_COMMIT,
            keys::WAL_WINDOW_US,
            keys::WAL_REPAIR_SCAN_BYTES,
            keys::WAL_PENDING_COMMITS,
            keys::WAL_FSYNC_US,
            keys::PROF_DISK_US,
            keys::PROF_CPU_US,
            keys::PROF_NET_US,
            keys::PROF_LOCK_WAIT_US,
            keys::PROF_REPLAY_US,
            keys::RECOVERY_REPLAY_WAVES,
            keys::RECOVERY_CRITICAL_PATH_PSNS,
            keys::RECOVERY_WAVE_WIDTH,
            keys::BUF_HITS,
            keys::BUF_MISSES,
            keys::BUF_EVICTIONS,
            keys::BUF_DIRTY_STEALS,
            keys::DB_READS,
            keys::DB_WRITES,
            keys::DB_SYNCS,
            keys::TXN_COMMITS,
            keys::TXN_ABORTS,
            keys::LOCKS_ACQUISITIONS,
            keys::LOCKS_WAITS,
            keys::LOCKS_WAIT_US,
            keys::LOCKS_DEADLOCKS,
            keys::ACCESS_TRAVERSES,
            keys::ACCESS_SPLITS,
            keys::ACCESS_MERGES,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in all {
            assert!(seen.insert(k), "duplicate key {k}");
            let (subsystem, metric) = k.split_once('/').expect("subsystem/metric shape");
            assert!(!subsystem.is_empty() && !metric.is_empty(), "{k}");
            assert!(
                k.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '/' || c == '_'),
                "{k} uses lowercase, '/', '_' only"
            );
        }
    }
}
