//! The metrics, by name: how each is read off a trial, and how trials
//! are summarised. `BENCHMARK.json` lists the same names, units and
//! directions; `--quick` checks that the two agree.

use crate::trial::Trial;
use cblog_common::metrics::keys;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A time the host's interference can only make worse: the headline
    /// of a run is the favourable quartile of its trials, not the median.
    pub timed: bool,
    pub of: fn(&Trial) -> f64,
}

const fn lower(name: &'static str, unit: &'static str, of: fn(&Trial) -> f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        timed: false,
        of,
    }
}

const fn higher(name: &'static str, unit: &'static str, of: fn(&Trial) -> f64) -> Metric {
    Metric {
        higher_is_better: true,
        ..lower(name, unit, of)
    }
}

impl Metric {
    const fn timed(self) -> Metric {
        Metric {
            timed: true,
            ..self
        }
    }

    /// The value a run reports for this metric, from its trials.
    pub fn headline(&self, trials: &[Trial]) -> f64 {
        let values: Vec<f64> = trials.iter().map(self.of).collect();
        let s = summarize(&values);
        match (self.timed, self.higher_is_better) {
            (false, _) => s.median,
            (true, true) => s.q3,
            (true, false) => s.q1,
        }
    }
}

fn per_commit(x: u64, t: &Trial) -> f64 {
    x as f64 / t.commits.max(1) as f64
}

/// Sum over nodes of the counter `key` in `Runtime::metrics`.
fn counter(t: &Trial, key: &str) -> u64 {
    (0..t.nodes.len())
        .map(|n| t.metrics.counter(&format!("n{n}/{key}")))
        .sum()
}

fn nodes(t: &Trial, of: fn(&cblog_rt::RtNodeStats) -> u64) -> u64 {
    t.nodes.iter().map(of).sum()
}

/// What a user of the engine sees. Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    higher("commits_per_s", "1/s", |t| t.commits as f64 / t.run_s).timed(),
    lower("commit_p50_us", "us", |t| t.p50_us as f64).timed(),
    lower("commit_tail_ratio", "ratio", |t| {
        t.p95_us as f64 / t.p50_us.max(1) as f64
    }),
    lower("recover_s", "s", |t| t.recover_s).timed(),
    lower("cpu_us_per_commit", "us", |t| per_commit(t.cpu_us, t)).timed(),
    lower("forces_per_commit", "count", |t| {
        per_commit(t.stats.forces, t)
    }),
    lower("log_bytes_per_commit", "bytes", |t| {
        per_commit(counter(t, keys::WAL_BYTES), t)
    }),
    lower("peak_rss_mb", "MB", |t| t.peak_rss_mb),
    lower("setup_s", "s", |t| t.setup_s).timed(),
];

/// End-to-end too, and printed with the rest, but not gated.
/// `commit_p95_us` follows the device's tail from minute to minute: its
/// spread over ten runs reaches the widest bound the contract allows,
/// so the gated tail metric is its ratio to the median, in which the
/// drift cancels, and the raw value is also a layer metric. The other
/// two are 0 when all is well, which the contract does not admit:
/// `failed_share` reaches the driver as `failed`/`attempted`, and a
/// message on a workload without remote reads makes the run incorrect.
pub const END_TO_END_UNGATED: &[Metric] = &[
    lower("commit_p95_us", "us", |t| t.p95_us as f64),
    lower("failed_share", "share", |t| {
        t.failed as f64 / t.attempted as f64
    }),
    lower("msgs_per_commit", "count", |t| per_commit(t.stats.msgs, t)),
];

/// Per-layer metrics read from the engine's public statistics after an
/// untraced run (source S in the README). Layer = crate.
pub const LAYER_STATS: &[Metric] = &[
    // rt: the worker threads' own wall-time split, summed over nodes.
    lower("rt.disk_us_per_commit", "us", |t| {
        per_commit(nodes(t, |n| n.disk_us), t)
    }),
    lower("rt.cpu_us_per_commit", "us", |t| {
        per_commit(nodes(t, |n| n.cpu_us), t)
    }),
    lower("rt.net_us_per_commit", "us", |t| {
        per_commit(nodes(t, |n| n.net_us), t)
    }),
    lower("rt.lock_wait_us_per_commit", "us", |t| {
        per_commit(nodes(t, |n| n.lock_wait_us), t)
    }),
    lower("rt.idle_us_per_commit", "us", |t| {
        per_commit(
            nodes(t, |n| n.wall_us.saturating_sub(n.busy_us + n.lock_wait_us)),
            t,
        )
    }),
    higher("rt.busy_share", "share", |t| {
        nodes(t, |n| n.busy_us) as f64 / nodes(t, |n| n.wall_us).max(1) as f64
    }),
    lower("rt.forced_aborts", "count", |t| t.forced_aborts as f64),
    lower("rt.commit_p95_us", "us", |t| t.p95_us as f64),
    lower("rt.commit_p99_us", "us", |t| t.p99_us as f64),
    // wal
    lower("wal.forces", "count", |t| t.stats.forces as f64),
    lower("wal.store_syncs", "count", |t| {
        counter(t, keys::WAL_STORE_SYNCS) as f64
    }),
    lower("wal.records", "count", |t| {
        counter(t, keys::WAL_RECORDS) as f64
    }),
    lower("wal.bytes", "bytes", |t| counter(t, keys::WAL_BYTES) as f64),
    higher("wal.group_size_mean", "count", |t| {
        t.commits as f64 / t.stats.forces.max(1) as f64
    }),
    lower("wal.fsync_p50_us", "us", |t| {
        // Node 0's log; the in-memory store has no sync to time.
        t.metrics
            .histogram(&format!("n0/{}", keys::WAL_FSYNC_US))
            .map_or(0.0, |h| h.p50() as f64)
    }),
    // locks
    lower("locks.wait_share", "share", |t| {
        nodes(t, |n| n.lock_wait_us) as f64 / nodes(t, |n| n.wall_us).max(1) as f64
    }),
    // storage
    higher("storage.buf_hits", "count", |t| {
        counter(t, keys::BUF_HITS) as f64
    }),
    lower("storage.buf_misses", "count", |t| {
        counter(t, keys::BUF_MISSES) as f64
    }),
    lower("storage.buf_evictions", "count", |t| {
        counter(t, keys::BUF_EVICTIONS) as f64
    }),
    lower("storage.db_reads", "count", |t| {
        counter(t, keys::DB_READS) as f64
    }),
    lower("storage.db_writes", "count", |t| {
        counter(t, keys::DB_WRITES) as f64
    }),
    // net
    lower("net.msgs", "count", |t| t.stats.msgs as f64),
    lower("net.msgs_per_commit", "count", |t| {
        per_commit(t.stats.msgs, t)
    }),
    // core: the phases of `RecoveryReport`.
    lower("core.recovery_analysis_us", "us", |t| {
        t.recovery.timings.analysis_us() as f64
    }),
    lower("core.recovery_psn_lists_us", "us", |t| {
        t.recovery.timings.psn_lists_us() as f64
    }),
    lower("core.recovery_replay_us", "us", |t| {
        t.recovery.timings.replay_us() as f64
    }),
    lower("core.recovery_apply_serial_us", "us", |t| {
        waves(t, |w| w.serial_us)
    }),
    lower("core.recovery_apply_makespan_us", "us", |t| {
        waves(t, |w| w.makespan_us)
    }),
    lower("core.recovery_undo_us", "us", |t| {
        t.recovery.timings.undo_us() as f64
    }),
    lower("core.recovery_records_replayed", "count", |t| {
        t.recovery.records_replayed as f64
    }),
    lower("core.recovery_log_bytes_scanned", "bytes", |t| {
        t.recovery.log_bytes_scanned as f64
    }),
    higher("core.recovery_scan_mb_per_s", "MB/s", |t| {
        // The analysis pass reads exactly `log_bytes_scanned`.
        t.recovery.log_bytes_scanned as f64 / t.recovery.timings.analysis_us().max(1) as f64
    }),
    lower("core.recovery_waves", "count", |t| {
        t.recovery.replay_waves as f64
    }),
];

fn waves(t: &Trial, of: fn(&cblog_core::WaveTiming) -> u64) -> f64 {
    t.recovery
        .timings
        .replay_waves()
        .iter()
        .map(of)
        .sum::<u64>() as f64
}

/// Sum of the recovery phases the report times, s.
pub fn recovery_phases_s(t: &Trial) -> f64 {
    t.recovery.timings.total_us() as f64 / 1e6
}

/// Median, quartiles (as Python's `statistics.quantiles(v, n=4)`, but
/// kept inside the sample's range) and minimum of a sample.
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    // The "exclusive" method: quantile i of 4 sits at rank i(n+1)/4.
    let at = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let rank = (i * (n + 1)) as f64 / 4.0;
        let lo = (rank.floor() as usize).clamp(1, n - 1);
        (v[lo - 1] + (rank - lo as f64) * (v[lo] - v[lo - 1])).clamp(v[0], v[n - 1])
    };
    Summary {
        median: at(2),
        q1: at(1),
        q3: at(3),
        min: v[0],
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}
