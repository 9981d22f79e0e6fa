//! One trial: fresh cluster → timed run → crash → timed recovery →
//! read-back against the generator's oracle. Everything is measured
//! from outside the program: `Instant` around public calls, public
//! accessors, and `/proc/self`.

use crate::env::{peak_rss_mb, process_cpu_us, reset_peak_rss};
use crate::spans::Recorder;
use crate::workload::{Generated, Spec, Wal, NODES, PAGE_SIZE};
use cblog_common::{NodeId, PageId, Snapshot};
use cblog_core::{RecoveryOptions, RecoveryReport, Runtime};
use cblog_rt::{RtNodeStats, RtRunStats, ThreadCluster, ThreadClusterConfig, WalBacking};
use cblog_storage::Page;
use std::path::Path;
use std::time::Instant;

/// How to run a trial.
#[derive(Clone, Copy)]
pub struct TrialCfg<'a> {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Divisor of the issue's sizes.
    pub div: usize,
    /// The benchmark's directory; logs go to `<dir>/out/wal`.
    pub dir: &'a Path,
    /// `ThreadClusterConfig::tracing`.
    pub tracing: bool,
    /// Self-test: falsify one expectation, which the read-back must catch.
    pub corrupt_oracle: bool,
}

/// What one trial measured.
pub struct Trial {
    /// Transactions handed to the engine.
    pub attempted: u64,
    /// Planned commits that did not commit + slots whose read-back differs.
    pub failed: u64,
    pub commits: u64,
    pub setup_s: f64,
    pub run_s: f64,
    pub recover_s: f64,
    /// Process CPU time over `Runtime::run`.
    pub cpu_us: u64,
    /// `VmHWM` when the trial ends; the trial restarts the peak first.
    pub peak_rss_mb: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub forced_aborts: u64,
    pub stats: RtRunStats,
    pub nodes: Vec<RtNodeStats>,
    /// `Runtime::metrics` after the run, before the crash.
    pub metrics: Snapshot,
    pub recovery: RecoveryReport,
    /// Traced trials: the watchdog's replay of the merged trace, timed
    /// on its own, and spans lost to full buffers.
    pub trace_check_ms: f64,
    pub spans_dropped: u64,
}

pub fn wal_dir(dir: &Path) -> std::path::PathBuf {
    dir.join("out").join("wal")
}

/// A trial the engine did not finish: every transaction of it failed.
pub struct TrialError {
    pub attempted: u64,
    pub what: String,
}

pub fn run_trial(cfg: TrialCfg, rec: &mut Recorder) -> Result<Trial, TrialError> {
    let spec = cfg.spec;
    let wal = wal_dir(cfg.dir).join(format!("{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    reset_peak_rss();
    let name = if cfg.tracing { "trial.traced" } else { "trial" };
    let out = rec.span(name, |rec| {
        let t = Instant::now();
        let gen = rec.span("generate_plans", |_| spec.plans(cfg.seed, cfg.div));
        let attempted = gen.plans.len() as u64;
        engine(cfg, gen, t, &wal, rec).map_err(|what| TrialError { attempted, what })
    });
    let _ = std::fs::remove_dir_all(&wal);
    out
}

/// Everything after plan generation, which started at `t`.
fn engine(
    cfg: TrialCfg,
    mut gen: Generated,
    t: Instant,
    wal: &Path,
    rec: &mut Recorder,
) -> Result<Trial, String> {
    let spec = cfg.spec;
    let owned = spec.owned_pages();

    let mut tc = rec
        .span("ThreadCluster::new", |_| {
            ThreadCluster::new(ThreadClusterConfig {
                owned_pages: owned.to_vec(),
                page_size: PAGE_SIZE,
                // Above the working set: the engine treats eviction of
                // a dirty page as overflow.
                buffer_frames: *owned.iter().max().expect("two nodes") as usize + 16,
                group_commit: spec.policy,
                wal: match spec.wal {
                    Wal::Disk => WalBacking::Dir(wal.to_path_buf()),
                    Wal::Mem => WalBacking::Mem,
                },
                tracing: cfg.tracing,
                ..ThreadClusterConfig::default()
            })
        })
        .map_err(|e| format!("ThreadCluster::new: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();

    if cfg.corrupt_oracle {
        let slot = gen.expected.values_mut().next().expect("plans write");
        *slot ^= 0x5E1F_7E57;
    }

    let cpu0 = process_cpu_us();
    let t = Instant::now();
    let report = rec
        .span("Runtime::run", |_| tc.run(&gen.plans))
        .map_err(|e| format!("Runtime::run: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    let cpu_us = process_cpu_us() - cpu0;

    let stats = tc.last_stats().ok_or("no run stats")?;
    let nodes = tc.last_node_stats().to_vec();
    let metrics = tc.metrics();
    let lat = tc.latency_samples();
    let (p50_us, p95_us, p99_us) = (
        lat.percentile(0.50),
        lat.percentile(0.95),
        lat.percentile(0.99),
    );
    let (trace_check_ms, spans_dropped) = if cfg.tracing {
        let t = Instant::now();
        rec.span("trace_check", |_| tc.trace_check())
            .map_err(|e| format!("trace_check: {e}"))?;
        (t.elapsed().as_secs_f64() * 1e3, tc.trace_dropped())
    } else {
        (0.0, 0)
    };

    rec.span("crash", |_| tc.crash(NodeId(0)))
        .map_err(|e| format!("crash: {e}"))?;
    let t = Instant::now();
    let recovery = rec
        .span("Runtime::recover", |_| {
            tc.recover(&RecoveryOptions::single(NodeId(0)).replay(spec.replay))
        })
        .map_err(|e| format!("Runtime::recover: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();

    // Durability: every slot a transaction wrote holds the last acked
    // value (0 where every writer aborted), after the crash and recovery.
    let mismatches = rec.span("read_back", |_| -> Result<u64, String> {
        let mut pages = std::collections::HashMap::new();
        for (node, &n) in owned.iter().enumerate().take(NODES) {
            for index in 0..n {
                let pid = PageId::new(NodeId(node as u32), index);
                let image = tc
                    .page_image(pid)
                    .map_err(|e| format!("page_image {pid:?}: {e}"))?;
                let page = Page::from_bytes(image).map_err(|e| format!("page {pid:?}: {e}"))?;
                pages.insert(pid, page);
            }
        }
        let mut bad = 0;
        for (&(pid, slot), &want) in &gen.expected {
            let got = pages.get(&pid).and_then(|p| p.read_slot(slot).ok());
            bad += u64::from(got != Some(want));
        }
        Ok(bad)
    })?;

    Ok(Trial {
        attempted: gen.plans.len() as u64,
        failed: gen.planned_commits.saturating_sub(report.committed) + mismatches,
        commits: report.committed,
        setup_s,
        run_s,
        recover_s,
        cpu_us,
        peak_rss_mb: peak_rss_mb(),
        p50_us,
        p95_us,
        p99_us,
        forced_aborts: report.forced_aborts,
        stats,
        nodes,
        metrics,
        recovery,
        trace_check_ms,
        spans_dropped,
    })
}
