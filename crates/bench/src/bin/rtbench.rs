//! Wall-clock benchmark of the threaded runtime: sweeps MPL ×
//! group-commit policy on OS-thread nodes with file-backed WALs and
//! reports real commits/sec and commit-latency percentiles.
//!
//! ```text
//! cargo run --release -p cblog-bench --bin rtbench -- \
//!     [--txns N] [--ops N] [--mpl 1,2,4] [--quick] \
//!     [--wal-dir DIR] [--out FILE.json] \
//!     [--recovery] [--trace-overhead]
//! ```
//!
//! Each cell runs a fresh two-node [`ThreadCluster`]: every node hosts
//! MPL concurrent transaction streams, each stream writing its own
//! private pages, so the commit path is exactly the paper's — one
//! local log force (a real `fdatasync`), zero messages. `commit_msgs`
//! in the export is the *measured* mesh traffic of the cell, so any
//! commit-path message would be visible, not assumed away.
//!
//! The export (`BENCH_rt_threads.json` by default) carries the same
//! `experiment`/`nodes`/`folded` skeleton as the simulator's telemetry
//! exports — `obsreport --input` renders it into the usual HTML report
//! — plus a `cells` array with one row per (MPL, policy) combination.
//! Commit-latency percentiles come in two flavors per cell:
//! `p50_exact_us`/`p99_exact_us` are exact recorded values from the
//! runtime's sample reservoir, while `p50_hist_us`/`p99_hist_us` are
//! the log-bucketed histogram bounds (same export shape as the
//! simulator), kept side by side so bucket-resolution error is
//! visible. Wall-clock numbers are machine-dependent and deliberately
//! excluded from the BASELINES.json perf gate, which only checks
//! deterministic simulator counters.
//!
//! `--trace-overhead` measures what the always-on span tracing costs:
//! each cell runs twice on identical plans — tracing off, then on —
//! asserts the commit tallies and final page images are bit-identical
//! (observability must not change execution), and reports the
//! wall-clock delta as `overhead_pct` in
//! `BENCH_rt_trace_overhead.json`.

use cblog_common::NodeId;
use cblog_core::{
    GroupCommitPolicy, PlanOp, RecoveryOptions, ReplayMode, Runtime, TxnPlan, WaveTiming,
};
use cblog_rt::{RtNodeStats, ThreadCluster, ThreadClusterConfig, WalBacking};
use std::fmt::Write as _;
use std::path::PathBuf;

const NODES: usize = 2;

struct Cell {
    mpl: usize,
    policy: &'static str,
    commits: u64,
    commits_per_sec: f64,
    /// Exact recorded percentiles from the commit-latency reservoir.
    p50_exact_us: u64,
    p99_exact_us: u64,
    /// Log-bucketed histogram bounds for the same distribution.
    p50_hist_us: u64,
    p99_hist_us: u64,
    forces: u64,
    forces_per_commit: f64,
    commit_msgs: u64,
    wall_us: u64,
    spans: u64,
}

fn policy_for(name: &str, mpl: usize) -> GroupCommitPolicy {
    match name {
        "immediate" => GroupCommitPolicy::Immediate,
        "window" => GroupCommitPolicy::Window {
            window_us: 500,
            max_batch: mpl,
        },
        "adaptive" => GroupCommitPolicy::Adaptive {
            min_window_us: 50,
            max_window_us: 2_000,
            target_batch: mpl,
        },
        other => panic!("unknown policy {other}"),
    }
}

/// Plans for one cell: NODES nodes × `mpl` lanes × `txns` transactions,
/// each lane confined to its own two pages — stream-private write sets
/// keep the commit path message-free and the run verifiable.
fn plans_for(mpl: usize, txns: usize, ops: usize) -> Vec<TxnPlan> {
    let mut plans = Vec::new();
    for node in 0..NODES as u32 {
        for lane in 0..mpl {
            for t in 0..txns as u64 {
                let ops = (0..ops as u64)
                    .map(|o| PlanOp::Write {
                        pid: cblog_common::PageId::new(
                            cblog_common::NodeId(node),
                            (2 * lane + (o % 2) as usize) as u32,
                        ),
                        slot: ((t + o) % 8) as usize,
                        value: t * 1_000 + o,
                    })
                    .collect();
                plans.push(TxnPlan {
                    client: cblog_common::NodeId(node),
                    stream: lane,
                    ops,
                    abort: false,
                });
            }
        }
    }
    plans
}

fn run_cell(
    mpl: usize,
    policy_name: &'static str,
    txns: usize,
    ops: usize,
    wal_dir: &std::path::Path,
) -> (Cell, Vec<RtNodeStats>) {
    let dir = wal_dir.join(format!("{policy_name}-mpl{mpl}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut tc = ThreadCluster::new(ThreadClusterConfig {
        owned_pages: vec![2 * mpl as u32; NODES],
        buffer_frames: 4 * mpl + 16,
        group_commit: policy_for(policy_name, mpl),
        wal: WalBacking::Dir(dir.clone()),
        ..ThreadClusterConfig::default()
    })
    .expect("cluster construction");
    let plans = plans_for(mpl, txns, ops);
    let report = tc.run(&plans).expect("benchmark run");
    let stats = tc.last_stats().expect("run stats");
    let node_stats = tc.last_node_stats().to_vec();
    let hist = tc.latency().snapshot();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        report.committed,
        (NODES * mpl * txns) as u64,
        "every planned transaction must commit"
    );
    let cell = Cell {
        mpl,
        policy: policy_name,
        commits: report.committed,
        commits_per_sec: report.committed as f64 * 1e6 / stats.wall_us.max(1) as f64,
        p50_exact_us: stats.p50_us,
        p99_exact_us: stats.p99_us,
        p50_hist_us: hist.percentile(0.50),
        p99_hist_us: hist.percentile(0.99),
        forces: stats.forces,
        forces_per_commit: stats.forces as f64 / report.committed.max(1) as f64,
        // Measured mesh traffic: the workload is all-local, so any
        // message here would be a commit-path leak.
        commit_msgs: stats.msgs,
        wall_us: stats.wall_us,
        spans: stats.spans,
    };
    (cell, node_stats)
}

fn export_json(cells: &[Cell], nodes: &[RtNodeStats], total_us: u64) -> String {
    let mut out = String::new();
    // The per-node split is the worker's own measured buckets (DESIGN
    // §14): disk + cpu + net + replay == busy exactly, lock_wait beside.
    let _ = write!(
        out,
        "{{\"experiment\":\"rt_threads\",\"now_us\":{total_us},{},\"telemetry\":null,\"cells\":[",
        cblog_rt::profile_fragment("rt_threads", nodes)
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"mpl\":{},\"policy\":\"{}\",\"commits\":{},\"commits_per_sec\":{:.1},\"p50_exact_us\":{},\"p99_exact_us\":{},\"p50_hist_us\":{},\"p99_hist_us\":{},\"forces\":{},\"forces_per_commit\":{:.4},\"commit_msgs\":{},\"wall_us\":{},\"spans\":{}}}",
            c.mpl,
            c.policy,
            c.commits,
            c.commits_per_sec,
            c.p50_exact_us,
            c.p99_exact_us,
            c.p50_hist_us,
            c.p99_hist_us,
            c.forces,
            c.forces_per_commit,
            c.commit_msgs,
            c.wall_us,
            c.spans
        );
    }
    out.push_str("]}");
    out
}

// ----------------------------------------------------------------------
// Tracing overhead (--trace-overhead): off vs. on, identical plans
// ----------------------------------------------------------------------

struct OverheadCell {
    mpl: usize,
    policy: &'static str,
    commits: u64,
    wall_off_us: u64,
    wall_on_us: u64,
    overhead_pct: f64,
    spans: u64,
}

/// Runs one (MPL, policy) cell with `tracing` set as given and returns
/// the run stats plus every page image, for bit-exactness comparison.
fn run_traced(
    mpl: usize,
    policy_name: &'static str,
    plans: &[TxnPlan],
    tracing: bool,
    wal_dir: &std::path::Path,
) -> (
    cblog_core::RunReport,
    cblog_rt::RtRunStats,
    Vec<Vec<u8>>,
    Vec<RtNodeStats>,
) {
    let dir = wal_dir.join(format!("ovh-{policy_name}-mpl{mpl}-{tracing}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut tc = ThreadCluster::new(ThreadClusterConfig {
        owned_pages: vec![2 * mpl as u32; NODES],
        buffer_frames: 4 * mpl + 16,
        group_commit: policy_for(policy_name, mpl),
        wal: WalBacking::Dir(dir.clone()),
        tracing,
        ..ThreadClusterConfig::default()
    })
    .expect("cluster construction");
    let report = tc.run(plans).expect("benchmark run");
    let stats = tc.last_stats().expect("run stats");
    let nodes = tc.last_node_stats().to_vec();
    let mut images = Vec::new();
    for node in 0..NODES as u32 {
        for idx in 0..2 * mpl as u32 {
            let pid = cblog_common::PageId::new(cblog_common::NodeId(node), idx);
            images.push(tc.page_image(pid).expect("page image"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (report, stats, images, nodes)
}

/// One overhead measurement: the same plans, tracing off then on. The
/// traced run must produce the same tallies and the same bytes on
/// every page — observability is read-only — and its wall-clock delta
/// is the price of the spans.
fn run_overhead_cell(
    mpl: usize,
    policy_name: &'static str,
    txns: usize,
    ops: usize,
    wal_dir: &std::path::Path,
) -> (OverheadCell, Vec<RtNodeStats>) {
    let plans = plans_for(mpl, txns, ops);
    let (off_report, off_stats, off_images, _) =
        run_traced(mpl, policy_name, &plans, false, wal_dir);
    let (on_report, on_stats, on_images, on_nodes) =
        run_traced(mpl, policy_name, &plans, true, wal_dir);
    assert_eq!(
        off_report, on_report,
        "tracing must not change the run's tallies"
    );
    assert_eq!(
        off_images, on_images,
        "tracing must not change a single page byte"
    );
    assert_eq!(off_stats.spans, 0, "tracing off records no spans");
    let overhead_pct = (on_stats.wall_us as f64 - off_stats.wall_us as f64) * 100.0
        / off_stats.wall_us.max(1) as f64;
    let cell = OverheadCell {
        mpl,
        policy: policy_name,
        commits: on_report.committed,
        wall_off_us: off_stats.wall_us,
        wall_on_us: on_stats.wall_us,
        overhead_pct,
        spans: on_stats.spans,
    };
    (cell, on_nodes)
}

fn export_overhead_json(cells: &[OverheadCell], nodes: &[RtNodeStats], total_us: u64) -> String {
    // Same skeleton as the main export so `obsreport --input` renders
    // it; nodes/folded describe the *traced* run of the last cell.
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"experiment\":\"rt_trace_overhead\",\"now_us\":{total_us},{},\"telemetry\":null,\"cells\":[",
        cblog_rt::profile_fragment("rt_trace_overhead", nodes)
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"mpl\":{},\"policy\":\"{}\",\"commits\":{},\"wall_off_us\":{},\"wall_on_us\":{},\"overhead_pct\":{:.2},\"spans\":{}}}",
            c.mpl, c.policy, c.commits, c.wall_off_us, c.wall_on_us, c.overhead_pct, c.spans
        );
    }
    out.push_str("]}");
    out
}

fn run_overhead_bench(
    mpls: &[usize],
    txns: usize,
    ops: usize,
    wal_dir: &std::path::Path,
    out_path: &str,
) {
    println!(
        "{:>4} {:>10} {:>9} {:>12} {:>12} {:>9} {:>8}",
        "mpl", "policy", "commits", "wall_off_us", "wall_on_us", "ovhd_pct", "spans"
    );
    let mut cells = Vec::new();
    let mut last_nodes: Vec<RtNodeStats> = Vec::new();
    let mut total_us = 0u64;
    for &mpl in mpls {
        for policy in ["immediate", "window", "adaptive"] {
            let (cell, nodes) = run_overhead_cell(mpl, policy, txns, ops, wal_dir);
            println!(
                "{:>4} {:>10} {:>9} {:>12} {:>12} {:>9.2} {:>8}",
                cell.mpl,
                cell.policy,
                cell.commits,
                cell.wall_off_us,
                cell.wall_on_us,
                cell.overhead_pct,
                cell.spans
            );
            total_us += cell.wall_off_us + cell.wall_on_us;
            cells.push(cell);
            last_nodes = nodes;
        }
    }
    let json = export_overhead_json(&cells, &last_nodes, total_us);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("rtbench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

// ----------------------------------------------------------------------
// Recovery benchmark (--recovery): wall-clock parallel replay
// ----------------------------------------------------------------------

/// Lanes of the recovery workload; each lane dirties its own slice of
/// the owner's pages, so every page's redo chain is independent.
const REC_LANES: usize = 8;

struct RecCell {
    workers: usize,
    pages: usize,
    waves: usize,
    crit_path_psns: u64,
    /// Sum of per-unit redo times — the serial cost of the waves.
    apply_serial_us: u64,
    /// Sum of per-wave makespans — what the waves' apply loops took.
    apply_makespan_us: u64,
    replay_us: u64,
    total_us: u64,
}

/// One crash/recovery measurement on a fresh [`ThreadCluster`]:
/// `rounds` committed update rounds per page, crash the owner, recover
/// under `ReplayMode::Parallel { workers }` (`0` = `Serial`). The
/// threaded runtime replays inline under every mode, so until it has
/// a replay pool the cells of a sweep differ by noise only.
fn run_recovery_cell(
    workers: usize,
    pages: u32,
    rounds: usize,
    wal_dir: &std::path::Path,
) -> RecCell {
    let dir = wal_dir.join(format!("recovery-w{workers}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut tc = ThreadCluster::new(ThreadClusterConfig {
        owned_pages: vec![pages],
        buffer_frames: pages as usize + 16,
        group_commit: GroupCommitPolicy::Window {
            window_us: 200,
            max_batch: REC_LANES,
        },
        wal: WalBacking::Dir(dir.clone()),
        ..ThreadClusterConfig::default()
    })
    .expect("cluster construction");
    let per_lane = (pages as usize).div_ceil(REC_LANES);
    let mut plans = Vec::new();
    for lane in 0..REC_LANES {
        for t in 0..(rounds * per_lane) as u64 {
            let page = lane * per_lane + (t as usize % per_lane);
            if page >= pages as usize {
                continue;
            }
            let ops = (0..8u64)
                .map(|o| PlanOp::Write {
                    pid: cblog_common::PageId::new(NodeId(0), page as u32),
                    slot: (o % 8) as usize,
                    value: t * 1_000 + o,
                })
                .collect();
            plans.push(TxnPlan {
                client: NodeId(0),
                stream: lane,
                ops,
                abort: false,
            });
        }
    }
    tc.run(&plans).expect("recovery workload");
    tc.crash(NodeId(0)).expect("crash");
    let mode = if workers == 0 {
        ReplayMode::Serial
    } else {
        ReplayMode::Parallel { workers }
    };
    let rep = tc
        .recover(&RecoveryOptions::single(NodeId(0)).replay(mode))
        .expect("recovery");
    let _ = std::fs::remove_dir_all(&dir);
    let (serial, makespan) = rep
        .timings
        .replay_waves()
        .iter()
        .fold((0u64, 0u64), |(s, m), w: &WaveTiming| {
            (s + w.serial_us, m + w.makespan_us)
        });
    RecCell {
        workers,
        pages: rep.pages_recovered,
        waves: rep.replay_waves,
        crit_path_psns: rep.critical_path_psns,
        apply_serial_us: serial,
        apply_makespan_us: makespan,
        replay_us: rep.timings.replay_us(),
        total_us: rep.timings.total_us(),
    }
}

fn export_recovery_json(cells: &[RecCell]) -> String {
    let mut out = String::new();
    out.push_str("{\"experiment\":\"rt_recovery\",\"cells\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let speedup = c.apply_serial_us as f64 / c.apply_makespan_us.max(1) as f64;
        let _ = write!(
            out,
            "{{\"workers\":{},\"pages\":{},\"waves\":{},\"crit_path_psns\":{},\"apply_serial_us\":{},\"apply_makespan_us\":{},\"apply_speedup\":{:.2},\"replay_us\":{},\"total_us\":{}}}",
            c.workers,
            c.pages,
            c.waves,
            c.crit_path_psns,
            c.apply_serial_us,
            c.apply_makespan_us,
            speedup,
            c.replay_us,
            c.total_us
        );
    }
    out.push_str("]}");
    out
}

fn run_recovery_bench(pages: u32, rounds: usize, wal_dir: &std::path::Path, out_path: &str) {
    println!(
        "{:>7} {:>6} {:>6} {:>10} {:>12} {:>14} {:>8} {:>10} {:>10}",
        "workers",
        "pages",
        "waves",
        "crit_psns",
        "apply_ser_us",
        "apply_mksp_us",
        "speedup",
        "replay_us",
        "total_us"
    );
    let mut cells = Vec::new();
    for workers in [0usize, 1, 2, 4, 8] {
        let c = run_recovery_cell(workers, pages, rounds, wal_dir);
        let speedup = c.apply_serial_us as f64 / c.apply_makespan_us.max(1) as f64;
        println!(
            "{:>7} {:>6} {:>6} {:>10} {:>12} {:>14} {:>8.2} {:>10} {:>10}",
            if c.workers == 0 {
                "serial".to_string()
            } else {
                c.workers.to_string()
            },
            c.pages,
            c.waves,
            c.crit_path_psns,
            c.apply_serial_us,
            c.apply_makespan_us,
            speedup,
            c.replay_us,
            c.total_us
        );
        cells.push(c);
    }
    let json = export_recovery_json(&cells);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("rtbench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let quick = args.iter().any(|a| a == "--quick");
    let txns: usize = arg_after("--txns")
        .map(|s| s.parse().expect("--txns N"))
        .unwrap_or(if quick { 8 } else { 64 });
    let ops: usize = arg_after("--ops")
        .map(|s| s.parse().expect("--ops N"))
        .unwrap_or(4);
    let mpls: Vec<usize> = match arg_after("--mpl") {
        Some(csv) => csv
            .split(',')
            .map(|s| s.trim().parse().expect("--mpl 1,2,4"))
            .collect(),
        None if quick => vec![1, 4],
        None => vec![1, 2, 4, 8, 16, 32],
    };
    let wal_dir = arg_after("--wal-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cblog-rtbench-{}", std::process::id()))
        });
    let recovery = args.iter().any(|a| a == "--recovery");
    let trace_overhead = args.iter().any(|a| a == "--trace-overhead");
    let out_path = arg_after("--out").cloned().unwrap_or_else(|| {
        if recovery {
            "BENCH_rt_recovery.json".into()
        } else if trace_overhead {
            "BENCH_rt_trace_overhead.json".into()
        } else {
            "BENCH_rt_threads.json".into()
        }
    });

    if trace_overhead {
        run_overhead_bench(&mpls, txns, ops, &wal_dir, &out_path);
        let _ = std::fs::remove_dir_all(&wal_dir);
        return;
    }

    if recovery {
        // Wall-clock recovery: crash one owner with many
        // independently-dirtied pages, recover under each replay mode.
        let pages: u32 = arg_after("--pages")
            .map(|s| s.parse().expect("--pages N"))
            .unwrap_or(if quick { 16 } else { 64 });
        // Deep per-page chains, so that the apply columns are
        // milliseconds and not timer noise.
        let rounds = if quick { 4 } else { 512.max(txns) };
        run_recovery_bench(pages, rounds, &wal_dir, &out_path);
        let _ = std::fs::remove_dir_all(&wal_dir);
        return;
    }

    let mut cells = Vec::new();
    let mut last_nodes: Vec<RtNodeStats> = Vec::new();
    let mut total_us = 0u64;
    println!(
        "{:>4} {:>10} {:>9} {:>12} {:>8} {:>8} {:>8} {:>10} {:>6}",
        "mpl", "policy", "commits", "commits/s", "p50_us", "p99_us", "forces", "forces/cmt", "msgs"
    );
    for &mpl in &mpls {
        for policy in ["immediate", "window", "adaptive"] {
            let (cell, nodes) = run_cell(mpl, policy, txns, ops, &wal_dir);
            println!(
                "{:>4} {:>10} {:>9} {:>12.1} {:>8} {:>8} {:>8} {:>10.4} {:>6}",
                cell.mpl,
                cell.policy,
                cell.commits,
                cell.commits_per_sec,
                cell.p50_exact_us,
                cell.p99_exact_us,
                cell.forces,
                cell.forces_per_commit,
                cell.commit_msgs
            );
            total_us += cell.wall_us;
            cells.push(cell);
            last_nodes = nodes;
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let json = export_json(&cells, &last_nodes, total_us);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("rtbench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
