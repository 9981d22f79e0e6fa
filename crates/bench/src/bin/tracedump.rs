//! Dumps causal traces from the traced scenario runs. Usage:
//!
//! ```text
//! cargo run --release -p cblog-bench --bin tracedump -- \
//!     [--scenario e5|e6|e7|rt] [--page P0.3] [--json | --folded]
//! ```
//!
//! Default mode prints the trace summary (span counts, watchdog
//! verdict) and the PSN lineage of `--page` — or of the busiest page
//! when no page is given. `--json` instead emits the whole span store
//! as Chrome trace-event JSON on stdout, loadable in `chrome://tracing`
//! or Perfetto. `--folded` prints where each node's time went, one
//! `flamegraph.pl` folded line per node × bucket
//! (`<scenario>;n<id>;<bucket> <µs>`: disk, cpu, net, lock_wait,
//! replay); a node's lines sum to its busy time plus lock wait. The
//! scenario fails (exit 1, lineage slice on stderr) if the invariant
//! watchdog flagged any span. `e5`, `e6` and `e7` run
//! on the simulator; `rt` is a small run, crash and recovery on the
//! threaded engine, printed through the same views (its timestamps are
//! wall-clock, so only the sim scenarios repeat byte for byte).

use cblog_common::span::{busiest_page, chrome_trace_json, render_lineage};
use cblog_common::{folded_profile, NodeId, PageId, Result, Snapshot, Trace};
use cblog_core::{PlanOp, RecoveryOptions, Runtime, TxnPlan};
use cblog_rt::{ThreadCluster, ThreadClusterConfig};
use cblog_sim::tracedump::{run_scenario, summary, SCENARIOS};

/// The threaded scenario: node 0 commits three rounds of writes to
/// four of its pages while node 1 reads one of them across the mesh,
/// then node 0 crashes and recovers. `run` and `recover` fail on any
/// watchdog violation, like the sim scenarios' final check. The
/// metrics' profile gauges hold the run's per-worker wall-time split
/// and the recovery's page writes.
fn run_rt() -> Result<(Trace, Snapshot)> {
    let mut tc = ThreadCluster::new(ThreadClusterConfig::default())?;
    let page = |i: u32| PageId::new(NodeId(0), i);
    let plan = |client: u32, stream: u32, op: PlanOp| TxnPlan {
        client: NodeId(client),
        stream: stream as usize,
        ops: vec![op],
        abort: false,
    };
    let mut plans = Vec::new();
    for round in 0..3u64 {
        for p in 0..4u32 {
            let value = round * 10 + p as u64;
            let (pid, slot) = (page(p), 0);
            plans.push(plan(0, p, PlanOp::Write { pid, slot, value }));
        }
        let (pid, slot) = (page(0), 0);
        plans.push(plan(1, 0, PlanOp::Read { pid, slot }));
    }
    tc.run(&plans)?;
    tc.crash(NodeId(0))?;
    tc.recover(&RecoveryOptions::nodes(&[NodeId(0)]))?;
    Ok((tc.trace().clone(), tc.metrics()))
}

/// Parses `P<owner>.<index>` (the `PageId` display form; the leading
/// `P` is optional).
fn parse_page(s: &str) -> Option<PageId> {
    let s = s.strip_prefix('P').unwrap_or(s);
    let (owner, index) = s.split_once('.')?;
    Some(PageId::new(
        NodeId(owner.parse().ok()?),
        index.parse().ok()?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let scenario = arg_after("--scenario").map_or("e5", |s| s.as_str());
    let json = args.iter().any(|a| a == "--json");
    let folded = args.iter().any(|a| a == "--folded");
    let page = match arg_after("--page") {
        Some(s) => match parse_page(s) {
            Some(p) => Some(p),
            None => {
                eprintln!("bad --page {s:?}: expected P<owner>.<index>, e.g. P0.3");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let run = match scenario {
        "rt" => run_rt(),
        sim => run_scenario(sim),
    };
    let (trace, metrics) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scenario {scenario:?} failed (known: {SCENARIOS:?} and \"rt\"):\n{e}");
            std::process::exit(1);
        }
    };
    if folded {
        print!("{}", folded_profile(scenario, &metrics));
        return;
    }
    if json {
        println!("{}", chrome_trace_json(trace.spans()));
        return;
    }
    println!("scenario {scenario}: {}", summary(&trace));
    match page.or_else(|| busiest_page(trace.spans())) {
        Some(pid) => print!("{}", render_lineage(trace.spans(), pid)),
        None => println!("(no page-scoped spans recorded)"),
    }
}
