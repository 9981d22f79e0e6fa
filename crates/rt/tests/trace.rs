//! Threaded-runtime observability: merged per-thread traces through
//! the protocol watchdog and the shared views, profiler partition,
//! and tracing overhead neutrality (DESIGN §8).

use cblog_common::span::{busiest_page, chrome_trace_json, render_lineage};
use cblog_common::{NodeId, PageId, Psn, SpanId, SpanKind};
use cblog_core::{GroupCommitPolicy, PlanOp, RecoveryOptions, ReplayMode, Runtime, TxnPlan};
use cblog_rt::{ThreadCluster, ThreadClusterConfig, WalBacking};

fn pid(owner: u32, index: u32) -> PageId {
    PageId::new(NodeId(owner), index)
}

fn wplan(client: u32, stream: usize, writes: &[(PageId, usize, u64)]) -> TxnPlan {
    TxnPlan {
        client: NodeId(client),
        stream,
        ops: writes
            .iter()
            .map(|&(pid, slot, value)| PlanOp::Write { pid, slot, value })
            .collect(),
        abort: false,
    }
}

fn rplan(client: u32, stream: usize, reads: &[(PageId, usize)]) -> TxnPlan {
    TxnPlan {
        client: NodeId(client),
        stream,
        ops: reads
            .iter()
            .map(|&(pid, slot)| PlanOp::Read { pid, slot })
            .collect(),
        abort: false,
    }
}

/// A mixed workload: local writes on both nodes, then cross-node
/// reads, so the trace carries Txn/Update/GroupForce spans and the
/// full Msg → Transfer → Msg causal chain across the mesh.
fn mixed_plans() -> Vec<TxnPlan> {
    let mut plans = Vec::new();
    for round in 0..4u64 {
        plans.push(wplan(0, 0, &[(pid(0, 0), 0, 10 + round)]));
        plans.push(wplan(1, 0, &[(pid(1, 0), 0, 20 + round)]));
    }
    plans.push(rplan(1, 0, &[(pid(0, 0), 0)]));
    plans.push(rplan(0, 0, &[(pid(1, 0), 0)]));
    plans
}

#[test]
fn threaded_runs_produce_a_watchdog_clean_trace() {
    let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
    let report = tc.run(&mixed_plans()).unwrap();
    assert_eq!(report.committed, 10);

    // run() already watchdog-checked at join; check again explicitly.
    tc.trace_check().unwrap();
    assert_eq!(tc.trace_dropped(), 0);
    let stats = tc.last_stats().unwrap();
    assert!(stats.spans > 0, "tracing on: the run recorded spans");
    assert_eq!(stats.spans as usize, tc.trace().len());

    let trace = tc.trace().spans();
    let updates = trace
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Update { .. }))
        .count();
    assert_eq!(updates, 8, "one Update span per logged write");
    let forces = trace
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::GroupForce { .. }))
        .count();
    assert!(forces >= 2, "acked commits emit GroupForce spans");
    assert!(
        trace.iter().any(|s| matches!(
            s.kind,
            SpanKind::Txn {
                committed: true,
                ..
            }
        )),
        "committed Txn spans present"
    );

    // The cross-mesh causal chain: each Transfer span's parent is the
    // requester's LockRequest Msg span, remapped into the merged id
    // space — present in the trace, from the *other* node.
    let transfers: Vec<_> = trace
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Transfer { .. }))
        .collect();
    assert_eq!(transfers.len(), 2, "two remote reads, two ships");
    for t in &transfers {
        assert!(!t.parent.is_none(), "transfer parented on the request");
        let parent = trace
            .iter()
            .find(|s| s.id == t.parent)
            .expect("parent span survived the merge");
        assert!(matches!(parent.kind, SpanKind::Msg { .. }));
        assert_ne!(parent.node, t.node, "request came from the other node");
    }

    // Every span id is unique and every non-NONE parent resolves.
    let mut ids = std::collections::BTreeSet::new();
    for s in trace {
        assert!(ids.insert(s.id), "duplicate merged id {}", s.id);
    }
    for s in trace {
        if !s.parent.is_none() {
            assert!(ids.contains(&s.parent), "dangling parent {}", s.parent);
        }
    }
}

#[test]
fn ships_of_pages_under_write_force_less_than_once_a_commit() {
    // The shape that made a ship force the log on every fetch: four
    // lanes a node, each transaction writing its lane's page and
    // reading one the other node's lanes keep writing. A ship now
    // forces only for a released writer of that page whose commit is
    // not durable, and batches still share a force, so the forces stay
    // below the commits; the watchdog checks every ship's `wal_ok`.
    const LANES: usize = 4;
    const TXNS: u64 = 200;
    let mut tc = ThreadCluster::new(ThreadClusterConfig {
        group_commit: GroupCommitPolicy::Adaptive {
            min_window_us: 50,
            max_window_us: 2_000,
            target_batch: LANES,
        },
        ..ThreadClusterConfig::default()
    })
    .unwrap();
    let mut plans = Vec::new();
    for node in 0..2u32 {
        for lane in 0..LANES {
            for t in 0..TXNS {
                let mut plan = wplan(node, lane, &[(pid(node, lane as u32), 0, t + 1)]);
                plan.ops.push(PlanOp::Read {
                    pid: pid(1 - node, ((lane as u64 + t) % LANES as u64) as u32),
                    slot: 0,
                });
                plans.push(plan);
            }
        }
    }
    let report = tc.run(&plans).unwrap();
    assert_eq!(report.committed, plans.len() as u64);
    let stats = tc.last_stats().unwrap();
    assert_eq!(stats.msgs, 2 * report.committed, "a fetch and a ship each");
    assert!(
        stats.forces < report.committed,
        "{} forces for {} commits",
        stats.forces,
        report.committed
    );
    tc.trace_check().unwrap();
    assert_eq!(tc.trace_dropped(), 0);
}

#[test]
fn crash_and_parallel_recovery_are_watchdog_checked() {
    let dir = std::env::temp_dir().join(format!(
        "cblog-rt-trace-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut tc = ThreadCluster::new(ThreadClusterConfig {
        owned_pages: vec![8, 8],
        wal: WalBacking::Dir(dir.clone()),
        ..ThreadClusterConfig::default()
    })
    .unwrap();
    let mut plans = Vec::new();
    for round in 0..3u64 {
        for p in 0..4u32 {
            plans.push(wplan(
                0,
                p as usize,
                &[(pid(0, p), 0, round * 10 + p as u64)],
            ));
        }
    }
    let report = tc.run(&plans).unwrap();
    assert_eq!(report.committed, 12);

    tc.crash(NodeId(0)).unwrap();
    let rec = tc
        .recover(&RecoveryOptions::nodes(&[NodeId(0)]).replay(ReplayMode::Parallel { workers: 4 }))
        .unwrap();
    assert_eq!(rec.recovered_nodes, vec![NodeId(0)]);

    // recover() watchdog-checked the merged trace at join; the trace
    // carries the crash and the parallel replay's hops.
    tc.trace_check().unwrap();
    let trace = tc.trace().spans();
    assert!(
        trace
            .iter()
            .any(|s| matches!(s.kind, SpanKind::Crash { node } if node == NodeId(0))),
        "crash recorded"
    );
    let root = trace
        .iter()
        .find(|s| matches!(s.kind, SpanKind::Recovery { .. }))
        .expect("recovery root span");
    let hops: Vec<_> = trace
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ReplayHop { .. }))
        .collect();
    assert!(!hops.is_empty(), "parallel replay recorded hops");
    for h in &hops {
        assert_eq!(h.parent, root.id, "hops parent on the recovery root");
    }
    assert!(
        trace
            .iter()
            .any(|s| matches!(s.kind, SpanKind::PageWrite { wal_ok: true, .. })),
        "post-replay durable writes recorded with the WAL rule intact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_out_of_order_replay_hop_is_caught() {
    let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
    let plans = vec![
        wplan(0, 0, &[(pid(0, 2), 0, 1)]),
        wplan(0, 0, &[(pid(0, 2), 0, 2)]),
    ];
    tc.run(&plans).unwrap();
    tc.crash(NodeId(0)).unwrap();
    tc.recover(&RecoveryOptions::nodes(&[NodeId(0)]).replay(ReplayMode::Parallel { workers: 2 }))
        .unwrap();
    tc.trace_check().unwrap();

    // Forge a hop that replays the page *behind* the frontier the real
    // recovery just advanced — exactly what a lost dependency edge in
    // parallel replay would produce. The watchdog must reject it.
    tc.trace_point(
        NodeId(0),
        SpanId::NONE,
        SpanKind::ReplayHop {
            pid: pid(0, 2),
            node: NodeId(0),
            from_psn: Psn(1),
            to_psn: Psn(2),
            applied: 1,
        },
    );
    let err = tc.trace_check().expect_err("watchdog flags the stale hop");
    let msg = err.to_string();
    assert!(
        msg.contains("replay"),
        "error names the replay violation: {msg}"
    );
}

#[test]
fn one_trace_is_observed_once_and_renders_through_the_shared_views() {
    // Two traced runs, a crash and a recovery on one cluster: every
    // span enters the trace through the watchdog, once, whether a
    // worker buffered it or the coordinating thread emitted it, and
    // the `trace_check` ending each step walked none of them again.
    let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
    let writes = |from: u64| -> Vec<TxnPlan> {
        (from..from + 3)
            .map(|v| wplan(0, 0, &[(pid(0, 2), 0, v)]))
            .collect()
    };
    tc.run(&writes(1)).unwrap();
    let first_run = tc.trace().observed();
    assert_eq!(first_run, tc.last_stats().unwrap().spans);
    tc.run(&writes(4)).unwrap();
    assert_eq!(
        tc.trace().observed(),
        first_run + tc.last_stats().unwrap().spans
    );
    tc.crash(NodeId(0)).unwrap();
    tc.recover(&RecoveryOptions::nodes(&[NodeId(0)])).unwrap();
    assert_eq!(tc.trace_dropped(), 0);
    assert_eq!(tc.trace().observed(), tc.trace().len() as u64);

    // The lineage and the Chrome export come from the functions the
    // simulator's `tracedump` scenarios print through.
    let spans = tc.trace().spans();
    assert_eq!(busiest_page(spans), Some(pid(0, 2)));
    let lineage = render_lineage(spans, pid(0, 2));
    let at = |what: &str| {
        lineage
            .find(what)
            .unwrap_or_else(|| panic!("no {what:?} line in:\n{lineage}"))
    };
    assert!(at("] update P0.2") < at("] crash N0"), "{lineage}");
    assert!(at("] crash N0") < at("] replay-hop P0.2"), "{lineage}");
    let json = chrome_trace_json(spans);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.contains("replay-hop P0.2"));
}

#[test]
fn profiler_buckets_partition_busy_time_exactly() {
    let mut tc = ThreadCluster::new(ThreadClusterConfig {
        group_commit: GroupCommitPolicy::Window {
            window_us: 1_000,
            max_batch: 8,
        },
        ..ThreadClusterConfig::default()
    })
    .unwrap();
    tc.run(&mixed_plans()).unwrap();
    for s in tc.last_node_stats() {
        assert_eq!(
            s.disk_us + s.cpu_us + s.net_us + s.replay_us,
            s.busy_us,
            "node {}: bucket sum equals busy time exactly",
            s.node
        );
        assert!(
            s.busy_us + s.lock_wait_us <= s.wall_us,
            "node {}: busy {} + lock_wait {} within wall {}",
            s.node,
            s.busy_us,
            s.lock_wait_us,
            s.wall_us
        );
    }
    // The bucket split is mirrored onto each node's registry as the
    // same prof/* gauges the simulator exports.
    let snap = tc.metrics();
    for s in tc.last_node_stats() {
        let key = format!("n{}/prof/disk_us", s.node);
        match snap.get(&key) {
            Some(cblog_common::MetricValue::Gauge(v)) => {
                assert_eq!(*v as u64, s.disk_us, "{key} mirrors the worker split");
            }
            other => panic!("expected gauge at {key}, got {other:?}"),
        }
    }
}

#[test]
fn tracing_off_is_bit_identical_and_spanless() {
    let run_once = |tracing: bool| {
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            tracing,
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        let report = tc.run(&mixed_plans()).unwrap();
        let spans = tc.last_stats().unwrap().spans;
        let mut images = Vec::new();
        for p in 0..2u32 {
            images.push(tc.page_image(pid(p, 0)).unwrap());
        }
        (report, spans, images, tc.trace().len())
    };
    let (on_report, on_spans, on_images, on_len) = run_once(true);
    let (off_report, off_spans, off_images, off_len) = run_once(false);
    assert_eq!(on_report, off_report, "tallies agree with tracing on/off");
    assert_eq!(on_images, off_images, "page images are bit-identical");
    assert!(on_spans > 0 && on_len > 0);
    assert_eq!(off_spans, 0, "tracing off records nothing");
    assert_eq!(off_len, 0);
}
