//! Group-commit integration tests: durability of force-pending
//! commits across crashes, idempotent acknowledgement when unrelated
//! forces interleave with a batch, and oracle-verified workloads
//! across window settings.

use cblog_common::metrics::keys;
use cblog_common::{CostModel, NodeId, PageId, SpanKind};
use cblog_core::{recovery, Cluster, ClusterConfig, GroupCommitPolicy, RecoveryOptions};
use cblog_sim::{run_workload, workload, WorkloadConfig};

fn gc_cluster(clients: usize, pages: u32, policy: GroupCommitPolicy) -> Cluster {
    let mut owned = vec![pages];
    owned.extend(std::iter::repeat(0).take(clients));
    Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(1024)
            .buffer_frames(32)
            .default_owned_pages(0)
            .cost(CostModel::unit())
            .group_commit(policy)
            .tracing(true)
            .build(),
    )
    .unwrap()
}

/// A window wide enough that nothing flushes on its own during a
/// unit-cost test.
fn open_window() -> GroupCommitPolicy {
    GroupCommitPolicy::Window {
        window_us: 1_000_000,
        max_batch: 64,
    }
}

#[test]
fn crash_with_open_window_loses_exactly_the_unacked_commits() {
    let mut c = gc_cluster(2, 4, open_window());
    let p0 = PageId::new(NodeId(0), 0);
    let p1 = PageId::new(NodeId(0), 1);
    // A: synchronously committed — the wrapper forces the window shut.
    let a = c.begin(NodeId(1)).unwrap();
    c.write_u64(a, p0, 0, 10).unwrap();
    c.commit(a).unwrap();
    // B and C: updates durable (forced), commit records force-pending.
    let b = c.begin(NodeId(1)).unwrap();
    c.write_u64(b, p0, 0, 20).unwrap();
    let d = c.begin(NodeId(1)).unwrap();
    c.write_u64(d, p1, 0, 30).unwrap();
    c.node_mut(NodeId(1)).force_log().unwrap();
    c.commit_submit(b).unwrap();
    c.commit_submit(d).unwrap();
    assert!(!c.poll_committed(b).unwrap(), "B unacknowledged");
    assert!(!c.poll_committed(d).unwrap(), "C unacknowledged");
    // Crash while the window is open: the unforced Commit records are
    // lost, so exactly B and C roll back; A survives.
    c.crash(NodeId(1));
    recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
    let t = c.begin(NodeId(2)).unwrap();
    assert_eq!(
        c.read_u64(t, p0, 0).unwrap(),
        10,
        "A survives, B rolled back"
    );
    assert_eq!(c.read_u64(t, p1, 0).unwrap(), 0, "C rolled back");
    c.commit(t).unwrap();
}

#[test]
fn interleaved_force_acks_pending_commits_without_a_new_force() {
    let mut c = gc_cluster(1, 4, open_window());
    let p0 = PageId::new(NodeId(0), 0);
    let b = c.begin(NodeId(1)).unwrap();
    c.write_u64(b, p0, 0, 7).unwrap();
    c.commit_submit(b).unwrap();
    assert!(!c.poll_committed(b).unwrap());
    // An unrelated force (WAL rule, checkpoint, log-space pressure)
    // makes the pending Commit record durable.
    let forces0 = c.node(NodeId(1)).log().forces();
    c.node_mut(NodeId(1)).force_log().unwrap();
    assert!(
        c.poll_committed(b).unwrap(),
        "the interleaved force acknowledges the batch"
    );
    assert_eq!(
        c.node(NodeId(1)).log().forces(),
        forces0 + 1,
        "acknowledgement is idempotent: no second force"
    );
}

#[test]
fn a_ship_never_carries_a_parked_commit_a_crash_would_undo() {
    // The owner commits on its own page and parks; its lock is gone, so
    // a remote reader's callback against the owner is applied and the
    // page is shipped. The reader commits on what it saw. Whatever the
    // owner then loses in a crash, it must not be that value.
    let mut c = gc_cluster(1, 4, open_window());
    let p0 = PageId::new(NodeId(0), 0);
    let w = c.begin(NodeId(0)).unwrap();
    c.write_u64(w, p0, 0, 20).unwrap();
    c.commit_submit(w).unwrap();
    assert!(!c.poll_committed(w).unwrap(), "the writer is parked");
    let forces0 = c.node(NodeId(0)).log().forces();
    let r = c.begin(NodeId(1)).unwrap();
    assert_eq!(c.read_u64(r, p0, 0).unwrap(), 20);
    c.commit(r).unwrap();
    let ship_forces = c.node(NodeId(0)).log().forces() - forces0;
    c.crash(NodeId(0));
    recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
    let t = c.begin(NodeId(0)).unwrap();
    assert_eq!(
        c.read_u64(t, p0, 0).unwrap(),
        20,
        "a committed reader saw this value: recovery may not undo it"
    );
    c.commit(t).unwrap();
    assert_eq!(ship_forces, 1, "the ship forced the owner's log once");
    c.trace_check().unwrap();
}

#[test]
fn batch_acknowledges_in_submission_order_with_one_force() {
    let mut c = gc_cluster(
        1,
        4,
        GroupCommitPolicy::Window {
            window_us: 1_000_000,
            max_batch: 3,
        },
    );
    let pages: Vec<PageId> = (0..3).map(|i| PageId::new(NodeId(0), i)).collect();
    let txns: Vec<_> = pages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t = c.begin(NodeId(1)).unwrap();
            c.write_u64(t, *p, 0, i as u64 + 1).unwrap();
            t
        })
        .collect();
    let forces0 = c.node(NodeId(1)).log().forces();
    c.commit_submit(txns[0]).unwrap();
    c.commit_submit(txns[1]).unwrap();
    assert!(!c.poll_committed(txns[0]).unwrap());
    // The third submission fills the batch and flushes inline.
    c.commit_submit(txns[2]).unwrap();
    for &t in &txns {
        assert!(c.poll_committed(t).unwrap(), "whole group acknowledged");
    }
    assert_eq!(
        c.node(NodeId(1)).log().forces(),
        forces0 + 1,
        "one force covers the batch"
    );
    let groups = c
        .node(NodeId(1))
        .registry()
        .histogram("wal/group_size")
        .snapshot();
    assert_eq!(groups.max, 3, "group size metric sees the full batch");
    let wanted = |k: &SpanKind| {
        matches!(
            k,
            SpanKind::GroupForce {
                node: NodeId(1),
                txns: 3,
                ..
            }
        )
    };
    let trace = c.tracer().snapshot();
    assert_eq!(
        trace.spans().iter().filter(|s| wanted(&s.kind)).count(),
        1,
        "one span for the batched force"
    );
}

#[test]
fn one_pump_flushes_every_scheduler_the_clock_ran_past() {
    // Regression test for the pump sweep: flushing the node with the
    // earliest deadline spends disk time, which can push the clock
    // past another node's deadline. A single pump_commits() must keep
    // re-evaluating all schedulers until none is due — the old single
    // pass skipped node 1 here because it was examined (not yet due)
    // before node 2's flush advanced the clock.
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![8, 0, 0, 0])
            .page_size(1024)
            .buffer_frames(32)
            .default_owned_pages(0)
            .cost(CostModel {
                msg_fixed_us: 500,
                wire_us_per_kib: 0,
                io_fixed_us: 10_000,
                disk_us_per_kib: 0,
                handle_us: 0,
            })
            .group_commit(GroupCommitPolicy::Adaptive {
                min_window_us: 1_000,
                max_window_us: 100_000,
                target_batch: 16,
            })
            .build(),
    )
    .unwrap();
    let p1 = PageId::new(NodeId(0), 1);
    let p2 = PageId::new(NodeId(0), 2);
    let p_delta = PageId::new(NodeId(0), 3);
    // Warm caches/locks and feed each node's rate estimator a first
    // inter-arrival sample.
    let a = c.begin(NodeId(1)).unwrap();
    c.write_u64(a, p1, 0, 1).unwrap();
    c.commit(a).unwrap();
    let b = c.begin(NodeId(2)).unwrap();
    c.write_u64(b, p2, 0, 1).unwrap();
    c.commit(b).unwrap();
    // Cache p_delta (shared) at nodes 1 and 3 so node 3's later lock
    // upgrade on it costs only messages — a sub-force clock advance.
    let warm = c.begin(NodeId(1)).unwrap();
    c.read_u64(warm, p_delta, 0).unwrap();
    c.abort(warm).unwrap();
    let warm3 = c.begin(NodeId(3)).unwrap();
    c.read_u64(warm3, p_delta, 0).unwrap();
    c.abort(warm3).unwrap();
    // Node 2 submits first: its adaptive deadline is the earliest.
    let t2 = c.begin(NodeId(2)).unwrap();
    c.write_u64(t2, p2, 0, 22).unwrap();
    c.commit_submit(t2).unwrap();
    // A message-only operation (X upgrade on a cached page, with a
    // callback to node 1's shared copy) staggers the clock by less
    // than one disk force, so node 1's deadline lands inside node 2's
    // flush.
    let d = c.begin(NodeId(3)).unwrap();
    c.write_u64(d, p_delta, 0, 9).unwrap();
    c.abort(d).unwrap();
    let t1 = c.begin(NodeId(1)).unwrap();
    c.write_u64(t1, p1, 0, 11).unwrap();
    c.commit_submit(t1).unwrap();
    // Precondition: both estimators trained onto the same clamped
    // window, so the deadlines differ by exactly the submit stagger.
    for n in [1u32, 2] {
        assert_eq!(
            c.node(NodeId(n))
                .registry()
                .gauge(keys::WAL_WINDOW_US)
                .get(),
            100_000,
            "node {n} window clamps to the cap"
        );
    }
    assert!(!c.poll_committed(t1).unwrap());
    assert!(!c.poll_committed(t2).unwrap());
    let f1 = c.node(NodeId(1)).log().forces();
    let f2 = c.node(NodeId(2)).log().forces();
    assert!(c.pump_commits().unwrap(), "pump makes progress");
    assert!(
        c.poll_committed(t2).unwrap(),
        "earliest deadline flushed by the pump"
    );
    assert!(
        c.poll_committed(t1).unwrap(),
        "the same pump re-evaluates node 1 after node 2's flush \
         advanced the clock past its deadline"
    );
    assert_eq!(c.node(NodeId(1)).log().forces(), f1 + 1);
    assert_eq!(c.node(NodeId(2)).log().forces(), f2 + 1);
}

#[test]
fn adaptive_oracle_verified_workload_across_crash_and_recovery() {
    let policy = GroupCommitPolicy::Adaptive {
        min_window_us: 100,
        max_window_us: 20_000,
        target_batch: 4,
    };
    let mut c = gc_cluster(2, 8, policy);
    let pages: Vec<PageId> = (0..8).map(|i| PageId::new(NodeId(0), i)).collect();
    // Phase 1: a mixed workload commits entirely through the adaptive
    // pipeline and every acknowledged value is readable.
    let cfg = WorkloadConfig {
        txns_per_client: 30,
        ops_per_txn: 5,
        write_ratio: 0.6,
        hot_access: 0.3,
        seed: 7,
        ..WorkloadConfig::default()
    };
    let specs = workload::generate(&cfg, &[NodeId(1), NodeId(2)], &pages, None);
    let stats = run_workload(&mut c, specs).unwrap();
    assert_eq!(stats.committed, 60, "adaptive pipeline commits everything");
    stats.oracle.verify(&mut c, NodeId(1)).unwrap();
    // Crash with an open adaptive window: A is acknowledged before the
    // crash, B's commit record is parked behind a deadline that never
    // arrives. Durability is only ever acknowledged by the covering
    // force, so B must roll back and A must survive.
    let p0 = pages[0];
    let a = c.begin(NodeId(1)).unwrap();
    c.write_u64(a, p0, 0, 10).unwrap();
    c.commit(a).unwrap();
    let b = c.begin(NodeId(1)).unwrap();
    c.write_u64(b, p0, 0, 20).unwrap();
    c.node_mut(NodeId(1)).force_log().unwrap();
    c.commit_submit(b).unwrap();
    assert!(
        !c.poll_committed(b).unwrap(),
        "no ack before the covering force"
    );
    c.crash(NodeId(1));
    recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
    let t = c.begin(NodeId(2)).unwrap();
    assert_eq!(
        c.read_u64(t, p0, 0).unwrap(),
        10,
        "A survives, B rolls back"
    );
    c.commit(t).unwrap();
    // Phase 2: the recovered node keeps committing under the same
    // adaptive scheduler, and the oracle still verifies end to end.
    let cfg2 = WorkloadConfig {
        txns_per_client: 20,
        ops_per_txn: 4,
        write_ratio: 0.6,
        hot_access: 0.3,
        seed: 43,
        ..WorkloadConfig::default()
    };
    let specs2 = workload::generate(&cfg2, &[NodeId(1), NodeId(2)], &pages, None);
    let stats2 = run_workload(&mut c, specs2).unwrap();
    assert_eq!(stats2.committed, 40, "recovered node commits again");
    stats2.oracle.verify(&mut c, NodeId(1)).unwrap();
}

#[test]
fn oracle_verified_workloads_across_window_settings() {
    let policies = [
        GroupCommitPolicy::Immediate,
        GroupCommitPolicy::Window {
            window_us: 200,
            max_batch: 2,
        },
        GroupCommitPolicy::Window {
            window_us: 5_000,
            max_batch: 4,
        },
        GroupCommitPolicy::Window {
            window_us: 1_000_000,
            max_batch: 8,
        },
    ];
    let mut forces_immediate = 0u64;
    for (i, policy) in policies.iter().enumerate() {
        let mut c = gc_cluster(2, 8, *policy);
        let cfg = WorkloadConfig {
            txns_per_client: 30,
            ops_per_txn: 5,
            write_ratio: 0.6,
            hot_access: 0.3,
            seed: 42,
            ..WorkloadConfig::default()
        };
        let pages: Vec<PageId> = (0..8).map(|i| PageId::new(NodeId(0), i)).collect();
        let specs = workload::generate(&cfg, &[NodeId(1), NodeId(2)], &pages, None);
        let stats = run_workload(&mut c, specs).unwrap();
        assert_eq!(stats.committed, 60, "policy {policy:?} commits everything");
        stats.oracle.verify(&mut c, NodeId(1)).unwrap();
        let forces: u64 = (1..=2).map(|n| c.node(NodeId(n)).log().forces()).sum();
        if i == 0 {
            forces_immediate = forces;
        } else {
            assert!(
                forces <= forces_immediate,
                "windowed policy {policy:?} never forces more than immediate: \
                 {forces} vs {forces_immediate}"
            );
        }
    }
}
