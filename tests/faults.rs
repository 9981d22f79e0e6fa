//! Fault-injection integration tests: torn log tails swept over every
//! byte boundary of the unsynced tail, crash-during-recovery
//! idempotence for every protocol phase, and oracle-verified workloads
//! over a lossy network.

use cblog_common::{CostModel, Error, NodeId, PageId, RecoveryPhase};
use cblog_core::{recovery, Cluster, ClusterConfig, FaultPlan, GroupCommitPolicy, RecoveryOptions};
use cblog_sim::{experiments, run_workload, workload, WorkloadConfig};

fn cluster(owned: Vec<u32>, policy: GroupCommitPolicy, faults: FaultPlan) -> Cluster {
    Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(1024)
            .buffer_frames(16)
            .cost(CostModel::unit())
            .group_commit(policy)
            .faults(faults)
            .build(),
    )
    .unwrap()
}

/// A group-commit window wide enough that nothing flushes on its own.
fn open_window() -> GroupCommitPolicy {
    GroupCommitPolicy::Window {
        window_us: 1_000_000,
        max_batch: 64,
    }
}

/// Client 1 submits three transactions into an open group-commit
/// window: the whole batch (update + commit records, in order) sits in
/// the unsynced tail. Returns the cluster and the three pages written.
fn open_batch() -> (Cluster, Vec<PageId>) {
    let mut c = cluster(vec![4, 0], open_window(), FaultPlan::default());
    let pages: Vec<PageId> = (0..3).map(|i| PageId::new(NodeId(0), i)).collect();
    // A committed warm-up transaction closes its own window, so the
    // tail afterwards holds exactly the test batch.
    let warm = c.begin(NodeId(1)).unwrap();
    c.write_u64(warm, pages[0], 1, 1).unwrap();
    c.commit(warm).unwrap();
    for (i, p) in pages.iter().enumerate() {
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, *p, 0, 11 * (i as u64 + 1)).unwrap();
        c.commit_submit(t).unwrap();
        assert!(!c.poll_committed(t).unwrap(), "window still open");
    }
    (c, pages)
}

/// Tears the tail at every byte boundary (clean-cut and corrupted):
/// recovery must keep exactly a prefix of the submitted batch — no
/// partial transaction, no garbage value, monotone in landed bytes.
#[test]
fn torn_tail_at_every_byte_boundary_discards_an_exact_suffix() {
    let (probe, _) = open_batch();
    let pending = probe.pending_log_bytes(NodeId(1));
    assert!(pending > 0, "batch is unsynced");
    let mut prev_clean = 0usize;
    for landed in 0..=pending {
        for corrupt in [false, true] {
            let (mut c, pages) = open_batch();
            assert_eq!(
                c.pending_log_bytes(NodeId(1)),
                pending,
                "deterministic batch"
            );
            c.crash_torn(NodeId(1), landed, corrupt);
            recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
            let t = c.begin(NodeId(0)).unwrap();
            let mut survived = Vec::new();
            for (i, p) in pages.iter().enumerate() {
                let v = c.read_u64(t, *p, 0).unwrap();
                let want = 11 * (i as u64 + 1);
                assert!(
                    v == want || v == 0,
                    "slot holds the committed value or nothing: got {v} at txn {i} \
                     (landed {landed}, corrupt {corrupt})"
                );
                survived.push(v == want);
            }
            c.commit(t).unwrap();
            // Exact-suffix discard: survivors form a prefix of the
            // batch (records land in submission order).
            for w in survived.windows(2) {
                assert!(
                    w[0] || !w[1],
                    "txn survived while an earlier one was discarded \
                     (landed {landed}, corrupt {corrupt}): {survived:?}"
                );
            }
            let n = survived.iter().filter(|s| **s).count();
            if corrupt {
                // Corrupting the last landed byte only invalidates.
                assert!(
                    n <= prev_clean,
                    "corrupt tear kept more than the clean one at landed {landed}"
                );
            } else {
                assert!(n >= prev_clean, "survivors monotone in landed bytes");
                prev_clean = n;
            }
        }
    }
    // The full tail, cleanly landed, commits the whole batch; with its
    // last byte corrupted the final commit record must be discarded.
    assert_eq!(prev_clean, 3, "full tail keeps every submitted commit");
    let (mut c, pages) = open_batch();
    c.crash_torn(NodeId(1), pending, true);
    recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
    let t = c.begin(NodeId(0)).unwrap();
    assert_eq!(
        c.read_u64(t, pages[2], 0).unwrap(),
        0,
        "corrupted commit lost"
    );
    assert_eq!(
        c.read_u64(t, pages[1], 0).unwrap(),
        22,
        "earlier commit kept"
    );
    c.commit(t).unwrap();
}

/// Committed cross-node updates plus one forced loser, with the only
/// current images pushed into the owner's (about to be lost) buffer.
fn crashable_cluster() -> (Cluster, Vec<(PageId, u64)>) {
    let mut c = cluster(
        vec![6, 0, 0],
        GroupCommitPolicy::Immediate,
        FaultPlan::default(),
    );
    let mut expect = Vec::new();
    for round in 0..2u64 {
        for client in 1..=2u32 {
            let p = PageId::new(NodeId(0), (client - 1) + 2 * round as u32);
            let t = c.begin(NodeId(client)).unwrap();
            let v = 100 * round + client as u64;
            c.write_u64(t, p, 0, v).unwrap();
            c.commit(t).unwrap();
            expect.push((p, v));
        }
    }
    // A loser on the node about to crash: logged (forced) but never
    // committed, so recovery must undo it.
    let loser = c.begin(NodeId(0)).unwrap();
    c.write_u64(loser, PageId::new(NodeId(0), 5), 3, 666)
        .unwrap();
    c.node_mut(NodeId(0)).force_log().unwrap();
    expect.push((PageId::new(NodeId(0), 5), 0));
    for client in 1..=2u32 {
        for i in 0..6u32 {
            let _ = c.evict_page(NodeId(client), PageId::new(NodeId(0), i));
        }
    }
    (c, expect)
}

fn assert_recovered(c: &mut Cluster, expect: &[(PageId, u64)]) {
    let t = c.begin(NodeId(2)).unwrap();
    for &(p, v) in expect {
        assert_eq!(c.read_u64(t, p, if v == 0 { 3 } else { 0 }).unwrap(), v);
    }
    c.commit(t).unwrap();
}

/// Injects a crash after each recovery phase in turn; re-running
/// recovery from scratch must complete and converge to the same state.
#[test]
fn crash_during_recovery_is_idempotent_after_every_phase() {
    for &phase in RecoveryPhase::ALL.iter() {
        let (mut c, expect) = crashable_cluster();
        c.crash(NodeId(0));
        let err = recovery::recover(
            &mut c,
            &RecoveryOptions::single(NodeId(0)).crash_after(phase),
        )
        .unwrap_err();
        match err {
            Error::RecoveryInterrupted(p) => assert_eq!(p, phase),
            other => panic!("expected RecoveryInterrupted({phase}), got {other}"),
        }
        recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0)))
            .unwrap_or_else(|e| panic!("re-run after {phase} crash failed: {e}"));
        assert_recovered(&mut c, &expect);
    }
}

/// One cluster surviving an interruption after every phase in
/// sequence — ten restarts of the same recovery — still converges.
#[test]
fn repeatedly_interrupted_recovery_still_converges() {
    let (mut c, expect) = crashable_cluster();
    c.crash(NodeId(0));
    for &phase in RecoveryPhase::ALL.iter() {
        let err = recovery::recover(
            &mut c,
            &RecoveryOptions::single(NodeId(0)).crash_after(phase),
        )
        .unwrap_err();
        assert!(matches!(err, Error::RecoveryInterrupted(p) if p == phase));
    }
    recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
    assert_recovered(&mut c, &expect);
}

/// A lossy, delaying, duplicating, reordering network: every
/// transaction still commits (bounded retries mask the faults) and the
/// committed state matches the oracle exactly.
#[test]
fn lossy_network_workload_is_oracle_verified() {
    let plan = FaultPlan::new(0xBAD)
        .with_drop(0.1)
        .with_delay(0.1, 200)
        .with_duplicate(0.05)
        .with_reorder(0.05);
    let mut c = cluster(vec![8, 0, 0], GroupCommitPolicy::Immediate, plan);
    let cfg = WorkloadConfig {
        txns_per_client: 25,
        ops_per_txn: 5,
        write_ratio: 0.7,
        seed: 42,
        ..WorkloadConfig::default()
    };
    let specs = workload::generate(&cfg, &[NodeId(1), NodeId(2)], &experiments::pages0(8), None);
    let stats = run_workload(&mut c, specs).unwrap();
    assert_eq!(stats.report.committed, 50, "no commit lost to the network");
    assert!(stats.faults.dropped > 0, "the injector actually fired");
    assert!(stats.faults.retries > 0, "drops were masked by resends");
    assert_eq!(stats.faults.exhausted, 0, "retry budget never exhausted");
    let verified = stats.oracle.verify(&mut c, NodeId(1)).unwrap();
    assert!(verified > 0);
}

/// Fast fault matrix: drop × tear combinations, each run through
/// workload → crash → recovery → oracle verification.
#[test]
fn fault_matrix_smoke() {
    for (i, drop) in [0.0f64, 0.05, 0.2].into_iter().enumerate() {
        for (j, tear) in [0.0f64, 1.0].into_iter().enumerate() {
            let plan = FaultPlan::new(7 + (i * 2 + j) as u64)
                .with_drop(drop)
                .with_tear(tear);
            let mut c = cluster(vec![4, 0], GroupCommitPolicy::Immediate, plan);
            let cfg = WorkloadConfig {
                txns_per_client: 10,
                ops_per_txn: 3,
                write_ratio: 1.0,
                seed: 1 + i as u64,
                ..WorkloadConfig::default()
            };
            let specs = workload::generate(&cfg, &[NodeId(1)], &experiments::pages0(4), None);
            let stats = run_workload(&mut c, specs).unwrap();
            assert_eq!(stats.report.committed, 10);
            // Leave unsynced loser bytes for the tear to bite.
            let loser = c.begin(NodeId(1)).unwrap();
            c.write_u64(loser, PageId::new(NodeId(0), 0), 7, 999)
                .unwrap();
            let pending = c.pending_log_bytes(NodeId(1));
            c.crash(NodeId(1));
            let rep = recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
            assert!(rep.torn_bytes_discarded <= pending);
            if tear == 0.0 {
                assert_eq!(rep.torn_bytes_discarded, 0);
            }
            // Torn or not, the uncommitted loser never resurfaces.
            let t = c.begin(NodeId(0)).unwrap();
            assert_ne!(c.read_u64(t, PageId::new(NodeId(0), 0), 7).unwrap(), 999);
            c.commit(t).unwrap();
            assert_eq!(
                c.network().fault_stats().exhausted,
                0,
                "retries stayed bounded"
            );
            stats.oracle.verify(&mut c, NodeId(0)).unwrap();
        }
    }
}
