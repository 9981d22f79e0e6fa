//! Sim-vs-threads oracle equivalence.
//!
//! The deterministic simulator is the correctness oracle: both engines
//! execute the *same* seeded plan list through the same `Node`
//! protocol machinery, and because every stream writes only its own
//! private pages, each page's update sequence is stream-local — the
//! final page images are independent of how the threaded engine
//! interleaves streams. Byte-identical images (PSNs included) and
//! equal commit tallies are therefore hard requirements, not
//! statistical expectations.

use cblog_common::metrics::keys;
use cblog_common::{Error, NodeId, PageId};
use cblog_core::{
    recover, Cluster, ClusterConfig, GroupCommitPolicy, PlanOp, RecoveryOptions, RecoveryReport,
    ReplayMode, RunReport, Runtime, TxnPlan,
};
use cblog_rt::{ThreadCluster, ThreadClusterConfig, WalBacking};
use cblog_sim::workload::{self, WorkloadConfig};

/// Runs `plans` on both engines and asserts equal reports and
/// byte-identical final images of every page.
fn cross_check(
    owned: &[u32],
    policy: GroupCommitPolicy,
    plans: &[TxnPlan],
) -> (RunReport, RunReport) {
    let mut sim = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned.to_vec())
            .group_commit(policy)
            .build(),
    )
    .unwrap();
    let sim_report = Runtime::run(&mut sim, plans).unwrap();

    let dir = std::env::temp_dir().join(format!(
        "cblog-equiv-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rt = ThreadCluster::new(ThreadClusterConfig {
        owned_pages: owned.to_vec(),
        group_commit: policy,
        wal: WalBacking::Dir(dir.clone()),
        ..ThreadClusterConfig::default()
    })
    .unwrap();
    let rt_report = Runtime::run(&mut rt, plans).unwrap();

    assert_eq!(sim_report.committed, rt_report.committed, "commit tallies");
    assert_eq!(
        sim_report.user_aborts, rt_report.user_aborts,
        "user-abort tallies"
    );
    assert_eq!(sim_report.forced_aborts, 0, "sim saw conflicts");
    assert_eq!(rt_report.forced_aborts, 0, "threads saw conflicts");
    assert_eq!(
        sim_report.ops_executed, rt_report.ops_executed,
        "op tallies"
    );

    for (o, &count) in owned.iter().enumerate() {
        for i in 0..count {
            let pid = PageId::new(NodeId(o as u32), i);
            let a = Runtime::page_image(&mut sim, pid).unwrap();
            let b = Runtime::page_image(&mut rt, pid).unwrap();
            assert_eq!(a, b, "final image of {pid} diverged");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (sim_report, rt_report)
}

fn nodes(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId).collect()
}

#[test]
fn workload_a_write_heavy_no_aborts() {
    let owned = [8u32, 8, 8, 8];
    let cfg = WorkloadConfig {
        seed: 42,
        txns_per_client: 30,
        ops_per_txn: 6,
        write_ratio: 0.8,
        abort_prob: 0.0,
        ..WorkloadConfig::default()
    };
    let all: Vec<PageId> = (0..4)
        .flat_map(|o| workload::owned_pages(NodeId(o), 8))
        .collect();
    let plans = workload::generate(
        &cfg,
        &nodes(4),
        &all,
        Some(&|c: NodeId| workload::owned_pages(c, 8)),
    );
    let (_, rt_report) = cross_check(&owned, GroupCommitPolicy::Immediate, &plans);
    assert!(rt_report.committed > 0);
}

#[test]
fn workload_b_user_aborts_under_window_policy() {
    let owned = [6u32, 6, 6];
    let cfg = WorkloadConfig {
        seed: 7,
        txns_per_client: 25,
        ops_per_txn: 5,
        write_ratio: 0.6,
        abort_prob: 0.3,
        ..WorkloadConfig::default()
    };
    let all: Vec<PageId> = (0..3)
        .flat_map(|o| workload::owned_pages(NodeId(o), 6))
        .collect();
    let plans = workload::generate(
        &cfg,
        &nodes(3),
        &all,
        Some(&|c: NodeId| workload::owned_pages(c, 6)),
    );
    let policy = GroupCommitPolicy::Window {
        window_us: 300,
        max_batch: 8,
    };
    let (_, rt_report) = cross_check(&owned, policy, &plans);
    assert!(rt_report.user_aborts > 0, "seed must exercise rollback");
}

#[test]
fn workload_c_two_streams_per_node() {
    // Each (node, stream) pair gets a disjoint half of the node's
    // pages, so streams interleave freely on one worker without ever
    // colliding — exactly the situation MPL creates in the benchmark.
    let owned = [8u32, 8];
    let mk = |seed: u64, lo: u32| {
        let cfg = WorkloadConfig {
            seed,
            txns_per_client: 20,
            ops_per_txn: 4,
            write_ratio: 0.7,
            abort_prob: 0.1,
            ..WorkloadConfig::default()
        };
        let all: Vec<PageId> = (0..2)
            .flat_map(|o| workload::owned_pages(NodeId(o), 8))
            .collect();
        workload::generate(
            &cfg,
            &nodes(2),
            &all,
            Some(&move |c: NodeId| (lo..lo + 4).map(|i| PageId::new(c, i)).collect()),
        )
    };
    let mut plans = mk(99, 0);
    plans.extend(mk(100, 4).into_iter().map(|p| TxnPlan { stream: 1, ..p }));
    let policy = GroupCommitPolicy::Adaptive {
        min_window_us: 50,
        max_window_us: 2_000,
        target_batch: 2,
    };
    let (_, rt_report) = cross_check(&owned, policy, &plans);
    assert_eq!(rt_report.committed + rt_report.user_aborts, 80);
}

#[test]
fn workload_d_remote_reads_of_quiescent_pages() {
    // Writes stay stream-private; reads target the *other* node's high
    // pages, which nobody writes. The read path crosses the channel
    // mesh (threads) / the accounted network (sim); the final state is
    // still fully determined by each node's own write stream.
    let owned = [8u32, 8];
    let mut plans = Vec::new();
    for node in 0..2u32 {
        let peer = 1 - node;
        for t in 0..12u64 {
            plans.push(TxnPlan {
                client: NodeId(node),
                stream: 0,
                ops: vec![
                    PlanOp::Write {
                        pid: PageId::new(NodeId(node), (t % 4) as u32),
                        slot: (t % 8) as usize,
                        value: 1000 * node as u64 + t,
                    },
                    PlanOp::Read {
                        pid: PageId::new(NodeId(peer), 6),
                        slot: 0,
                    },
                    PlanOp::Read {
                        pid: PageId::new(NodeId(peer), 7),
                        slot: 1,
                    },
                ],
                abort: t % 6 == 5,
            });
        }
    }
    let (_, rt_report) = cross_check(&owned, GroupCommitPolicy::Immediate, &plans);
    assert_eq!(rt_report.committed, 20);
    assert_eq!(rt_report.user_aborts, 4);
}

#[test]
fn workload_e_two_streams_share_pages_on_disjoint_slots() {
    // Both streams of node 0 write the same two pages, each in its own
    // slot: the second stream's write waits on the first's page lock,
    // and no plan may be dropped for it. Slot-disjoint writes still
    // leave one final image whatever the interleaving.
    let mut plans = Vec::new();
    for t in 0..10u64 {
        for stream in 0..2 {
            let write = |index| PlanOp::Write {
                pid: PageId::new(NodeId(0), index),
                slot: stream,
                value: 100 * stream as u64 + t,
            };
            plans.push(TxnPlan {
                client: NodeId(0),
                stream,
                ops: vec![write(0), write(1)],
                abort: false,
            });
        }
    }
    let (sim_report, rt_report) = cross_check(&[2, 2], GroupCommitPolicy::Immediate, &plans);
    assert_eq!(sim_report.committed, 20);
    assert_eq!(rt_report.committed, 20);
}

// ---- recovery equivalence -------------------------------------------------

const REC_NODES: u32 = 2;
const REC_PAGES: u32 = 6;

/// Owner-local write plans with deep per-page redo chains: every node
/// writes each of its pages six times, so the wave scheduler has real
/// PSN intervals to order and the PSN filter real work to skip.
fn recovery_plans() -> Vec<TxnPlan> {
    let mut plans = Vec::new();
    for node in 0..REC_NODES {
        for round in 0..6u64 {
            for page in 0..REC_PAGES {
                plans.push(TxnPlan {
                    client: NodeId(node),
                    stream: 0,
                    ops: vec![PlanOp::Write {
                        pid: PageId::new(NodeId(node), page),
                        slot: (round % 8) as usize,
                        value: 10_000 * node as u64 + 100 * round + page as u64,
                    }],
                    abort: false,
                });
            }
        }
    }
    plans
}

fn all_rec_pages() -> Vec<PageId> {
    (0..REC_NODES)
        .flat_map(|o| (0..REC_PAGES).map(move |i| PageId::new(NodeId(o), i)))
        .collect()
}

/// Runs the recovery workload on one engine, crashes every node, and
/// recovers under `mode`; returns the report plus the final image of
/// every page.
fn sim_recovered(mode: ReplayMode) -> (RecoveryReport, Vec<Vec<u8>>) {
    let mut sim = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![REC_PAGES; REC_NODES as usize])
            .build(),
    )
    .unwrap();
    Runtime::run(&mut sim, &recovery_plans()).unwrap();
    for n in 0..REC_NODES {
        sim.crash(NodeId(n));
    }
    let opts = RecoveryOptions::nodes(&[NodeId(0), NodeId(1)]).replay(mode);
    let report = recover(&mut sim, &opts).unwrap();
    let images = all_rec_pages()
        .iter()
        .map(|&pid| Runtime::page_image(&mut sim, pid).unwrap())
        .collect();
    (report, images)
}

fn rt_recovered(mode: ReplayMode, tag: &str) -> (RecoveryReport, Vec<Vec<u8>>) {
    let dir = std::env::temp_dir().join(format!("cblog-equiv-rec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rt = ThreadCluster::new(ThreadClusterConfig {
        owned_pages: vec![REC_PAGES; REC_NODES as usize],
        wal: WalBacking::Dir(dir.clone()),
        ..ThreadClusterConfig::default()
    })
    .unwrap();
    Runtime::run(&mut rt, &recovery_plans()).unwrap();
    for n in 0..REC_NODES {
        rt.crash(NodeId(n)).unwrap();
    }
    let opts = RecoveryOptions::nodes(&[NodeId(0), NodeId(1)]).replay(mode);
    let report = recover(&mut rt, &opts).unwrap();
    let images = all_rec_pages()
        .iter()
        .map(|&pid| Runtime::page_image(&mut rt, pid).unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (report, images)
}

#[test]
fn recovery_images_match_across_engines_and_replay_modes() {
    // Serial on the simulator is the oracle; every other (engine,
    // mode) combination must land on byte-identical page images.
    let (serial_report, oracle) = sim_recovered(ReplayMode::Serial);
    let total = (REC_NODES * REC_PAGES) as usize;
    assert_eq!(
        serial_report.pages_recovered + serial_report.pages_skipped_cached,
        total
    );
    assert!(serial_report.records_replayed > 0, "redo must have work");

    for workers in [2usize, 4, 8] {
        let (report, images) = sim_recovered(ReplayMode::Parallel { workers });
        assert_eq!(images, oracle, "sim parallel({workers}) image diverged");
        assert_eq!(report.replay_waves, serial_report.replay_waves);
        assert_eq!(report.records_replayed, serial_report.records_replayed);
    }

    let (rt_serial, rt_oracle) = rt_recovered(ReplayMode::Serial, "serial");
    assert_eq!(rt_oracle, oracle, "threads serial image diverged from sim");
    assert_eq!(
        rt_serial.pages_recovered + rt_serial.pages_skipped_cached,
        total
    );
    // The threaded engine plans nothing: one pass over the dirty pages,
    // whose longest chain is one page's six records.
    assert_eq!(rt_serial.replay_waves, 1);
    assert_eq!(rt_serial.critical_path_psns, 6);
    let [pass] = rt_serial.timings.replay_waves() else {
        panic!("one pass, not {:?}", rt_serial.timings.replay_waves())
    };
    assert_eq!(pass.units, rt_serial.pages_recovered);
    assert_eq!(pass.makespan_us, pass.serial_us);
    for workers in [2usize, 4, 8] {
        let (report, images) =
            rt_recovered(ReplayMode::Parallel { workers }, &format!("par{workers}"));
        assert_eq!(images, oracle, "threads parallel({workers}) image diverged");
        assert_eq!(report.replay_waves, rt_serial.replay_waves);
        assert_eq!(report.records_replayed, rt_serial.records_replayed);
    }
}

/// Every page image of the recovery workload on `rt`.
fn rec_images(rt: &mut impl Runtime) -> Vec<Vec<u8>> {
    all_rec_pages()
        .iter()
        .map(|&pid| rt.page_image(pid).unwrap())
        .collect()
}

#[test]
fn both_engines_refuse_to_recover_a_node_that_never_crashed() {
    let mut sim = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![REC_PAGES; REC_NODES as usize])
            .build(),
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("cblog-equiv-up-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rt = ThreadCluster::new(ThreadClusterConfig {
        owned_pages: vec![REC_PAGES; REC_NODES as usize],
        wal: WalBacking::Dir(dir.clone()),
        ..ThreadClusterConfig::default()
    })
    .unwrap();
    Runtime::run(&mut sim, &recovery_plans()).unwrap();
    Runtime::run(&mut rt, &recovery_plans()).unwrap();
    let oracle = rec_images(&mut sim);
    assert_eq!(rec_images(&mut rt), oracle);
    let refusal = |err: Error| match err {
        Error::Protocol(m) => m,
        e => panic!("expected a Protocol error, got {e}"),
    };
    let opts = RecoveryOptions::single(NodeId(0));
    let sim_err = refusal(recover(&mut sim, &opts).unwrap_err());
    assert_eq!(sim_err, "N0 is not crashed");
    assert_eq!(refusal(recover(&mut rt, &opts).unwrap_err()), sim_err);
    assert_eq!(rec_images(&mut sim), oracle);
    assert_eq!(rec_images(&mut rt), oracle);

    // A crashed node listed beside one that is up is not touched
    // either: it is still crashed, and recovers on its own afterwards.
    sim.crash(NodeId(1));
    rt.crash(NodeId(1)).unwrap();
    let both = RecoveryOptions::nodes(&[NodeId(1), NodeId(0)]);
    assert_eq!(refusal(recover(&mut sim, &both).unwrap_err()), sim_err);
    assert_eq!(refusal(recover(&mut rt, &both).unwrap_err()), sim_err);
    let alone = RecoveryOptions::single(NodeId(1));
    let (sim_report, rt_report) = (
        recover(&mut sim, &alone).unwrap(),
        recover(&mut rt, &alone).unwrap(),
    );
    assert_eq!(sim_report.records_replayed, rt_report.records_replayed);
    assert_eq!(rec_images(&mut sim), oracle);
    assert_eq!(rec_images(&mut rt), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The second life of the recovery workload: every page written again
/// in new slots, every third transaction rolled back by its user.
fn second_life_plans() -> Vec<TxnPlan> {
    let mut plans = Vec::new();
    for node in 0..REC_NODES {
        for round in 0..4u64 {
            for page in 0..REC_PAGES {
                plans.push(TxnPlan {
                    client: NodeId(node),
                    stream: 0,
                    ops: vec![
                        PlanOp::Write {
                            pid: PageId::new(NodeId(node), page),
                            slot: (round % 4) as usize + 2,
                            value: 50_000 + 1_000 * node as u64 + 100 * round + page as u64,
                        },
                        PlanOp::Write {
                            pid: PageId::new(NodeId(node), (page + 1) % REC_PAGES),
                            slot: 7,
                            value: 90_000 + 100 * round + page as u64,
                        },
                    ],
                    abort: (round * REC_PAGES as u64 + page as u64) % 3 == 2,
                });
            }
        }
    }
    plans
}

/// Run, crash every node, recover, run again, crash, recover: on one
/// cluster of either engine, so the second restart meets the
/// checkpoint the first recovery ended with. Returns both reports and
/// the final image of every page.
fn recovered_twice<R: Runtime>(
    rt: &mut R,
    crash: fn(&mut R, NodeId),
    mode: ReplayMode,
) -> (Vec<RecoveryReport>, Vec<Vec<u8>>) {
    let opts = RecoveryOptions::nodes(&[NodeId(0), NodeId(1)]).replay(mode);
    let mut reports = Vec::new();
    for plans in [recovery_plans(), second_life_plans()] {
        rt.run(&plans).unwrap();
        for n in 0..REC_NODES {
            crash(rt, NodeId(n));
        }
        reports.push(recover(rt, &opts).unwrap());
    }
    let images = all_rec_pages()
        .iter()
        .map(|&pid| rt.page_image(pid).unwrap())
        .collect();
    (reports, images)
}

#[test]
fn a_second_recovery_reads_back_what_both_lives_committed() {
    // What the plans say every slot holds: the last committed write.
    let mut want = std::collections::BTreeMap::new();
    for plan in recovery_plans().iter().chain(&second_life_plans()) {
        for op in plan.ops.iter().filter(|_| !plan.abort) {
            if let PlanOp::Write { pid, slot, value } = *op {
                want.insert((pid, slot), value);
            }
        }
    }
    let mut sim = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![REC_PAGES; REC_NODES as usize])
            .build(),
    )
    .unwrap();
    let (_, oracle) = recovered_twice(&mut sim, Cluster::crash, ReplayMode::Serial);
    for (&pid, image) in all_rec_pages().iter().zip(&oracle) {
        let page = cblog_storage::Page::from_bytes(image.clone()).unwrap();
        for slot in 0..8 {
            let got = page.read_slot(slot).unwrap();
            assert_eq!(
                got,
                want.get(&(pid, slot)).copied().unwrap_or(0),
                "{pid}[{slot}]"
            );
        }
    }
    for (mode, tag) in [
        (ReplayMode::Serial, "serial"),
        (ReplayMode::Parallel { workers: 4 }, "par4"),
    ] {
        let dir =
            std::env::temp_dir().join(format!("cblog-equiv-twice-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rt = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![REC_PAGES; REC_NODES as usize],
            wal: WalBacking::Dir(dir.clone()),
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        let crash = |rt: &mut ThreadCluster, n| rt.crash(n).unwrap();
        let (reports, images) = recovered_twice(&mut rt, crash, mode);
        assert_eq!(images, oracle, "threads {mode:?} image diverged from sim");
        // The second restart started at the first one's checkpoint: it
        // read the second life, not the first one again.
        let metrics = rt.metrics();
        let logged: u64 = (0..REC_NODES)
            .map(|n| metrics.counter(&format!("n{n}/{}", keys::WAL_BYTES)))
            .sum();
        let [first, second] = [&reports[0], &reports[1]].map(|r| r.log_bytes_scanned);
        assert!(
            second < logged - first,
            "{mode:?}: {first} + {second} of {logged}"
        );
        assert!(reports[1].records_replayed > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
