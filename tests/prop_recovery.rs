//! Randomized tests of the system's central invariant:
//!
//! > After any workload, any crash set, and recovery, the database
//! > shows exactly the committed state — durability for winners,
//! > atomicity for losers — without any log ever being merged.
//!
//! Workload shape, crash victims, eviction patterns and seeds are all
//! drawn from the workspace's deterministic `Rng` (the build has no
//! crates.io access, so no proptest); each case is reproducible from
//! its printed case number.

use cblog_common::{CostModel, NodeId, PageId, Rng};
use cblog_core::{recovery, Cluster, ClusterConfig, RecoveryOptions};
use cblog_sim::{run_workload, workload, WorkloadConfig};

const OWNER_PAGES: u32 = 6;

fn build(clients: usize, frames: usize) -> Cluster {
    let mut owned = vec![OWNER_PAGES];
    owned.extend(std::iter::repeat(0).take(clients));
    Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(1024)
            .buffer_frames(frames)
            .cost(CostModel::unit())
            .build(),
    )
    .unwrap()
}

fn pages() -> Vec<PageId> {
    (0..OWNER_PAGES)
        .map(|i| PageId::new(NodeId(0), i))
        .collect()
}

/// Crash the owner at a random point (with a random subset of current
/// images living only in its buffer); recovery restores exactly the
/// committed state.
#[test]
fn owner_crash_preserves_committed_state() {
    for case in 0u64..24 {
        let mut rng = Rng::seed_from_u64(0xA100 + case);
        let clients = rng.gen_range_usize(1..4);
        let frames = rng.gen_range_usize(3..12);
        let write_ratio = 0.2 + 0.8 * rng.next_f64();
        let evict_mask = rng.gen_range(0..64) as u32;
        let mut c = build(clients, frames);
        let cfg = WorkloadConfig {
            txns_per_client: 12,
            ops_per_txn: 4,
            write_ratio,
            seed: rng.gen_range(0..1000),
            ..WorkloadConfig::default()
        };
        let ids: Vec<NodeId> = (1..=clients as u32).map(NodeId).collect();
        let specs = workload::generate(&cfg, &ids, &pages(), None);
        let stats = run_workload(&mut c, specs).unwrap();
        // Random eviction pattern: some pages move to the owner buffer,
        // some stay in client caches.
        for (i, p) in pages().iter().enumerate() {
            if evict_mask & (1 << i) != 0 {
                for cl in &ids {
                    let _ = c.evict_page(*cl, *p);
                }
            }
        }
        c.crash(NodeId(0));
        recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        stats
            .oracle
            .verify(&mut c, ids[0])
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Crash a random client; its committed remote updates survive and
/// its in-flight work disappears.
#[test]
fn client_crash_preserves_committed_state() {
    for case in 0u64..24 {
        let mut rng = Rng::seed_from_u64(0xA200 + case);
        let clients = rng.gen_range_usize(2..4);
        let victim_sel = rng.gen_range_usize(0..4);
        let write_ratio = 0.3 + 0.7 * rng.next_f64();
        let mut c = build(clients, 8);
        let cfg = WorkloadConfig {
            txns_per_client: 10,
            ops_per_txn: 4,
            write_ratio,
            seed: rng.gen_range(0..1000),
            ..WorkloadConfig::default()
        };
        let ids: Vec<NodeId> = (1..=clients as u32).map(NodeId).collect();
        let specs = workload::generate(&cfg, &ids, &pages(), None);
        let stats = run_workload(&mut c, specs).unwrap();
        let victim = ids[victim_sel % ids.len()];
        // Leave an uncommitted transaction on the victim with durable
        // records (the hardest loser case).
        let loser = c.begin(victim).unwrap();
        if c.write_u64(loser, pages()[0], 7, 123456).is_ok() {
            c.node_mut(victim).force_log().unwrap();
        }
        c.crash(victim);
        recovery::recover(&mut c, &RecoveryOptions::single(victim)).unwrap();
        let reader = *ids.iter().find(|n| **n != victim).unwrap();
        stats
            .oracle
            .verify(&mut c, reader)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        // Loser update must be gone.
        let t = c.begin(reader).unwrap();
        let v = c.read_u64(t, pages()[0], 7).unwrap();
        c.commit(t).unwrap();
        assert_ne!(v, 123456, "case {case}");
    }
}

/// Crash owner AND a client simultaneously (§2.4): still exactly the
/// committed state.
#[test]
fn double_crash_preserves_committed_state() {
    for case in 0u64..24 {
        let mut rng = Rng::seed_from_u64(0xA300 + case);
        let evict_mask = rng.gen_range(0..64) as u32;
        let clients = 2usize;
        let mut c = build(clients, 8);
        let cfg = WorkloadConfig {
            txns_per_client: 10,
            ops_per_txn: 4,
            write_ratio: 0.8,
            seed: rng.gen_range(0..1000),
            ..WorkloadConfig::default()
        };
        let ids = [NodeId(1), NodeId(2)];
        let specs = workload::generate(&cfg, &ids, &pages(), None);
        let stats = run_workload(&mut c, specs).unwrap();
        for (i, p) in pages().iter().enumerate() {
            if evict_mask & (1 << i) != 0 {
                let _ = c.evict_page(NodeId(1), *p);
            }
        }
        c.crash(NodeId(0));
        c.crash(NodeId(1));
        recovery::recover(&mut c, &RecoveryOptions::nodes(&[NodeId(0), NodeId(1)])).unwrap();
        stats
            .oracle
            .verify(&mut c, NodeId(2))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Recovery is stable under repetition: crash → recover → crash →
/// recover converges to the same state.
#[test]
fn recovery_is_idempotent_under_repeated_crashes() {
    for case in 0u64..16 {
        let mut rng = Rng::seed_from_u64(0xA400 + case);
        let rounds = rng.gen_range_usize(1..4);
        let mut c = build(2, 8);
        let cfg = WorkloadConfig {
            txns_per_client: 8,
            ops_per_txn: 3,
            write_ratio: 1.0,
            seed: rng.gen_range(0..500),
            ..WorkloadConfig::default()
        };
        let ids = [NodeId(1), NodeId(2)];
        let specs = workload::generate(&cfg, &ids, &pages(), None);
        let stats = run_workload(&mut c, specs).unwrap();
        for p in pages() {
            let _ = c.evict_page(NodeId(1), p);
            let _ = c.evict_page(NodeId(2), p);
        }
        for _ in 0..rounds {
            c.crash(NodeId(0));
            recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        }
        stats
            .oracle
            .verify(&mut c, NodeId(1))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
