//! Cross-crate end-to-end tests: full workloads through the cluster
//! with oracle verification, across cache sizes, topologies, record
//! pages and savepoints.

use cblog_common::{CostModel, NodeId, PageId};
use cblog_core::{Cluster, ClusterConfig};
use cblog_sim::{run_workload, workload, WorkloadConfig};

fn cluster(owned: Vec<u32>, frames: usize) -> Cluster {
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

fn pages(owner: u32, n: u32) -> Vec<PageId> {
    (0..n).map(|i| PageId::new(NodeId(owner), i)).collect()
}

#[test]
fn mixed_workload_two_clients_verifies() {
    let mut c = cluster(vec![8, 0, 0], 32);
    let cfg = WorkloadConfig {
        txns_per_client: 40,
        ops_per_txn: 6,
        write_ratio: 0.5,
        hot_access: 0.3,
        seed: 1,
        ..WorkloadConfig::default()
    };
    let specs = workload::generate(&cfg, &[NodeId(1), NodeId(2)], &pages(0, 8), None);
    let stats = run_workload(&mut c, specs).unwrap();
    assert_eq!(stats.report.committed, 80);
    let n = stats.oracle.verify(&mut c, NodeId(1)).unwrap();
    assert!(n > 0);
}

#[test]
fn tiny_caches_force_constant_eviction_and_still_verify() {
    // 2 frames per node: pages constantly replace to the owner, the
    // WAL rule and flush-ack plumbing run hot.
    let mut c = cluster(vec![12, 0, 0], 2);
    let cfg = WorkloadConfig {
        txns_per_client: 30,
        ops_per_txn: 4,
        write_ratio: 0.8,
        seed: 2,
        ..WorkloadConfig::default()
    };
    let specs = workload::generate(&cfg, &[NodeId(1), NodeId(2)], &pages(0, 12), None);
    let stats = run_workload(&mut c, specs).unwrap();
    assert_eq!(stats.report.committed + stats.report.user_aborts, 60);
    stats.oracle.verify(&mut c, NodeId(2)).unwrap();
    // Evictions really happened.
    assert!(
        c.network().stats().count(cblog_net::MsgKind::ReplacePage) > 0,
        "tiny cache must ship replaced pages"
    );
}

#[test]
fn two_owner_topology_with_everyone_working() {
    let mut c = cluster(vec![6, 0, 6, 0], 24);
    let mut all = pages(0, 6);
    all.extend(pages(2, 6));
    let cfg = WorkloadConfig {
        txns_per_client: 25,
        ops_per_txn: 5,
        write_ratio: 0.5,
        seed: 3,
        ..WorkloadConfig::default()
    };
    let clients: Vec<NodeId> = (0..4).map(NodeId).collect();
    let specs = workload::generate(&cfg, &clients, &all, None);
    let stats = run_workload(&mut c, specs).unwrap();
    assert_eq!(stats.report.committed, 100);
    stats.oracle.verify(&mut c, NodeId(3)).unwrap();
}

#[test]
fn slotted_records_full_crud_cycle_across_nodes() {
    let mut c = cluster(vec![4, 0, 0], 16);
    let p = PageId::new(NodeId(0), 0);
    c.format_slotted(p).unwrap();
    // Node 1 inserts, node 2 updates, node 1 deletes.
    let t = c.begin(NodeId(1)).unwrap();
    let rids: Vec<_> = (0..10)
        .map(|i| {
            c.insert_record(t, p, format!("rec-{i}").as_bytes())
                .unwrap()
        })
        .collect();
    c.commit(t).unwrap();

    let t = c.begin(NodeId(2)).unwrap();
    for (i, rid) in rids.iter().enumerate() {
        c.update_record(t, *rid, format!("upd-{i}").as_bytes())
            .unwrap();
    }
    c.commit(t).unwrap();

    let t = c.begin(NodeId(1)).unwrap();
    for rid in rids.iter().take(5) {
        c.delete_record(t, *rid).unwrap();
    }
    c.commit(t).unwrap();

    let t = c.begin(NodeId(2)).unwrap();
    for (i, rid) in rids.iter().enumerate() {
        let r = c.read_record(t, *rid);
        if i < 5 {
            assert!(r.is_err(), "deleted record {i} must be gone");
        } else {
            assert_eq!(r.unwrap(), format!("upd-{i}").as_bytes());
        }
    }
    c.commit(t).unwrap();
}

#[test]
fn nested_savepoints_roll_back_in_layers() {
    let mut c = cluster(vec![4], 16);
    let p = PageId::new(NodeId(0), 0);
    let t = c.begin(NodeId(0)).unwrap();
    c.write_u64(t, p, 0, 1).unwrap();
    let sp1 = c.savepoint(t).unwrap();
    c.write_u64(t, p, 1, 2).unwrap();
    let sp2 = c.savepoint(t).unwrap();
    c.write_u64(t, p, 2, 3).unwrap();
    c.rollback_to(t, sp2).unwrap();
    c.write_u64(t, p, 3, 4).unwrap();
    c.rollback_to(t, sp1).unwrap();
    c.write_u64(t, p, 4, 5).unwrap();
    c.commit(t).unwrap();
    let t = c.begin(NodeId(0)).unwrap();
    assert_eq!(c.read_u64(t, p, 0).unwrap(), 1);
    assert_eq!(c.read_u64(t, p, 1).unwrap(), 0);
    assert_eq!(c.read_u64(t, p, 2).unwrap(), 0);
    assert_eq!(c.read_u64(t, p, 3).unwrap(), 0);
    assert_eq!(c.read_u64(t, p, 4).unwrap(), 5);
    c.commit(t).unwrap();
}

#[test]
fn rollback_after_eviction_refetches_pages() {
    let mut c = cluster(vec![6, 0], 2);
    let t = c.begin(NodeId(1)).unwrap();
    // Touch more pages than the cache holds, dirtying each.
    for i in 0..6 {
        c.write_u64(t, PageId::new(NodeId(0), i), 0, 100 + i as u64)
            .unwrap();
    }
    let ships_before = c.network().stats().count(cblog_net::MsgKind::PageShip);
    c.abort(t).unwrap();
    let ships_after = c.network().stats().count(cblog_net::MsgKind::PageShip);
    assert!(
        ships_after > ships_before,
        "undo had to re-fetch evicted pages from the owner (paper §2.2)"
    );
    let t = c.begin(NodeId(1)).unwrap();
    for i in 0..6 {
        assert_eq!(c.read_u64(t, PageId::new(NodeId(0), i), 0).unwrap(), 0);
    }
    c.commit(t).unwrap();
}

#[test]
fn bounded_logs_on_all_nodes_sustain_long_runs() {
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![8, 0, 0])
            .page_size(1024)
            .buffer_frames(16)
            .log_capacity(Some(16 * 1024))
            .cost(CostModel::unit())
            .build(),
    )
    .unwrap();
    let cfg = WorkloadConfig {
        txns_per_client: 120,
        ops_per_txn: 4,
        write_ratio: 0.9,
        seed: 4,
        ..WorkloadConfig::default()
    };
    let specs = workload::generate(&cfg, &[NodeId(1), NodeId(2)], &pages(0, 8), None);
    let stats = run_workload(&mut c, specs).unwrap();
    assert_eq!(stats.report.committed, 240);
    stats.oracle.verify(&mut c, NodeId(1)).unwrap();
    // Logs stayed within bounds the whole time.
    for n in 0..3u32 {
        let lm = c.node(NodeId(n)).log();
        assert!(lm.used_space() <= 16 * 1024, "node {n} within capacity");
    }
}

#[test]
fn inter_transaction_caching_eliminates_repeat_messages() {
    let mut c = cluster(vec![4, 0], 16);
    let p = PageId::new(NodeId(0), 0);
    let t = c.begin(NodeId(1)).unwrap();
    c.write_u64(t, p, 0, 1).unwrap();
    c.commit(t).unwrap();
    let snap = c.network().stats();
    // 50 more transactions on the cached page + cached X lock.
    for i in 0..50u64 {
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 0, i).unwrap();
        c.commit(t).unwrap();
    }
    assert_eq!(
        c.network().stats().since(&snap).total_messages(),
        0,
        "inter-transaction caching: no lock or data traffic, no commit traffic"
    );
}
