//! The §3.2 baselines as paradigms of the one engine: force-on-transfer
//! forces a page to its owner's disk whenever it moves, and
//! primary-copy authority pins updated pages (no-steal), ships them
//! with their log records to the owner at commit, and has the owner
//! log those records a second time.

use cblog_common::{CostModel, Error, NodeId, PageId};
use cblog_core::{
    recover, Cluster, ClusterConfig, ClusterConfigBuilder, Paradigm, RecoveryOptions,
};
use cblog_net::MsgKind;

fn pid(i: u32) -> PageId {
    PageId::new(NodeId(0), i)
}

/// Node 0 owns 8 pages; `nodes - 1` diskless clients follow.
fn pca_with(nodes: usize, frames: usize) -> Cluster {
    let mut owned = vec![8];
    owned.resize(nodes, 0);
    let cfg = ClusterConfig::builder()
        .owned_pages(owned)
        .page_size(512)
        .buffer_frames(frames)
        .cost(CostModel::unit())
        .paradigm(Paradigm::PrimaryCopy);
    Cluster::new(cfg.build()).unwrap()
}

fn pca(nodes: usize) -> Cluster {
    pca_with(nodes, 16)
}

#[test]
fn commit_ships_page_and_double_logs() {
    let mut s = pca(2);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 7).unwrap();
    let stats0 = s.network().stats();
    let pca_recs0 = s.node(NodeId(0)).log().records_appended();
    s.commit(t).unwrap();
    let d = s.network().stats().since(&stats0);
    assert_eq!(d.count(MsgKind::PageShip), 1, "page travels at commit");
    assert_eq!(d.count(MsgKind::LogShip), 1, "records travel at commit");
    assert!(
        s.node(NodeId(0)).log().records_appended() > pca_recs0,
        "double logging at the PCA node"
    );
    // The modifying node logged them too (first copy).
    assert!(s.node(NodeId(1)).log().records_appended() >= 3);
}

#[test]
fn values_flow_between_nodes() {
    let mut s = pca(3);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 5).unwrap();
    s.commit(t).unwrap();
    let t2 = s.begin(NodeId(2)).unwrap();
    assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 5);
    s.commit(t2).unwrap();
}

#[test]
fn abort_is_local_under_no_steal() {
    let mut s = pca(2);
    let t0 = s.begin(NodeId(1)).unwrap();
    s.write_u64(t0, pid(0), 0, 1).unwrap();
    s.commit(t0).unwrap();
    let stats0 = s.network().stats();
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 99).unwrap();
    s.abort(t).unwrap();
    assert_eq!(
        s.network().stats().since(&stats0).total_messages(),
        0,
        "abort needs no messages: the page never left the cache"
    );
    let t2 = s.begin(NodeId(1)).unwrap();
    assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 1);
    s.commit(t2).unwrap();
}

#[test]
fn uncommitted_pages_are_pinned() {
    let mut s = pca(2);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 1).unwrap();
    // The pinned page cannot be evicted; filling the cache with reads
    // evicts other pages instead.
    for i in 1..8 {
        s.read_u64(t, pid(i), 0).unwrap();
    }
    assert!(
        s.node(NodeId(1)).buffer().contains(pid(0)),
        "pinned page survives"
    );
    s.commit(t).unwrap();
}

#[test]
fn another_txns_abort_keeps_my_pages_pinned() {
    // Node 0 is the PCA node of every page, node 1 a remote writer; B
    // ends either way while A's update is still uncommitted.
    for node in [NodeId(0), NodeId(1)] {
        for b_aborts in [true, false] {
            let mut s = pca_with(2, 4);
            let a = s.begin(node).unwrap();
            s.write_u64(a, pid(0), 0, 7).unwrap();
            let b = s.begin(node).unwrap();
            s.write_u64(b, pid(1), 0, 8).unwrap();
            if b_aborts {
                s.abort(b).unwrap();
            } else {
                s.commit(b).unwrap();
            }
            for i in 2..8 {
                s.read_u64(a, pid(i), 0).unwrap();
            }
            let case = format!("{node}, B aborts: {b_aborts}");
            assert!(s.node(node).buffer().contains(pid(0)), "{case}");
            s.commit(a).unwrap();
            let t = s.begin(NodeId(1)).unwrap();
            assert_eq!(s.read_u64(t, pid(0), 0).unwrap(), 7, "{case}");
            s.commit(t).unwrap();
        }
    }
}

#[test]
fn commit_cost_scales_with_updated_pages() {
    let mut s = pca(2);
    // Warm cache and locks.
    let t = s.begin(NodeId(1)).unwrap();
    for i in 0..4 {
        s.write_u64(t, pid(i), 0, 1).unwrap();
    }
    s.commit(t).unwrap();
    // Steady state: 4 remote pages updated per txn.
    let stats0 = s.network().stats();
    let t = s.begin(NodeId(1)).unwrap();
    for i in 0..4 {
        s.write_u64(t, pid(i), 0, 2).unwrap();
    }
    s.commit(t).unwrap();
    let d = s.network().stats().since(&stats0);
    assert_eq!(d.count(MsgKind::PageShip), 4);
    assert_eq!(d.count(MsgKind::LogShip), 4);
    assert_eq!(d.count(MsgKind::CommitAck), 4);
}

/// A page shipped at commit evicts another from the owner's two
/// frames; the victim is committed data and must reach the owner's
/// disk, not vanish.
#[test]
fn commit_shipping_keeps_the_owners_eviction_victim() {
    let mut s = pca_with(3, 2);
    for (i, v) in [10, 11, 12].into_iter().enumerate() {
        let t = s.begin(NodeId(1)).unwrap();
        s.write_u64(t, pid(i as u32), 0, v).unwrap();
        s.commit(t).unwrap();
    }
    let t = s.begin(NodeId(2)).unwrap();
    let read: Vec<u64> = (0..3).map(|i| s.read_u64(t, pid(i), 0).unwrap()).collect();
    s.commit(t).unwrap();
    assert_eq!(read, [10, 11, 12]);
}

#[test]
fn recovery_is_refused_under_primary_copy() {
    let mut s = pca(2);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 3).unwrap();
    s.commit(t).unwrap();
    s.crash(NodeId(1));
    assert!(matches!(
        recover(&mut s, &RecoveryOptions::single(NodeId(1))),
        Err(Error::Invalid(_))
    ));
}

fn fot_cfg() -> ClusterConfigBuilder {
    ClusterConfig::builder()
        .owned_pages(vec![4, 0, 0])
        .page_size(512)
        .buffer_frames(8)
        .cost(CostModel::unit())
}

fn with(paradigm: Paradigm) -> Cluster {
    Cluster::new(fot_cfg().paradigm(paradigm).build()).unwrap()
}

/// Ping-ponging a page between two writers forces disk writes under
/// force-on-transfer but not under client-based logging.
#[test]
fn transfer_forces_disk_writes_cbl_does_not() {
    let p = pid(0);
    let run = |mut c: Cluster| -> u64 {
        for round in 0..4u64 {
            for node in [1u32, 2] {
                let t = c.begin(NodeId(node)).unwrap();
                c.write_u64(t, p, 0, round * 10 + node as u64).unwrap();
                c.commit(t).unwrap();
            }
        }
        c.network().disk_ios_of(NodeId(0))
    };
    let cbl_owner_ios = run(with(Paradigm::ClientBased));
    let fot_owner_ios = run(with(Paradigm::ForceOnTransfer));
    assert!(
        fot_owner_ios > cbl_owner_ios + 4,
        "force-on-transfer must write the page on every exchange: \
         cbl={cbl_owner_ios} fot={fot_owner_ios}"
    );
}

/// Both paradigms converge to the same committed state.
#[test]
fn semantics_identical_under_both_policies() {
    let p = pid(0);
    let mut finals = Vec::new();
    for paradigm in [Paradigm::ClientBased, Paradigm::ForceOnTransfer] {
        let mut c = with(paradigm);
        for i in 0..6u64 {
            let node = 1 + (i % 2) as u32;
            let t = c.begin(NodeId(node)).unwrap();
            c.write_u64(t, p, 0, i).unwrap();
            c.commit(t).unwrap();
        }
        let t = c.begin(NodeId(1)).unwrap();
        finals.push(c.read_u64(t, p, 0).unwrap());
        c.commit(t).unwrap();
    }
    assert_eq!(finals[0], finals[1]);
    assert_eq!(finals[0], 5);
}
