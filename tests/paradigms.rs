//! The baselines as paradigms of the one engine: force-on-transfer
//! forces a page to its owner's disk whenever it moves; primary-copy
//! authority pins updated pages (no-steal), ships them with their log
//! records to the owner at commit, and has the owner log those records
//! a second time; ARIES/CSA server logging ships every record to the
//! server, whose log is the only one ever forced.

use cblog_common::{CostModel, Error, NodeId, PageId};
use cblog_core::{
    recover, Cluster, ClusterConfig, ClusterConfigBuilder, Paradigm, RecoveryOptions,
};
use cblog_net::MsgKind;

fn pid(i: u32) -> PageId {
    PageId::new(NodeId(0), i)
}

/// Node 0 owns 8 pages; `nodes - 1` diskless clients follow.
fn node0_owns(paradigm: Paradigm, nodes: usize, frames: usize) -> Cluster {
    let mut owned = vec![8];
    owned.resize(nodes, 0);
    let cfg = ClusterConfig::builder()
        .owned_pages(owned)
        .page_size(512)
        .buffer_frames(frames)
        .cost(CostModel::unit())
        .paradigm(paradigm);
    Cluster::new(cfg.build()).unwrap()
}

fn pca_with(nodes: usize, frames: usize) -> Cluster {
    node0_owns(Paradigm::PrimaryCopy, nodes, frames)
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

/// The server of the client-server paradigm.
const SERVER: NodeId = NodeId(0);

fn csa_with(nodes: usize, frames: usize) -> Cluster {
    node0_owns(Paradigm::ClientServer, nodes, frames)
}

fn csa(nodes: usize) -> Cluster {
    csa_with(nodes, 8)
}

#[test]
fn commit_costs_messages_and_server_force() {
    let mut s = csa(2);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 7).unwrap();
    let stats0 = s.network().stats();
    let forces0 = s.node(SERVER).log().forces();
    s.commit(t).unwrap();
    let d = s.network().stats().since(&stats0);
    assert_eq!(d.count(MsgKind::LogShip), 1);
    assert_eq!(d.count(MsgKind::CommitRequest), 1);
    assert_eq!(d.count(MsgKind::CommitAck), 1);
    assert_eq!(s.node(SERVER).log().forces(), forces0 + 1);
}

#[test]
fn values_round_trip_between_clients() {
    let mut s = csa(3);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 5).unwrap();
    s.commit(t).unwrap();
    let t2 = s.begin(NodeId(2)).unwrap();
    assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 5);
    s.commit(t2).unwrap();
}

#[test]
fn abort_without_shipping_is_local() {
    let mut s = csa(2);
    let t0 = s.begin(NodeId(1)).unwrap();
    s.write_u64(t0, pid(0), 0, 1).unwrap();
    s.commit(t0).unwrap();
    let recs0 = s.node(SERVER).log().records_appended();
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 99).unwrap();
    s.abort(t).unwrap();
    assert_eq!(
        s.node(SERVER).log().records_appended(),
        recs0,
        "nothing shipped, nothing logged"
    );
    let t2 = s.begin(NodeId(1)).unwrap();
    assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 1);
    s.commit(t2).unwrap();
}

#[test]
fn server_checkpoint_contacts_all_clients() {
    let mut s = csa(4);
    let stats0 = s.network().stats();
    s.checkpoint(SERVER).unwrap();
    let d = s.network().stats().since(&stats0);
    assert_eq!(d.count(MsgKind::CheckpointSync), 6, "round trip per client");
}

#[test]
fn callback_ships_page_through_server() {
    let mut s = csa(3);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 3).unwrap();
    s.commit(t).unwrap();
    let stats0 = s.network().stats();
    let t2 = s.begin(NodeId(2)).unwrap();
    s.write_u64(t2, pid(0), 0, 4).unwrap();
    s.commit(t2).unwrap();
    let d = s.network().stats().since(&stats0);
    assert!(d.count(MsgKind::Callback) >= 1);
    // Client 1's records reached the server at its commit, so the
    // callback moved only the page.
    let t3 = s.begin(NodeId(1)).unwrap();
    assert_eq!(s.read_u64(t3, pid(0), 0).unwrap(), 4);
    s.commit(t3).unwrap();
}

#[test]
fn an_ended_transaction_cannot_end_again() {
    let mut s = csa(3);
    let a = s.begin(NodeId(1)).unwrap();
    s.write_u64(a, pid(0), 0, 5).unwrap();
    s.abort(a).unwrap();
    let b = s.begin(NodeId(2)).unwrap();
    s.write_u64(b, pid(0), 0, 7).unwrap();
    s.commit(b).unwrap();
    let recs0 = s.node(SERVER).log().records_appended();
    assert!(s.abort(a).is_err(), "an aborted txn aborts once");
    assert!(s.commit(b).is_err(), "a committed txn commits once");
    assert_eq!(
        s.node(SERVER).log().records_appended(),
        recs0,
        "a refused end logs nothing"
    );
    let t = s.begin(NodeId(1)).unwrap();
    assert_eq!(s.read_u64(t, pid(0), 0).unwrap(), 7, "no undo re-applied");
    s.commit(t).unwrap();
}

#[test]
fn all_log_forces_happen_at_the_server() {
    let mut s = csa(4);
    for round in 0..5u64 {
        for cid in 1..=3u32 {
            let t = s.begin(NodeId(cid)).unwrap();
            s.write_u64(t, pid(cid - 1), 0, round).unwrap();
            s.commit(t).unwrap();
        }
    }
    // 15 commits => at least 15 server forces; every disk I/O in the
    // run is charged to node 0, and no client log is ever forced.
    assert!(s.node(SERVER).log().forces() >= 15);
    assert!(s.network().disk_ios_of(SERVER) >= 15);
    for cid in 1..=3u32 {
        assert_eq!(s.network().disk_ios_of(NodeId(cid)), 0);
        assert_eq!(s.node(NodeId(cid)).log().forces(), 0);
    }
}

/// A dirty page stolen mid-transaction takes the records that cover it
/// to the server first; the abort then ships the compensation only.
#[test]
fn a_steal_ships_the_records_first_and_the_abort_follows_them() {
    let mut s = csa_with(2, 2);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 9).unwrap();
    s.read_u64(t, pid(1), 0).unwrap();
    let stats0 = s.network().stats();
    let forces0 = s.node(SERVER).log().forces();
    // The third page evicts the dirty P0.
    s.read_u64(t, pid(2), 0).unwrap();
    assert!(!s.node(NodeId(1)).buffer().contains(pid(0)));
    let d = s.network().stats().since(&stats0);
    assert_eq!(d.count(MsgKind::LogShip), 1, "Begin and the update");
    assert_eq!(d.count(MsgKind::ReplacePage), 1);
    assert_eq!(s.node(SERVER).log().forces(), forces0 + 1);
    let recs0 = s.node(SERVER).log().records_appended();
    let stats0 = s.network().stats();
    s.abort(t).unwrap();
    let d = s.network().stats().since(&stats0);
    assert_eq!(d.count(MsgKind::LogShip), 1, "the compensation record");
    assert_eq!(
        s.node(SERVER).log().records_appended(),
        recs0 + 2,
        "a CLR and an Abort"
    );
    let t2 = s.begin(NodeId(1)).unwrap();
    assert_eq!(s.read_u64(t2, pid(0), 0).unwrap(), 0);
    s.commit(t2).unwrap();
}

#[test]
fn recovery_is_refused_under_client_server() {
    let mut s = csa(2);
    let t = s.begin(NodeId(1)).unwrap();
    s.write_u64(t, pid(0), 0, 3).unwrap();
    s.commit(t).unwrap();
    s.crash(NodeId(1));
    assert!(matches!(
        recover(&mut s, &RecoveryOptions::single(NodeId(1))),
        Err(Error::Invalid(_))
    ));
}

#[test]
fn only_the_server_may_own_pages() {
    let cfg = |owned| {
        let b = ClusterConfig::builder().owned_pages(owned);
        b.paradigm(Paradigm::ClientServer).build()
    };
    assert!(matches!(
        Cluster::new(cfg(vec![8, 4])),
        Err(Error::Invalid(_))
    ));
    assert!(Cluster::new(cfg(vec![8, 0])).is_ok());
}

/// A transaction that has ended takes no lock, under either paradigm:
/// a lock it took would never be released, and the next transaction
/// to want the page would wait forever.
#[test]
fn an_ended_transaction_takes_no_lock() {
    for paradigm in [Paradigm::ClientBased, Paradigm::ClientServer] {
        let mut c = with(paradigm);
        let committed = c.begin(NodeId(1)).unwrap();
        c.write_u64(committed, pid(0), 0, 1).unwrap();
        c.commit(committed).unwrap();
        let aborted = c.begin(NodeId(1)).unwrap();
        c.write_u64(aborted, pid(1), 0, 2).unwrap();
        c.abort(aborted).unwrap();
        for ended in [committed, aborted] {
            let write = c.write_u64(ended, pid(0), 0, 9);
            let read = c.read_u64(ended, pid(1), 0).map(drop);
            for r in [write, read] {
                assert!(
                    matches!(r, Err(Error::NoSuchTxn(_) | Error::TxnAborted(_))),
                    "{paradigm:?} {ended}: {r:?}"
                );
            }
        }
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, pid(0), 0, 3).unwrap();
        c.write_u64(t, pid(1), 0, 4).unwrap();
        c.commit(t).unwrap();
    }
}

/// One seeded workload over two clients of node 0's pages: commits,
/// user aborts, steals under a four-frame cache, explicit evictions of
/// dirty remote pages, owner forces (flush acks) and checkpoints of
/// the owner and a client. Returns the durable-state fingerprint and
/// the network's total messages and bytes.
fn fingerprint(paradigm: Paradigm) -> (u64, u64, u64) {
    let mut s = node0_owns(paradigm, 3, 4);
    let mut rng = cblog_common::Rng::seed_from_u64(47);
    let mut written: Vec<(NodeId, PageId)> = Vec::new();
    for i in 0..60u64 {
        let node = NodeId(1 + (i % 2) as u32);
        let t = s.begin(node).unwrap();
        let mut writes = 0;
        for op in 0..5u64 {
            let p = pid(rng.gen_range(0..8) as u32);
            let slot = rng.gen_range_usize(0..8);
            if writes < 3 && rng.gen_bool(0.6) {
                s.write_u64(t, p, slot, i * 100 + op).unwrap();
                written.push((node, p));
                writes += 1;
            } else {
                s.read_u64(t, p, slot).unwrap();
            }
        }
        if rng.gen_bool(0.2) {
            s.abort(t).unwrap();
        } else {
            s.commit(t).unwrap();
        }
        if i % 4 == 3 {
            let (n, p) = written[rng.gen_range_usize(0..written.len())];
            s.evict_page(n, p).unwrap();
        }
        if i % 9 == 8 {
            s.force_page(pid(rng.gen_range(0..8) as u32)).unwrap();
        }
        if i % 6 == 5 {
            s.checkpoint(NodeId(0)).unwrap();
            s.checkpoint(NodeId(1)).unwrap();
        }
    }
    let stats = s.network().stats();
    let hash = s.durable_state_hash().unwrap();
    (hash, stats.total_messages(), stats.total_bytes())
}

/// Pins what each paradigm writes durably and charges on the network
/// for the same workload, so a refactor of the exchanges cannot move a
/// log byte or a message unnoticed.
#[test]
fn every_paradigm_writes_and_charges_what_it_did() {
    for (paradigm, pinned) in [
        (Paradigm::ClientBased, (4043158807314955881, 974, 210960)),
        (
            Paradigm::ForceOnTransfer,
            (2721882256520708629, 1001, 212256),
        ),
        (Paradigm::PrimaryCopy, (5189827819581322087, 1146, 216840)),
        (Paradigm::ClientServer, (15946152769705539805, 1177, 234674)),
    ] {
        assert_eq!(fingerprint(paradigm), pinned, "{paradigm:?}");
    }
}
