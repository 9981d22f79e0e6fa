//! Baseline equivalence: the same seeded workload produces the same
//! committed state on the client-based-logging cluster and its
//! force-on-transfer, primary-copy and ARIES/CSA server-logging
//! paradigms — while their cost profiles differ exactly the way the
//! paper argues.

use cblog_common::{CostModel, NodeId, PageId};
use cblog_core::{Cluster, ClusterConfig, ClusterConfigBuilder, Paradigm};
use cblog_net::MsgKind;
use cblog_sim::{run_workload, workload, WorkloadConfig};

const PAGES: u32 = 8;
const CLIENTS: usize = 2;

fn cbl_cfg() -> ClusterConfigBuilder {
    ClusterConfig::builder()
        .owned_pages(vec![PAGES, 0, 0])
        .page_size(1024)
        .buffer_frames(16)
        .cost(CostModel::unit())
}

fn csa() -> Cluster {
    Cluster::new(cbl_cfg().paradigm(Paradigm::ClientServer).build()).unwrap()
}

fn wl(seed: u64) -> Vec<cblog_core::TxnPlan> {
    let cfg = WorkloadConfig {
        txns_per_client: 40,
        ops_per_txn: 5,
        write_ratio: 0.6,
        hot_access: 0.3,
        abort_prob: 0.1,
        seed,
        ..WorkloadConfig::default()
    };
    let clients: Vec<NodeId> = (1..=CLIENTS as u32).map(NodeId).collect();
    let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(NodeId(0), i)).collect();
    workload::generate(&cfg, &clients, &pages, None)
}

/// Runs the workload and returns the final committed values of every
/// tracked slot, read back through the system itself.
fn final_state(sys: &mut Cluster) -> Vec<((PageId, usize), u64)> {
    let stats = run_workload(sys, wl(99)).expect("run");
    stats.oracle.verify(sys, NodeId(1)).expect("verify");
    let mut out = Vec::new();
    for i in 0..PAGES {
        let pid = PageId::new(NodeId(0), i);
        for slot in 0..16usize {
            if let Some(v) = stats.oracle.expect(pid, slot) {
                out.push(((pid, slot), v));
            }
        }
    }
    out.sort();
    out
}

fn fot() -> Cluster {
    Cluster::new(cbl_cfg().paradigm(Paradigm::ForceOnTransfer).build()).unwrap()
}

fn pca() -> Cluster {
    // Generous frames: no-steal pins working sets.
    let cfg = cbl_cfg().buffer_frames(64);
    Cluster::new(cfg.paradigm(Paradigm::PrimaryCopy).build()).unwrap()
}

#[test]
fn all_four_systems_reach_identical_committed_state() {
    let mut cbl = Cluster::new(cbl_cfg().build()).unwrap();
    let mut fot = fot();
    let mut srv = csa();
    let mut p = pca();
    let a = final_state(&mut cbl);
    let b = final_state(&mut fot);
    let c = final_state(&mut srv);
    let d = final_state(&mut p);
    assert!(!a.is_empty());
    assert_eq!(a, b, "force-on-transfer must not change semantics");
    assert_eq!(a, c, "server logging must not change semantics");
    assert_eq!(a, d, "PCA must not change semantics");
}

#[test]
fn cost_profiles_differ_as_the_paper_argues() {
    let mut cbl = Cluster::new(cbl_cfg().build()).unwrap();
    let mut srv = csa();
    let s_cbl = run_workload(&mut cbl, wl(7)).unwrap();
    let s_srv = run_workload(&mut srv, wl(7)).unwrap();
    // Same committed work.
    assert_eq!(s_cbl.report.committed, s_srv.report.committed);
    // CBL ships no log records; CSA ships one batch per commit.
    assert_eq!(s_cbl.net.count(MsgKind::LogShip), 0);
    assert!(s_srv.net.count(MsgKind::LogShip) >= s_srv.report.committed);
    // CSA pays the commit round trip.
    assert_eq!(s_cbl.net.count(MsgKind::CommitRequest), 0);
    assert_eq!(
        s_srv.net.count(MsgKind::CommitRequest),
        s_srv.report.committed
    );
    // CBL's disk forces are spread over the clients; CSA's land on the
    // server.
    let cbl_client_io = cbl.network().disk_ios_of(NodeId(1)) + cbl.network().disk_ios_of(NodeId(2));
    assert!(cbl_client_io > 0, "clients force their own logs");
    assert_eq!(
        srv.network().disk_ios_of(NodeId(1)) + srv.network().disk_ios_of(NodeId(2)),
        0,
        "CSA clients own no durable resource"
    );
}

#[test]
fn force_on_transfer_only_adds_disk_writes_never_changes_reads() {
    let mut cbl = Cluster::new(cbl_cfg().build()).unwrap();
    let mut fot = fot();
    let s1 = run_workload(&mut cbl, wl(13)).unwrap();
    let s2 = run_workload(&mut fot, wl(13)).unwrap();
    assert_eq!(s1.report.committed, s2.report.committed);
    let io1 = cbl.network().disk_ios_of(NodeId(0));
    let io2 = fot.network().disk_ios_of(NodeId(0));
    assert!(
        io2 >= io1,
        "forcing can only add owner disk traffic: {io1} vs {io2}"
    );
}
