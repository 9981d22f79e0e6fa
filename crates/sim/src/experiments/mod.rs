//! The experiment suite (see DESIGN.md §4 for the claim → experiment
//! mapping). Every experiment returns a [`Table`] whose rows are the
//! series the harness reports; `EXPERIMENTS.md` embeds them next to
//! the paper's qualitative claims.

pub mod a1_ckpt_interval;
pub mod e10_pca;
pub mod e11_mobile;
pub mod e1_commit_cost;
pub mod e1c_adaptive;
pub mod e2_scalability;
pub mod e3_log_volume;
pub mod e4_page_transfer;
pub mod e5_single_crash;
pub mod e6_multi_crash;
pub mod e7_checkpoint;
pub mod e7_faults;
pub mod e8_log_space;
pub mod e8_trace_overhead;
pub mod e9_rollback;
pub mod e9b_parallel_recovery;
pub mod t1_protocol_ops;

use crate::report::Table;
use cblog_baselines::{ServerClientConfig, ServerCluster};
use cblog_common::{CostModel, NodeId, PageId};
use cblog_core::{Cluster, ClusterConfig, ClusterConfigBuilder, FaultPlan, GroupCommitPolicy};

/// Standard page size used by the experiments.
pub const PAGE_SIZE: usize = 1024;

/// Builds a client-based-logging cluster: node 0 owns `pages`;
/// `clients` diskless logging client nodes follow.
pub fn cbl_cluster(clients: usize, pages: u32, frames: usize) -> Cluster {
    cbl_cluster_opts(clients, pages, frames, None, false)
}

/// Partially-configured builder shared by every cbl cluster shape:
/// node 0 owns `pages`, `clients` diskless logging clients follow.
pub fn cbl_builder(clients: usize, pages: u32, frames: usize) -> ClusterConfigBuilder {
    let mut owned = vec![pages];
    owned.extend(std::iter::repeat(0).take(clients));
    ClusterConfig::builder()
        .owned_pages(owned)
        .page_size(PAGE_SIZE)
        .buffer_frames(frames)
        .default_owned_pages(0)
}

/// As [`cbl_cluster`] with a bounded log and/or force-on-transfer.
pub fn cbl_cluster_opts(
    clients: usize,
    pages: u32,
    frames: usize,
    log_capacity: Option<u64>,
    force_on_transfer: bool,
) -> Cluster {
    Cluster::new(
        cbl_builder(clients, pages, frames)
            .log_capacity(log_capacity)
            .force_on_transfer(force_on_transfer)
            .build(),
    )
    .expect("cluster config valid")
}

/// As [`cbl_cluster`] with a group-commit policy.
pub fn cbl_cluster_gc(
    clients: usize,
    pages: u32,
    frames: usize,
    group_commit: GroupCommitPolicy,
) -> Cluster {
    Cluster::new(
        cbl_builder(clients, pages, frames)
            .group_commit(group_commit)
            .build(),
    )
    .expect("cluster config valid")
}

/// As [`cbl_cluster`] with a fault-injection plan (experiment E7).
pub fn cbl_cluster_faults(clients: usize, pages: u32, frames: usize, plan: FaultPlan) -> Cluster {
    Cluster::new(cbl_builder(clients, pages, frames).faults(plan).build())
        .expect("cluster config valid")
}

/// Builds the ARIES/CSA server-logging baseline with matching shape.
pub fn csa_cluster(clients: usize, pages: u32, frames: usize) -> ServerCluster {
    ServerCluster::new(ServerClientConfig {
        clients,
        pages,
        page_size: PAGE_SIZE,
        client_buffer_frames: frames,
        server_buffer_frames: (pages as usize).max(frames) * 2,
        cost: CostModel::default(),
    })
    .expect("server config valid")
}

/// Pages `0..count` of owner node 0.
pub fn pages0(count: u32) -> Vec<PageId> {
    (0..count).map(|i| PageId::new(NodeId(0), i)).collect()
}

/// One experiment registry row: short name, one-line description,
/// runner.
pub type Experiment = (&'static str, &'static str, fn() -> Table);

/// The named experiment registry, in report order. Powers
/// `experiments --list`, exact-name `--only`, and the selective runs
/// behind the `--check-baselines` regression gate (which runs only
/// the experiments its baseline file references).
pub const REGISTRY: &[Experiment] = &[
    ("t1", "protocol operation costs", t1_protocol_ops::run),
    ("e1", "commit cost per transaction", e1_commit_cost::run),
    (
        "e1b",
        "group commit: forces per commit",
        e1_commit_cost::run_group_commit,
    ),
    ("e1c", "adaptive group-commit window", e1c_adaptive::run),
    (
        "e2",
        "throughput scalability vs clients",
        e2_scalability::run,
    ),
    ("e3", "log volume vs server logging", e3_log_volume::run),
    ("e4", "page transfer costs", e4_page_transfer::run),
    (
        "e5",
        "single crash: recovery vs log-merge",
        e5_single_crash::run,
    ),
    (
        "e5b",
        "single crash: phase timings + force latency",
        e5_single_crash::run_timings,
    ),
    ("e6", "simultaneous multi-node crashes", e6_multi_crash::run),
    ("e7", "checkpoint cost", e7_checkpoint::run),
    ("e7b", "fault-injection resilience", e7_faults::run),
    ("e8", "log-space protocol (§2.5)", e8_log_space::run),
    ("e8b", "tracing overhead", e8_trace_overhead::run),
    ("e9", "partial rollback", e9_rollback::run),
    (
        "e9b",
        "parallel wave-scheduled replay",
        e9b_parallel_recovery::run,
    ),
    ("e10", "PCA local-commit variant", e10_pca::run),
    ("e11", "mobile/disconnected operation", e11_mobile::run),
    ("a1", "checkpoint interval ablation", a1_ckpt_interval::run),
];

/// Runs the experiment registered under `name` (exact, lowercase),
/// or None for an unknown name.
pub fn run_named(name: &str) -> Option<Table> {
    REGISTRY
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, run)| run())
}

/// Runs every experiment and returns the tables in registry order.
pub fn run_all() -> Vec<Table> {
    REGISTRY.iter().map(|(_, _, run)| run()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (i, (name, _, _)) in REGISTRY.iter().enumerate() {
            assert_eq!(*name, name.to_lowercase(), "registry names are lowercase");
            assert!(
                REGISTRY.iter().skip(i + 1).all(|(n, _, _)| n != name),
                "duplicate registry name {name}"
            );
        }
        assert!(run_named("nope").is_none());
        let t = run_named("t1").expect("t1 registered");
        assert!(!t.is_empty());
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let c = cbl_cluster(3, 8, 16);
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.node(NodeId(0)).config().owned_pages, 8);
        assert_eq!(c.node(NodeId(2)).config().owned_pages, 0);
        let _s = csa_cluster(2, 8, 16);
        assert_eq!(pages0(3).len(), 3);
    }
}
