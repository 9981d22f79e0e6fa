//! Client-based logging for high performance distributed architectures.
//!
//! This crate is the reproduction of the system proposed by Panagos,
//! Biliris, Jagadish and Rastogi (ICDE 1996): a data-shipping
//! distributed transaction architecture in which **every node logs all
//! of its updates to its own local log** — including updates to pages
//! owned by remote nodes — and:
//!
//! * commits with a single local log force and **zero messages**;
//! * handles transaction rollback and its own crash recovery
//!   exclusively, without ever merging log files;
//! * takes fuzzy checkpoints independently of every other node;
//! * needs no clock synchronization: the order of updates to a page is
//!   recovered from per-page PSNs carried in log records.
//!
//! # Architecture
//!
//! A [`Cluster`] owns a set of [`Node`]s and drives every inter-node
//! interaction through an accounted [`cblog_net::Network`], making runs
//! deterministic and protocol costs observable. Nodes own the paper's
//! per-node machinery: buffer pool (steal/no-force), local WAL, dirty
//! page table, transaction-, cached- and owner-side lock tables.
//!
//! ```
//! use cblog_core::{Cluster, ClusterConfig};
//! use cblog_locks::LockMode;
//!
//! // Two owner nodes and one diskless client node (Figure 1 style).
//! let mut cluster = Cluster::new(
//!     ClusterConfig::builder().owned_pages(vec![4, 4, 0]).build(),
//! ).unwrap();
//!
//! let p = cblog_common::PageId::new(cblog_common::NodeId(0), 0);
//! // Node 2 updates a page owned by node 0 and commits locally.
//! let t = cluster.begin(cblog_common::NodeId(2)).unwrap();
//! cluster.write_u64(t, p, 0, 42).unwrap();
//! let before = cluster.network().stats().total_messages();
//! cluster.commit(t).unwrap();
//! let after = cluster.network().stats().total_messages();
//! assert_eq!(before, after, "commit sends no messages");
//! ```

pub mod cluster;
pub mod config;
pub mod group_commit;
pub mod node;
pub mod recovery;
pub mod runtime;
pub mod txn;

pub use cblog_common::RecoveryPhase;
pub use cblog_net::{FaultAction, FaultPlan, FaultScript, FaultStats};
pub use cluster::Cluster;
pub use config::{ClusterConfig, ClusterConfigBuilder, GroupCommitPolicy, NodeConfig};
pub use group_commit::{ForceScheduler, PendingCommit};
pub use node::{AnalysisResult, Node, NodePsnEntry, RedoRecords};
pub use recovery::{
    plan_replay, recover, PhaseTimings, RecoveryOptions, RecoveryReport, ReplayMode, ReplayPlan,
    ReplayUnit, WaveTiming,
};
pub use runtime::{PlanOp, RunReport, Runtime, TxnPlan};
pub use txn::{Savepoint, TxnState, TxnStatus};
