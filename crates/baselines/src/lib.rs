//! Baseline systems the paper compares against (§1 and §3), rebuilt on
//! the same substrate so experiments isolate the logging-paradigm
//! variable:
//!
//! * [`server::ServerCluster`] — ARIES/CSA-style client-server
//!   logging: the server keeps the **only** log; clients generate log
//!   records but ship them to the server at commit (and earlier when
//!   the WAL rule forces it on steal); server checkpoints contact
//!   every connected client (paper §3.1).
//! * [`force::force_on_transfer_cluster`] — the paper's own
//!   architecture with the §3.2 Rdb/VMS behaviour switched on: dirty
//!   pages are forced to the owner's disk whenever they move between
//!   nodes.
//! * [`pca::PcaCluster`] — the primary-copy-authority scheme (Rahm
//!   1991): no-steal buffering, pages shipped to the PCA node at
//!   commit, and double logging of every record written for a remote
//!   page.
//! * [`logmerge`] — an analytic cost model of recovery schemes that
//!   merge private logs (the Mohan–Narang fast/super-fast schemes,
//!   §3.2), evaluated against the live state of a client-based-logging
//!   cluster.

#![forbid(unsafe_code)]

pub mod force;
pub mod logmerge;
pub mod pca;
pub mod server;

pub use force::force_on_transfer_cluster;
pub use logmerge::{log_merge_cost, LogMergeCost};
pub use pca::{PcaCluster, PcaConfig};
pub use server::{ServerClientConfig, ServerCluster};
