//! Baseline systems the paper compares against (§1 and §3), rebuilt on
//! the same substrate so experiments isolate the logging-paradigm
//! variable:
//!
//! * [`server::ServerCluster`] — ARIES/CSA-style client-server
//!   logging: the server keeps the **only** log; clients generate log
//!   records but ship them to the server at commit (and earlier when
//!   the WAL rule forces it on steal); server checkpoints contact
//!   every connected client (paper §3.1).
//! * [`logmerge`] — an analytic cost model of recovery schemes that
//!   merge private logs (the Mohan–Narang fast/super-fast schemes,
//!   §3.2), evaluated against the live state of a client-based-logging
//!   cluster.
//!
//! The other two §3.2 baselines, force-on-transfer and primary-copy
//! authority, differ from client-based logging only in policy, so they
//! run on the one engine: see [`cblog_core::Paradigm`].

#![forbid(unsafe_code)]

pub mod logmerge;
pub mod server;

pub use logmerge::{log_merge_cost, LogMergeCost};
pub use server::{ServerClientConfig, ServerCluster};
