//! Write-ahead logging for client-based logging nodes.
//!
//! Every node — owner or not — has a **private local log** (paper §1.1).
//! All log records for updates performed by the node's transactions are
//! written here, *including updates to pages owned by remote nodes*.
//! Logs are never shipped, merged, or compared across nodes; the only
//! cross-node ordering artifact is the PSN stored inside each update
//! record.
//!
//! Recovery follows ARIES (redo-undo, WAL, fuzzy checkpoints,
//! compensation log records with undo-next pointers), with the paper's
//! PSN-based redo test (`page.psn == record.psn_before`) substituted for
//! the LSN-on-page test so that records from *different* nodes' logs
//! replay in the correct global order without any log merging.

pub mod dpt;
pub mod manager;
pub mod record;
pub mod store;

pub use dpt::{DirtyPageTable, DptEntry};
pub use manager::{LogManager, LogScan};
pub use record::{
    CheckpointBody, LogPayload, LogPayloadRef, LogRecord, LogRecordRef, PageOp, PageOpRef,
};
pub use store::{FileLogStore, LogStore, MemLogStore, SyncFaultStore};
