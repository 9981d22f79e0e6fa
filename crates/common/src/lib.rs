//! Common foundation types for the client-based logging system.
//!
//! This crate defines the identifier types shared by every subsystem
//! (nodes, pages, transactions, log sequence numbers, page sequence
//! numbers), the error type, a small binary codec with checksumming used
//! by both the page store and the write-ahead log, and the simulated
//! clock / cost model that powers the deterministic distributed
//! experiments.
//!
//! The identifier discipline follows the ICDE 1996 paper "Client-Based
//! Logging for High Performance Distributed Architectures":
//!
//! * [`Psn`] — *page sequence number*, incremented by one on every update
//!   to a page and stored both in the page header and in every log record
//!   describing an update to the page. PSNs give a total order of updates
//!   to a single page across *all* nodes without any clock
//!   synchronization (page-level X locks serialize updates).
//! * [`Lsn`] — *log sequence number*, the byte address of a record in one
//!   node's **local** log. LSNs are never compared across nodes; each log
//!   is private and logs are never merged.
//!
//! The crate's one `unsafe` module is the carry-less-multiply CRC-32
//! kernel (`codec::clmul`); nothing else may use `unsafe`.

#![deny(unsafe_code)]

pub mod codec;
pub mod error;
pub mod idmap;
pub mod ids;
pub mod jsonv;
pub mod metrics;
pub mod obs;
pub mod rng;
pub mod simclock;
pub mod span;
pub mod stats;

pub use codec::{crc32, Crc32, Decoder, Encoder, Fnv1a};
pub use error::{Error, Result};
pub use idmap::{id_hash, IdHasher, IdMap, IdSet};
pub use ids::{Lsn, NodeId, PageId, Psn, Rid, TxnId};
pub use jsonv::JsonValue;
pub use metrics::folded_profile;
pub use obs::{Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, Reservoir, Snapshot};
pub use rng::Rng;
pub use simclock::{Bucket, CostModel, SimClock, SimTime, BUCKETS};
pub use span::{
    RecoveryPhase, Span, SpanBuf, SpanCtx, SpanId, SpanKind, Trace, Tracer, TransferWhy, TreeOp,
    Violation,
};
pub use stats::Counter;
