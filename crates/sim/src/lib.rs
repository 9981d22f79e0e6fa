//! Experiment harness: workload generation, a deterministic
//! transaction driver that works over both the client-based-logging
//! cluster and the server-logging baseline, a committed-state oracle,
//! plain-text report tables, and the T1/E1–E11/A1 experiment suite mapped
//! out in `DESIGN.md`.

pub mod baseline;
pub mod driver;
pub mod experiments;
pub mod oracle;
pub mod report;
pub mod tracedump;
pub mod workload;

pub use driver::{run_workload, RunStats, System};
pub use oracle::Oracle;
pub use report::Table;
pub use workload::{Op, TransferSpec, TxnSpec, WorkloadConfig};
