//! Experiment harness: workload generation, a workload runner over
//! the one deterministic plan driver (`cblog_core::drive`, whatever
//! the cluster's logging paradigm), a committed-state oracle, an
//! analytic cost model of log-merging recovery, plain-text report
//! tables, and the T1/E1–E11/A1 experiment suite mapped out in
//! `DESIGN.md`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod driver;
pub mod experiments;
pub mod logmerge;
pub mod oracle;
pub mod report;
pub mod tracedump;
pub mod workload;

pub use driver::{run_workload, RunStats};
pub use oracle::Oracle;
pub use report::Table;
pub use workload::WorkloadConfig;
