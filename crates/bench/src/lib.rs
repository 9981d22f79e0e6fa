//! Benchmark-harness crate: hosts the `experiments` binary (prints
//! every E/T table from DESIGN.md §4), the `tracedump` and `checker`
//! binaries, the substrate micro-benchmark, the runnable examples and
//! the cross-crate integration tests.
//!
//! The actual experiment logic lives in [`cblog_sim::experiments`];
//! this crate only packages entry points.

pub use cblog_sim::experiments;
pub use cblog_sim::report::Table;

/// Renders all experiment tables to one report string.
pub fn full_report() -> String {
    let mut out = String::new();
    out.push_str("# Client-based logging — experiment report\n\n");
    for t in experiments::run_all() {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_every_experiment() {
        let r = super::full_report();
        for needle in [
            "T1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "A1",
        ] {
            assert!(r.contains(needle), "missing {needle}");
        }
    }
}
