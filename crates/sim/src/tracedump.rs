//! Traced scenario runners behind the `tracedump` bin.
//!
//! Each scenario replays one of the recovery/checkpoint experiments
//! with [`ClusterConfigBuilder::tracing`] enabled and returns the run's
//! [`Trace`], so callers can dump per-page PSN lineage
//! ([`cblog_common::span::render_lineage`]) or the Chrome trace-event
//! export, plus the cluster's metrics, whose `prof/*_us` gauges hold
//! each node's resource-time profile for the folded view
//! ([`cblog_common::folded_profile`]). Every runner ends with
//! [`Cluster::trace_check`], so a scenario that completes has been
//! verified by the invariant watchdog span-by-span.
//!
//! Tracing draws no randomness and never charges the sim-clock, so a
//! scenario is exactly as deterministic as its untraced experiment
//! twin: same seed ⇒ byte-identical JSON export (tested below).
//!
//! [`ClusterConfigBuilder::tracing`]: cblog_core::ClusterConfigBuilder::tracing

use crate::driver::run_workload;
use crate::experiments::{cbl_builder, e5_single_crash, e6_multi_crash, e7_checkpoint};
use cblog_common::span::busiest_page;
use cblog_common::{Error, NodeId, Result, Snapshot, Trace};
use cblog_core::Cluster;

/// Scenario names [`run_scenario`] accepts.
pub const SCENARIOS: &[&str] = &["e5", "e6", "e7"];

/// Runs the named scenario with tracing enabled and returns its trace
/// and its metrics ([`Cluster::metrics_snapshot`]). Fails if the
/// watchdog flagged any invariant violation (the error carries the
/// offending lineage slice).
pub fn run_scenario(name: &str) -> Result<(Trace, Snapshot)> {
    let c = run_cluster(name)?;
    Ok((c.tracer().snapshot(), c.metrics_snapshot()))
}

/// The finished, watchdog-checked cluster of scenario `name`.
fn run_cluster(name: &str) -> Result<Cluster> {
    let c = match name {
        // E5: owner crashes with 4 dirty pages; clients replay them in
        // PSN order. The richest lineage: updates, transfers, crash,
        // recovery phases, replay hops.
        "e5" => {
            let d = 4;
            let (clients, pages, frames) = e5_single_crash::shape(d);
            let mut c = Cluster::new(cbl_builder(clients, pages, frames).tracing(true).build())?;
            e5_single_crash::run_on(&mut c, d);
            c
        }
        // E6: two simultaneous crashes (an owner and a client) over the
        // Figure-1 topology; cross-owner traffic plus a loser undo.
        "e6" => {
            let mut c = Cluster::new(e6_multi_crash::builder().tracing(true).build())?;
            e6_multi_crash::run_on(&mut c, &[NodeId(0), NodeId(2)]);
            c
        }
        // E7: the checkpoint workload (4 clients, contended pages) plus
        // one checkpoint per node — no crash, so the trace shows the
        // steady-state protocol: fetches, callbacks, lock grants,
        // message-free commits.
        "e7" => {
            let clients = 4;
            let mut c = Cluster::new(cbl_builder(clients, 8, 16).tracing(true).build())?;
            run_workload(&mut c, e7_checkpoint::warm(clients))?;
            for n in 0..=clients as u32 {
                c.checkpoint(NodeId(n))?;
            }
            c
        }
        other => {
            return Err(Error::Protocol(format!(
                "unknown tracedump scenario {other:?} (expected one of {SCENARIOS:?})"
            )))
        }
    };
    c.trace_check()?;
    Ok(c)
}

/// One-paragraph trace summary: span counts, drops, watchdog verdict,
/// busiest page. The `tracedump` bin prints this header before the
/// lineage.
pub fn summary(t: &Trace) -> String {
    let verdict = match t.check() {
        Ok(()) => "all invariants hold".to_string(),
        Err(e) => format!("VIOLATIONS\n{e}"),
    };
    let busiest = busiest_page(t.spans()).map_or_else(|| "-".to_string(), |p| p.to_string());
    format!(
        "spans: {} retained, {} dropped · busiest page: {busiest} · watchdog: {verdict}",
        t.len(),
        t.dropped(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::span::{chrome_trace_json, render_lineage};
    use cblog_common::{folded_profile, Bucket};
    use std::collections::BTreeMap;

    #[test]
    fn e5_traced_run_passes_the_watchdog_with_full_lineage() {
        let (t, _) = run_scenario("e5").expect("watchdog-clean");
        assert!(t.len() > 100, "rich trace: {} spans", t.len());
        assert_eq!(t.violations().len(), 0);
        let pid = busiest_page(t.spans()).expect("page-scoped spans exist");
        let lin = render_lineage(t.spans(), pid);
        // The crash punctuates the lineage and replay hops follow it.
        assert!(lin.contains("crash N0"), "{lin}");
        assert!(lin.contains("replay-hop"), "{lin}");
        assert!(lin.contains("update"), "{lin}");
        assert!(summary(&t).contains("all invariants hold"));
    }

    #[test]
    fn e6_traced_run_covers_multi_crash_recovery() {
        let (t, _) = run_scenario("e6").expect("watchdog-clean");
        let spans = t.spans();
        use cblog_common::span::SpanKind;
        let crashes = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Crash { .. }))
            .count();
        assert_eq!(crashes, 2, "both crashed nodes marked");
        assert!(spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::Recovery { nodes: 2 })));
        assert!(spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::ReplayHop { .. })));
    }

    #[test]
    fn e7_traced_run_shows_steady_state_protocol() {
        let (t, _) = run_scenario("e7").expect("watchdog-clean");
        let spans = t.spans();
        use cblog_common::span::SpanKind;
        assert!(spans.iter().any(|s| matches!(
            s.kind,
            SpanKind::Txn {
                committed: true,
                ..
            }
        )));
        assert!(spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::LockGrant { .. })));
        assert!(spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::Transfer { .. })));
        // No crash in E7, so no recovery machinery in the trace.
        assert!(!spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::Crash { .. })));
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let err = run_scenario("e99").unwrap_err();
        assert!(err.to_string().contains("unknown tracedump scenario"));
    }

    #[test]
    fn same_seed_exports_are_byte_identical() {
        // The determinism contract behind `tracedump --json` and
        // `--folded`: tracing adds no randomness and no clock charges,
        // so re-running a scenario reproduces both byte for byte.
        for name in ["e5", "e7"] {
            let (ta, pa) = run_scenario(name).unwrap();
            let (tb, pb) = run_scenario(name).unwrap();
            let a = chrome_trace_json(ta.spans());
            assert_eq!(
                a,
                chrome_trace_json(tb.spans()),
                "{name} export must be deterministic"
            );
            assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
            assert_eq!(folded_profile(name, &pa), folded_profile(name, &pb));
        }
    }

    /// Sums a folded view's `µs` per `n<id>` frame.
    fn folded_per_node(folded: &str) -> BTreeMap<String, u64> {
        let mut per_node = BTreeMap::new();
        for line in folded.lines() {
            let (frames, us) = line.rsplit_once(' ').unwrap();
            let node = frames.split(';').nth(1).unwrap().to_string();
            *per_node.entry(node).or_default() += us.parse::<u64>().unwrap();
        }
        per_node
    }

    #[test]
    fn folded_stack_sums_to_total_simulated_time_per_node() {
        for name in SCENARIOS {
            let c = run_cluster(name).unwrap();
            let per_node = folded_per_node(&folded_profile(name, &c.metrics_snapshot()));
            let clock = c.network().clock();
            for i in 0..c.node_count() {
                let id = NodeId(i as u32);
                let total = clock.busy(id) + clock.bucket_us(id, Bucket::LockWait);
                let folded = per_node.get(&format!("n{i}")).copied().unwrap_or(0);
                assert_eq!(
                    folded, total,
                    "{name}: folded stack for n{i} must sum to busy+lock_wait"
                );
            }
        }
    }

    #[test]
    fn e5_folded_view_attributes_recovery_to_the_replay_bucket() {
        let (_, profile) = run_scenario("e5").unwrap();
        let folded = folded_profile("e5", &profile);
        assert!(
            folded.contains(";replay "),
            "recovery must charge the replay bucket:\n{folded}"
        );
    }
}
