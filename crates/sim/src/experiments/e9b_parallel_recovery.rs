//! E9b — parallel replay vs the serial protocol.
//!
//! The Redo pass of recovery replays one unit per page: the page's hop
//! chain, merged from the involved nodes' NodePSNLists
//! ([`cblog_core::plan_replay`], DESIGN §13). The PSN filter makes
//! each page's replay independent of every other page's, so the pages
//! can replay concurrently; this experiment measures what that buys on
//! the two crash shapes the recovery suite already studies — E5
//! (single owner, many independent dirty pages) and E6 (simultaneous
//! multi-node crashes with cross-page transactions) — at 1..8 replay
//! workers. The `waves` column counts replay passes: 1 whenever a page
//! was replayed, on both engines.
//!
//! Everything but the speedup column is deterministic: the units
//! (pages, critical-path PSN intervals of the heaviest page) depend
//! only on the logs, and the simulated replay time only on the cost
//! model, so the baseline gate pins those cells exactly.

use super::{cbl_builder, e5_single_crash as e5, e6_multi_crash as e6};
use crate::report::{f, Table};
use cblog_common::NodeId;
use cblog_core::recovery::recover;
use cblog_core::{Cluster, RecoveryOptions, RecoveryReport, ReplayMode};

/// The worker counts swept per scenario (1 ≈ serial with overlap
/// bookkeeping; the paper's serial protocol is the `serial` row).
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One recovered scenario under one replay mode.
struct ModeRow {
    mode: String,
    rep: RecoveryReport,
}

/// Sweeps replay modes over the E5- and E6-shaped crashes.
pub fn run() -> Table {
    let mut t = Table::new(
        "E9b parallel replay: wave-scheduled redo vs serial protocol",
        &[
            "scenario",
            "mode",
            "pages",
            "waves",
            "crit path psns",
            "replay us",
            "total us",
            "speedup",
        ],
    );
    for (scenario, rows) in [
        ("e5 d=16", run_e5(16)),
        ("e6 3-crash", run_e6(&[NodeId(0), NodeId(1), NodeId(2)])),
    ] {
        let serial_us = rows[0].rep.timings.replay_us().max(1);
        for r in &rows {
            t.row(vec![
                scenario.to_string(),
                r.mode.clone(),
                r.rep.pages_recovered.to_string(),
                r.rep.replay_waves.to_string(),
                r.rep.critical_path_psns.to_string(),
                r.rep.timings.replay_us().to_string(),
                r.rep.timings.total_us().to_string(),
                f(serial_us as f64 / r.rep.timings.replay_us().max(1) as f64),
            ]);
        }
    }
    t
}

fn modes() -> Vec<(String, ReplayMode)> {
    let mut out = vec![("serial".to_string(), ReplayMode::Serial)];
    for w in WORKER_SWEEP {
        out.push((format!("par{w}"), ReplayMode::Parallel { workers: w }));
    }
    out
}

/// E5-shaped crash (`d` dirty pages on one owner) recovered under
/// every mode; each mode gets a fresh, identically-seeded cluster.
fn run_e5(d: u32) -> Vec<ModeRow> {
    modes()
        .into_iter()
        .map(|(mode, replay)| {
            let (clients, pages, frames) = e5::shape(d);
            let mut c = Cluster::new(cbl_builder(clients, pages, frames).build()).expect("config");
            e5::workload(&mut c, d);
            c.crash(NodeId(0));
            let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0)).replay(replay))
                .expect("recovery");
            ModeRow { mode, rep }
        })
        .collect()
}

/// E6-shaped multi-crash recovered under every mode.
fn run_e6(which: &[NodeId]) -> Vec<ModeRow> {
    modes()
        .into_iter()
        .map(|(mode, replay)| {
            let mut c = Cluster::new(e6::builder().build()).expect("config");
            e6::workload_and_crash(&mut c, which);
            let rep =
                recover(&mut c, &RecoveryOptions::nodes(which).replay(replay)).expect("recovery");
            ModeRow { mode, rep }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_replay_beats_serial_on_independent_pages() {
        let rows = run_e5(16);
        let serial = rows[0].rep.timings.replay_us();
        let par4 = &rows[3];
        assert_eq!(par4.mode, "par4");
        assert!(
            par4.rep.timings.replay_us() < serial,
            "4 workers over 16 independent pages must overlap: {} !< {}",
            par4.rep.timings.replay_us(),
            serial
        );
        // Work is conserved: same pages, same records, whatever the mode.
        for r in &rows {
            assert_eq!(r.rep.pages_recovered, rows[0].rep.pages_recovered);
            assert_eq!(r.rep.records_replayed, rows[0].rep.records_replayed);
        }
    }

    #[test]
    fn wave_plan_is_deterministic_across_modes() {
        let rows = run_e6(&[NodeId(0), NodeId(1), NodeId(2)]);
        for r in &rows {
            assert_eq!(r.rep.replay_waves, rows[0].rep.replay_waves);
            assert_eq!(r.rep.critical_path_psns, rows[0].rep.critical_path_psns);
        }
        // Parallel rows carry the pass's split; serial rows do not.
        assert!(rows[0].rep.timings.replay_waves().is_empty());
        assert_eq!(
            rows[1].rep.timings.replay_waves().len(),
            rows[1].rep.replay_waves
        );
    }
}
