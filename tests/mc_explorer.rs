//! Self-tests of the `cblog-mc` crash-point explorer: the state-hash
//! dedup that powers branch pruning, a clean exploration of a small
//! space, and the must-fail self-test that proves the harness catches
//! a planted recovery bug and shrinks it to a minimal counterexample.

use cblog_common::{CostModel, NodeId, PageId};
use cblog_core::{Cluster, ClusterConfig};
use cblog_mc::{explore, must_fail_self_test, run_branch, shrink, Branch, Config};

/// Owner + one client, a committed write, and an in-flight two-record
/// transaction left unforced on the client.
fn scenario() -> Cluster {
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![2, 0])
            .page_size(1024)
            .buffer_frames(16)
            .cost(CostModel::unit())
            .build(),
    )
    .unwrap();
    let p0 = PageId::new(NodeId(0), 0);
    let p1 = PageId::new(NodeId(0), 1);
    let t = c.begin(NodeId(1)).unwrap();
    c.write_u64(t, p0, 0, 100).unwrap();
    c.commit(t).unwrap();
    let t = c.begin(NodeId(1)).unwrap();
    c.write_u64(t, p1, 0, 9000).unwrap();
    c.write_u64(t, p1, 3, 9500).unwrap();
    c
}

fn hash_after_tear(landed: u64, corrupt: bool) -> u64 {
    let mut c = scenario();
    c.crash_torn(NodeId(1), landed, corrupt);
    c.repair_tails(&[NodeId(1)]).unwrap();
    c.durable_state_hash().unwrap()
}

/// Tears that land mid-record converge to the preceding record
/// boundary after repair — the equivalence class the explorer's
/// state-hash pruning keys on. Distinct boundaries stay distinct.
#[test]
fn state_hash_dedup_matches_repair_equivalence() {
    let c = scenario();
    let boundaries = c.torn_record_boundaries(NodeId(1));
    let points = c.torn_landing_points(NodeId(1));
    assert!(boundaries.len() >= 3, "two in-flight records pending");
    assert!(points.len() > boundaries.len(), "per-byte interior exists");
    let b = boundaries[boundaries.len() - 2];
    let full = *boundaries.last().unwrap();
    assert!(full > b + 2, "final record spans several bytes");
    // Mid-record positions — torn, corrupted, either offset — all
    // repair back to the boundary's durable state.
    let at_boundary = hash_after_tear(b, false);
    assert_eq!(hash_after_tear(b + 1, false), at_boundary);
    assert_eq!(hash_after_tear(b + 2, false), at_boundary);
    assert_eq!(hash_after_tear(b + 1, true), at_boundary);
    assert_eq!(hash_after_tear(full, true), at_boundary);
    // Whole-record differences are real state differences.
    assert_ne!(hash_after_tear(full, false), at_boundary);
    assert_ne!(hash_after_tear(0, false), at_boundary);
}

/// A small clean space explores with zero violations, and the
/// per-byte tear sweep actually prunes (most positions converge).
#[test]
fn small_space_explores_clean_and_prunes() {
    let cfg = Config {
        nodes: 2,
        pages: 2,
        commits: 1,
        victim_sets: vec![vec![1]],
        evict_variants: vec![false, true],
        interrupts: true,
        interrupt_tears: true,
        sched_window: 2,
        sched_actions: cblog_core::FaultAction::ALL.to_vec(),
        sabotage: false,
        max_runs: 100_000,
        max_counterexamples: 3,
    };
    let rep = explore(&cfg).unwrap();
    assert_eq!(
        rep.violations,
        0,
        "clean space must verify: {:?}",
        rep.counterexamples
            .iter()
            .map(|cx| (cx.branch.spec(), cx.error.clone()))
            .collect::<Vec<_>>()
    );
    assert!(!rep.truncated);
    assert!(rep.explored > 0);
    assert!(
        rep.pruned > rep.distinct_states,
        "per-byte tears should mostly converge: pruned={} distinct={}",
        rep.pruned,
        rep.distinct_states
    );
}

/// The must-fail self-test: a planted undo-skip must be caught and
/// shrunk to a minimal counterexample.
#[test]
fn planted_bug_is_caught_and_shrunk() {
    let summary = must_fail_self_test().unwrap();
    assert!(summary.contains("violations"), "summary: {summary}");
}

/// The shrinker strips every irrelevant decoration from a violating
/// branch — and the shrunk spec replays to the same violation.
#[test]
fn shrinker_is_minimal_on_planted_bug() {
    let cfg = Config::sabotaged();
    let rep = explore(&cfg).unwrap();
    let cx = rep.counterexamples.first().expect("planted bug found");
    let mut noisy = cx.shrunk.clone();
    noisy.interrupt = Some(cblog_common::RecoveryPhase::LockRebuild);
    noisy.interrupt_tear = true;
    noisy.schedule = vec![
        (1, cblog_core::FaultAction::Delay),
        (2, cblog_core::FaultAction::Reorder),
    ];
    assert!(run_branch(&cfg, &noisy).is_err(), "noise keeps it failing");
    let s = shrink(&cfg, &noisy);
    assert!(
        s.schedule.is_empty(),
        "schedule noise stripped: {}",
        s.spec()
    );
    assert!(
        s.interrupt.is_none(),
        "interrupt noise stripped: {}",
        s.spec()
    );
    assert!(!s.interrupt_tear);
    // Replay round-trip: the printed spec alone reproduces it.
    let replay = Branch::parse(&s.spec()).unwrap();
    assert!(run_branch(&cfg, &replay).is_err());
}
