//! Exhaustive crash-point model checker for client-based-logging
//! recovery.
//!
//! The checker enumerates — not samples — the product of every fault
//! dimension the simulator can express over a tiny cluster and a short
//! scripted workload:
//!
//! * **Crash points**: after every committed-transaction prefix of the
//!   workload (`k = 0..=commits`), over every configured victim set
//!   (client, owner, or both at once).
//! * **Torn tails**: every distinct landing point of each victim's
//!   unforced log tail ([`cblog_core::Cluster::torn_landing_points`]),
//!   with and without a corrupted final sector. Single-victim sets
//!   sweep per-byte over the final record; multi-victim products use
//!   the record-boundary grid (per-byte positions converge to the
//!   preceding boundary after repair — an equivalence the state-hash
//!   dedup below independently verifies).
//! * **Recovery interruptions**: a second crash after every
//!   [`RecoveryPhase`] boundary, optionally composed with another torn
//!   tail at the interrupt, then a re-run to completion.
//! * **Message schedules**: every single-step [`FaultScript`] —
//!   drop / duplicate / delay / reorder of the i-th message — over a
//!   bounded window of the recovery message sequence.
//!
//! Every branch replays the scripted workload from scratch on the
//! deterministic simulator, crashes, recovers, and is checked three
//! ways: the [`Oracle`] re-reads every acked commit (durability +
//! page-image equality), the tracing watchdog audits the event stream
//! ([`cblog_core::Cluster::trace_check`]), and the in-flight loser
//! writes must not resurface.
//!
//! **Pruning.** Recovery is a deterministic function of the durable
//! state left by the crash plus the volatile state of the surviving
//! nodes. Within one `(k, evict, victims)` cell the survivors' state
//! is fixed, so two tears whose post-repair durable fingerprints
//! ([`cblog_core::Cluster::durable_state_hash`]) collide cannot
//! diverge later — the checker repairs the tails (idempotent; exactly
//! what recovery would do first), hashes, and skips the whole interrupt
//! × schedule sub-tree of any converged tear.
//!
//! **Shrinking.** A violating branch is greedily minimized — drop
//! schedule steps, clear interrupts, untear, drop victims, shorten the
//! committed prefix — re-running the checker on each candidate until no
//! single simplification still fails. Both the original and the shrunk
//! branch print as replayable specs (see [`Branch::spec`] /
//! [`Branch::parse`]).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt::Write as _;

use cblog_common::{CostModel, Error, NodeId, PageId, RecoveryPhase};
use cblog_core::{
    recovery, Cluster, ClusterConfig, FaultAction, FaultPlan, FaultScript, GroupCommitPolicy,
    RecoveryOptions,
};
use cblog_sim::Oracle;

/// The explored space: scenario shape plus enumeration bounds.
#[derive(Clone, Debug)]
pub struct Config {
    /// Cluster size; node 0 owns every page, nodes 1.. are clients.
    pub nodes: u32,
    /// Pages owned by node 0.
    pub pages: u32,
    /// Length of the scripted committed workload (crash points are
    /// enumerated after every prefix of it).
    pub commits: usize,
    /// Victim sets to crash, e.g. `[[1], [0], [0, 1]]`.
    pub victim_sets: Vec<Vec<u32>>,
    /// Whether to enumerate the variant where each client victim's
    /// in-flight dirty page is evicted to the owner before the crash
    /// (the page-replacement path that makes loser updates live only
    /// in the owner's buffer).
    pub evict_variants: Vec<bool>,
    /// Enumerate a second crash after every recovery phase.
    pub interrupts: bool,
    /// Compose the interrupting crash with a torn tail.
    pub interrupt_tears: bool,
    /// Message-schedule window: single-step scripts target the first
    /// `sched_window` messages of recovery.
    pub sched_window: u64,
    /// Actions enumerated per scheduled message.
    pub sched_actions: Vec<FaultAction>,
    /// Deliberately skip the undo phase — the planted bug the
    /// must-fail self-test proves the checker catches.
    pub sabotage: bool,
    /// Hard cap on simulator runs; exceeding it flags the report as
    /// truncated instead of looping forever.
    pub max_runs: u64,
    /// How many violating branches to keep (and shrink).
    pub max_counterexamples: usize,
}

impl Config {
    /// The bounded budget CI explores on every run: 3 nodes, 2 pages,
    /// short workload, all three victim sets, interrupts and a small
    /// schedule window. A few thousand branches, well under a minute.
    pub fn ci() -> Config {
        Config {
            nodes: 3,
            pages: 2,
            commits: 2,
            victim_sets: vec![vec![1], vec![0], vec![0, 1]],
            evict_variants: vec![false, true],
            interrupts: true,
            interrupt_tears: true,
            sched_window: 4,
            sched_actions: FaultAction::ALL.to_vec(),
            sabotage: false,
            max_runs: 200_000,
            max_counterexamples: 5,
        }
    }

    /// The planted-bug space [`must_fail_self_test`] explores with
    /// recovery deliberately sabotaged (undo skipped): small, but wide
    /// enough that full-tail tears and evicted dirty pages both carry
    /// a loser update past the crash.
    pub fn sabotaged() -> Config {
        Config {
            nodes: 2,
            pages: 2,
            commits: 1,
            victim_sets: vec![vec![1]],
            evict_variants: vec![false, true],
            interrupts: false,
            interrupt_tears: false,
            sched_window: 0,
            sched_actions: Vec::new(),
            sabotage: true,
            max_runs: 10_000,
            max_counterexamples: 1,
        }
    }

    /// The full acceptance space: a 2-node cluster over 2 pages with
    /// the complete per-byte torn-tail sweep, every victim set, every
    /// interrupt composition, and a wider schedule window.
    pub fn full() -> Config {
        Config {
            nodes: 2,
            pages: 2,
            commits: 3,
            victim_sets: vec![vec![1], vec![0], vec![0, 1]],
            evict_variants: vec![false, true],
            interrupts: true,
            interrupt_tears: true,
            sched_window: 8,
            sched_actions: FaultAction::ALL.to_vec(),
            sabotage: false,
            max_runs: 2_000_000,
            max_counterexamples: 5,
        }
    }
}

/// One fully-determined branch of the exploration: everything needed
/// to replay a run bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Branch {
    /// Committed-workload prefix length before the crash.
    pub crash_k: usize,
    /// Client victims evict their in-flight dirty page to the owner
    /// before crashing.
    pub evict: bool,
    /// The nodes that crash, in order.
    pub victims: Vec<u32>,
    /// Per-victim torn-write `(landed, corrupt)`, parallel to
    /// `victims`. `(0, false)` is a clean crash (whole tail lost).
    pub tears: Vec<(u64, bool)>,
    /// Crash recovery again after this phase, then re-run it.
    pub interrupt: Option<RecoveryPhase>,
    /// The interrupting crash also tears (full tail landed, corrupt).
    pub interrupt_tear: bool,
    /// Scripted message faults, as absolute `(sequence, action)`.
    pub schedule: Vec<(u64, FaultAction)>,
}

fn action_name(a: FaultAction) -> &'static str {
    match a {
        FaultAction::Drop => "drop",
        FaultAction::Duplicate => "dup",
        FaultAction::Delay => "delay",
        FaultAction::Reorder => "reorder",
    }
}

fn action_parse(s: &str) -> Result<FaultAction, String> {
    FaultAction::ALL
        .into_iter()
        .find(|a| action_name(*a) == s)
        .ok_or_else(|| format!("unknown fault action {s:?}"))
}

fn phase_parse(s: &str) -> Result<RecoveryPhase, String> {
    RecoveryPhase::ALL
        .into_iter()
        .find(|p| p.to_string() == s)
        .ok_or_else(|| format!("unknown recovery phase {s:?}"))
}

impl Branch {
    /// The replayable one-line spec: feed it back through
    /// [`Branch::parse`] (the checker binary's `--replay`) to re-run
    /// exactly this branch.
    pub fn spec(&self) -> String {
        let mut s = format!("k={} evict={}", self.crash_k, self.evict as u8);
        write!(
            s,
            " victims={}",
            self.victims
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
        .unwrap();
        write!(
            s,
            " tears={}",
            self.tears
                .iter()
                .map(|(l, c)| format!("{l}{}", if *c { "c" } else { "" }))
                .collect::<Vec<_>>()
                .join(",")
        )
        .unwrap();
        match self.interrupt {
            Some(p) => write!(s, " int={p} inttear={}", self.interrupt_tear as u8).unwrap(),
            None => s.push_str(" int=- inttear=0"),
        }
        if self.schedule.is_empty() {
            s.push_str(" sched=-");
        } else {
            write!(
                s,
                " sched={}",
                self.schedule
                    .iter()
                    .map(|(i, a)| format!("{i}:{}", action_name(*a)))
                    .collect::<Vec<_>>()
                    .join(",")
            )
            .unwrap();
        }
        s
    }

    /// Parses a [`Branch::spec`] string.
    pub fn parse(spec: &str) -> Result<Branch, String> {
        let mut b = Branch {
            crash_k: 0,
            evict: false,
            victims: Vec::new(),
            tears: Vec::new(),
            interrupt: None,
            interrupt_tear: false,
            schedule: Vec::new(),
        };
        for tok in spec.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad token {tok:?}"))?;
            match key {
                "k" => b.crash_k = val.parse().map_err(|e| format!("k: {e}"))?,
                "evict" => b.evict = val == "1",
                "victims" => {
                    for v in val.split(',').filter(|v| !v.is_empty()) {
                        b.victims
                            .push(v.parse().map_err(|e| format!("victims: {e}"))?);
                    }
                }
                "tears" => {
                    for t in val.split(',').filter(|t| !t.is_empty()) {
                        let (num, corrupt) = match t.strip_suffix('c') {
                            Some(n) => (n, true),
                            None => (t, false),
                        };
                        let landed = num.parse().map_err(|e| format!("tears: {e}"))?;
                        b.tears.push((landed, corrupt));
                    }
                }
                "int" => {
                    b.interrupt = if val == "-" {
                        None
                    } else {
                        Some(phase_parse(val)?)
                    }
                }
                "inttear" => b.interrupt_tear = val == "1",
                "sched" => {
                    if val != "-" {
                        for step in val.split(',') {
                            let (i, a) = step
                                .split_once(':')
                                .ok_or_else(|| format!("bad sched step {step:?}"))?;
                            b.schedule.push((
                                i.parse().map_err(|e| format!("sched: {e}"))?,
                                action_parse(a)?,
                            ));
                        }
                    }
                }
                _ => return Err(format!("unknown key {key:?}")),
            }
        }
        if b.victims.is_empty() {
            return Err("spec names no victims".into());
        }
        if b.tears.len() != b.victims.len() {
            return Err(format!(
                "{} victims but {} tears",
                b.victims.len(),
                b.tears.len()
            ));
        }
        Ok(b)
    }
}

/// A violating branch, as found and as shrunk.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The branch the explorer tripped on.
    pub branch: Branch,
    /// What check failed on it.
    pub error: String,
    /// The greedy-minimal branch that still fails.
    pub shrunk: Branch,
    /// What check fails on the shrunk branch.
    pub shrunk_error: String,
}

/// Exploration totals.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Branches actually run on the simulator.
    pub explored: u64,
    /// Tear branches skipped because their post-repair durable
    /// fingerprint matched an already-explored branch of the same
    /// crash cell (each prune skips that branch's whole interrupt ×
    /// schedule sub-tree).
    pub pruned: u64,
    /// Distinct post-crash durable states seen.
    pub distinct_states: u64,
    /// Total violating branches (all counted, even past the
    /// counterexample cap).
    pub violations: u64,
    /// Up to `max_counterexamples` shrunk counterexamples.
    pub counterexamples: Vec<Counterexample>,
    /// The `max_runs` cap fired before the space was exhausted.
    pub truncated: bool,
}

struct Built {
    c: Cluster,
    oracle: Oracle,
}

fn owner_page(cfg: &Config, i: usize) -> PageId {
    PageId::new(NodeId(0), i as u32 % cfg.pages)
}

/// The page a victim's in-flight transaction writes: distinct per
/// victim *position* so victim sets up to `pages` wide never
/// self-conflict.
fn inflight_page(cfg: &Config, victim_pos: usize) -> PageId {
    PageId::new(NodeId(0), victim_pos as u32 % cfg.pages)
}

const INFLIGHT_SLOT: usize = 3;

fn sim_err(what: &str, e: Error) -> String {
    format!("{what}: {e}")
}

/// Replays the scripted workload to the branch's crash point: `k`
/// committed transactions round-robined over the clients and pages,
/// then one in-flight (uncommitted, unforced) transaction per victim
/// that overwrites a committed slot and stamps a marker slot.
fn build_workload(cfg: &Config, b: &Branch) -> Result<Built, String> {
    if cfg.nodes < 2 {
        return Err("scenario needs at least one client node".into());
    }
    let mut owned = vec![0u32; cfg.nodes as usize];
    owned[0] = cfg.pages;
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(1024)
            .buffer_frames(16)
            .default_owned_pages(0)
            .cost(CostModel::unit())
            .group_commit(GroupCommitPolicy::Immediate)
            .faults(FaultPlan::default().with_script(FaultScript::new(b.schedule.clone())))
            .tracing(true)
            .build(),
    )
    .map_err(|e| sim_err("cluster build", e))?;
    let mut oracle = Oracle::new();
    for i in 0..b.crash_k.min(cfg.commits) {
        let client = NodeId(1 + (i as u32 % (cfg.nodes - 1)));
        let pid = owner_page(cfg, i);
        let v = 100 + i as u64;
        let t = c.begin(client).map_err(|e| sim_err("begin", e))?;
        c.write_u64(t, pid, 0, v).map_err(|e| sim_err("write", e))?;
        oracle.stage(i as u64, pid, 0, v);
        c.commit(t).map_err(|e| sim_err("commit", e))?;
        oracle.commit(i as u64);
    }
    for (pos, &v) in b.victims.iter().enumerate() {
        let pid = inflight_page(cfg, pos);
        let t = c
            .begin(NodeId(v))
            .map_err(|e| sim_err("in-flight begin", e))?;
        c.write_u64(t, pid, 0, 9000 + v as u64)
            .map_err(|e| sim_err("in-flight overwrite", e))?;
        c.write_u64(t, pid, INFLIGHT_SLOT, 9500 + v as u64)
            .map_err(|e| sim_err("in-flight marker", e))?;
        if b.evict && v != 0 {
            c.evict_page(NodeId(v), pid)
                .map_err(|e| sim_err("evict", e))?;
        }
    }
    Ok(Built { c, oracle })
}

fn crash_victims(b: &Branch, bu: &mut Built) {
    for (&v, &(landed, corrupt)) in b.victims.iter().zip(&b.tears) {
        bu.c.crash_torn(NodeId(v), landed, corrupt);
    }
}

/// Runs the branch's recovery (with interruption and re-run if the
/// branch says so) and applies all three checks. `Err` is a violation.
fn recover_and_check(cfg: &Config, b: &Branch, bu: &mut Built) -> Result<(), String> {
    let victims: Vec<NodeId> = b.victims.iter().map(|&v| NodeId(v)).collect();
    let base_opts = || {
        let o = RecoveryOptions::nodes(&victims);
        if cfg.sabotage {
            o.sabotage_skip_undo()
        } else {
            o
        }
    };
    if let Some(phase) = b.interrupt {
        let mut opts = base_opts().crash_after(phase);
        if b.interrupt_tear {
            opts = opts.crash_after_tear(u64::MAX, true);
        }
        match recovery::recover(&mut bu.c, &opts) {
            Err(Error::RecoveryInterrupted(p)) if p == phase => {}
            Err(e) => return Err(format!("interrupted recovery failed oddly: {e}")),
            Ok(_) => return Err(format!("crash_after({phase}) did not interrupt")),
        }
    }
    recovery::recover(&mut bu.c, &base_opts()).map_err(|e| format!("recovery failed: {e}"))?;
    // Check 1: no in-flight loser write survives recovery. (Runs
    // before the oracle pass so the common loser-resurface violation
    // fails on a one-line error naming the loser.)
    let reader = NodeId(cfg.nodes - 1);
    let t = bu.c.begin(reader).map_err(|e| sim_err("check begin", e))?;
    for (pos, &v) in b.victims.iter().enumerate() {
        let pid = inflight_page(cfg, pos);
        let got =
            bu.c.read_u64(t, pid, INFLIGHT_SLOT)
                .map_err(|e| sim_err("check read", e))?;
        if got != 0 {
            return Err(format!(
                "loser marker resurfaced: node {v} wrote {} to {pid:?} slot {INFLIGHT_SLOT} \
                 uncommitted, read back {got}",
                9500 + v as u64
            ));
        }
        let want = bu.oracle.expect(pid, 0).unwrap_or(0);
        let got =
            bu.c.read_u64(t, pid, 0)
                .map_err(|e| sim_err("check read", e))?;
        if got != want {
            return Err(format!(
                "loser overwrite survived: {pid:?} slot 0 is {got}, committed state says {want}"
            ));
        }
    }
    bu.c.commit(t).map_err(|e| sim_err("check commit", e))?;
    // Check 2: every acked commit is durable and reads back exactly.
    // Quiet variant: the shrinker re-runs failing branches many times,
    // and a post-mortem dump per run would swamp the output.
    bu.oracle
        .verify_quiet(&mut bu.c, reader)
        .map_err(|e| format!("oracle: {e}"))?;
    // Check 3: the tracing watchdog audits the whole event stream.
    bu.c.trace_check().map_err(|e| format!("watchdog: {e}"))?;
    Ok(())
}

/// Replays one branch from scratch. `Err` is a violation (or a
/// malformed branch).
pub fn run_branch(cfg: &Config, b: &Branch) -> Result<(), String> {
    let mut bu = build_workload(cfg, b)?;
    crash_victims(b, &mut bu);
    recover_and_check(cfg, b, &mut bu)
}

fn record_violation(cfg: &Config, rep: &mut Report, b: &Branch, err: String) {
    rep.violations += 1;
    if rep.counterexamples.len() < cfg.max_counterexamples {
        let shrunk = shrink(cfg, b);
        let shrunk_error = run_branch(cfg, &shrunk).err().unwrap_or_default();
        rep.counterexamples.push(Counterexample {
            branch: b.clone(),
            error: err,
            shrunk,
            shrunk_error,
        });
    }
}

/// The per-victim tear grids for one crash cell: the first victim of a
/// single-victim set sweeps per-byte over its final record; wider sets
/// use the record-boundary grid throughout. Corrupting a zero-byte
/// landing is a no-op, so `(0, true)` is not enumerated.
fn tear_grids(probe: &Cluster, victims: &[u32]) -> Vec<Vec<(u64, bool)>> {
    victims
        .iter()
        .map(|&v| {
            let points = if victims.len() == 1 {
                probe.torn_landing_points(NodeId(v))
            } else {
                probe.torn_record_boundaries(NodeId(v))
            };
            let mut grid = Vec::with_capacity(points.len() * 2);
            for p in points {
                grid.push((p, false));
                if p > 0 {
                    grid.push((p, true));
                }
            }
            grid
        })
        .collect()
}

fn cartesian(grids: &[Vec<(u64, bool)>]) -> Vec<Vec<(u64, bool)>> {
    let mut out: Vec<Vec<(u64, bool)>> = vec![Vec::new()];
    for grid in grids {
        let mut next = Vec::with_capacity(out.len() * grid.len());
        for prefix in &out {
            for &cell in grid {
                let mut row = prefix.clone();
                row.push(cell);
                next.push(row);
            }
        }
        out = next;
    }
    out
}

/// Exhaustively explores the configured space. The only `Err` is a
/// malformed scenario; violations come back inside the report.
pub fn explore(cfg: &Config) -> Result<Report, String> {
    let mut rep = Report::default();
    // Prune key: crash cell (fixes the survivors' volatile state) +
    // post-repair durable fingerprint (fixes everything else recovery
    // can observe).
    let mut seen: BTreeSet<(usize, bool, Vec<u32>, u64)> = BTreeSet::new();
    'outer: for k in 0..=cfg.commits {
        for &evict in &cfg.evict_variants {
            for victims in &cfg.victim_sets {
                let base = Branch {
                    crash_k: k,
                    evict,
                    victims: victims.clone(),
                    tears: vec![(0, false); victims.len()],
                    interrupt: None,
                    interrupt_tear: false,
                    schedule: Vec::new(),
                };
                // One probe run to size the tear grids (deterministic,
                // so the grid is identical on every replay).
                let probe = build_workload(cfg, &base)?;
                let grids = tear_grids(&probe.c, victims);
                drop(probe);
                for tears in cartesian(&grids) {
                    if rep.explored >= cfg.max_runs {
                        rep.truncated = true;
                        break 'outer;
                    }
                    let mut b = base.clone();
                    b.tears = tears;
                    // Run to the crash, repair, fingerprint: converged
                    // tears skip their whole sub-tree.
                    let mut bu = build_workload(cfg, &b)?;
                    crash_victims(&b, &mut bu);
                    let ids: Vec<NodeId> = b.victims.iter().map(|&v| NodeId(v)).collect();
                    bu.c.repair_tails(&ids)
                        .map_err(|e| sim_err("tail repair", e))?;
                    let h =
                        bu.c.durable_state_hash()
                            .map_err(|e| sim_err("state hash", e))?;
                    if !seen.insert((k, evict, victims.clone(), h)) {
                        rep.pruned += 1;
                        continue;
                    }
                    rep.distinct_states += 1;
                    // The fingerprinted run doubles as the branch's
                    // base run (repair is idempotent), and its message
                    // counter anchors the schedule window.
                    let m0 = bu.c.network().script_msgs_seen();
                    rep.explored += 1;
                    if let Err(e) = recover_and_check(cfg, &b, &mut bu) {
                        record_violation(cfg, &mut rep, &b, e);
                    }
                    let m1 = bu.c.network().script_msgs_seen();
                    drop(bu);
                    if cfg.interrupts {
                        for phase in RecoveryPhase::ALL {
                            for itear in [false, true] {
                                if itear && !cfg.interrupt_tears {
                                    continue;
                                }
                                let mut ib = b.clone();
                                ib.interrupt = Some(phase);
                                ib.interrupt_tear = itear;
                                rep.explored += 1;
                                if let Err(e) = run_branch(cfg, &ib) {
                                    record_violation(cfg, &mut rep, &ib, e);
                                }
                            }
                        }
                    }
                    let window = cfg.sched_window.min(m1.saturating_sub(m0));
                    for i in 0..window {
                        for &a in &cfg.sched_actions {
                            let mut sb = b.clone();
                            sb.schedule = vec![(m0 + i, a)];
                            rep.explored += 1;
                            if let Err(e) = run_branch(cfg, &sb) {
                                record_violation(cfg, &mut rep, &sb, e);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(rep)
}

/// Simpler-first single-step simplifications of a branch.
fn shrink_candidates(b: &Branch) -> Vec<Branch> {
    let mut out = Vec::new();
    for i in 0..b.schedule.len() {
        let mut c = b.clone();
        c.schedule.remove(i);
        out.push(c);
    }
    if b.interrupt_tear {
        let mut c = b.clone();
        c.interrupt_tear = false;
        out.push(c);
    }
    if b.interrupt.is_some() {
        let mut c = b.clone();
        c.interrupt = None;
        c.interrupt_tear = false;
        out.push(c);
    }
    for i in 0..b.tears.len() {
        if b.tears[i].1 {
            let mut c = b.clone();
            c.tears[i].1 = false;
            out.push(c);
        }
        if b.tears[i].0 > 0 {
            let mut c = b.clone();
            c.tears[i].0 = 0;
            c.tears[i].1 = false;
            out.push(c);
        }
    }
    if b.victims.len() > 1 {
        for i in 0..b.victims.len() {
            let mut c = b.clone();
            c.victims.remove(i);
            c.tears.remove(i);
            out.push(c);
        }
    }
    if b.evict {
        let mut c = b.clone();
        c.evict = false;
        out.push(c);
    }
    if b.crash_k > 0 {
        let mut c = b.clone();
        c.crash_k = 0;
        out.push(c);
        let mut c = b.clone();
        c.crash_k -= 1;
        out.push(c);
    }
    out
}

/// Greedily minimizes a failing branch: keeps applying the first
/// single-step simplification that still fails until none does. Every
/// candidate strictly shrinks a well-founded measure, so this
/// terminates; the result is 1-minimal (no single simplification of it
/// reproduces the violation).
pub fn shrink(cfg: &Config, b: &Branch) -> Branch {
    let mut best = b.clone();
    if run_branch(cfg, &best).is_ok() {
        return best;
    }
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            if run_branch(cfg, &cand).is_err() {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Proves the checker can fail — the guard against a vacuous green
/// run. Explores [`Config::sabotaged`] (recovery with the undo phase
/// skipped) and demands that violations surface, that the kept
/// counterexample shrinks to a schedule-free, interrupt-free branch,
/// that the shrunk branch still reproduces, and that the shrinker
/// strips deliberately-added noise (an interrupt and a scripted
/// duplicate) back off a violating branch. `Ok` carries the summary;
/// `Err` means the checker would miss a real recovery bug.
pub fn must_fail_self_test() -> Result<String, String> {
    let cfg = Config::sabotaged();
    let rep = explore(&cfg)?;
    if rep.violations == 0 {
        return Err(format!(
            "sabotaged recovery (undo skipped) passed the checker over {} branches",
            rep.explored
        ));
    }
    let cx = rep
        .counterexamples
        .first()
        .ok_or("violations counted but no counterexample kept")?;
    if !cx.shrunk.schedule.is_empty() || cx.shrunk.interrupt.is_some() {
        return Err(format!(
            "shrinker left a non-minimal counterexample: {}",
            cx.shrunk.spec()
        ));
    }
    if run_branch(&cfg, &cx.shrunk).is_ok() {
        return Err(format!(
            "shrunk counterexample no longer reproduces: {}",
            cx.shrunk.spec()
        ));
    }
    let mut noisy = cx.shrunk.clone();
    noisy.interrupt = Some(RecoveryPhase::Analysis);
    noisy.schedule = vec![(0, FaultAction::Duplicate)];
    if run_branch(&cfg, &noisy).is_err() {
        let s = shrink(&cfg, &noisy);
        if !s.schedule.is_empty() || s.interrupt.is_some() {
            return Err(format!(
                "shrinker failed to strip planted noise: {}",
                s.spec()
            ));
        }
    }
    Ok(format!(
        "planted undo-skip caught: {} violations in {} branches; shrunk to `{}` ({})",
        rep.violations,
        rep.explored,
        cx.shrunk.spec(),
        cx.shrunk_error
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_spec_roundtrips() {
        let b = Branch {
            crash_k: 2,
            evict: true,
            victims: vec![0, 1],
            tears: vec![(34, true), (0, false)],
            interrupt: Some(RecoveryPhase::Undo),
            interrupt_tear: true,
            schedule: vec![(12, FaultAction::Drop), (13, FaultAction::Duplicate)],
        };
        let spec = b.spec();
        assert_eq!(Branch::parse(&spec).unwrap(), b);
        let plain = Branch {
            interrupt: None,
            interrupt_tear: false,
            schedule: Vec::new(),
            ..b
        };
        assert_eq!(Branch::parse(&plain.spec()).unwrap(), plain);
    }

    #[test]
    fn spec_parse_rejects_malformed() {
        assert!(Branch::parse("k=1").is_err());
        assert!(Branch::parse("victims=1 tears=3,4").is_err());
        assert!(Branch::parse("victims=1 tears=3 int=NoSuchPhase").is_err());
        assert!(Branch::parse("victims=1 tears=3 sched=7:melt").is_err());
    }
}
