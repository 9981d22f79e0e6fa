//! Distributed crash recovery (paper §2.3 and §2.4).
//!
//! The defining property: **node log files are never merged**. After a
//! crash, the recovering node
//!
//! 1. runs ARIES analysis over its own log (rebuilding a conservative
//!    DPT superset and the loser-transaction table),
//! 2. gathers, from every operational node, the list of its pages they
//!    cache and their DPT entries for its pages (§2.3.1),
//! 3. determines which pages need recovery (in someone's DPT and
//!    cached nowhere) and which nodes are involved, filtering by PSN
//!    against the on-disk version (§2.3.2),
//! 4. reconstructs lock tables (§2.3.3): operational nodes drop the
//!    crashed node's shared locks and retain its exclusive locks; lock
//!    lists are shipped back; recovery locks fence unrecovered pages,
//! 5. coordinates per-page replay in ascending PSN order by shuttling
//!    the page among the involved nodes, each of which replays an
//!    interval of its **own** log under the PSN filter (§2.3.4),
//! 6. undoes its loser transactions locally, writing CLRs.
//!
//! Multiple simultaneous crashes (§2.4) additionally reconstruct each
//! crashed node's DPT superset from its log and route every node's DPT
//! entries to the page owners, which merge them into per-owner
//! recovery sets; replay then proceeds exactly as in the single-crash
//! case, possibly involving several crashed nodes' logs per page.

use crate::cluster::{Cluster, CTRL_BYTES};
use crate::config::Paradigm;
use crate::node::{NodePsnEntry, RedoRecords, RollbackStep};
use crate::runtime::Runtime;
use cblog_common::{
    metrics::keys, Bucket, Error, IdMap, Lsn, NodeId, PageId, Psn, RecoveryPhase, Result, SimTime,
    Span, SpanCtx, SpanId, SpanKind, TransferWhy, TxnId,
};
use cblog_locks::LockMode;
use cblog_net::{MsgHeader, MsgKind};
use cblog_wal::DptEntry;
use std::collections::{BTreeMap, BTreeSet};

/// How the Redo pass executes the pages' [`ReplayUnit`]s (DESIGN §13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// The paper's §2.3.4 protocol verbatim: pages replay one after
    /// another, each shuttling serially among its involved nodes.
    Serial,
    /// Pages replay concurrently on up to `workers` lanes: the
    /// simulator measures each page's serial service time and charges
    /// the LPT packing of all of them onto the lanes. `workers: 1`
    /// charges the serial sum. `cblog-rt` runs this mode as `Serial`:
    /// it replays its pages one after another in page order on the
    /// recovering thread (DESIGN §13).
    Parallel {
        /// Concurrent replay lanes (0 is treated as 1).
        workers: usize,
    },
}

/// How a recovery run should be performed — the one argument of
/// [`recover`], replacing the old `recover_single` /
/// `recover_with_standby` entry points.
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    nodes: Vec<NodeId>,
    standby: Option<NodeId>,
    crash_after: Option<RecoveryPhase>,
    crash_tear: Option<(u64, bool)>,
    replay: ReplayMode,
    sabotage_skip_undo: bool,
}

impl RecoveryOptions {
    /// Recover a single crashed node (paper §2.3).
    pub fn single(node: NodeId) -> Self {
        RecoveryOptions {
            nodes: vec![node],
            standby: None,
            crash_after: None,
            crash_tear: None,
            replay: ReplayMode::Serial,
            sabotage_skip_undo: false,
        }
    }

    /// Recover one or more simultaneously crashed nodes (paper §2.4
    /// when more than one).
    pub fn nodes(nodes: &[NodeId]) -> Self {
        RecoveryOptions {
            nodes: nodes.to_vec(),
            standby: None,
            crash_after: None,
            crash_tear: None,
            replay: ReplayMode::Serial,
            sabotage_skip_undo: false,
        }
    }

    /// Selects how the Redo pass executes the replay plan (default
    /// [`ReplayMode::Serial`], the paper's protocol).
    pub fn replay(mut self, mode: ReplayMode) -> Self {
        self.replay = mode;
        self
    }

    /// Let `standby` coordinate every phase of the protocol (paper
    /// §2.3: any node with access to the crashed node's database and
    /// log may perform its recovery). Coordination traffic lands on
    /// the standby instead of the restarting node.
    pub fn with_standby(mut self, standby: NodeId) -> Self {
        self.standby = Some(standby);
        self
    }

    /// Fault injection: crash the recovering nodes again immediately
    /// after `phase` completes. [`recover`] then returns
    /// [`Error::RecoveryInterrupted`] and must be re-run from scratch
    /// — the protocol is idempotent.
    pub fn crash_after(mut self, phase: RecoveryPhase) -> Self {
        self.crash_after = Some(phase);
        self
    }

    /// Composes with [`RecoveryOptions::crash_after`]: the interrupting
    /// crash also tears the victims' WAL tails, landing `landed` bytes
    /// of the unforced tail on the device and (if `corrupt`) flipping
    /// the last landed byte. No effect unless `crash_after` is set.
    pub fn crash_after_tear(mut self, landed: u64, corrupt: bool) -> Self {
        self.crash_tear = Some((landed, corrupt));
        self
    }

    /// Deliberately skips the Undo phase, leaving loser transactions'
    /// updates in place. This exists ONLY so the model checker's
    /// must-fail self-test can prove the checker catches a broken
    /// recovery; it is hidden from docs and must never be set outside
    /// that test.
    #[doc(hidden)]
    pub fn sabotage_skip_undo(mut self) -> Self {
        self.sabotage_skip_undo = true;
        self
    }

    /// The nodes this run recovers.
    pub fn recovered_nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// What a recovery run did — the measurable quantities of experiments
/// E5/E6/E7.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The nodes that were recovered.
    pub recovered_nodes: Vec<NodeId>,
    /// Pages replayed via the NodePSNList protocol.
    pub pages_recovered: usize,
    /// Pages whose cached copies made replay unnecessary.
    pub pages_skipped_cached: usize,
    /// Pages pulled from an operational cache to the owner (§2.3.1).
    pub pages_pulled_to_owner: usize,
    /// Loser transactions rolled back.
    pub losers_undone: usize,
    /// Update/CLR records re-applied during replay.
    pub records_replayed: u64,
    /// Log bytes read across all logs: each crashed node's restart
    /// pass and each operational node's NodePSNList collection.
    pub log_bytes_scanned: u64,
    /// Recovery protocol messages exchanged.
    pub messages: u64,
    /// Page shuttle hops during coordinated replay.
    pub page_hops: u64,
    /// Torn log-tail bytes discarded by checksum repair at restart.
    pub torn_bytes_discarded: u64,
    /// Per-phase duration breakdown — the "where does restart time
    /// go" view of §2.3/§2.4, plus the replay pass's [`WaveTiming`]
    /// where the engine records one.
    pub timings: PhaseTimings,
    /// Replay passes: 1 when a page was replayed, 0 otherwise. Pages
    /// replay independently of one another, so on both engines the
    /// Redo phase is one pass over every page.
    pub replay_waves: usize,
    /// The heaviest page's replay work — the serial floor no amount of
    /// replay parallelism removes. The simulator counts that page's
    /// PSN intervals ([`ReplayUnit::psn_intervals`]); `cblog-rt`
    /// counts the records it replayed on its heaviest page.
    pub critical_path_psns: u64,
}

/// Timing of the Redo pass over all pages: recorded by the simulator
/// under [`ReplayMode::Parallel`], and by `cblog-rt` for its one serial
/// pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveTiming {
    /// Replay units (pages) the pass contained.
    pub units: usize,
    /// Sum of the units' service times — what the pass would have
    /// cost replayed serially.
    pub serial_us: u64,
    /// Time the pass took. In the simulator, an LPT packing of the
    /// unit durations onto the configured worker lanes.
    pub makespan_us: u64,
}

/// Typed per-phase duration breakdown of a recovery run, replacing
/// the old `phase_us: Vec<(RecoveryPhase, u64)>`. Durations are
/// simulated µs in the sim engine and measured wall-clock µs in
/// `cblog-rt`. Phases that exchanged no messages and did no I/O
/// report 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    us: [u64; RecoveryPhase::ALL.len()],
    replay_waves: Vec<WaveTiming>,
}

impl PhaseTimings {
    fn idx(phase: RecoveryPhase) -> usize {
        RecoveryPhase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("every phase is listed in ALL")
    }

    /// Records `us` against `phase` (accumulating).
    pub fn record(&mut self, phase: RecoveryPhase, us: u64) {
        self.us[Self::idx(phase)] += us;
    }

    /// Attaches the replay pass's timing.
    pub fn set_replay_waves(&mut self, waves: Vec<WaveTiming>) {
        self.replay_waves = waves;
    }

    /// Duration of `phase`.
    pub fn us(&self, phase: RecoveryPhase) -> u64 {
        self.us[Self::idx(phase)]
    }

    /// Total duration across all phases.
    pub fn total_us(&self) -> u64 {
        self.us.iter().sum()
    }

    /// `(phase, µs)` pairs in protocol order.
    pub fn iter(&self) -> impl Iterator<Item = (RecoveryPhase, u64)> + '_ {
        RecoveryPhase::ALL.iter().map(move |&p| (p, self.us(p)))
    }

    /// The replay pass's timing: empty when nothing was replayed, and
    /// in the simulator also under [`ReplayMode::Serial`].
    pub fn replay_waves(&self) -> &[WaveTiming] {
        &self.replay_waves
    }

    /// ARIES analysis scan.
    pub fn analysis_us(&self) -> u64 {
        self.us(RecoveryPhase::Analysis)
    }

    /// Cache/DPT/lock information exchange.
    pub fn info_exchange_us(&self) -> u64 {
        self.us(RecoveryPhase::InfoExchange)
    }

    /// Lock-table reconstruction.
    pub fn lock_rebuild_us(&self) -> u64 {
        self.us(RecoveryPhase::LockRebuild)
    }

    /// Per-owner recovery-set determination.
    pub fn recovery_sets_us(&self) -> u64 {
        self.us(RecoveryPhase::RecoverySets)
    }

    /// Recovery-lock fencing.
    pub fn recovery_locks_us(&self) -> u64 {
        self.us(RecoveryPhase::RecoveryLocks)
    }

    /// NodePSNList construction and exchange.
    pub fn psn_lists_us(&self) -> u64 {
        self.us(RecoveryPhase::PsnLists)
    }

    /// Redo (coordinated page replay).
    pub fn replay_us(&self) -> u64 {
        self.us(RecoveryPhase::Replay)
    }

    /// Loser-transaction undo.
    pub fn undo_us(&self) -> u64 {
        self.us(RecoveryPhase::Undo)
    }
}

/// Closes the current recovery phase: accounts the sim-time spent
/// since `t0` under `phase`, emits a [`SpanKind::Phase`] interval for
/// every recovering node, and fires the injected crash point if the
/// options ask for one after this phase.
fn end_phase(
    cluster: &mut Cluster,
    crashed: &[NodeId],
    t0: &mut SimTime,
    out: &mut PhaseTimings,
    phase: RecoveryPhase,
    opts: &RecoveryOptions,
    root: SpanId,
) -> Result<()> {
    let crash_after = opts.crash_after;
    let now = cluster.network().clock().now();
    let us = now.saturating_sub(*t0);
    *t0 = now;
    out.record(phase, us);
    for &c in crashed {
        let id = cluster.tracer().alloc();
        if !id.is_none() {
            cluster.tracer().emit(Span {
                id,
                parent: root,
                node: c,
                start: now - us,
                dur: us,
                kind: SpanKind::Phase { node: c, phase },
            });
        }
    }
    if crash_after == Some(phase) {
        for &c in crashed {
            match opts.crash_tear {
                // Composed fault: the interrupting crash also tears
                // the victim's WAL tail at a chosen byte. At phase
                // boundaries the recovering node's tail is normally
                // empty (Undo ends with a force + checkpoint), so
                // `landed` clamps to whatever is actually pending —
                // the hook exists so the model checker can prove the
                // composition stays idempotent rather than assume it.
                Some((landed, corrupt)) => cluster.crash_torn(c, landed, corrupt),
                None => cluster.crash(c),
            }
        }
        return Err(Error::RecoveryInterrupted(phase));
    }
    Ok(())
}

/// Information one node contributes to another node's recovery.
#[derive(Clone, Debug, Default)]
struct ContributedInfo {
    /// Pages (owned by the recovering node) this node caches, with the
    /// cached copy's PSN.
    cached: Vec<(PageId, Psn)>,
    /// This node's DPT entries for pages owned by the recovering node.
    dpt: Vec<DptEntry>,
    /// Locks this node holds on the recovering node's pages.
    locks_held: Vec<(PageId, LockMode)>,
    /// Pages owned by this node on which the recovering node held an
    /// exclusive lock at crash time (retained as a fence).
    crashed_exclusive: Vec<PageId>,
}

/// One page's replay work: the §2.3.4 shuttle schedule, pre-merged
/// from the involved nodes' NodePSNLists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayUnit {
    /// The page.
    pub pid: PageId,
    /// Shuttle hops in ascending PSN order, adjacent same-node bursts
    /// merged (keeping the minimum PSN): `(start_psn, node)`.
    pub hops: Vec<(Psn, NodeId)>,
    /// PSN intervals (transaction bursts) recorded for the page across
    /// all lists — the unit's replay work, and its weight in the LPT
    /// packing of [`ReplayMode::Parallel`].
    pub psn_intervals: u64,
}

/// Builds each page's [`ReplayUnit`] from the merged NodePSNLists, in
/// ascending page order — the order the serial protocol visits them.
/// A pure function of the lists, called by the simulator's Redo phase
/// (DESIGN §13).
///
/// A unit's hop chain is the only order replay needs. Every log record
/// names one page, and the PSN filter (§2.3.2) applies a page's
/// records only at that page's own PSN, so pages replay independently
/// of one another: in any order, or concurrently (DESIGN §16, "replay
/// is confluent across pages"). A multi-page transaction orders
/// nothing across its pages.
pub fn plan_replay(
    involved: &BTreeMap<PageId, Vec<NodeId>>,
    psn_lists: &BTreeMap<NodeId, Vec<NodePsnEntry>>,
) -> Vec<ReplayUnit> {
    // One pass over the lists, O(entries), tags each entry with its
    // page's unit if its node is involved there. A counting sort by
    // unit, O(entries + units), then groups the entries into each
    // unit's chain; only those short slices are sorted.
    let n = involved.len();
    let unit_of: IdMap<PageId, u32> = involved.keys().copied().zip(0..).collect();
    let nodes_of: Vec<&Vec<NodeId>> = involved.values().collect();
    let listed = psn_lists.values().map(Vec::len).sum();
    let mut entries: Vec<(u32, Psn, NodeId)> = Vec::with_capacity(listed);
    for (&node, list) in psn_lists {
        for e in list {
            let Some(&u) = unit_of.get(&e.pid) else {
                continue;
            };
            if nodes_of[u as usize].contains(&node) {
                entries.push((u, e.psn, node));
            }
        }
    }
    let (mut entries, entry_at) = group_by_key(&entries, n, |e| e.0);
    let mut units: Vec<ReplayUnit> = Vec::with_capacity(n);
    for (u, &pid) in involved.keys().enumerate() {
        let mine = &mut entries[entry_at[u]..entry_at[u + 1]];
        mine.sort_unstable();
        let mut hops: Vec<(Psn, NodeId)> = Vec::new();
        for &(_, psn, node) in mine.iter() {
            match hops.last() {
                // Adjacent same node: keep the first (minimum PSN).
                Some(&(_, n)) if n == node => {}
                _ => hops.push((psn, node)),
            }
        }
        units.push(ReplayUnit {
            pid,
            hops,
            psn_intervals: mine.len() as u64,
        });
    }
    units
}

/// Counting sort: `items` grouped by `key`, every key below `n`, in
/// input order within a group. Returns them with each key's start in
/// the output (`n + 1` offsets, the last one the length). O(items + n).
/// Each item is scattered straight into its slot of the output.
pub(crate) fn group_by_key<T: Copy>(
    items: &[T],
    n: usize,
    key: impl Fn(&T) -> u32,
) -> (Vec<T>, Vec<usize>) {
    let mut at = vec![0usize; n + 1];
    for it in items {
        at[key(it) as usize + 1] += 1;
    }
    let mut sum = 0;
    for a in &mut at {
        sum += *a;
        *a = sum;
    }
    let mut next = at.clone();
    let mut out = items.to_vec();
    for it in items {
        let k = key(it) as usize;
        out[next[k]] = *it;
        next[k] += 1;
    }
    (out, at)
}

/// Longest-processing-time packing of `durs` onto `workers` lanes;
/// returns the makespan — the simulated duration of a Redo pass whose
/// units run concurrently on that many lanes.
fn lpt_makespan(durs: &[SimTime], workers: usize) -> SimTime {
    let mut sorted: Vec<SimTime> = durs.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut lanes = vec![0u64; workers.max(1)];
    for d in sorted {
        let min = lanes
            .iter_mut()
            .min_by_key(|l| **l)
            .expect("at least one lane");
        *min += d;
    }
    lanes.into_iter().max().unwrap_or(0)
}

/// Recovers crashed nodes per `opts` — the single public entry point
/// of distributed crash recovery (§2.3 single crash, §2.4
/// simultaneous crashes, optional hot-standby coordination, optional
/// injected crash-during-recovery). Transaction processing on the
/// remaining nodes may resume as soon as this returns.
///
/// In the standby-coordinated mode the standby drives every phase —
/// information gathering, lock reconstruction, NodePSNList merging and
/// the per-page replay shuttle — while the crashed node's log is still
/// scanned by its own (restarting) process; on shared disks the
/// standby would read it directly with the same algorithm.
///
/// If `opts.crash_after(phase)` is set, the recovering nodes crash
/// again right after that phase and the call returns
/// [`Error::RecoveryInterrupted`]; re-running `recover` from scratch
/// then completes normally (the protocol is idempotent).
///
/// This entry point is runtime-generic: it dispatches to
/// [`Runtime::recover`], so the same call drives the deterministic
/// simulator ([`Cluster`]) and the threaded engine
/// (`cblog_rt::ThreadCluster`).
pub fn recover<R: Runtime + ?Sized>(rt: &mut R, opts: &RecoveryOptions) -> Result<RecoveryReport> {
    rt.recover(opts)
}

/// The simulator's recovery implementation, reached through
/// [`Runtime::recover`] on [`Cluster`].
pub(crate) fn recover_sim(cluster: &mut Cluster, opts: &RecoveryOptions) -> Result<RecoveryReport> {
    let paradigm = cluster.config().paradigm();
    if matches!(paradigm, Paradigm::PrimaryCopy | Paradigm::ClientServer) {
        // The baselines are priced for normal processing only, and a
        // log there holds other nodes' records.
        return Err(Error::Invalid(format!(
            "recovery under the {paradigm:?} paradigm is not modelled"
        )));
    }
    // Everything the run charges — log scans, page forces, the
    // cross-node replay shuttle — lands in the profiler's Replay
    // bucket, so resource-time breakdowns separate recovery work from
    // normal processing. The scope is restored even on the early
    // returns (crash-after injection, owner-down). The overlap
    // accumulator is cleared unconditionally for the same reason: an
    // error unwinding out of a parallel unit's measurement would
    // otherwise leave the transport swallowing every later clock
    // advance — `pump_commits` would spin on a clock that never moves.
    cluster.network_mut().set_attribution(Some(Bucket::Replay));
    let r = recover_inner(cluster, opts);
    let net = cluster.network_mut();
    net.set_attribution(None);
    net.clear_overlap();
    r
}

fn recover_inner(cluster: &mut Cluster, opts: &RecoveryOptions) -> Result<RecoveryReport> {
    let crashed: &[NodeId] = &opts.nodes;
    let standby = opts.standby;
    if let Some(s) = standby {
        if crashed.contains(&s) {
            return Err(Error::Invalid(format!("{s} is itself crashed")));
        }
        if cluster.network().is_crashed(s) {
            return Err(Error::NodeDown(s));
        }
    }
    let coord_of = |c: NodeId| standby.unwrap_or(c);
    let mut report = RecoveryReport {
        recovered_nodes: crashed.to_vec(),
        ..RecoveryReport::default()
    };
    let msgs0 = cluster.network().stats().recovery_messages();
    for &c in crashed {
        if !cluster.node(c).is_crashed() {
            return Err(Error::Protocol(format!("{c} is not crashed")));
        }
    }
    // The root span of this run: every phase span and cross-node
    // recovery message is parented to it, so a trace query for a page
    // can tell recovery traffic from normal processing.
    let t_start = cluster.network().clock().now();
    let root = cluster.tracer().alloc();
    let hdr = MsgHeader::of(SpanCtx::root(root));
    // Restart: nodes become reachable again for the recovery dialogue,
    // and each repairs (discards) any torn log tail before scanning.
    for &c in crashed {
        cluster.network_mut().mark_up(c);
        report.torn_bytes_discarded += cluster.node_mut(c).mark_restarting()?;
    }
    let crashed_set: BTreeSet<NodeId> = crashed.iter().copied().collect();
    let all: Vec<NodeId> = (0..cluster.node_count() as u32).map(NodeId).collect();
    let operational: Vec<NodeId> = all
        .iter()
        .copied()
        .filter(|n| !crashed_set.contains(n) && !cluster.network().is_crashed(*n))
        .collect();
    let mut phase_t0 = cluster.network().clock().now();
    let mut timings = PhaseTimings::default();

    // ---- Phase 1: local analysis at every crashed node (§2.3.1/§2.4:
    // a DPT superset is reconstructed by scanning the local log from
    // the last complete checkpoint). The one restart pass that does it
    // also yields the node's NodePSNList and redo records for every
    // page of that DPT, kept for phases 6 and 7: a crashed node reads
    // its log once. ----
    let mut losers: BTreeMap<NodeId, Vec<TxnId>> = BTreeMap::new();
    let mut passes: BTreeMap<NodeId, (Vec<NodePsnEntry>, RedoRecords)> = BTreeMap::new();
    for &c in crashed {
        let (a, list, records) = cluster.node_mut(c).restart_pass()?;
        report.log_bytes_scanned += a.bytes_scanned;
        losers.insert(c, a.losers);
        passes.insert(c, (list, records));
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::Analysis,
        opts,
        root,
    )?;

    // ---- Phase 2: information exchange. Every crashed node C hears
    // from every *other* node (operational or also recovering): cache
    // inventory, DPT entries for C's pages, lock lists (§2.3.1,
    // §2.3.3). ----
    let mut info: BTreeMap<(NodeId, NodeId), ContributedInfo> = BTreeMap::new();
    for &c in crashed {
        for &r in &all {
            if r == c {
                continue;
            }
            let co = coord_of(c);
            if co != r {
                cluster.network_mut().send_reliable_hdr(
                    co,
                    r,
                    MsgKind::RecoveryInfoRequest,
                    CTRL_BYTES,
                    hdr,
                )?;
            }
            let contrib = collect_contribution(cluster, r, c, crashed_set.contains(&r))?;
            let reply_bytes = CTRL_BYTES
                + contrib.cached.len() * 16
                + contrib.dpt.len() * 44
                + contrib.locks_held.len() * 12
                + contrib.crashed_exclusive.len() * 8;
            if co != r {
                cluster.network_mut().send_reliable_hdr(
                    r,
                    co,
                    MsgKind::RecoveryInfoReply,
                    reply_bytes,
                    hdr,
                )?;
            }
            info.insert((c, r), contrib);
        }
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::InfoExchange,
        opts,
        root,
    )?;

    // ---- Phase 3: lock reconstruction (§2.3.3). ----
    for &c in crashed {
        // Rebuild C's owner-side global lock table from the lists sent
        // by the other nodes.
        for &r in &all {
            if r == c {
                continue;
            }
            let locks = info[&(c, r)].locks_held.clone();
            if !locks.is_empty() {
                let co = coord_of(c);
                if co != r {
                    cluster.network_mut().send_reliable_hdr(
                        r,
                        co,
                        MsgKind::LockListShip,
                        CTRL_BYTES + locks.len() * 12,
                        hdr,
                    )?;
                }
                for (pid, mode) in locks {
                    cluster.node_mut(c).global_locks.insert_grant(pid, r, mode);
                    // A crashed contributor's grants are log-derived
                    // loser fences; re-establish its cached side too
                    // (the crashed_exclusive path below only covers
                    // owners that stayed up).
                    if crashed_set.contains(&r) {
                        cluster.node_mut(r).cached_locks.grant(pid, mode);
                    }
                }
            }
        }
        // Re-establish C's cached exclusive locks on remote pages (the
        // owners retained them as fences).
        for &r in &all {
            if r == c {
                continue;
            }
            for pid in info[&(c, r)].crashed_exclusive.clone() {
                cluster
                    .node_mut(c)
                    .cached_locks
                    .grant(pid, LockMode::Exclusive);
            }
        }
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::LockRebuild,
        opts,
        root,
    )?;

    // ---- Phase 4: determine per-owner recovery sets (§2.3.1 / §2.4).
    // For every page owned by a crashed node and present in anyone's
    // DPT: if an operational node caches it, the cached copy is
    // current (skip replay; pull the copy to the owner so a later
    // crash elsewhere stays recoverable); otherwise it must be rebuilt
    // from the involved nodes' logs. ----
    #[derive(Default, Debug)]
    struct PageRecovery {
        involved: Vec<(NodeId, DptEntry)>,
    }
    let mut plans: BTreeMap<PageId, PageRecovery> = BTreeMap::new();
    for &c in crashed {
        // Gather DPT entries for pages owned by C: C's own rebuilt DPT
        // plus everyone's contributed entries.
        let mut entries: Vec<(NodeId, DptEntry)> = Vec::new();
        for e in cluster.node(c).dpt().entries_for_owner(c) {
            entries.push((c, e));
        }
        for &r in &all {
            if r == c {
                continue;
            }
            for e in info[&(c, r)].dpt.clone() {
                entries.push((r, e));
            }
        }
        // Cache inventory (operational nodes only — crashed caches are
        // gone).
        let mut cached_at: BTreeMap<PageId, Vec<NodeId>> = BTreeMap::new();
        for &r in &operational {
            for (pid, _psn) in info[&(c, r)].cached.clone() {
                cached_at.entry(pid).or_default().push(r);
            }
        }
        let mut by_page: BTreeMap<PageId, Vec<(NodeId, DptEntry)>> = BTreeMap::new();
        for (n, e) in entries {
            by_page.entry(e.pid).or_default().push((n, e));
        }
        for (pid, holders) in by_page {
            if let Some(cachers) = cached_at.get(&pid) {
                // Current copy survives in an operational cache: pull
                // it to the owner (it becomes a dirty owner-side copy
                // whose eventual flush acknowledges the DPT holders).
                report.pages_skipped_cached += 1;
                let src = cachers[0];
                cluster.network_mut().send_reliable_hdr(
                    coord_of(c),
                    src,
                    MsgKind::RecoveryPageFetch,
                    CTRL_BYTES,
                    hdr,
                )?;
                let copy = cluster
                    .node_mut(src)
                    .buffer
                    .peek(pid)
                    .expect("inventory said cached")
                    .clone();
                cluster.return_to_owner(
                    src,
                    copy,
                    MsgKind::PageShip,
                    TransferWhy::Recovery,
                    root,
                )?;
                report.pages_pulled_to_owner += 1;
                // Every DPT holder must eventually get a flush-ack.
                for (n, _) in &holders {
                    if *n != c {
                        cluster
                            .node_mut(c)
                            .replacers
                            .entry(pid)
                            .or_default()
                            .insert(*n);
                    }
                }
                continue;
            }
            // Filter involvement by PSN against the disk version
            // (§2.3.2): a node whose CurrPSN is not past the disk PSN
            // has nothing to replay and drops its entry.
            let disk = cluster.node_mut(c).disk_psn(pid)?;
            let mut involved = Vec::new();
            for (n, e) in holders {
                if e.curr_psn > disk {
                    involved.push((n, e));
                } else {
                    cluster.node_mut(n).dpt.remove(pid);
                }
            }
            if involved.is_empty() {
                continue;
            }
            plans.insert(pid, PageRecovery { involved });
        }
    }

    // Remote-owned candidates of crashed nodes (§2.3.1 category (b)):
    // pages owned by an *operational* node that the crashed node held
    // exclusively. Replay the crashed node's log onto the owner's
    // authoritative copy.
    let mut remote_candidates: Vec<(NodeId, PageId)> = Vec::new();
    for &c in crashed {
        for &r in &operational {
            for pid in info[&(c, r)].crashed_exclusive.clone() {
                if cluster.node(c).dpt().contains(pid) {
                    remote_candidates.push((c, pid));
                }
            }
        }
        // Reconcile DPT entries for remote pages the crashed node did
        // NOT hold exclusively: the owner has (or has flushed) those
        // updates; drop the entry if durable, else re-register for a
        // future flush-ack.
        let remote_entries: Vec<DptEntry> = cluster
            .node(c)
            .dpt()
            .entries()
            .into_iter()
            .filter(|e| e.pid.owner != c && !crashed_set.contains(&e.pid.owner))
            .collect();
        for e in remote_entries {
            let held_x = info
                .get(&(c, e.pid.owner))
                .map(|i| i.crashed_exclusive.contains(&e.pid))
                .unwrap_or(false);
            if held_x {
                continue;
            }
            let disk = cluster.node_mut(e.pid.owner).disk_psn(e.pid)?;
            if e.curr_psn <= disk {
                cluster.node_mut(c).dpt.remove(e.pid);
            } else {
                // Updates live in the owner's buffer; be flush-acked
                // when the owner writes the page.
                cluster
                    .node_mut(e.pid.owner)
                    .replacers
                    .entry(e.pid)
                    .or_default()
                    .insert(c);
            }
        }
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::RecoverySets,
        opts,
        root,
    )?;

    // ---- Phase 5: recovery locks. The recovering owner takes (or
    // keeps) exclusive fences on every page it must recover; stale
    // page-less shared grants of other nodes on those pages are called
    // back so nobody reads a pre-recovery disk image. ----
    for (pid, _) in plans.iter() {
        let owner = pid.owner;
        if !crashed_set.contains(&owner) {
            continue;
        }
        let holders = cluster.node(owner).global_locks.holders(*pid);
        let co = coord_of(owner);
        for (h, _) in holders {
            if h != owner && !crashed_set.contains(&h) {
                if co != h {
                    cluster.network_mut().send_reliable_hdr(
                        co,
                        h,
                        MsgKind::Callback,
                        CTRL_BYTES,
                        hdr,
                    )?;
                }
                cluster.node_mut(h).cached_locks.release(*pid);
                cluster.node_mut(h).buffer.remove(*pid);
                if co != h {
                    cluster.network_mut().send_reliable_hdr(
                        h,
                        co,
                        MsgKind::CallbackAck,
                        CTRL_BYTES,
                        hdr,
                    )?;
                }
                cluster.node_mut(owner).global_locks.release(*pid, h);
            }
        }
        cluster
            .node_mut(owner)
            .global_locks
            .insert_grant(*pid, owner, LockMode::Exclusive);
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::RecoveryLocks,
        opts,
        root,
    )?;

    // ---- Phase 6: NodePSNList exchange (§2.3.4). A crashed node's
    // list is its restart pass's, cut to the pages it is asked for; an
    // operational node collects its list and records for the pages it
    // is asked for in one scan of its own log. ----
    let mut want_lists: BTreeMap<NodeId, BTreeSet<PageId>> = BTreeMap::new();
    for (pid, plan) in &plans {
        for (n, _) in &plan.involved {
            want_lists.entry(*n).or_default().insert(*pid);
        }
    }
    for (c, pid) in &remote_candidates {
        want_lists.entry(*c).or_default().insert(*pid);
    }
    let mut psn_lists: BTreeMap<NodeId, Vec<NodePsnEntry>> = BTreeMap::new();
    let mut redo: BTreeMap<NodeId, RedoRecords> = BTreeMap::new();
    for (&n, pages) in &want_lists {
        if let Some((list, records)) = passes.remove(&n) {
            let asked = list.into_iter().filter(|e| pages.contains(&e.pid));
            psn_lists.insert(n, asked.collect());
            redo.insert(n, records);
            continue;
        }
        let pages: Vec<PageId> = pages.iter().copied().collect();
        // Request travels coordinator → n; reply comes back.
        let coord = pages
            .iter()
            .find(|p| crashed_set.contains(&p.owner))
            .map(|p| coord_of(p.owner))
            .filter(|&co| co != n);
        if let Some(co) = coord {
            cluster.network_mut().send_reliable_hdr(
                co,
                n,
                MsgKind::PsnListRequest,
                CTRL_BYTES + pages.len() * 8,
                hdr,
            )?;
        }
        let (list, records, bytes) = cluster.node_mut(n).psn_list(&pages)?;
        report.log_bytes_scanned += bytes;
        if let Some(co) = coord {
            cluster.network_mut().send_reliable_hdr(
                n,
                co,
                MsgKind::PsnListReply,
                CTRL_BYTES + list.len() * 24,
                hdr,
            )?;
        }
        psn_lists.insert(n, list);
        redo.insert(n, records);
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::PsnLists,
        opts,
        root,
    )?;

    // ---- Phase 7: Redo (DESIGN §13). Each page's unit replays its hop
    // chain, and pages are independent of one another. Serial mode
    // replays the units in the paper's ascending page order. Parallel
    // mode measures each unit's serial service time with the
    // transport's overlap accumulator, then advances the wall once by
    // the LPT makespan of all units on `workers` lanes. ----
    let involved_map: BTreeMap<PageId, Vec<NodeId>> = plans
        .iter()
        .map(|(pid, p)| (*pid, p.involved.iter().map(|(n, _)| *n).collect()))
        .collect();
    let units = plan_replay(&involved_map, &psn_lists);
    report.replay_waves = usize::from(!units.is_empty());
    report.critical_path_psns = units.iter().map(|u| u.psn_intervals).max().unwrap_or(0);
    match opts.replay {
        ReplayMode::Parallel { workers } if !units.is_empty() => {
            let mut durs: Vec<SimTime> = Vec::with_capacity(units.len());
            for unit in &units {
                let coord = coord_of(unit.pid.owner);
                cluster.network_mut().begin_overlap();
                let r = replay_unit(
                    cluster,
                    coord,
                    unit,
                    &involved_map[&unit.pid],
                    &redo,
                    &mut report,
                    root,
                );
                // End the measurement even on error — the outer
                // wrapper also clears it, belt and braces.
                let d = cluster.network_mut().end_overlap();
                r?;
                durs.push(d);
            }
            let makespan_us = lpt_makespan(&durs, workers);
            cluster.network_mut().advance_time(makespan_us);
            timings.set_replay_waves(vec![WaveTiming {
                units: units.len(),
                serial_us: durs.iter().sum(),
                makespan_us,
            }]);
        }
        _ => {
            for unit in &units {
                let coord = coord_of(unit.pid.owner);
                replay_unit(
                    cluster,
                    coord,
                    unit,
                    &involved_map[&unit.pid],
                    &redo,
                    &mut report,
                    root,
                )?;
            }
        }
    }
    for &c in crashed {
        cluster
            .node(c)
            .registry()
            .gauge(keys::RECOVERY_CRITICAL_PATH_PSNS)
            .set(report.critical_path_psns as i64);
    }

    // Remote-owned candidates: the crashed node replays its own log
    // onto the owner's authoritative copy and re-caches the page.
    let mut runs = Vec::new();
    for (c, pid) in &remote_candidates {
        let owner = pid.owner;
        cluster.network_mut().send_reliable_hdr(
            *c,
            owner,
            MsgKind::RecoveryPageFetch,
            CTRL_BYTES,
            hdr,
        )?;
        let mut page = cluster.ship_from_owner(*pid, *c, TransferWhy::Recovery, root)?;
        let from_psn = page.psn();
        let (_, applied) = records_of(&redo, *c, *pid)?.replay(&mut page, 0, None, &mut runs)?;
        cluster.tracer().point(
            cluster.network().clock().now(),
            *c,
            root,
            SpanKind::ReplayHop {
                pid: *pid,
                node: *c,
                from_psn,
                to_psn: page.psn(),
                applied,
            },
        );
        report.records_replayed += applied;
        report.pages_recovered += 1;
        cluster.cache_at(*c, page, true)?;
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::Replay,
        opts,
        root,
    )?;

    // ---- Phase 8: undo loser transactions locally, with CLRs. ----
    for &c in crashed {
        for txn in losers[&c].clone() {
            if opts.sabotage_skip_undo {
                // Checker self-test hook: leave the loser in place.
                cluster.node_mut(c).txns.remove(&txn);
                continue;
            }
            cluster.node_mut(c).start_abort(txn)?;
            loop {
                match cluster.node_mut(c).rollback_step(txn, Lsn::ZERO)? {
                    RollbackStep::Done => break,
                    RollbackStep::Undone(_) => {}
                    RollbackStep::NeedPage(pid) => {
                        cluster.fetch_page(c, pid)?;
                    }
                }
            }
            cluster.node_mut(c).finish_abort(txn)?;
            report.losers_undone += 1;
        }
        // Make the restart durable and re-anchor the log.
        cluster.node_mut(c).log.force_all()?;
        cluster.node_mut(c).checkpoint()?;
        cluster.network_mut().disk_io(c, CTRL_BYTES);
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::Undo,
        opts,
        root,
    )?;

    // ---- Phase 9: recovery complete. The completion broadcast is
    // loss-tolerant: a node that misses it simply discovers the
    // recovered owner on its next (reliably retried) request. ----
    for &c in crashed {
        for &r in &operational {
            let co = coord_of(c);
            if co != r {
                match cluster
                    .network_mut()
                    .send_hdr(co, r, MsgKind::RecoveryDone, CTRL_BYTES, hdr)
                {
                    Ok(()) | Err(Error::MsgLost { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    end_phase(
        cluster,
        crashed,
        &mut phase_t0,
        &mut timings,
        RecoveryPhase::Done,
        opts,
        root,
    )?;
    if !root.is_none() {
        let now = cluster.network().clock().now();
        cluster.tracer().emit(Span {
            id: root,
            parent: SpanId::NONE,
            node: coord_of(crashed[0]),
            start: t_start,
            dur: now.saturating_sub(t_start),
            kind: SpanKind::Recovery {
                nodes: crashed.len() as u32,
            },
        });
    }
    report.timings = timings;
    report.messages = cluster.network().stats().recovery_messages() - msgs0;
    Ok(report)
}

/// Gathers what node `r` contributes to the recovery of `c`.
fn collect_contribution(
    cluster: &mut Cluster,
    r: NodeId,
    c: NodeId,
    r_is_crashed: bool,
) -> Result<ContributedInfo> {
    let mut out = ContributedInfo::default();
    if !r_is_crashed {
        // Cache inventory for pages owned by c.
        for pid in cluster.node(r).buffer().cached_ids() {
            if pid.owner == c {
                let psn = cluster.node(r).buffer().peek(pid).expect("listed").psn();
                out.cached.push((pid, psn));
            }
        }
        // §2.3.3 at the operational node: shared locks of the crashed
        // node are released, exclusive locks retained.
        let (_dropped, retained) = cluster
            .node_mut(r)
            .global_locks
            .drop_shared_retain_exclusive(c);
        out.crashed_exclusive = retained;
        // Locks r holds on c's pages.
        out.locks_held = cluster
            .node(r)
            .cached_locks()
            .all()
            .into_iter()
            .filter(|(p, _)| p.owner == c)
            .collect();
    } else {
        // r is itself recovering (multi-crash, §2.4): the owner-side
        // fences protecting r's uncommitted updates died with c's lock
        // table, and r's cached locks died with r. Strict 2PL means
        // every page a loser of r updated was exclusively locked at
        // crash time, and r's durable log proves which — contribute
        // them so phase 3 rebuilds the fence; without it, c would
        // serve its replayed (not-yet-undone) image to readers while
        // the undone copy sits unrecalled in r's cache.
        out.locks_held = cluster
            .node_mut(r)
            .loser_page_locks(c)?
            .into_iter()
            .map(|p| (p, LockMode::Exclusive))
            .collect();
    }
    // DPT entries for c's pages (crashed contributors use their
    // log-reconstructed DPT supersets, §2.4).
    out.dpt = cluster.node(r).dpt().entries_for_owner(c);
    Ok(out)
}

/// Executes one [`ReplayUnit`]: reads the owner's disk version,
/// shuttles it along the unit's pre-planned hops (the §2.3.4
/// coordination loop: each hop's node replays its own records of the
/// page from the hop's PSN, up to the next hop's), and caches the
/// recovered image dirty at the owner.
fn replay_unit(
    cluster: &mut Cluster,
    coordinator: NodeId,
    unit: &ReplayUnit,
    involved: &[NodeId],
    redo: &BTreeMap<NodeId, RedoRecords>,
    report: &mut RecoveryReport,
    root: SpanId,
) -> Result<()> {
    let pid = unit.pid;
    let owner = pid.owner;
    // Base image: the owner's disk version.
    let mut page = cluster.node_mut(owner).authoritative_copy(pid)?.0;
    cluster.network_mut().disk_io(owner, page.size());
    let page_bytes = page.size() + 64;
    let hdr = MsgHeader::of(SpanCtx::root(root));
    let mut runs = Vec::new();
    for (i, &(psn, n)) in unit.hops.iter().enumerate() {
        let bound = unit.hops.get(i + 1).map(|&(p, _)| p);
        let records = records_of(redo, n, pid)?;
        if n != coordinator {
            cluster.network_mut().send_reliable_hdr(
                coordinator,
                n,
                MsgKind::RecoveryPageSend,
                page_bytes,
                hdr,
            )?;
            report.page_hops += 1;
        }
        let from_psn = page.psn();
        let from = records.seek(pid, psn);
        let (_, applied) = records.replay(&mut page, from, bound, &mut runs)?;
        report.records_replayed += applied;
        // One hop of the §2.3.4 shuttle: node `n` advanced the page
        // from `from_psn` to the page's new PSN by replaying `applied`
        // records of its own log. The watchdog checks the hops visit
        // the page in ascending global PSN order.
        cluster.tracer().point(
            cluster.network().clock().now(),
            n,
            root,
            SpanKind::ReplayHop {
                pid,
                node: n,
                from_psn,
                to_psn: page.psn(),
                applied,
            },
        );
        if n != coordinator {
            cluster.network_mut().send_reliable_hdr(
                n,
                coordinator,
                MsgKind::RecoveryPageReturn,
                page_bytes,
                hdr,
            )?;
            report.page_hops += 1;
        }
    }
    report.pages_recovered += 1;
    // The recovered image is cached dirty at the owner; involved
    // remote nodes become replacers so their surviving DPT entries
    // are acknowledged when the page is eventually flushed.
    for &n in involved {
        if n != owner {
            cluster
                .node_mut(owner)
                .replacers
                .entry(pid)
                .or_default()
                .insert(n);
        }
    }
    cluster.cache_at(owner, page, true)
}

/// The redo records `n` collected in phase 6, which hold `pid`'s.
fn records_of(
    redo: &BTreeMap<NodeId, RedoRecords>,
    n: NodeId,
    pid: PageId,
) -> Result<&RedoRecords> {
    redo.get(&n)
        .ok_or_else(|| Error::Protocol(format!("{n} replays {pid} without a NodePSNList")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use cblog_common::CostModel;

    fn cluster(owned: Vec<u32>) -> Cluster {
        Cluster::new(
            ClusterConfig::builder()
                .owned_pages(owned)
                .page_size(512)
                .buffer_frames(16)
                .default_owned_pages(0)
                .cost(CostModel::unit())
                .build(),
        )
        .unwrap()
    }

    fn pid(owner: u32, idx: u32) -> PageId {
        PageId::new(NodeId(owner), idx)
    }

    /// Committed-but-unflushed local updates survive the owner's crash.
    #[test]
    fn owner_crash_recovers_committed_local_updates() {
        let mut c = cluster(vec![4]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(0)).unwrap();
        c.write_u64(t, p, 0, 42).unwrap();
        c.commit(t).unwrap();
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(rep.pages_recovered, 1);
        assert!(rep.records_replayed >= 1);
        let t2 = c.begin(NodeId(0)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 42);
        c.commit(t2).unwrap();
    }

    /// Uncommitted updates are rolled back at restart (losers undone).
    #[test]
    fn owner_crash_undoes_losers() {
        let mut c = cluster(vec![4]);
        let p = pid(0, 0);
        let t0 = c.begin(NodeId(0)).unwrap();
        c.write_u64(t0, p, 0, 10).unwrap();
        c.commit(t0).unwrap();
        // Loser: updates, then a checkpoint forces the log (making the
        // updates durable but uncommitted), then crash.
        let t1 = c.begin(NodeId(0)).unwrap();
        c.write_u64(t1, p, 0, 999).unwrap();
        c.checkpoint(NodeId(0)).unwrap();
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(rep.losers_undone, 1);
        let t2 = c.begin(NodeId(0)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 10, "loser update undone");
        c.commit(t2).unwrap();
    }

    /// A client's committed updates to a remote page survive the
    /// *owner's* crash: the client's DPT + log recover them without any
    /// log merging.
    #[test]
    fn owner_crash_recovers_remote_clients_updates() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 0, 77).unwrap();
        c.commit(t).unwrap();
        // Evict the page from node 1's cache so it travels to the
        // owner's buffer (not disk!), then crash the owner.
        let ev = c.node_mut(NodeId(1)).buffer.remove(p).unwrap();
        assert!(ev.dirty);
        c.route_eviction(NodeId(1), ev).unwrap();
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(rep.pages_recovered, 1);
        assert!(rep.records_replayed >= 1);
        // Value visible again through the recovered owner.
        let t2 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 77);
        c.commit(t2).unwrap();
    }

    /// If an operational node still caches the page, no replay happens:
    /// the copy is pulled to the owner (§2.3.1).
    #[test]
    fn cached_copy_at_operational_node_skips_replay() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 0, 55).unwrap();
        c.commit(t).unwrap();
        // Page still cached (dirty) at node 1; owner crashes.
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(rep.pages_recovered, 0);
        assert_eq!(rep.pages_skipped_cached, 1);
        assert_eq!(rep.pages_pulled_to_owner, 1);
        let t2 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 55);
        c.commit(t2).unwrap();
    }

    /// Client crash: its committed updates to a remote page are
    /// recovered by replaying the client's own log onto the owner's
    /// copy (category (b) of §2.3.1).
    #[test]
    fn client_crash_recovers_its_updates_to_remote_pages() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 0, 31).unwrap();
        c.commit(t).unwrap();
        // Client crashes with the dirty page only in its cache.
        c.crash(NodeId(1));
        // Owner cannot hand the page out while the crashed client's X
        // fence stands.
        let t0 = c.begin(NodeId(0)).unwrap();
        assert!(matches!(
            c.read_u64(t0, p, 0),
            Err(Error::WouldBlock { .. })
        ));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
        assert_eq!(rep.pages_recovered, 1);
        // After recovery the fence is the client's restored X lock; a
        // new reader triggers a normal callback and sees the data.
        assert_eq!(c.read_u64(t0, p, 0).unwrap(), 31);
        c.commit(t0).unwrap();
    }

    /// Client crash with an uncommitted remote update: the update is
    /// undone during the client's recovery.
    #[test]
    fn client_crash_rolls_back_uncommitted_remote_update() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t0 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t0, p, 0, 5).unwrap();
        c.commit(t0).unwrap();
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 666).unwrap();
        // Force the log so the uncommitted update is durable, then
        // crash.
        c.node_mut(NodeId(1)).log.force_all().unwrap();
        c.crash(NodeId(1));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
        assert_eq!(rep.losers_undone, 1);
        let t2 = c.begin(NodeId(0)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 5);
        c.commit(t2).unwrap();
    }

    /// Interleaved updates by several nodes replay in PSN order across
    /// logs that are never merged (§2.3.4).
    #[test]
    fn psn_order_replay_across_three_logs() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        // Interleave: N1 += writes 1, N2 writes 2, N0 writes 3, N1
        // writes 4 — each in its own committed transaction, forcing
        // X-lock ping-pong.
        for (node, val) in [(1u32, 1u64), (2, 2), (0, 3), (1, 4)] {
            let t = c.begin(NodeId(node)).unwrap();
            c.write_u64(t, p, (val - 1) as usize, val * 10).unwrap();
            c.commit(t).unwrap();
        }
        // The last writer (node 1) holds X with the only current copy.
        // Evict it to the owner so the owner's buffer has it, then
        // crash the owner: now recovery needs N0, N1, N2's logs.
        if let Some(ev) = c.node_mut(NodeId(1)).buffer.remove(p) {
            c.route_eviction(NodeId(1), ev).unwrap();
        }
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(rep.pages_recovered, 1);
        assert!(
            rep.records_replayed >= 4,
            "all four updates replayed, got {}",
            rep.records_replayed
        );
        let t = c.begin(NodeId(2)).unwrap();
        assert_eq!(c.read_u64(t, p, 0).unwrap(), 10);
        assert_eq!(c.read_u64(t, p, 1).unwrap(), 20);
        assert_eq!(c.read_u64(t, p, 2).unwrap(), 30);
        assert_eq!(c.read_u64(t, p, 3).unwrap(), 40);
        c.commit(t).unwrap();
    }

    /// Two nodes crash at once (§2.4): owner and client, with committed
    /// work split across both logs.
    #[test]
    fn multi_crash_owner_and_client() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        let q = pid(0, 1);
        // Client 1 commits an update to p; owner commits one to q.
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 11).unwrap();
        c.commit(t1).unwrap();
        let t0 = c.begin(NodeId(0)).unwrap();
        c.write_u64(t0, q, 0, 22).unwrap();
        c.commit(t0).unwrap();
        c.crash(NodeId(0));
        c.crash(NodeId(1));
        let rep = recover(&mut c, &RecoveryOptions::nodes(&[NodeId(0), NodeId(1)])).unwrap();
        assert_eq!(rep.recovered_nodes.len(), 2);
        assert!(rep.pages_recovered >= 2);
        let t = c.begin(NodeId(2)).unwrap();
        assert_eq!(c.read_u64(t, p, 0).unwrap(), 11);
        assert_eq!(c.read_u64(t, q, 0).unwrap(), 22);
        c.commit(t).unwrap();
    }

    /// Checkpoints bound the analysis scan: records before the last
    /// complete checkpoint are not re-scanned.
    #[test]
    fn checkpoint_bounds_analysis_scan() {
        let mut c = cluster(vec![4]);
        let p = pid(0, 0);
        for i in 0..20u64 {
            let t = c.begin(NodeId(0)).unwrap();
            c.write_u64(t, p, 0, i).unwrap();
            c.commit(t).unwrap();
        }
        c.checkpoint(NodeId(0)).unwrap();
        let after_ckpt = c.node(NodeId(0)).log().end_lsn();
        let t = c.begin(NodeId(0)).unwrap();
        c.write_u64(t, p, 1, 99).unwrap();
        c.commit(t).unwrap();
        let end = c.node(NodeId(0)).log().end_lsn();
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        // Analysis scanned from the checkpoint, not from LSN 8. PSN
        // list scans may go further back (RedoLSN), but the analysis
        // share is bounded by end - ckpt.
        assert!(rep.log_bytes_scanned > 0);
        let t2 = c.begin(NodeId(0)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 19);
        assert_eq!(c.read_u64(t2, p, 1).unwrap(), 99);
        c.commit(t2).unwrap();
        let _ = (after_ckpt, end);
    }

    /// Normal processing on operational nodes continues while a crashed
    /// node is down, as long as they avoid its pages (paper §2.3).
    #[test]
    fn operational_nodes_keep_working_during_outage() {
        let mut c = cluster(vec![4, 4, 0]);
        c.crash(NodeId(0));
        for i in 0..10u64 {
            let t = c.begin(NodeId(2)).unwrap();
            c.write_u64(t, pid(1, 0), 0, i).unwrap();
            c.commit(t).unwrap();
        }
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(rep.losers_undone, 0);
        let t = c.begin(NodeId(2)).unwrap();
        assert_eq!(c.read_u64(t, pid(1, 0), 0).unwrap(), 9);
        c.commit(t).unwrap();
    }

    /// Partial flush: the disk version already holds a prefix of the
    /// update history; recovery replays only the suffix (PSN filter,
    /// §2.3.2).
    #[test]
    fn replay_starts_from_the_disk_psn() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        // Two committed updates (PSN 1 -> 3), flushed to disk.
        for i in 0..2u64 {
            let t = c.begin(NodeId(1)).unwrap();
            c.write_u64(t, p, i as usize, i + 1).unwrap();
            c.commit(t).unwrap();
        }
        c.force_page(p).unwrap();
        assert_eq!(c.node_mut(NodeId(0)).disk_psn(p).unwrap(), Psn(3));
        // Two more committed updates (PSN 3 -> 5), never flushed.
        for i in 2..4u64 {
            let t = c.begin(NodeId(1)).unwrap();
            c.write_u64(t, p, i as usize, i + 1).unwrap();
            c.commit(t).unwrap();
        }
        if let Some(ev) = c.node_mut(NodeId(1)).buffer.remove(p) {
            c.route_eviction(NodeId(1), ev).unwrap();
        }
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(
            rep.records_replayed, 2,
            "only the un-flushed suffix is replayed"
        );
        let t = c.begin(NodeId(1)).unwrap();
        for i in 0..4u64 {
            assert_eq!(c.read_u64(t, p, i as usize).unwrap(), i + 1);
        }
        c.commit(t).unwrap();
    }

    /// While a crashed node's X fence stands, other nodes requesting
    /// the page block with *no* holder transactions (they wait for
    /// recovery, not for a transaction).
    #[test]
    fn crashed_holder_fence_blocks_without_holders() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, p, 0, 1).unwrap();
        c.commit(t1).unwrap();
        c.crash(NodeId(1));
        let t2 = c.begin(NodeId(2)).unwrap();
        match c.read_u64(t2, p, 0) {
            Err(Error::WouldBlock { holders, .. }) => {
                assert!(holders.is_empty(), "fenced by a crashed node, not a txn")
            }
            r => panic!("expected fence, got {r:?}"),
        }
        recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 1);
        c.commit(t2).unwrap();
    }

    /// Checkpoint + flush maintenance advances log truncation, and the
    /// truncated log still recovers correctly.
    #[test]
    fn recovery_works_after_log_truncation() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        for i in 0..10u64 {
            let t = c.begin(NodeId(1)).unwrap();
            c.write_u64(t, p, 0, i).unwrap();
            c.commit(t).unwrap();
        }
        // Flush + checkpoint: client log truncates.
        c.force_page(p).unwrap();
        c.checkpoint(NodeId(1)).unwrap();
        let base_after = c.node(NodeId(1)).log().base_lsn();
        assert!(base_after.0 > 8, "truncation advanced");
        // More work after the truncation, then owner crash.
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 1, 99).unwrap();
        c.commit(t).unwrap();
        if let Some(ev) = c.node_mut(NodeId(1)).buffer.remove(p) {
            c.route_eviction(NodeId(1), ev).unwrap();
        }
        c.crash(NodeId(0));
        recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        let t = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t, p, 0).unwrap(), 9);
        assert_eq!(c.read_u64(t, p, 1).unwrap(), 99);
        c.commit(t).unwrap();
    }

    /// Logical (record-operation) logging replays correctly through
    /// the distributed protocol: slotted-page inserts/updates/deletes
    /// from two nodes' logs rebuild the page in PSN order.
    #[test]
    fn slotted_page_recovers_from_logical_records() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 1);
        c.format_slotted(p).unwrap();
        // Node 1 inserts two records; node 2 updates one and deletes
        // the other; node 1 inserts a third. All committed.
        let t = c.begin(NodeId(1)).unwrap();
        let ra = c.insert_record(t, p, b"alpha").unwrap();
        let rb = c.insert_record(t, p, b"bravo").unwrap();
        c.commit(t).unwrap();
        let t = c.begin(NodeId(2)).unwrap();
        c.update_record(t, ra, b"ALPHA").unwrap();
        c.delete_record(t, rb).unwrap();
        c.commit(t).unwrap();
        let t = c.begin(NodeId(1)).unwrap();
        let rc = c.insert_record(t, p, b"charlie").unwrap();
        c.commit(t).unwrap();
        // Current image only at the owner's buffer; crash it.
        if let Some(ev) = c.node_mut(NodeId(1)).buffer.remove(p) {
            c.route_eviction(NodeId(1), ev).unwrap();
        }
        c.crash(NodeId(0));
        let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        assert_eq!(rep.pages_recovered, 1);
        assert!(rep.records_replayed >= 5);
        // The insert after the delete reused the dead slot, so replay
        // must apply delete-then-insert in exactly that order.
        assert_eq!(rc.slot, rb.slot, "insert reuses the freed slot");
        let t = c.begin(NodeId(2)).unwrap();
        assert_eq!(c.read_record(t, ra).unwrap(), b"ALPHA");
        assert_eq!(c.read_record(t, rc).unwrap(), b"charlie");
        c.commit(t).unwrap();
    }

    /// §2.5 force path: the owner pulls the dirty copy from the
    /// exclusive holder before writing, and everyone's DPT entries are
    /// acknowledged.
    #[test]
    fn force_page_pulls_from_exclusive_holder() {
        let mut c = cluster(vec![4, 0, 0]);
        let p = pid(0, 0);
        // Node 1 dirties and replaces the page to the owner; node 2
        // then takes X and dirties its own copy.
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 0, 1).unwrap();
        c.commit(t).unwrap();
        if let Some(ev) = c.node_mut(NodeId(1)).buffer.remove(p) {
            c.route_eviction(NodeId(1), ev).unwrap();
        }
        let t = c.begin(NodeId(2)).unwrap();
        c.write_u64(t, p, 1, 2).unwrap();
        c.commit(t).unwrap();
        assert!(c.node(NodeId(1)).dpt().contains(p));
        assert!(c.node(NodeId(2)).dpt().contains(p));
        // Evict the owner's (stale) copy so the only dirty image is at
        // node 2 — force must fetch it from the X holder.
        c.node_mut(NodeId(0)).buffer.remove(p);
        c.force_page(p).unwrap();
        assert_eq!(c.node_mut(NodeId(0)).disk_psn(p).unwrap(), Psn(3));
        assert!(
            !c.node(NodeId(2)).dpt().contains(p),
            "holder's entry acknowledged"
        );
        let s = c.network().stats();
        assert!(s.count(MsgKind::ForceRequest) >= 1);
        assert!(s.count(MsgKind::FlushAck) >= 1);
    }

    /// Hot-standby coordination (§2.3): same final state, but the
    /// coordination traffic lands on the standby node.
    #[test]
    fn standby_coordinated_recovery_matches_normal() {
        let build = || {
            // One µs of handling per message end, so a node's busy
            // time grows with each message it sends or receives.
            let cost = CostModel {
                handle_us: 1,
                ..CostModel::unit()
            };
            let mut c = Cluster::new(
                ClusterConfig::builder()
                    .owned_pages(vec![4, 0, 0])
                    .page_size(512)
                    .buffer_frames(16)
                    .default_owned_pages(0)
                    .cost(cost)
                    .build(),
            )
            .unwrap();
            let p = pid(0, 0);
            for (node, val) in [(1u32, 1u64), (2, 2), (1, 3)] {
                let t = c.begin(NodeId(node)).unwrap();
                c.write_u64(t, p, val as usize, val * 10).unwrap();
                c.commit(t).unwrap();
            }
            if let Some(ev) = c.node_mut(NodeId(1)).buffer.remove(p) {
                c.route_eviction(NodeId(1), ev).unwrap();
            }
            c.crash(NodeId(0));
            c
        };
        // Normal recovery.
        let mut a = build();
        recover(&mut a, &RecoveryOptions::single(NodeId(0))).unwrap();
        // Standby-coordinated recovery (node 2 coordinates).
        let mut b = build();
        let busy = |c: &Cluster| c.network().clock().busy(NodeId(2));
        let before = busy(&b);
        recover(
            &mut b,
            &RecoveryOptions::nodes(&[NodeId(0)]).with_standby(NodeId(2)),
        )
        .unwrap();
        assert!(busy(&b) > before, "standby drives the coordination");
        // Both reach the same committed state.
        for (sys, name) in [(&mut a, "normal"), (&mut b, "standby")] {
            let t = sys.begin(NodeId(1)).unwrap();
            assert_eq!(sys.read_u64(t, pid(0, 0), 1).unwrap(), 10, "{name}");
            assert_eq!(sys.read_u64(t, pid(0, 0), 2).unwrap(), 20, "{name}");
            assert_eq!(sys.read_u64(t, pid(0, 0), 3).unwrap(), 30, "{name}");
            sys.commit(t).unwrap();
        }
    }

    /// A crashed or self-referential standby is rejected.
    #[test]
    fn invalid_standby_rejected() {
        let mut c = cluster(vec![4, 0, 0]);
        c.crash(NodeId(0));
        assert!(recover(
            &mut c,
            &RecoveryOptions::nodes(&[NodeId(0)]).with_standby(NodeId(0))
        )
        .is_err());
        c.crash(NodeId(2));
        assert!(recover(
            &mut c,
            &RecoveryOptions::nodes(&[NodeId(0)]).with_standby(NodeId(2))
        )
        .is_err());
        // A valid standby still works afterwards.
        recover(
            &mut c,
            &RecoveryOptions::nodes(&[NodeId(0), NodeId(2)]).with_standby(NodeId(1)),
        )
        .unwrap();
    }

    /// Recovery is idempotent from the outside: a second crash right
    /// after recovery still recovers to the same state.
    #[test]
    fn crash_recover_crash_recover() {
        let mut c = cluster(vec![4, 0]);
        let p = pid(0, 0);
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, p, 0, 123).unwrap();
        c.commit(t).unwrap();
        if let Some(ev) = c.node_mut(NodeId(1)).buffer.remove(p) {
            c.route_eviction(NodeId(1), ev).unwrap();
        }
        c.crash(NodeId(0));
        recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        // Crash again immediately (recovered pages were only cached).
        c.crash(NodeId(0));
        recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        let t2 = c.begin(NodeId(1)).unwrap();
        assert_eq!(c.read_u64(t2, p, 0).unwrap(), 123);
        c.commit(t2).unwrap();
    }

    // ------------------------------------------------------------------
    // Replay planning (DESIGN §13)
    // ------------------------------------------------------------------

    fn entry(pid: PageId, psn: u64, lsn: u64, node: u32, seq: u64) -> NodePsnEntry {
        NodePsnEntry {
            pid,
            psn: Psn(psn),
            lsn: Lsn(lsn),
            txn: TxnId {
                node: NodeId(node),
                seq,
            },
        }
    }

    /// Pages with no shared transactions: one unit each, in page
    /// order, and the critical path is the heaviest unit's weight.
    #[test]
    fn plan_independent_pages_form_one_wave() {
        let p0 = pid(0, 0);
        let p1 = pid(0, 1);
        let p2 = pid(0, 2);
        let mut involved = BTreeMap::new();
        let mut lists = BTreeMap::new();
        for p in [p0, p1, p2] {
            involved.insert(p, vec![NodeId(1)]);
        }
        lists.insert(
            NodeId(1),
            vec![
                entry(p0, 1, 10, 1, 1),
                entry(p1, 1, 20, 1, 2),
                entry(p1, 2, 30, 1, 3),
                entry(p2, 1, 40, 1, 4),
            ],
        );
        let units = assert_plan_is_reference(&involved, &lists, "independent pages");
        let pids: Vec<PageId> = units.iter().map(|u| u.pid).collect();
        assert_eq!(pids, vec![p0, p1, p2]);
        assert_eq!(units[1].hops, vec![(Psn(1), NodeId(1))], "one burst node");
        let heaviest = units.iter().max_by_key(|u| u.psn_intervals).unwrap();
        assert_eq!((heaviest.pid, heaviest.psn_intervals), (p1, 2));
    }

    /// Every page filters every involved node's whole list, O(pages ×
    /// entries), kept as the reference: [`plan_replay`] groups in one
    /// pass and must build the same units. Also returns the critical
    /// path, the heaviest unit's weight, as the Redo phase reports it.
    fn plan_replay_reference(
        involved: &BTreeMap<PageId, Vec<NodeId>>,
        psn_lists: &BTreeMap<NodeId, Vec<NodePsnEntry>>,
    ) -> (Vec<ReplayUnit>, u64) {
        let mut units: Vec<ReplayUnit> = Vec::with_capacity(involved.len());
        let mut critical = 0;
        for (&pid, nodes) in involved {
            let mut entries: Vec<(Psn, NodeId)> = Vec::new();
            for &n in nodes {
                if let Some(list) = psn_lists.get(&n) {
                    for e in list.iter().filter(|e| e.pid == pid) {
                        entries.push((e.psn, n));
                    }
                }
            }
            let psn_intervals = entries.len() as u64;
            critical = critical.max(psn_intervals);
            entries.sort();
            let mut hops: Vec<(Psn, NodeId)> = Vec::new();
            for e in entries {
                match hops.last() {
                    // Adjacent same node: keep the first (minimum PSN).
                    Some(&(_, n)) if n == e.1 => {}
                    _ => hops.push(e),
                }
            }
            units.push(ReplayUnit {
                pid,
                hops,
                psn_intervals,
            });
        }
        (units, critical)
    }

    /// Asserts that [`plan_replay`] builds the reference's units, and
    /// that the Redo phase's critical path (the heaviest unit's
    /// weight) is the reference's; returns the units.
    fn assert_plan_is_reference(
        involved: &BTreeMap<PageId, Vec<NodeId>>,
        lists: &BTreeMap<NodeId, Vec<NodePsnEntry>>,
        what: &str,
    ) -> Vec<ReplayUnit> {
        let units = plan_replay(involved, lists);
        let (want, critical) = plan_replay_reference(involved, lists);
        assert_eq!(units, want, "{what}");
        let heaviest = units.iter().map(|u| u.psn_intervals).max();
        assert_eq!(heaviest.unwrap_or(0), critical, "{what}");
        units
    }

    /// Random multi-node lists: transactions over several pages in
    /// random page order (so the logs disagree on page order), pages
    /// that nobody asked about, involved nodes without entries and
    /// nodes with entries for pages they are not involved in.
    fn random_plan_input(
        seed: u64,
    ) -> (
        BTreeMap<PageId, Vec<NodeId>>,
        BTreeMap<NodeId, Vec<NodePsnEntry>>,
    ) {
        let mut rng = cblog_common::Rng::seed_from_u64(seed);
        let nodes = rng.gen_range(1..4) as u32;
        let pages: Vec<PageId> = (0..rng.gen_range(1..13) as u32)
            .map(|i| pid(i % 2, i))
            .collect();
        let mut psn = vec![1u64; pages.len()];
        let mut lists: BTreeMap<NodeId, Vec<NodePsnEntry>> = BTreeMap::new();
        let mut involved: BTreeMap<PageId, Vec<NodeId>> = BTreeMap::new();
        for n in 1..=nodes {
            let list = lists.entry(NodeId(n)).or_default();
            for seq in 1..=rng.gen_range(0..12) {
                let mut touched: Vec<usize> = (0..pages.len()).collect();
                rng.shuffle(&mut touched);
                touched.truncate(rng.gen_range_usize(1..5).min(pages.len()));
                for p in touched {
                    let lsn = 8 + 64 * list.len() as u64;
                    list.push(entry(pages[p], psn[p], lsn, n, seq));
                    psn[p] += rng.gen_range(1..4);
                    let inv = involved.entry(pages[p]).or_default();
                    if !inv.contains(&NodeId(n)) && rng.gen_bool(0.9) {
                        inv.push(NodeId(n));
                    }
                }
            }
        }
        // A page nobody recovers keeps its entries in the lists; an
        // involved node may have no list at all.
        if rng.gen_bool(0.3) {
            involved.remove(&pages[0]);
        }
        if rng.gen_bool(0.3) {
            involved.entry(pages[0]).or_default().push(NodeId(9));
        }
        (involved, lists)
    }

    #[test]
    fn plan_equals_the_per_page_filter_reference_on_random_lists() {
        for seed in 0..400 {
            let (involved, lists) = random_plan_input(seed);
            assert_plan_is_reference(&involved, &lists, &format!("seed {seed}"));
        }
        // Opposite-order multi-page transactions in two logs: each page
        // still gets its own two-hop chain.
        let (p0, p1) = (pid(0, 0), pid(0, 1));
        let involved = BTreeMap::from([
            (p0, vec![NodeId(1), NodeId(2)]),
            (p1, vec![NodeId(1), NodeId(2)]),
        ]);
        let lists = BTreeMap::from([
            (
                NodeId(1),
                vec![entry(p0, 1, 10, 1, 1), entry(p1, 2, 20, 1, 1)],
            ),
            (
                NodeId(2),
                vec![entry(p1, 1, 10, 2, 1), entry(p0, 2, 20, 2, 1)],
            ),
        ]);
        let units = assert_plan_is_reference(&involved, &lists, "opposite orders");
        assert_eq!(
            units[0].hops,
            vec![(Psn(1), NodeId(1)), (Psn(2), NodeId(2))]
        );
        assert_eq!(
            units[1].hops,
            vec![(Psn(1), NodeId(2)), (Psn(2), NodeId(1))]
        );
    }

    /// Entries over `pages` pages from `nodes` logs: transactions touch
    /// one to six pages each, in random order, so the logs disagree on
    /// page order; each node is involved in about two pages of
    /// three, and some pages are recovered by nobody.
    fn large_plan_input(
        seed: u64,
        nodes: u32,
        pages: u32,
        txns: u64,
    ) -> (
        BTreeMap<PageId, Vec<NodeId>>,
        BTreeMap<NodeId, Vec<NodePsnEntry>>,
    ) {
        let mut rng = cblog_common::Rng::seed_from_u64(seed);
        let ids: Vec<PageId> = (0..pages).map(|i| pid(i % 3, i)).collect();
        let mut psn = vec![1u64; ids.len()];
        let mut lists: BTreeMap<NodeId, Vec<NodePsnEntry>> = BTreeMap::new();
        for n in 1..=nodes {
            let list = lists.entry(NodeId(n)).or_default();
            for seq in 1..=txns {
                for _ in 0..rng.gen_range_usize(1..7) {
                    let p = rng.gen_range_usize(0..ids.len());
                    let lsn = 8 + 64 * list.len() as u64;
                    list.push(entry(ids[p], psn[p], lsn, n, seq));
                    psn[p] += rng.gen_range(1..4);
                }
            }
        }
        let mut involved: BTreeMap<PageId, Vec<NodeId>> = BTreeMap::new();
        for &p in &ids {
            if rng.gen_bool(0.05) {
                continue;
            }
            let inv: Vec<NodeId> = (1..=nodes)
                .map(NodeId)
                .filter(|_| rng.gen_bool(0.67))
                .collect();
            involved.insert(p, inv);
        }
        (involved, lists)
    }

    /// The `crash-recover` shape: one log, `lanes` transactions in
    /// flight whose records interleave one by one, each writing 16
    /// distinct pages in ascending page order.
    fn lanes_plan_input(
        seed: u64,
        pages: u32,
        lanes: usize,
        txns_per_lane: u64,
    ) -> (
        BTreeMap<PageId, Vec<NodeId>>,
        BTreeMap<NodeId, Vec<NodePsnEntry>>,
    ) {
        let mut rng = cblog_common::Rng::seed_from_u64(seed);
        let ids: Vec<PageId> = (0..pages).map(|i| pid(0, i)).collect();
        let mut psn = vec![0u64; ids.len()];
        let mut list = Vec::new();
        let mut seq = 0u64;
        for _ in 0..txns_per_lane {
            let batch: Vec<(u64, Vec<usize>)> = (0..lanes)
                .map(|_| {
                    seq += 1;
                    let mut touched: Vec<usize> = (0..ids.len()).collect();
                    rng.shuffle(&mut touched);
                    touched.truncate(16);
                    touched.sort_unstable();
                    (seq, touched)
                })
                .collect();
            for k in 0..16 {
                for (seq, touched) in &batch {
                    let p = touched[k];
                    let lsn = 8 + 64 * list.len() as u64;
                    list.push(entry(ids[p], psn[p], lsn, 0, *seq));
                    psn[p] += 1;
                }
            }
        }
        let involved = ids.iter().map(|&p| (p, vec![NodeId(0)])).collect();
        (involved, BTreeMap::from([(NodeId(0), list)]))
    }

    #[test]
    fn plan_equals_the_reference_at_scale() {
        // ≥ 10³ pages and ≥ 10⁴ entries from three disagreeing logs.
        let (involved, lists) = large_plan_input(7, 3, 1200, 1500);
        assert!(lists.values().map(Vec::len).sum::<usize>() >= 10_000);
        let units = assert_plan_is_reference(&involved, &lists, "three logs");
        assert!(units.len() >= 1000);
        // The `crash-recover` shape: 8 lanes of page-sorted 16-page
        // transactions over 1024 pages.
        let (involved, lists) = lanes_plan_input(11, 1024, 8, 128);
        let units = assert_plan_is_reference(&involved, &lists, "crash-recover shape");
        assert_eq!(units.len(), 1024);
        // The small multi-node inputs, grown tenfold.
        for seed in 0..20 {
            let (involved, lists) = large_plan_input(seed, 3, 40, 60);
            assert_plan_is_reference(&involved, &lists, &format!("seed {seed}"));
        }
    }

    /// 10⁵ entries over 10³ pages — the crash-recover shape — must
    /// plan in time linear in the entries. The per-page filter took
    /// hundreds of ms here; wall-clock, so release builds only.
    #[test]
    fn plan_is_linear_in_the_list_length() {
        if cfg!(debug_assertions) {
            return;
        }
        let pages: Vec<PageId> = (0..1000).map(|i| pid(0, i)).collect();
        let involved: BTreeMap<PageId, Vec<NodeId>> =
            pages.iter().map(|&p| (p, vec![NodeId(0)])).collect();
        let mut list = Vec::with_capacity(100_000);
        for seq in 0..6250u64 {
            for k in 0..16u64 {
                let p = ((seq * 16 + k * 61) % 1000) as usize;
                let lsn = 8 + 64 * list.len() as u64;
                list.push(entry(pages[p], seq, lsn, 0, seq + 1));
            }
        }
        let lists = BTreeMap::from([(NodeId(0), list)]);
        let t = std::time::Instant::now();
        let units = plan_replay(&involved, &lists);
        let took = t.elapsed();
        assert_eq!(units.len(), 1000);
        assert!(
            took < std::time::Duration::from_millis(50),
            "planning 10^5 entries took {took:?}"
        );
    }

    // ------------------------------------------------------------------
    // Parallel replay execution
    // ------------------------------------------------------------------

    /// Builds the multi-client crash scene used by the mode-equivalence
    /// tests: two clients interleave committed updates over `d` owner
    /// pages, images are evicted to the owner's buffer, owner crashes.
    fn crash_scene(d: u32) -> Cluster {
        let mut c = cluster(vec![d.max(4), 0, 0]);
        for i in 0..d {
            let p = pid(0, i);
            for round in 0..2u64 {
                for client in 1..=2u32 {
                    let t = c.begin(NodeId(client)).unwrap();
                    c.write_u64(
                        t,
                        p,
                        (round as usize + client as usize) % 8,
                        round * 10 + i as u64,
                    )
                    .unwrap();
                    c.commit(t).unwrap();
                }
            }
            if let Some(ev) = c.node_mut(NodeId(2)).buffer.remove(p) {
                c.route_eviction(NodeId(2), ev).unwrap();
            }
        }
        c.crash(NodeId(0));
        c
    }

    /// Serial and every parallel worker count recover byte-identical
    /// page images and identical protocol tallies.
    #[test]
    fn replay_modes_recover_byte_identical_images() {
        const D: u32 = 6;
        let mut reference: Option<(Vec<Vec<u8>>, u64, usize)> = None;
        for mode in [
            ReplayMode::Serial,
            ReplayMode::Parallel { workers: 2 },
            ReplayMode::Parallel { workers: 4 },
            ReplayMode::Parallel { workers: 8 },
        ] {
            let mut c = crash_scene(D);
            let rep = recover(&mut c, &RecoveryOptions::single(NodeId(0)).replay(mode)).unwrap();
            let images: Vec<Vec<u8>> = (0..D)
                .map(|i| c.node_mut(NodeId(0)).page_image(pid(0, i)).unwrap())
                .collect();
            match &reference {
                None => reference = Some((images, rep.records_replayed, rep.pages_recovered)),
                Some((ref_images, ref_records, ref_pages)) => {
                    assert_eq!(&images, ref_images, "images diverge under {mode:?}");
                    assert_eq!(rep.records_replayed, *ref_records);
                    assert_eq!(rep.pages_recovered, *ref_pages);
                }
            }
            // Oracle read-back through the normal transaction path.
            let t = c.begin(NodeId(1)).unwrap();
            for i in 0..D {
                assert_eq!(c.read_u64(t, pid(0, i), 2).unwrap(), 10 + i as u64);
            }
            c.commit(t).unwrap();
        }
    }

    /// Parallel replay overlaps the units' service times: with many
    /// independent pages the Replay phase takes less sim-time than the
    /// serial protocol, and the pass's split is reported.
    #[test]
    fn parallel_replay_shortens_replay_phase() {
        let mut serial_c = crash_scene(8);
        let serial = recover(&mut serial_c, &RecoveryOptions::single(NodeId(0))).unwrap();
        let mut par_c = crash_scene(8);
        let par = recover(
            &mut par_c,
            &RecoveryOptions::single(NodeId(0)).replay(ReplayMode::Parallel { workers: 4 }),
        )
        .unwrap();
        assert!(
            par.timings.replay_us() < serial.timings.replay_us(),
            "parallel {} !< serial {}",
            par.timings.replay_us(),
            serial.timings.replay_us()
        );
        assert_eq!(par.replay_waves, serial.replay_waves, "same plan");
        assert_eq!(par.critical_path_psns, serial.critical_path_psns);
        assert!(serial.timings.replay_waves().is_empty());
        let waves = par.timings.replay_waves();
        assert_eq!(waves.len(), par.replay_waves);
        for w in waves {
            assert!(w.makespan_us <= w.serial_us, "packing cannot exceed serial");
        }
        // The critical path is published on the recovered node.
        let reg = par_c.node(NodeId(0)).registry();
        assert_eq!(
            reg.gauge(cblog_common::metrics::keys::RECOVERY_CRITICAL_PATH_PSNS)
                .get(),
            par.critical_path_psns as i64
        );
    }

    /// Satellite regression: span sampling must never thin the
    /// ReplayHop invariant points concurrent replay emits — the
    /// watchdog's per-page PSN-order coverage stays complete.
    #[test]
    fn sampled_tracing_keeps_all_replay_hops_under_parallel_replay() {
        let mut c = Cluster::new(
            ClusterConfig::builder()
                .owned_pages(vec![6, 0, 0])
                .page_size(512)
                .buffer_frames(16)
                .default_owned_pages(0)
                .cost(CostModel::unit())
                .tracing(true)
                .trace_sample_one_in(1_000)
                .build(),
        )
        .unwrap();
        for i in 0..6u32 {
            let p = pid(0, i);
            for client in 1..=2u32 {
                let t = c.begin(NodeId(client)).unwrap();
                c.write_u64(t, p, client as usize, i as u64 + 1).unwrap();
                c.commit(t).unwrap();
            }
            if let Some(ev) = c.node_mut(NodeId(2)).buffer.remove(p) {
                c.route_eviction(NodeId(2), ev).unwrap();
            }
        }
        c.crash(NodeId(0));
        let rep = recover(
            &mut c,
            &RecoveryOptions::single(NodeId(0)).replay(ReplayMode::Parallel { workers: 4 }),
        )
        .unwrap();
        assert!(rep.pages_recovered >= 6);
        let hops = c
            .tracer()
            .snapshot()
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::ReplayHop { .. }))
            .count() as u64;
        assert!(
            hops >= rep.pages_recovered as u64,
            "every replayed page emits at least one ReplayHop point: {hops}"
        );
        c.trace_check().expect("no PSN-order violations");
    }

    /// Satellite bugfix regression: a recovery run that fails while
    /// overlap mode is active must not leave the network clock stalled
    /// — commits afterwards still advance simulated time.
    #[test]
    fn failed_parallel_recovery_does_not_leak_overlap_mode() {
        let mut c = crash_scene(4);
        let err = recover(
            &mut c,
            &RecoveryOptions::single(NodeId(0))
                .replay(ReplayMode::Parallel { workers: 4 })
                .crash_after(RecoveryPhase::Replay),
        );
        assert!(err.is_err(), "injected mid-recovery crash");
        // The clock still moves, so the error path cleared overlap
        // mode: a fresh recovery then a commit.
        let before = c.network().clock().now();
        recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        let t = c.begin(NodeId(1)).unwrap();
        c.write_u64(t, pid(0, 0), 0, 9).unwrap();
        c.commit(t).unwrap();
        assert!(c.network().clock().now() > before, "clock advances again");
    }
}
