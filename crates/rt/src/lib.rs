//! Threaded execution runtime: real threads, real fsync, real clock.
//!
//! The simulator ([`cblog_core::Cluster`]) runs the CBL protocol on a
//! simulated clock with in-memory stores — deterministic, and the
//! correctness oracle for everything here. This crate runs the *same*
//! per-node protocol machinery ([`cblog_core::Node`]) under real
//! concurrency:
//!
//! * **one OS thread per node** — each worker owns its `Node` (moved
//!   into the thread; `Node: Send` is asserted in core) and drives its
//!   MPL transaction streams;
//! * **file-backed WALs** — each node's log lives on a
//!   [`FileLogStore`], so a log force is an actual `fdatasync`;
//! * **channel transport** — inter-node traffic crosses threads over
//!   [`cblog_net::transport::ChannelMesh`] (per-link FIFO, accounted);
//! * **wall-clock group commit** — the per-node
//!   [`ForceScheduler`] from core is time-source agnostic (it takes
//!   `now` in µs), so the exact same Immediate/Window/Adaptive batching
//!   logic runs here against a [`WallClock`];
//! * **page locks at the owner** — each node's pages are locked in that
//!   node's own [`ShardedLockTable`] (paper §2.1), one per node per
//!   run: strict 2PL across all worker threads without a global mutex,
//!   and two workers that share no page share no lock cache line. A
//!   remote reader takes its S lock in the owner's table.
//!
//! The paper's headline property survives the move to real threads
//! unchanged: a commit is one local log force and **zero messages** —
//! the only traffic on the mesh is read-path page fetching.
//!
//! # Scope
//!
//! Writes must target pages owned by the writing node; remote pages
//! are readable (fetched from the owner over the transport, S-locked
//! for the duration of the transaction). Remote *writes* need the full
//! callback-locking / page-replacement machinery, which today only the
//! simulator drives; plans containing them are rejected rather than
//! half-supported.
//!
//! # Correctness anchor
//!
//! `tests/equivalence.rs` runs identical seeded plan lists on both
//! engines and asserts the final page images are byte-identical and
//! the commit tallies equal. With per-stream-private write sets the
//! final state is interleaving-independent, so any divergence is an
//! engine bug, not scheduling noise.
//!
//! # Recovery
//!
//! A crashed owner's log holds every record of its pages, so restart
//! is node-local: one pass over each crashed log
//! ([`Node::restart_redo`]) rebuilds the loser table and the DPT and,
//! in the same loop, redoes each dirty page through the PSN filter as
//! its records are read. A second thread reads and checks the log one
//! batch ahead of that loop, which stays in log order on the
//! recovering thread. Once every crashed node's pass has run, each
//! node finishes its own restart on the calling thread: it writes its
//! redone pages in ascending page order, undoes its losers and
//! checkpoints. Replay is confluent across pages (DESIGN §16), so no
//! replay plan, no NodePSNList and no per-record redo list is built,
//! and [`ReplayMode::Parallel`](cblog_core::ReplayMode) runs as
//! `Serial`.
//!
//! # Observability (DESIGN §8)
//!
//! Real threaded runs carry the same observability stack as the
//! simulator:
//!
//! * **Send-safe tracing** — each worker fills a private [`SpanBuf`]
//!   with the simulator's span vocabulary; at join the cluster's
//!   [`Trace`] absorbs the buffers in a deterministic order, and its
//!   watchdog observes each span once as it enters, so PSN-order, the
//!   WAL rule, and no-log-on-the-wire are checked on real executions
//!   too (including recovery replay). `run` and `recover` fail with
//!   [`Error::Protocol`] on any violation, and [`ThreadCluster::trace`]
//!   renders through the same views as the simulator's tracer.
//! * **Per-thread profiler** — each worker attributes its wall time
//!   to the shared [`Bucket`] taxonomy with the simulator's exact
//!   partition invariant (`disk + cpu + net + replay == busy`); the
//!   split is exported per node as `prof/*_us` gauges and as
//!   [`RtNodeStats`].
//! * **One latency recorder** — every acknowledged commit records its
//!   latency in one [`Reservoir`] of recorded values,
//!   [`ThreadCluster::latency_samples`], so its percentiles are samples
//!   the engine took, not bucket upper bounds.

#![forbid(unsafe_code)]

use cblog_common::metrics::prof_key;
use cblog_common::span::DEFAULT_TRACE_CAPACITY;
use cblog_common::{
    Bucket, Error, Lsn, NodeId, PageId, RecoveryPhase, Reservoir, Result, SimTime, Snapshot, Span,
    SpanBuf, SpanCtx, SpanId, SpanKind, Trace, TransferWhy, TxnId,
};
use cblog_core::node::RollbackStep;
use cblog_core::{
    ForceScheduler, GroupCommitPolicy, Node, NodeConfig, PhaseTimings, PlanOp, RecoveryOptions,
    RecoveryReport, RedoImage, RunReport, Runtime, TxnPlan, WaveTiming,
};
use cblog_locks::{LockMode, ShardedLockTable};
use cblog_net::transport::{ChannelEndpoint, ChannelMesh, Envelope, Transport};
use cblog_net::MsgKind;
use cblog_storage::Page;
use cblog_wal::{FileLogStore, LogStore, MemLogStore};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Wall-clock time source, µs since construction. The value feeds the
/// same [`ForceScheduler`] interfaces the simulator feeds sim-µs into.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Clock starting at 0 now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since construction.
    pub fn now_us(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

/// Where each node's WAL lives.
#[derive(Clone, Debug)]
pub enum WalBacking {
    /// In-memory log store (tests; no real fsync).
    Mem,
    /// One `node<i>.wal` file per node inside this directory, opened
    /// as a [`FileLogStore`]: forces are real `fdatasync`s.
    Dir(PathBuf),
}

/// Configuration of a threaded cluster.
#[derive(Clone, Debug)]
pub struct ThreadClusterConfig {
    /// Pages owned by each node; length = node count.
    pub owned_pages: Vec<u32>,
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer frames per node (size above the working set: the
    /// threaded runtime treats eviction of a dirty page as overflow).
    pub buffer_frames: usize,
    /// Group-commit policy, shared by every node.
    pub group_commit: GroupCommitPolicy,
    /// WAL backing for every node.
    pub wal: WalBacking,
    /// Per-worker span tracing. When on, every run and recovery
    /// enters the cluster trace, whose watchdog `run` and `recover`
    /// consult at join. Off buys back the (small) tracing overhead;
    /// the benchmark's `rt.trace_overhead_pct` measures it.
    pub tracing: bool,
}

impl Default for ThreadClusterConfig {
    fn default() -> Self {
        ThreadClusterConfig {
            owned_pages: vec![16, 16],
            page_size: 1024,
            buffer_frames: 256,
            group_commit: GroupCommitPolicy::Immediate,
            wal: WalBacking::Mem,
            tracing: true,
        }
    }
}

/// Per-run aggregates beyond the [`RunReport`] tally.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtRunStats {
    /// Wall time of the run, µs.
    pub wall_us: u64,
    /// Log forces summed over nodes (delta for this run).
    pub forces: u64,
    /// Messages that crossed the mesh, counted by the endpoints. Only
    /// remote reads send any, so a run of purely local plans measures
    /// the paper's headline property here: 0.
    pub msgs: u64,
    /// Spans this run added to the cluster trace (0 with tracing off).
    pub spans: u64,
}

/// Wall-time split of one worker thread across the profiler [`Bucket`]
/// taxonomy the simulator uses (DESIGN §8.5).
///
/// The partition invariant is the simulator's, held *exactly* in
/// integer µs: `disk + cpu + net == busy` (a run replays nothing;
/// recovery's page writes reach only the `prof/replay_us` gauge), with
/// `lock_wait` accounted beside busy and `busy + lock_wait <= wall`. The
/// remainder of the wall time is idle parking in `recv_timeout`
/// (serving stragglers once this node's lanes are done), which is
/// deliberately not attributed to any bucket.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtNodeStats {
    /// Node id.
    pub node: u32,
    /// Worker wall time, µs.
    pub wall_us: u64,
    /// Non-idle worker time: everything the thread did outside
    /// lock-wait spinning and idle parks, µs.
    pub busy_us: u64,
    /// Time inside log forces (fsync), µs.
    pub disk_us: u64,
    /// Time in channel sends/receives and page-fetch service, µs.
    pub net_us: u64,
    /// Busy remainder: transaction execution and loop bookkeeping, µs.
    pub cpu_us: u64,
    /// Time spinning on contended page locks, net of the inbox
    /// service performed between spins, µs.
    pub lock_wait_us: u64,
}

/// Capacity of the commit-latency sample reservoir.
const LATENCY_RESERVOIR_CAP: usize = 4096;
/// Shards of each node's lock table.
const LOCK_SHARDS: usize = 16;

/// A set of OS-thread nodes executing [`TxnPlan`]s.
pub struct ThreadCluster {
    cfg: ThreadClusterConfig,
    nodes: Vec<Node>,
    latency_samples: Reservoir,
    last: Option<RtRunStats>,
    last_nodes: Vec<RtNodeStats>,
    /// Cluster-lifetime clock: every worker stamps spans off the same
    /// epoch, so timestamps are monotone across runs and recoveries.
    epoch: WallClock,
    /// The merged span store and its watchdog (the disabled trace
    /// when [`ThreadClusterConfig::tracing`] is off).
    trace: Trace,
}

impl ThreadCluster {
    /// Builds the nodes (and their WAL files, for
    /// [`WalBacking::Dir`]).
    pub fn new(cfg: ThreadClusterConfig) -> Result<Self> {
        let mut nodes = Vec::with_capacity(cfg.owned_pages.len());
        for (i, &owned) in cfg.owned_pages.iter().enumerate() {
            let ncfg = NodeConfig {
                page_size: cfg.page_size,
                buffer_frames: cfg.buffer_frames,
                owned_pages: owned,
                log_capacity: None,
            };
            let store: Box<dyn LogStore> = match &cfg.wal {
                WalBacking::Mem => Box::new(MemLogStore::new()),
                WalBacking::Dir(dir) => {
                    std::fs::create_dir_all(dir)?;
                    Box::new(FileLogStore::open(&dir.join(format!("node{i}.wal")))?)
                }
            };
            nodes.push(Node::with_log_store(NodeId(i as u32), ncfg, store)?);
        }
        let trace = if cfg.tracing {
            Trace::new(DEFAULT_TRACE_CAPACITY)
        } else {
            Trace::default()
        };
        Ok(ThreadCluster {
            cfg,
            nodes,
            latency_samples: Reservoir::new(LATENCY_RESERVOIR_CAP),
            last: None,
            last_nodes: Vec::new(),
            epoch: WallClock::new(),
            trace,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cfg.owned_pages.len()
    }

    /// Aggregates of the most recent [`Runtime::run`].
    pub fn last_stats(&self) -> Option<RtRunStats> {
        self.last
    }

    /// Per-worker wall-time split of the most recent run, ordered by
    /// node id.
    pub fn last_node_stats(&self) -> &[RtNodeStats] {
        &self.last_nodes
    }

    /// Commit latencies (µs, submit → durable ack) of every commit
    /// acknowledged so far — the one latency recorder.
    pub fn latency_samples(&self) -> &Reservoir {
        &self.latency_samples
    }

    /// The merged trace accumulated across runs, crashes and
    /// recoveries (empty when [`ThreadClusterConfig::tracing`] is
    /// off). Spans are in watchdog order: per-worker emission order,
    /// workers concatenated ascending, batches appended run by run.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Spans lost to a capacity bound, in a worker's buffer or in the
    /// merged store, cumulative.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Fails with every violation the watchdog has found so far, each
    /// with its page's lineage slice: per-page PSN order (updates and
    /// replay hops), the WAL rule on page ships and owned writes, and
    /// no-log-on-the-wire, the invariants the simulator's tracer
    /// checks. Every span was observed when it entered the trace, so
    /// this reads a list. `run` and `recover` fail only on the
    /// violations found during their own call.
    pub fn trace_check(&self) -> Result<()> {
        self.trace.check().map_err(Error::Protocol)
    }

    /// Emits a point span from the coordinating thread (ids continue
    /// the merged sequence directly). No-op returning
    /// [`SpanId::NONE`] when tracing is off. Public as the hook for
    /// tests to forge observations the workers did not make (e.g. an
    /// out-of-order replay hop) and watch
    /// [`ThreadCluster::trace_check`] catch them.
    pub fn trace_point(&mut self, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        if !self.trace.is_enabled() {
            return SpanId::NONE;
        }
        self.trace.point(self.epoch.now_us(), node, parent, kind)
    }

    /// Crashes `node`: its volatile state (buffer, DPT, transaction
    /// table, unforced log tail) is lost; the database file and the
    /// durable WAL survive. Follow with [`Runtime::recover`].
    pub fn crash(&mut self, node: NodeId) -> Result<()> {
        let i = node.0 as usize;
        if i >= self.nodes.len() {
            return Err(Error::Invalid(format!("crash of unknown node {node}")));
        }
        self.nodes[i].crash();
        // The watchdog resets its per-page frontiers at a Crash span,
        // exactly as in the simulator.
        self.trace_point(node, SpanId::NONE, SpanKind::Crash { node });
        Ok(())
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        let i = id.0 as usize;
        self.nodes
            .get_mut(i)
            .ok_or_else(|| Error::Invalid(format!("unknown node {id}")))
    }
}

impl Runtime for ThreadCluster {
    fn name(&self) -> &'static str {
        "threads"
    }

    /// Runs the plans, one worker thread per node. A run that fails
    /// is a clean error: every worker stops at its next wait, each
    /// hands its node back, the spans it took are kept, and the first
    /// error of the run is returned. No lock outlives a run, failed or
    /// not — the lock tables are the run's own.
    fn run(&mut self, plans: &[TxnPlan]) -> Result<RunReport> {
        let n = self.node_count();
        let mut per_node: Vec<Vec<Lane>> = (0..n).map(|_| Vec::new()).collect();
        for lane in cblog_core::runtime::lanes(plans) {
            let client = lane[0].client;
            per_node
                .get_mut(client.0 as usize)
                .ok_or_else(|| Error::Invalid(format!("plan for unknown node {client}")))?
                .push(Lane::new(lane));
        }

        let violations_before = self.trace.violations().len();
        let shared = RunShared::new(self);
        let forces_before: u64 = self.nodes.iter().map(|nd| nd.log().forces()).sum();
        let started = Instant::now();
        let finished: Vec<Finished> = std::thread::scope(|s| {
            let handles: Vec<_> = std::mem::take(&mut self.nodes)
                .into_iter()
                .zip(ChannelMesh::endpoints(n))
                .zip(per_node)
                .map(|((node, ep), lanes)| {
                    let worker = Worker::new(node, ep, lanes, &shared, &self.cfg);
                    s.spawn(move || worker.run())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("Worker::run catches its own panics"))
                .collect()
        });
        let wall_us = started.elapsed().as_micros() as u64;

        // Joined in node order, so the nodes go back where they were.
        let mut report = RunReport::default();
        let mut msgs = 0;
        let mut node_stats = Vec::with_capacity(n);
        let mut bufs = Vec::with_capacity(n);
        for f in finished {
            report.committed += f.report.committed;
            report.user_aborts += f.report.user_aborts;
            report.forced_aborts += f.report.forced_aborts;
            report.ops_executed += f.report.ops_executed;
            msgs += f.sent;
            node_stats.push(f.stats);
            bufs.push(f.buf);
            self.nodes.push(f.node);
        }
        let spans_before = self.trace.observed();
        self.trace.absorb(bufs);
        if let Some(e) = shared.failed.into_inner() {
            return Err(e);
        }

        // Mirror each worker's bucket split onto its node's registry
        // (cumulative, like the sim profiler's gauges).
        for s in &node_stats {
            let reg = self.nodes[s.node as usize].registry();
            let split = [
                (Bucket::Disk, s.disk_us),
                (Bucket::Cpu, s.cpu_us),
                (Bucket::Net, s.net_us),
                (Bucket::LockWait, s.lock_wait_us),
            ];
            for (b, us) in split {
                reg.gauge(prof_key(b)).add(us as i64);
            }
        }
        self.last_nodes = node_stats;

        let forces_after: u64 = self.nodes.iter().map(|nd| nd.log().forces()).sum();
        self.last = Some(RtRunStats {
            wall_us,
            forces: forces_after - forces_before,
            msgs,
            spans: self.trace.observed() - spans_before,
        });
        self.trace
            .check_since(violations_before)
            .map_err(Error::Protocol)?;
        Ok(report)
    }

    fn page_image(&mut self, pid: PageId) -> Result<Vec<u8>> {
        let i = pid.owner.0 as usize;
        if i >= self.nodes.len() {
            return Err(Error::NoSuchPage(pid));
        }
        self.nodes[i].page_image(pid)
    }

    fn metrics(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for node in &self.nodes {
            out.merge_prefixed(&format!("n{}/", node.id().0), node.registry().snapshot());
        }
        out
    }

    /// Crash recovery on the calling thread. The threaded runtime
    /// only writes owned pages, so every update record of a page lives
    /// in its owner's log, and a page replays from its own records
    /// alone: no page's replay waits on another's (DESIGN §16, "replay
    /// is confluent across pages"). So nothing is planned and no
    /// NodePSNList is built.
    ///
    /// Each crashed node's log is read once ([`Node::restart_redo`]):
    /// the analysis fold and the PSN-filtered redo of every page the
    /// rebuilt DPT names run in the same loop, so the Analysis phase
    /// includes the redo and nothing is kept per record. Every listed
    /// node's pass runs before any page is written. Then each node
    /// finishes its own restart: it writes its redone images durably,
    /// in ascending page order, undoes its losers, forces its log and
    /// checkpoints. The report counts one pass: `replay_waves` is 1 (0
    /// when no page is dirty), its one [`WaveTiming`] has a makespan
    /// equal to its serial sum, the nodes' page-write loops, and
    /// `critical_path_psns` is the most records one page applied.
    /// [`ReplayMode::Parallel`](cblog_core::ReplayMode) runs as
    /// `Serial`: no measured input has yet repaid handing a page's redo
    /// to another thread (DESIGN §13). Each page enters the trace as
    /// one hop from its disk PSN, counting the records applied, and the
    /// watchdog holds the hops to the same per-page PSN-order invariant
    /// the simulator's tracer enforces on simulated recovery: `recover`
    /// fails on a violation found during the call.
    ///
    /// An update in a crashed node's log of a page that node does not
    /// own is a corrupt log: `recover` fails with [`Error::Corrupt`]
    /// naming its LSN before any page is written.
    ///
    /// Every listed node must be crashed: a node that is not is
    /// refused with [`Error::Protocol`], as the simulator refuses it,
    /// before any node is touched. So is any option of `opts` other
    /// than the nodes and the replay mode, with [`Error::Invalid`]
    /// naming it: this restart has no standby, no interrupting crash
    /// and no sabotage to run. A `recover` that fails after that
    /// leaves every listed node crashed, so that it can be run again
    /// and no run commits on a node that is up but unrecovered.
    fn recover(&mut self, opts: &RecoveryOptions) -> Result<RecoveryReport> {
        if let Some(option) = opts.beyond_restart() {
            return Err(Error::Invalid(format!(
                "the threaded runtime does not honour RecoveryOptions::{option}"
            )));
        }
        let crashed = opts.recovered_nodes();
        for &c in crashed {
            if c.0 as usize >= self.nodes.len() {
                return Err(Error::Invalid(format!("recovery of unknown node {c}")));
            }
            if !self.nodes[c.0 as usize].is_crashed() {
                return Err(Error::Protocol(format!("{c} is not crashed")));
            }
        }
        let r = self.restart(crashed);
        if r.is_err() {
            for &c in crashed {
                if !self.nodes[c.0 as usize].is_crashed() {
                    self.crash(c)?;
                }
            }
        }
        r
    }
}

impl ThreadCluster {
    /// [`Runtime::recover`] of the `crashed` nodes, each crashed: every
    /// node's pass, then each node's [`ThreadCluster::finish_restart`].
    fn restart(&mut self, crashed: &[NodeId]) -> Result<RecoveryReport> {
        let violations_before = self.trace.violations().len();
        let rec_root = match crashed.first() {
            Some(&c) => self.trace_point(
                c,
                SpanId::NONE,
                SpanKind::Recovery {
                    nodes: crashed.len() as u32,
                },
            ),
            None => SpanId::NONE,
        };
        let mut report = RecoveryReport::default();
        let mut timings = PhaseTimings::default();
        let mut mark = Instant::now();
        fn lap(mark: &mut Instant) -> u64 {
            let us = mark.elapsed().as_micros() as u64;
            *mark = Instant::now();
            us
        }

        // ---- Analysis: tail repair, then one pass over each crashed
        // node's log that also redoes, through the PSN filter, every
        // page the rebuilt DPT names. The message phases of the
        // distributed protocol (InfoExchange … RecoveryLocks) and
        // PsnLists have no threaded counterpart: updates are
        // owner-local, so no operational node holds state the
        // restarting owner needs, and the owner's own records order
        // each page. Their timings stay zero. ----
        let mut passes = Vec::with_capacity(crashed.len());
        for &c in crashed {
            let node = self.node_mut(c)?;
            report.torn_bytes_discarded += node.mark_restarting()?;
            let (a, images) = node.restart_redo()?;
            report.log_bytes_scanned += a.bytes_scanned;
            passes.push((c, images, a.losers));
        }
        timings.record(RecoveryPhase::Analysis, lap(&mut mark));

        // ---- Replay and Undo, one node after another: every pass has
        // run, so a corrupt log anywhere stopped recovery before any
        // page was written. ----
        let mut wave = WaveTiming::default();
        for (c, images, losers) in passes {
            wave.units += images.len();
            let replay_us = self.finish_restart(c, images, losers, rec_root, &mut report)?;
            wave.serial_us += replay_us;
            timings.record(RecoveryPhase::Replay, replay_us);
            let undo_us = lap(&mut mark).saturating_sub(replay_us);
            timings.record(RecoveryPhase::Undo, undo_us);
        }
        if wave.units > 0 {
            wave.makespan_us = wave.serial_us;
            report.replay_waves = 1;
            timings.set_replay_waves(vec![wave]);
        }
        timings.record(RecoveryPhase::Done, lap(&mut mark));
        report.timings = timings;
        self.trace
            .check_since(violations_before)
            .map_err(Error::Protocol)?;
        Ok(report)
    }

    /// The rest of node `c`'s restart once its pass has run
    /// ([`Node::restart_redo`]): writes its redone `images`, ascending,
    /// each entering the trace as one replay hop from its disk PSN and
    /// a page write, then undoes its `losers`, forces its log and
    /// checkpoints. Returns the wall time of the page writes, µs, which
    /// the node's `prof/replay_us` gauge also gets.
    fn finish_restart(
        &mut self,
        c: NodeId,
        images: Vec<RedoImage>,
        losers: Vec<TxnId>,
        root: SpanId,
        report: &mut RecoveryReport,
    ) -> Result<u64> {
        let t = Instant::now();
        for image in images {
            let (page, applied) = (image.page, image.applied);
            let pid = page.id();
            // One hop from the disk image's PSN: the page's records are
            // all in its owner's log, and all were read in one pass.
            self.trace_point(
                c,
                root,
                SpanKind::ReplayHop {
                    pid,
                    node: c,
                    from_psn: image.disk_psn,
                    to_psn: page.psn(),
                    applied,
                },
            );
            report.records_replayed += applied;
            report.critical_path_psns = report.critical_path_psns.max(applied);
            report.pages_recovered += 1;
            // Durable write re-anchors the page and clears its DPT
            // entry, like the simulator's post-replay ship.
            let wal_ok = {
                let node = self.node_mut(c)?;
                node.write_owned_page(&page)?;
                node.log().fully_forced()
            };
            self.trace_point(
                c,
                root,
                SpanKind::PageWrite {
                    pid,
                    node: c,
                    psn: page.psn(),
                    wal_ok,
                },
            );
        }
        let replay_us = t.elapsed().as_micros() as u64;
        let node = self.node_mut(c)?;
        node.registry()
            .gauge(prof_key(Bucket::Replay))
            .add(replay_us as i64);
        for txn in losers {
            roll_back(node, txn)?;
            report.losers_undone += 1;
        }
        node.force_log()?;
        node.checkpoint()?;
        Ok(replay_us)
    }
}

// ----------------------------------------------------------------------
// Worker
// ----------------------------------------------------------------------

/// Spins this many times on a contended lock (serving the inbox in
/// between) before aborting the transaction and retrying the plan.
const ACQUIRE_SPINS: usize = 20_000;
/// Retries of one plan after forced aborts before giving up.
const PLAN_RETRIES: usize = 100;
/// Patience for a remote page fetch (the owner may be mid-fsync).
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// What the workers of one run share.
struct RunShared {
    /// Strict 2PL across all workers: one table per node, holding the
    /// locks of that node's pages, reached only through
    /// [`RunShared::locks_of`]. A worker's local commit writes only its
    /// own node's table, so workers that share no page share no shard
    /// mutex. The tables live for one run, so no lock outlives a run
    /// however the run ends.
    locks: Box<[ShardedLockTable]>,
    /// The cluster's latency recorder.
    samples: Reservoir,
    /// The cluster's clock: every worker stamps spans off one epoch.
    clock: WallClock,
    /// Workers that still have lanes to run. A worker whose own lanes
    /// are done keeps serving page fetches until this reaches 0.
    remaining: AtomicUsize,
    /// The first error of the run. Once set the run has failed: every
    /// worker polls it wherever it waits, and stops.
    failed: OnceLock<Error>,
}

impl RunShared {
    /// The shared state of a run on `tc`: one worker and one lock
    /// table per node.
    fn new(tc: &ThreadCluster) -> Self {
        let n = tc.node_count();
        RunShared {
            locks: (0..n).map(|_| ShardedLockTable::new(LOCK_SHARDS)).collect(),
            samples: tc.latency_samples.clone(),
            clock: tc.epoch,
            remaining: AtomicUsize::new(n),
            failed: OnceLock::new(),
        }
    }

    /// The lock table of `pid`'s owner, where the page's locks live;
    /// `NoSuchPage` for a page of a node the cluster does not have.
    fn locks_of(&self, pid: PageId) -> Result<&ShardedLockTable> {
        self.locks
            .get(pid.owner.0 as usize)
            .ok_or(Error::NoSuchPage(pid))
    }
}

/// Wall-time profiler of one worker thread (DESIGN §8.5), in ns.
///
/// `outer_ns` sums the top-level scopes of the worker: in `run_lanes`
/// one per lane step, each ending at the clock reading that begins the
/// next (`lap`), and after its lanes one per shutdown serve. The leaf
/// buckets are measured *inside* those scopes and are disjoint
/// sub-intervals of them. Scopes are summed in ns, because a lane step
/// can be shorter than 1 µs, and converted to µs once, in
/// [`Worker::stats`], where the derived buckets keep the simulator's
/// partition invariant exactly: `busy = outer − lock_wait` and `cpu =
/// busy − disk − net`, so `disk + cpu + net == busy` by construction.
/// `served_ns` is the whole time inside `serve`, which a lock spin or
/// a fetch wait takes out of its own bucket. Time parked in
/// `recv_timeout` between scopes (shutdown stragglers) is idle and
/// deliberately unattributed.
#[derive(Clone, Copy, Debug, Default)]
struct Prof {
    wall_ns: u64,
    outer_ns: u64,
    disk_ns: u64,
    net_ns: u64,
    lock_wait_ns: u64,
    served_ns: u64,
}

/// A profiler scope's length in ns.
fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// One MPL lane: its plans run sequentially; the worker interleaves
/// lanes so several commits can park in the force scheduler at once.
struct Lane<'a> {
    plans: Vec<&'a TxnPlan>,
    next: usize,
    /// Parked commit: (txn, submit time).
    waiting: Option<(TxnId, SimTime)>,
    retries: usize,
}

impl<'a> Lane<'a> {
    fn new(plans: Vec<&'a TxnPlan>) -> Self {
        Lane {
            plans,
            next: 0,
            waiting: None,
            retries: 0,
        }
    }
}

enum TxnOutcome {
    /// Commit record appended; parked in the scheduler since the time.
    Committing(TxnId, SimTime),
    /// Plan consumed (user abort completed).
    Done,
    /// Forced abort (lock conflict); plan not consumed.
    Retry,
}

fn token_of(txn: TxnId) -> u64 {
    ((txn.node.0 as u64) << 48) | (txn.seq & 0xffff_ffff_ffff)
}

fn encode_pid(pid: PageId) -> Vec<u8> {
    pid.to_u64().to_le_bytes().to_vec()
}

fn decode_pid(payload: &[u8]) -> Result<PageId> {
    let bytes: [u8; 8] = payload
        .try_into()
        .map_err(|_| Error::Protocol("bad page-fetch payload".into()))?;
    Ok(PageId::from_u64(u64::from_le_bytes(bytes)))
}

/// Runs `op`, which works on the cached copy of the owned page `pid`,
/// caching the page first if `op` finds it absent. A page is absent
/// once, on its first touch after a start or a crash, so asking first
/// would spend a buffer lookup per operation on the answer "yes".
fn on_cached<T>(
    node: &mut Node,
    pid: PageId,
    mut op: impl FnMut(&mut Node) -> Result<T>,
) -> Result<T> {
    match op(node) {
        Err(Error::NoSuchPage(p)) if p == pid => {
            ensure_cached(node, pid)?;
            op(node)
        }
        done => done,
    }
}

/// Brings an owned page into the buffer (from disk if necessary). The
/// buffer is sized above the working set, so eviction of a dirty page
/// is an overflow error rather than a silent correctness hazard.
fn ensure_cached(node: &mut Node, pid: PageId) -> Result<()> {
    if node.buffer().contains(pid) {
        return Ok(());
    }
    let (page, _) = node.authoritative_copy(pid)?;
    if let Some(ev) = node.cache_page(page, false)? {
        if ev.dirty {
            return Err(Error::Protocol(format!(
                "{} buffer overflow evicted dirty page {}: raise buffer_frames",
                node.id(),
                ev.page.id()
            )));
        }
    }
    Ok(())
}

/// Total rollback of `txn` on its node: undo its updates newest first
/// (a CLR each), then the Abort record, after which nothing asks about
/// the transaction again and the node forgets it. The one rollback
/// loop of this crate — a worker's aborts and recovery's loser undo
/// both run it.
fn roll_back(node: &mut Node, txn: TxnId) -> Result<()> {
    node.start_abort(txn)?;
    loop {
        match node.rollback_step(txn, Lsn::ZERO)? {
            RollbackStep::Done => break,
            RollbackStep::Undone(_) => {}
            RollbackStep::NeedPage(pid) => ensure_cached(node, pid)?,
        }
    }
    node.finish_abort(txn)?;
    node.forget(txn)
}

/// What outlives a worker's run ([`Worker::run`]).
struct Finished {
    node: Node,
    report: RunReport,
    stats: RtNodeStats,
    buf: SpanBuf,
    /// Messages the worker's endpoint sent.
    sent: u64,
}

/// One node's thread of a run, and everything it works with. The
/// worker owns its state while the run lasts; [`Worker::run`] is its
/// one way out and hands back what outlives the run.
struct Worker<'a> {
    node: Node,
    ep: ChannelEndpoint,
    shared: &'a RunShared,
    sched: ForceScheduler,
    lanes: Vec<Lane<'a>>,
    report: RunReport,
    prof: Prof,
    buf: SpanBuf,
    /// Log bytes written as of the last [`Worker::force`], so each
    /// force knows the bytes it wrote.
    forced_bytes: u64,
    /// The lanes of the parked commits, in the order they were
    /// submitted to `sched`, which is the order it acknowledges them
    /// in: an ack finds its lane at the front, not by a search.
    parked: VecDeque<usize>,
}

impl<'a> Worker<'a> {
    fn new(
        node: Node,
        ep: ChannelEndpoint,
        lanes: Vec<Lane<'a>>,
        shared: &'a RunShared,
        cfg: &ThreadClusterConfig,
    ) -> Self {
        Worker {
            sched: ForceScheduler::new(cfg.group_commit),
            buf: if cfg.tracing {
                SpanBuf::new(node.id().0, DEFAULT_TRACE_CAPACITY)
            } else {
                SpanBuf::disabled()
            },
            forced_bytes: node.log().bytes_written(),
            parked: VecDeque::new(),
            report: RunReport::default(),
            prof: Prof::default(),
            node,
            ep,
            lanes,
            shared,
        }
    }

    /// Runs this node's share of the run and hands the node and the
    /// run's tallies back, whatever happened: the lanes, one decrement
    /// of `remaining`, then page-fetch service until every node's lanes
    /// are done. An error — or a panic, so that the node is not lost
    /// with the thread and the peers not left waiting — fails the run
    /// for all.
    ///
    /// The rest of the worker (its endpoint, scheduler and lanes) is
    /// dropped here, on the thread that grew it. Freed by the joining
    /// thread instead, its blocks landed in that thread's allocator
    /// cache and served the caller's next allocations from this
    /// thread's arena, which kept both arenas' pages resident.
    fn run(mut self) -> Finished {
        let started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let lanes = self.run_lanes();
            self.shared.remaining.fetch_sub(1, Ordering::AcqRel);
            lanes.and_then(|()| self.serve_peers())
        }))
        .unwrap_or_else(|_| {
            Err(Error::Protocol(format!(
                "{} worker panicked",
                self.node.id()
            )))
        });
        if let Err(e) = result {
            // Only the first failure is the run's error; a later one
            // is its consequence.
            let _ = self.shared.failed.set(e);
        }
        self.ep.drain();
        self.prof.wall_ns = nanos(started.elapsed());
        Finished {
            stats: self.stats(),
            sent: self.ep.sent(),
            report: self.report,
            buf: self.buf,
            node: self.node,
        }
    }

    /// The wall-time split of this worker's run, converted from the
    /// profiler's ns sums once, here.
    fn stats(&self) -> RtNodeStats {
        let p = &self.prof;
        let us = |ns: u64| ns / 1_000;
        let busy_us = us(p.outer_ns.saturating_sub(p.lock_wait_ns));
        let (disk_us, net_us) = (us(p.disk_ns), us(p.net_ns));
        RtNodeStats {
            node: self.node.id().0,
            wall_us: us(p.wall_ns),
            busy_us,
            disk_us,
            net_us,
            cpu_us: busy_us.saturating_sub(disk_us + net_us),
            lock_wait_us: us(p.lock_wait_ns),
        }
    }

    /// Ends the top-level scope that began at `mark` with one clock
    /// reading, which begins the next one.
    fn lap(&mut self, mark: &mut Instant) {
        let now = Instant::now();
        self.prof.outer_ns += nanos(now.duration_since(*mark));
        *mark = now;
    }

    /// Every wait of a worker polls this, so a peer's failure ends it.
    fn peers_ok(&self) -> Result<()> {
        match self.shared.failed.get() {
            None => Ok(()),
            Some(_) => Err(Error::Protocol("stopped: another worker failed".into())),
        }
    }

    /// Steps the lanes, one whole transaction each per sweep, until
    /// every plan has ended in a durable commit or an abort.
    fn run_lanes(&mut self) -> Result<()> {
        // The profiler's scopes here follow one another, one per lane
        // step: each ends at the clock reading that starts the next, and
        // inbox service and forces fall into the step after them.
        let mut mark = Instant::now();
        // The scheduler starts empty, so it knows no parked commit of a
        // log tail. A run that failed leaves its parked commits released
        // and unforced; force them before the first fetch is served.
        if !self.node.log().fully_forced() {
            self.force()?;
        }
        // No lane could step in the last sweep: every live lane of this
        // node is parked on the scheduler, and only a lane can submit a
        // commit. Nobody can join the batch before a force acks part of
        // it, so holding the window open to its deadline buys nothing.
        let mut all_parked = false;
        loop {
            self.peers_ok()?;
            self.serve_inbox()?;
            if all_parked || self.sched.is_due(self.shared.clock.now_us()) {
                self.force()?;
            }

            let mut progressed = false;
            let mut live = false;
            for li in 0..self.lanes.len() {
                let lane = &self.lanes[li];
                if lane.waiting.is_some() {
                    live = true;
                    continue;
                }
                let Some(&plan) = lane.plans.get(lane.next) else {
                    continue;
                };
                live = true;
                progressed = true;
                let outcome = self.run_txn(plan)?;
                self.lap(&mut mark);
                let lane = &mut self.lanes[li];
                match outcome {
                    TxnOutcome::Committing(txn, at) => {
                        lane.waiting = Some((txn, at));
                        lane.retries = 0;
                        self.parked.push_back(li);
                    }
                    TxnOutcome::Done => {
                        lane.next += 1;
                        lane.retries = 0;
                    }
                    TxnOutcome::Retry => {
                        lane.retries += 1;
                        if lane.retries > PLAN_RETRIES {
                            return Err(Error::Protocol(format!(
                                "{} lane {} livelocked on plan {}",
                                self.node.id(),
                                plan.stream,
                                lane.next
                            )));
                        }
                    }
                }
            }
            if !live {
                // A parked commit keeps its lane live until it is acked.
                debug_assert_eq!(self.sched.pending_len(), 0);
                self.lap(&mut mark);
                return Ok(());
            }
            all_parked = !progressed;
        }
    }

    /// Serves page fetches until every node's lanes are done.
    fn serve_peers(&mut self) -> Result<()> {
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            self.peers_ok()?;
            if let Some(env) = self.ep.recv_timeout(Duration::from_micros(500)) {
                // Each serve is a top-level scope here, timed by itself.
                let served0 = self.prof.served_ns;
                self.serve(env)?;
                self.prof.outer_ns += self.prof.served_ns - served0;
            }
        }
        Ok(())
    }

    /// Runs one plan as a transaction, up to the parked commit or the
    /// completed abort. Every ending but the commit rolls back — the
    /// user abort, the lock conflict, and an error of this worker or a
    /// peer — so a failed run leaves no active transaction on the node.
    ///
    /// The transaction's span says `committed: true` from
    /// `commit_begin` on: the commit record exists and its force is
    /// scheduled, and `run_lanes` does not return with a commit parked.
    fn run_txn(&mut self, plan: &TxnPlan) -> Result<TxnOutcome> {
        let txn = self.node.begin()?;
        let span = self.buf.alloc();
        // The clock is read for a span only if the span is recorded;
        // the commit's reading is the scheduler's and the ack's.
        let start = (!span.is_none()).then(|| self.shared.clock.now_us());
        let locked = self.run_ops(plan, txn, span);
        let outcome = if matches!(locked, Ok(true)) && !plan.abort {
            let lsn = self.node.commit_begin(txn)?;
            // Strict 2PL releases transaction locks at commit_begin,
            // before the commit record is durable. That is safe across
            // threads because this transaction's updates can only be
            // seen through a page ship, and `serve` forces the log
            // before it ships a page this parked commit wrote.
            self.release_locks(plan, txn);
            let now = self.shared.clock.now_us();
            self.sched.submit(txn, lsn, now);
            let written = plan.ops.iter().filter_map(|op| match *op {
                PlanOp::Write { pid, .. } => Some(pid),
                PlanOp::Read { .. } => None,
            });
            self.sched.wrote(lsn, written);
            TxnOutcome::Committing(txn, now)
        } else {
            let undone = roll_back(&mut self.node, txn);
            self.release_locks(plan, txn);
            let locked = locked?;
            undone?;
            if locked {
                self.report.user_aborts += 1;
                TxnOutcome::Done
            } else {
                self.report.forced_aborts += 1;
                TxnOutcome::Retry
            }
        };
        if let Some(start) = start {
            let end = match outcome {
                TxnOutcome::Committing(_, at) => at,
                _ => self.shared.clock.now_us(),
            };
            self.buf.emit(Span {
                id: span,
                parent: SpanId::NONE,
                node: self.node.id(),
                start,
                dur: end.saturating_sub(start),
                kind: SpanKind::Txn {
                    txn,
                    committed: matches!(outcome, TxnOutcome::Committing(..)),
                },
            });
        }
        Ok(outcome)
    }

    /// Locks and executes the plan's ops in order. `Ok(false)` is a
    /// lock conflict that outlasted the spin budget.
    fn run_ops(&mut self, plan: &TxnPlan, txn: TxnId, span: SpanId) -> Result<bool> {
        let me = self.node.id();
        for op in &plan.ops {
            let (pid, mode) = match *op {
                PlanOp::Read { pid, .. } => (pid, LockMode::Shared),
                PlanOp::Write { pid, .. } => (pid, LockMode::Exclusive),
            };
            if mode == LockMode::Exclusive && pid.owner != me {
                return Err(Error::Protocol(format!(
                    "{me} plan writes remote page {pid}: the threaded runtime only writes owned pages"
                )));
            }
            if !self.acquire(pid, token_of(txn), mode)? {
                return Ok(false);
            }
            match *op {
                PlanOp::Read { pid, slot } => {
                    if pid.owner == me {
                        on_cached(&mut self.node, pid, |node| {
                            node.peek_slot(pid, slot).ok_or(Error::NoSuchPage(pid))
                        })?;
                    } else {
                        self.remote_read(pid, slot, span)?;
                    }
                }
                PlanOp::Write { pid, slot, value } => {
                    let after = value.to_le_bytes();
                    // The PSN is the page's just before the update: the
                    // edge the watchdog checks.
                    let (psn_before, lsn) = on_cached(&mut self.node, pid, |node| {
                        node.log_write(txn, pid, slot * 8, &after)
                    })?;
                    if self.buf.is_enabled() {
                        self.buf.point(
                            self.shared.clock.now_us(),
                            me,
                            span,
                            SpanKind::Update {
                                pid,
                                txn,
                                psn: psn_before,
                                lsn,
                                clr: false,
                            },
                        );
                    }
                }
            }
            self.report.ops_executed += 1;
        }
        Ok(true)
    }

    /// Forces the whole log — the one place this worker does — and
    /// acknowledges every commit it made durable: the batch at the top
    /// of the loop, the parked commits a ship force covers, the
    /// inherited tail. Every commit record appended so far is durable
    /// afterwards, so no ship needs a force any more.
    ///
    /// The `fdatasync` is attributed to `disk`, and the ack bookkeeping
    /// stays in the enclosing scope's `cpu` remainder. Each ack reads
    /// the clock once, after its own bookkeeping, to record the
    /// commit's latency. A force that wrote anything emits one
    /// [`SpanKind::GroupForce`] span with its bytes and the commits it
    /// acknowledged.
    fn force(&mut self) -> Result<()> {
        let t = Instant::now();
        self.node.force_log()?;
        self.prof.disk_ns += nanos(t.elapsed());
        let written = self.node.log().bytes_written();
        let bytes = written - self.forced_bytes;
        self.forced_bytes = written;
        let mut txns = 0u64;
        for txn in self.sched.drain_acked(self.node.log().flushed_lsn()) {
            self.node.finish_commit(txn)?;
            self.node.forget(txn)?;
            self.report.committed += 1;
            txns += 1;
            // Commits are acknowledged in the order they parked, so
            // this one's lane is the oldest parked lane.
            let li = self.parked.pop_front().ok_or_else(|| {
                Error::Protocol(format!("{txn} acknowledged, but no lane is parked"))
            })?;
            let lane = &mut self.lanes[li];
            match lane.waiting.take() {
                Some((parked, at)) if parked == txn => {
                    lane.next += 1;
                    let now = self.shared.clock.now_us();
                    self.shared.samples.record(now.saturating_sub(at));
                }
                other => {
                    return Err(Error::Protocol(format!(
                        "{txn} acknowledged, but lane {li} has {other:?} parked"
                    )))
                }
            }
        }
        if bytes > 0 && self.buf.is_enabled() {
            let (node, at) = (self.node.id(), self.shared.clock.now_us());
            let kind = SpanKind::GroupForce { node, txns, bytes };
            self.buf.point(at, node, SpanId::NONE, kind);
        }
        Ok(())
    }

    /// Takes `pid` for `token` in the page owner's table, serving
    /// incoming page fetches while it spins so two nodes waiting on
    /// each other's service cannot deadlock. The spin time — minus the
    /// nested service work, which lands in its own buckets — is
    /// attributed to `lock_wait`.
    fn acquire(&mut self, pid: PageId, token: u64, mode: LockMode) -> Result<bool> {
        let shared = self.shared;
        let locks = shared.locks_of(pid)?;
        if locks.try_acquire(pid, token, mode) {
            return Ok(true);
        }
        let t = Instant::now();
        let served0 = self.prof.served_ns;
        let mut won = false;
        for i in 0..ACQUIRE_SPINS {
            if locks.try_acquire(pid, token, mode) {
                won = true;
                break;
            }
            self.peers_ok()?;
            self.serve_inbox()?;
            if i % 64 == 63 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let nested = self.prof.served_ns - served0;
        self.prof.lock_wait_ns += nanos(t.elapsed()).saturating_sub(nested);
        Ok(won)
    }

    /// Ends `txn` in the lock tables. A transaction only ever locks the
    /// pages of its plan's ops, so releasing those (a page not held — a
    /// forced abort stopped before it, or it repeats in the plan — is a
    /// no-op, and a page of no node was never locked) is `release_all`
    /// without taking every shard and walking every locked page of
    /// every other transaction.
    fn release_locks(&self, plan: &TxnPlan, txn: TxnId) {
        let token = token_of(txn);
        for op in &plan.ops {
            let (PlanOp::Read { pid, .. } | PlanOp::Write { pid, .. }) = *op;
            if let Ok(locks) = self.shared.locks_of(pid) {
                locks.release(pid, token);
            }
        }
    }

    /// Fetches a remote page image from its owner and reads one slot.
    /// The image is used once and dropped — without callback locking
    /// there is no safe way to keep it cached past the transaction's S
    /// lock.
    ///
    /// The fetch is traced as a [`SpanKind::Msg`] whose id rides the
    /// envelope header, so the owner's Transfer/ship spans parent on it
    /// and the causal chain crosses the mesh exactly as in the
    /// simulator. The blocking wait for the reply is attributed to
    /// `net`; nested service of other nodes' fetches lands in its own
    /// buckets.
    fn remote_read(&mut self, pid: PageId, slot: usize, parent: SpanId) -> Result<u64> {
        let t = Instant::now();
        let served0 = self.prof.served_ns;
        self.send_traced(pid.owner, MsgKind::LockRequest, encode_pid(pid), parent)?;
        let deadline = Instant::now() + FETCH_TIMEOUT;
        let value = loop {
            match self.ep.recv_timeout(Duration::from_millis(1)) {
                Some(env) if env.kind == MsgKind::PageShip => {
                    let page = Page::from_bytes(env.payload)?;
                    if page.id() == pid {
                        break page.read_slot(slot);
                    }
                    // A worker has one fetch in flight at a time, so a
                    // ship of another page is mis-routed: fail the run
                    // rather than lose it.
                    let msg = format!("{} fetched {pid} but got {}", self.node.id(), page.id());
                    return Err(Error::Protocol(msg));
                }
                Some(env) => self.serve(env)?,
                None => {
                    self.peers_ok()?;
                    if Instant::now() >= deadline {
                        return Err(Error::Protocol(format!("page fetch of {pid} timed out")));
                    }
                }
            }
        };
        let nested = self.prof.served_ns - served0;
        self.prof.net_ns += nanos(t.elapsed()).saturating_sub(nested);
        value
    }

    fn serve_inbox(&mut self) -> Result<()> {
        while let Some(env) = self.ep.try_recv() {
            self.serve(env)?;
        }
        Ok(())
    }

    /// Owner-side service: ship the authoritative image of an owned
    /// page, traced as Transfer + Msg spans parented on the requester's
    /// message span. A force's sync is attributed to `disk`, the acks
    /// it makes to `cpu`, and the rest of the service to `net`.
    ///
    /// **The ship-force rule.** No image leaves a node carrying an
    /// update of a transaction that has released its locks and whose
    /// commit record is not durable (DESIGN §16): the reader could
    /// commit on a value a crash of this node then undoes. So the log
    /// is forced first iff [`ForceScheduler::ship_needs_force`] — iff
    /// a commit parked undurable on this node wrote the page, the
    /// predicate the simulator's `fetch_page` asks too. Every other
    /// update in the image needs no force, because:
    ///
    /// * the requester took its S lock in the page owner's table — this
    ///   node's — before it sent the fetch (`run_ops`), so no *active*
    ///   writer's update is in the image;
    /// * a writer that rolled back compensated its updates before it
    ///   released its locks (`run_txn`), so the image carries none of
    ///   its values;
    /// * the requester reads the image once and drops it
    ///   (`remote_read`), so a PSN ahead of this node's durable log
    ///   never reaches a disk or another node's log.
    ///
    /// "The page's last update record is durable" is *not* this rule:
    /// a force taken while T still holds its X lock carries T's update
    /// to disk, T's commit record is appended later and its lock
    /// released at once — the update is durable, the commit is not.
    fn serve(&mut self, env: Envelope) -> Result<()> {
        let t = Instant::now();
        if env.kind != MsgKind::LockRequest {
            return Err(Error::Protocol(format!(
                "threaded runtime got unexpected {:?} message",
                env.kind
            )));
        }
        let pid = decode_pid(&env.payload)?;
        let needs_force = |w: &Self| w.sched.ship_needs_force(pid, w.node.log().flushed_lsn());
        // The whole force, acks included, stays out of `net`.
        let mut resumed = t;
        if needs_force(self) {
            self.force()?;
            resumed = Instant::now();
        }
        let (page, _) = self.node.authoritative_copy(pid)?;
        if self.buf.is_enabled() {
            let (me, at) = (self.node.id(), self.shared.clock.now_us());
            let kind = SpanKind::Transfer {
                pid,
                from: me,
                to: env.from,
                psn: page.psn(),
                why: TransferWhy::Ship,
                wal_ok: !needs_force(self),
            };
            self.buf.point(at, me, env.ctx.span, kind);
        }
        self.send_traced(env.from, MsgKind::PageShip, page.to_bytes(), env.ctx.span)?;
        let end = Instant::now();
        self.prof.served_ns += nanos(end.duration_since(t));
        self.prof.net_ns += nanos(end.duration_since(resumed));
        Ok(())
    }

    /// Sends `payload` to `to` and, once it is on the mesh, records
    /// the [`SpanKind::Msg`] whose id rode its header, so what the
    /// receiver does for it parents on the message.
    fn send_traced(
        &mut self,
        to: NodeId,
        kind: MsgKind,
        payload: Vec<u8>,
        parent: SpanId,
    ) -> Result<()> {
        let me = self.node.id();
        let bytes = payload.len() as u64;
        let id = self.buf.alloc();
        self.ep
            .send_ctx(to, kind, payload, SpanCtx::child(id, parent))?;
        if !id.is_none() {
            let msg = SpanKind::Msg {
                kind: kind.label(),
                from: me,
                to,
                bytes,
                carries_log: false,
            };
            let at = self.shared.clock.now_us();
            self.buf.emit(Span::point(id, at, me, parent, msg));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::Psn;

    fn pid(owner: u32, index: u32) -> PageId {
        PageId::new(NodeId(owner), index)
    }

    fn wplan(client: u32, stream: usize, writes: &[(PageId, usize, u64)]) -> TxnPlan {
        TxnPlan {
            client: NodeId(client),
            stream,
            ops: writes
                .iter()
                .map(|&(pid, slot, value)| PlanOp::Write { pid, slot, value })
                .collect(),
            abort: false,
        }
    }

    #[test]
    fn two_threaded_nodes_commit_locally() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        let plans = vec![
            wplan(0, 0, &[(pid(0, 0), 0, 11)]),
            wplan(1, 0, &[(pid(1, 0), 0, 22)]),
        ];
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 2);
        assert_eq!(report.forced_aborts, 0);
        let stats = tc.last_stats().unwrap();
        assert_eq!(
            stats.msgs, 0,
            "the mesh counted no message: commits are local"
        );
        assert!(stats.forces >= 2, "each commit forced its local log");

        let img = tc.page_image(pid(0, 0)).unwrap();
        let page = Page::from_bytes(img).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 11);
    }

    #[test]
    fn remote_read_crosses_the_mesh() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        // Node 0 commits a value; then node 1 reads it remotely.
        let report = tc.run(&[wplan(0, 0, &[(pid(0, 3), 2, 77)])]).unwrap();
        assert_eq!(report.committed, 1);
        let plans = vec![TxnPlan {
            client: NodeId(1),
            stream: 0,
            ops: vec![PlanOp::Read {
                pid: pid(0, 3),
                slot: 2,
            }],
            abort: false,
        }];
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 1);
        let stats = tc.last_stats().unwrap();
        assert_eq!(stats.msgs, 2, "one fetch request, one page ship");
    }

    #[test]
    fn user_abort_rolls_back_on_a_real_thread() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        let setup = tc.run(&[wplan(0, 0, &[(pid(0, 1), 0, 5)])]).unwrap();
        assert_eq!(setup.committed, 1);
        let plans = vec![TxnPlan {
            client: NodeId(0),
            stream: 0,
            ops: vec![PlanOp::Write {
                pid: pid(0, 1),
                slot: 0,
                value: 99,
            }],
            abort: true,
        }];
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 0);
        assert_eq!(report.user_aborts, 1);
        let page = Page::from_bytes(tc.page_image(pid(0, 1)).unwrap()).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 5, "abort undone");
    }

    #[test]
    fn file_backed_wals_sync_for_real() {
        let dir = std::env::temp_dir().join(format!(
            "cblog-rt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![4, 4],
            wal: WalBacking::Dir(dir.clone()),
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        let report = tc
            .run(&[
                wplan(0, 0, &[(pid(0, 0), 0, 1)]),
                wplan(1, 0, &[(pid(1, 0), 0, 2)]),
            ])
            .unwrap();
        assert_eq!(report.committed, 2);
        assert!(dir.join("node0.wal").exists());
        assert!(dir.join("node1.wal").exists());
        assert!(
            std::fs::metadata(dir.join("node0.wal")).unwrap().len() > 0,
            "commit records reached the file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn window_policy_batches_forces_across_lanes() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![16],
            group_commit: GroupCommitPolicy::Window {
                window_us: 2_000,
                max_batch: 4,
            },
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        // 4 lanes × 4 txns, each lane on its own page: commits park
        // together, so forces come out well below one per commit.
        let mut plans = Vec::new();
        for lane in 0..4usize {
            for t in 0..4u64 {
                plans.push(wplan(0, lane, &[(pid(0, lane as u32), 0, t + 1)]));
            }
        }
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 16);
        let stats = tc.last_stats().unwrap();
        assert!(
            stats.forces <= 8,
            "expected batched forces, got {} for 16 commits",
            stats.forces
        );
        assert_eq!(stats.msgs, 0, "batched commits send nothing either");
        assert_eq!(
            tc.latency_samples().count(),
            16,
            "every commit's latency was recorded"
        );
    }

    #[test]
    fn a_lone_lane_is_forced_at_once_not_at_the_window_deadline() {
        // One lane: while its commit is parked nobody can submit
        // another, so the adaptive window (which settles at its 2 ms
        // maximum when commits arrive a window apart) must not be
        // waited out. Each commit is forced as soon as it parks.
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![16],
            group_commit: GroupCommitPolicy::Adaptive {
                min_window_us: 50,
                max_window_us: 2_000,
                target_batch: 8,
            },
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        let plans: Vec<_> = (0..200u64)
            .map(|t| wplan(0, 0, &[(pid(0, 0), 0, t + 1)]))
            .collect();
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 200);
        let stats = tc.last_stats().unwrap();
        assert_eq!(stats.forces, 200, "a batch of one per commit");
        assert!(
            stats.wall_us < 100_000,
            "200 lone commits took {} us: the worker slept on the window",
            stats.wall_us
        );
    }

    /// Slot 0 of node 0's page `index`, as `page_image` has it.
    fn slot0(tc: &mut ThreadCluster, index: u32) -> u64 {
        let image = tc.page_image(pid(0, index)).unwrap();
        Page::from_bytes(image).unwrap().read_slot(0).unwrap()
    }

    /// Crashes node 0 and recovers it.
    fn crash_and_recover(tc: &mut ThreadCluster) {
        tc.crash(NodeId(0)).unwrap();
        tc.recover(&RecoveryOptions::single(NodeId(0))).unwrap();
    }

    // ---- a run that fails ----

    /// `run` on a watchdog: the call must return within `limit`.
    fn run_within(
        tc: ThreadCluster,
        plans: Vec<TxnPlan>,
        limit: Duration,
    ) -> (ThreadCluster, Result<RunReport>) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut tc = tc;
            let out = tc.run(&plans);
            let _ = tx.send((tc, out));
        });
        rx.recv_timeout(limit)
            .expect("Runtime::run did not return: a worker is waiting for a peer that failed")
    }

    #[test]
    fn a_failing_worker_ends_the_run_for_its_peers() {
        // Node 0's plan is out of scope (a remote write) and fails at
        // once; node 1 has ordinary work and then waits for node 0's
        // lanes to finish, which they never do.
        let tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        let plans = vec![
            wplan(0, 0, &[(pid(1, 0), 0, 1)]),
            wplan(1, 0, &[(pid(1, 1), 0, 2)]),
            wplan(1, 0, &[(pid(1, 1), 1, 3)]),
        ];
        let (_, out) = run_within(tc, plans, Duration::from_secs(1));
        match out {
            Err(Error::Protocol(m)) => assert!(m.contains("writes remote page"), "{m}"),
            other => panic!("expected the failing worker's Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn a_peer_failure_ends_a_page_fetch_wait() {
        // Node 1 asks node 0 for a page; node 0 fails without serving
        // it. Node 1 must not sit out FETCH_TIMEOUT, and the run's
        // error is node 0's, the cause.
        let tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        let read = TxnPlan {
            client: NodeId(1),
            stream: 0,
            ops: vec![PlanOp::Read {
                pid: pid(0, 0),
                slot: 0,
            }],
            abort: false,
        };
        let plans = vec![wplan(0, 0, &[(pid(1, 0), 0, 1)]), read];
        let (_, out) = run_within(tc, plans, Duration::from_secs(1));
        match out {
            Err(Error::Protocol(m)) => assert!(m.contains("writes remote page"), "{m}"),
            other => panic!("expected the failing worker's Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_run_keeps_the_cluster() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![4],
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        assert_eq!(
            tc.run(&[wplan(0, 0, &[(pid(0, 0), 0, 7)])])
                .unwrap()
                .committed,
            1
        );

        // A plan for a node that does not exist fails before any thread
        // starts; a plan out of scope fails on its worker, after the
        // worker wrote a page of its own.
        let unknown = tc.run(&[wplan(3, 0, &[(pid(0, 0), 0, 8)])]);
        assert!(matches!(unknown, Err(Error::Invalid(_))), "{unknown:?}");
        // Lane 0 parks a commit in the same sweep, so the run fails with
        // a released commit in the log's volatile tail.
        let remote = tc.run(&[
            wplan(0, 0, &[(pid(0, 3), 0, 12)]),
            wplan(0, 1, &[(pid(0, 1), 0, 9), (pid(1, 0), 0, 9)]),
        ]);
        assert!(matches!(remote, Err(Error::Protocol(_))), "{remote:?}");
        assert!(!tc.nodes[0].log().fully_forced());

        assert_eq!(tc.node_count(), 1);
        assert_eq!(slot0(&mut tc, 0), 7, "the earlier commit is still there");
        assert_eq!(
            slot0(&mut tc, 1),
            0,
            "the failed transaction was rolled back"
        );
        tc.trace_check().unwrap();

        // The node the failed worker handed back still runs plans,
        // crashes and recovers. The next worker starts by forcing the
        // tail it inherited: its ship-force rule knows nothing of the
        // commits in it.
        assert_eq!(
            tc.run(&[wplan(0, 0, &[(pid(0, 1), 0, 10)])])
                .unwrap()
                .committed,
            1
        );
        assert_eq!(
            tc.last_stats().unwrap().forces,
            2,
            "the inherited tail, then the run's one commit"
        );
        crash_and_recover(&mut tc);
        assert_eq!(slot0(&mut tc, 0), 7);
        assert_eq!(slot0(&mut tc, 1), 10);
        assert_eq!(slot0(&mut tc, 3), 12, "parked, never acked, durable");
        assert_eq!(
            tc.run(&[wplan(0, 0, &[(pid(0, 2), 0, 11)])])
                .unwrap()
                .committed,
            1
        );
    }

    #[test]
    fn a_failed_force_fails_the_run_acks_nothing_and_recovers_to_before_the_batch() {
        use std::sync::atomic::Ordering::SeqCst;
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![4],
            group_commit: GroupCommitPolicy::Window {
                window_us: 1_000_000_000,
                max_batch: 4,
            },
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        // Node 0 again, over a store whose syncs can be made to fail.
        let store = cblog_wal::SyncFaultStore::new(Box::new(MemLogStore::new()));
        let fail_next = store.fail_next_syncs();
        let cfg = tc.nodes[0].config().clone();
        tc.nodes[0] = Node::with_log_store(NodeId(0), cfg, Box::new(store)).unwrap();

        // Four lanes, one page each: a batch of four per force.
        let batch = |value: u64| -> Vec<TxnPlan> {
            (0..4)
                .map(|lane| wplan(0, lane, &[(pid(0, lane as u32), 0, value)]))
                .collect()
        };
        assert_eq!(tc.run(&batch(1)).unwrap().committed, 4);
        assert_eq!(tc.latency_samples().count(), 4);

        fail_next.store(1, SeqCst);
        let out = tc.run(&batch(2));
        assert!(matches!(out, Err(Error::Io(_))), "{out:?}");
        assert_eq!(tc.latency_samples().count(), 4, "no commit was acked");
        assert_eq!(tc.nodes[0].commits(), 4);
        // The sync would succeed now, and must not be tried: the log
        // takes nothing until it has been recovered from its file.
        let out = tc.run(&batch(3));
        assert!(matches!(out, Err(Error::Io(_))), "{out:?}");
        assert_eq!(tc.nodes[0].commits(), 4);

        crash_and_recover(&mut tc);
        for page in 0..4 {
            assert_eq!(
                slot0(&mut tc, page),
                1,
                "page {page}: the value before the batch"
            );
        }
        assert_eq!(tc.run(&batch(4)).unwrap().committed, 4);
        assert_eq!(slot0(&mut tc, 2), 4);
    }

    // ---- the ship-force rule: node 0's worker stepped by hand ----

    /// Node 0 of a two-node cluster under a worker that no thread
    /// runs — the test steps it — and node 1's endpoint to fetch with.
    /// Commits park until a force acknowledges them.
    struct ByHand<'a> {
        w: Worker<'a>,
        peer: ChannelEndpoint,
    }

    fn parking_cluster() -> ThreadCluster {
        ThreadCluster::new(ThreadClusterConfig {
            group_commit: GroupCommitPolicy::Window {
                window_us: 1_000_000_000,
                max_batch: 64,
            },
            ..ThreadClusterConfig::default()
        })
        .unwrap()
    }

    const READER: u64 = u64::MAX;

    impl<'a> ByHand<'a> {
        fn new(tc: &mut ThreadCluster, shared: &'a RunShared) -> Self {
            let mut eps = ChannelMesh::endpoints(2);
            let peer = eps.pop().unwrap();
            let w = Worker::new(
                tc.nodes.remove(0),
                eps.pop().unwrap(),
                Vec::new(),
                shared,
                &tc.cfg,
            );
            ByHand { w, peer }
        }

        /// Runs `plan` up to its parked commit, on a lane of its own as
        /// `run_lanes` would park it, so its ack is timed.
        fn park(&mut self, plan: &TxnPlan) -> TxnId {
            let TxnOutcome::Committing(txn, at) = self.w.run_txn(plan).unwrap() else {
                panic!("the plan did not reach its commit");
            };
            let mut lane = Lane::new(Vec::new());
            lane.waiting = Some((txn, at));
            self.w.parked.push_back(self.w.lanes.len());
            self.w.lanes.push(lane);
            txn
        }

        /// The requester's half of a fetch: the S lock, in the owner's
        /// table, then the request (`run_ops`, `remote_read`).
        fn ask(&self, pid: PageId) {
            assert!(
                self.w
                    .shared
                    .locks_of(pid)
                    .unwrap()
                    .try_acquire(pid, READER, LockMode::Shared),
                "{pid} is X-locked: no reader could ask for it now"
            );
            self.peer
                .send(NodeId(0), MsgKind::LockRequest, encode_pid(pid))
                .unwrap();
        }

        /// The shipped image's slot 0, once the worker has served.
        fn shipped(&self, pid: PageId) -> u64 {
            let env = self.peer.try_recv().expect("a page ship");
            assert_eq!(env.kind, MsgKind::PageShip);
            let page = Page::from_bytes(env.payload).unwrap();
            assert_eq!(page.id(), pid);
            self.w.shared.locks_of(pid).unwrap().release(pid, READER);
            page.read_slot(0).unwrap()
        }

        /// One whole fetch of `pid`: the value shipped, and the forces
        /// serving it cost.
        fn fetch(&mut self, pid: PageId) -> (u64, u64) {
            let forces = self.w.node.log().forces();
            self.ask(pid);
            self.w.serve_inbox().unwrap();
            (self.shipped(pid), self.w.node.log().forces() - forces)
        }

        /// Hands node and spans back, as the end of a run does.
        fn give_back(self, tc: &mut ThreadCluster) {
            tc.nodes.insert(0, self.w.node);
            tc.trace.absorb(vec![self.w.buf]);
        }
    }

    /// The `GroupForce` spans of the cluster trace, as `(txns, bytes)`.
    fn group_forces(tc: &ThreadCluster) -> Vec<(u64, u64)> {
        let spans = tc.trace().spans();
        spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::GroupForce { txns, bytes, .. } => Some((txns, bytes)),
                _ => None,
            })
            .collect()
    }

    /// T1 writes P and parks; P is fetched; T2 writes Q and parks; P is
    /// fetched again. Asserts the first ship forced and the second did
    /// not.
    fn ship_p_twice(h: &mut ByHand, p: PageId, q: PageId) {
        h.park(&wplan(0, 0, &[(p, 0, 11)]));
        let (value, forces) = h.fetch(p);
        assert_eq!((value, forces), (11, 1), "T1 is released and undurable");
        h.park(&wplan(0, 1, &[(q, 0, 22)]));
        assert!(!h.w.node.log().fully_forced(), "T2 is in the tail");
        let (value, forces) = h.fetch(p);
        assert_eq!(
            (value, forces),
            (11, 0),
            "every released writer of P is durable: T2's tail is not P's business"
        );
    }

    #[test]
    fn a_ship_forces_only_for_a_released_undurable_writer_of_that_page() {
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let (p, q, r) = (pid(0, 0), pid(0, 1), pid(0, 2));
        let start = h.w.node.log().bytes_written();

        ship_p_twice(&mut h, p, q);
        let (value, forces) = h.fetch(q);
        assert_eq!((value, forces), (22, 1), "T2 wrote Q and is undurable");
        let (_, forces) = h.fetch(q);
        assert_eq!(forces, 0, "that force covered it");

        // The ship forces acknowledged T1 and T2; a batch force
        // acknowledges T3.
        h.park(&wplan(0, 2, &[(r, 0, 33)]));
        h.w.force().unwrap();
        assert_eq!(h.w.report.committed, 3);
        let (_, forces) = h.fetch(r);
        assert_eq!(forces, 0, "the batch force cleared the rule's state");
        let grown = h.w.node.log().bytes_written() - start;
        h.give_back(&mut tc);
        let forced = group_forces(&tc);
        let acked: Vec<u64> = forced.iter().map(|&(txns, _)| txns).collect();
        assert_eq!(acked, [1, 1, 1], "two ship forces and a batch force");
        assert_eq!(
            forced.iter().map(|&(_, bytes)| bytes).sum::<u64>(),
            grown,
            "every log byte was forced once, and every force is one span"
        );
        tc.trace_check().unwrap();
    }

    #[test]
    fn a_ship_force_acknowledges_the_commits_it_made_durable() {
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let p = pid(0, 0);
        let samples = shared.samples.count();

        let t1 = h.park(&wplan(0, 0, &[(p, 0, 11)]));
        let (value, forces) = h.fetch(p);
        assert_eq!((value, forces), (11, 1));
        assert_eq!(h.w.report.committed, 1, "the ship force acknowledged T1");
        assert_eq!(h.w.sched.pending_len(), 0);
        assert!(
            matches!(h.w.node.forget(t1), Err(Error::NoSuchTxn(_))),
            "the node forgot T1"
        );
        assert_eq!(shared.samples.count(), samples + 1, "T1's latency");

        // A force with nothing appended writes nothing and acks nothing.
        let bytes = h.w.node.log().bytes_written();
        h.w.force().unwrap();
        assert_eq!(h.w.node.log().bytes_written(), bytes);
        assert_eq!(h.w.report.committed, 1);
        assert_eq!(shared.samples.count(), samples + 1);
        h.give_back(&mut tc);
        assert_eq!(group_forces(&tc).len(), 1, "one span, the ship force's");
        tc.trace_check().unwrap();
    }

    #[test]
    fn a_ship_of_a_page_not_asked_for_fails_the_transaction() {
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let (p, asked, stray) = (pid(0, 0), pid(1, 0), pid(1, 1));
        // Node 1's replies, the mis-routed one first.
        for shipped in [stray, asked] {
            let page = Page::new(shipped, cblog_storage::PageKind::Raw, Psn::ZERO, 1024);
            h.peer
                .send(NodeId(0), MsgKind::PageShip, page.to_bytes())
                .unwrap();
        }
        let mut plan = wplan(0, 0, &[(p, 0, 11)]);
        plan.ops.push(PlanOp::Read {
            pid: asked,
            slot: 0,
        });
        match h.w.run_txn(&plan) {
            Err(Error::Protocol(m)) => {
                assert!(
                    m.contains(&format!("fetched {asked} but got {stray}")),
                    "{m}"
                )
            }
            Err(e) => panic!("expected a Protocol error, got {e}"),
            Ok(_) => panic!("a mis-routed ship went unnoticed"),
        }
        // The failed transaction is the one before the next to begin.
        let next = h.w.node.begin().unwrap();
        assert!(
            matches!(
                h.w.node.forget(TxnId::new(next.node, next.seq - 1)),
                Err(Error::NoSuchTxn(_))
            ),
            "rolled back and forgotten"
        );
        assert_eq!(h.w.node.peek_slot(p, 0), Some(0), "the write was undone");
        assert!(
            shared
                .locks_of(p)
                .unwrap()
                .try_acquire(p, READER, LockMode::Exclusive),
            "the transaction's locks are released"
        );
        h.give_back(&mut tc);
        tc.trace_check().unwrap();
    }

    #[test]
    fn a_lock_lives_at_its_owner() {
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let p = pid(0, 0);
        let (at_owner, at_reader) = (
            shared.locks_of(p).unwrap(),
            shared.locks_of(pid(1, 0)).unwrap(),
        );

        h.ask(p);
        assert_eq!(
            at_owner.locked_pages(),
            1,
            "node 1's S lock is in node 0's table"
        );
        assert_eq!(
            at_reader.locked_pages(),
            0,
            "node 1's own table holds no page"
        );
        let writer = wplan(0, 0, &[(p, 0, 11)]);
        assert!(
            matches!(h.w.run_txn(&writer).unwrap(), TxnOutcome::Retry),
            "node 0's writer conflicts with the remote reader's S lock"
        );
        assert_eq!(h.w.report.forced_aborts, 1);

        // The writer's spin served the fetch: the reader gets the page
        // as it was, and drops its lock.
        assert_eq!(h.shipped(p), 0);
        assert_eq!(at_owner.locked_pages(), 0);
        h.park(&writer);
        h.w.force().unwrap();
        assert_eq!(
            h.w.report.committed, 1,
            "the writer commits once the lock is gone"
        );
        assert_eq!(at_owner.locked_pages(), 0, "released at commit_begin");
        h.give_back(&mut tc);
        tc.trace_check().unwrap();
    }

    #[test]
    fn a_crash_after_an_unforced_ship_keeps_what_was_shipped() {
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let (p, q) = (pid(0, 0), pid(0, 1));
        ship_p_twice(&mut h, p, q);
        h.give_back(&mut tc);
        crash_and_recover(&mut tc);
        assert_eq!(slot0(&mut tc, 0), 11, "P as it was shipped");
        assert_eq!(slot0(&mut tc, 1), 0, "T2 was never durable: nobody saw Q");
    }

    #[test]
    fn a_durable_update_with_an_undurable_commit_still_forces_the_ship() {
        // The schedule that separates the rule from "the page's last
        // update record is durable". T0 wrote Q and parked. T1 updates
        // P and then reads a page of node 1; while it waits, a fetch of
        // Q is served and forces the log — T1's update record is
        // durable now, under T1's X lock. T1 then appends its commit
        // record and releases P. A reader of P is about to see T1's
        // value, and nothing of T1's commit is on disk.
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let (p, q, remote) = (pid(0, 0), pid(0, 1), pid(1, 0));
        h.park(&wplan(0, 0, &[(q, 0, 22)]));

        // Node 1's side of T1's wait, queued in link order: the fetch
        // of Q, then the reply to T1's own fetch.
        h.ask(q);
        let reply = Page::new(remote, cblog_storage::PageKind::Raw, Psn::ZERO, 1024);
        h.peer
            .send(NodeId(0), MsgKind::PageShip, reply.to_bytes())
            .unwrap();
        let mut t1 = wplan(0, 1, &[(p, 0, 11)]);
        t1.ops.push(PlanOp::Read {
            pid: remote,
            slot: 0,
        });
        let forces = h.w.node.log().forces();
        h.park(&t1);
        let fetch = h.peer.try_recv().expect("T1's fetch reached node 1");
        assert_eq!(fetch.kind, MsgKind::LockRequest);
        assert_eq!(h.shipped(q), 22);
        assert_eq!(
            h.w.node.log().forces(),
            forces + 1,
            "the ship of Q forced T1's update"
        );

        let (value, forces) = h.fetch(p);
        assert_eq!(value, 11);
        assert_eq!(forces, 1, "T1 released P and its commit is not durable");
        h.give_back(&mut tc);
        crash_and_recover(&mut tc);
        assert_eq!(
            slot0(&mut tc, 0),
            11,
            "the reader saw 11: no crash undoes it"
        );
    }

    // ---- recovery against the simulator (see also tests/equivalence.rs;
    // these need a node's checkpoint, which has no public handle) ----

    const REC_OWNED: [u32; 2] = [4, 4];

    /// `rounds` transactions per page, each writing its one page
    /// `writes` times: no transaction spans pages.
    fn chain_plans(first_round: u64, rounds: u64, writes: u64) -> Vec<TxnPlan> {
        let mut plans = Vec::new();
        for (node, &pages) in REC_OWNED.iter().enumerate() {
            for round in first_round..first_round + rounds {
                for page in 0..pages {
                    let writes: Vec<_> = (0..writes)
                        .map(|w| {
                            let value = 1_000_000 * node as u64 + 1_000 * round + w;
                            (pid(node as u32, page), ((round + w) % 8) as usize, value)
                        })
                        .collect();
                    plans.push(wplan(node as u32, 0, &writes));
                }
            }
        }
        plans
    }

    fn rec_pages() -> Vec<PageId> {
        (0..2)
            .flat_map(|o| (0..REC_OWNED[o as usize]).map(move |i| pid(o, i)))
            .collect()
    }

    /// Run `before`, checkpoint every node, run `after`, crash every
    /// node, recover — on the simulator, replaying serially.
    fn sim_oracle(before: &[TxnPlan], after: &[TxnPlan]) -> Vec<Vec<u8>> {
        use cblog_core::{Cluster, ClusterConfig};
        let cfg = ClusterConfig::builder().owned_pages(REC_OWNED.to_vec());
        let mut sim = Cluster::new(cfg.build()).unwrap();
        Runtime::run(&mut sim, before).unwrap();
        for n in 0..2 {
            sim.checkpoint(NodeId(n)).unwrap();
        }
        Runtime::run(&mut sim, after).unwrap();
        for n in 0..2 {
            sim.crash(NodeId(n));
        }
        let opts = RecoveryOptions::nodes(&[NodeId(0), NodeId(1)]);
        cblog_core::recover(&mut sim, &opts).unwrap();
        rec_pages()
            .iter()
            .map(|&p| Runtime::page_image(&mut sim, p).unwrap())
            .collect()
    }

    /// The same on threads under `mode`. Also returns, per node, the
    /// checkpoint LSN and the lowest RedoLSN it snapshotted.
    fn rt_recovered(
        before: &[TxnPlan],
        after: &[TxnPlan],
        mode: cblog_core::ReplayMode,
    ) -> (RecoveryReport, Vec<Vec<u8>>, Vec<(Lsn, Lsn)>) {
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: REC_OWNED.to_vec(),
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        tc.run(before).unwrap();
        let mut anchors = Vec::new();
        for n in 0..2 {
            let node = tc.node_mut(NodeId(n)).unwrap();
            let low = node.dpt().min_redo_lsn().expect("pages are dirty");
            anchors.push((node.checkpoint().unwrap(), low));
        }
        tc.run(after).unwrap();
        for n in 0..2 {
            tc.crash(NodeId(n)).unwrap();
        }
        let opts = RecoveryOptions::nodes(&[NodeId(0), NodeId(1)]).replay(mode);
        let report = tc.recover(&opts).unwrap();
        let images = rec_pages()
            .iter()
            .map(|&p| tc.page_image(p).unwrap())
            .collect();
        (report, images, anchors)
    }

    #[test]
    fn recovery_across_a_mid_log_checkpoint_matches_the_simulator() {
        // Pages dirtied before the checkpoint stay dirty across it, so
        // analysis starts at the checkpoint while the PSN-list + redo
        // pass starts below it, at the snapshotted RedoLSNs.
        use cblog_core::ReplayMode;
        let (before, after) = (chain_plans(0, 3, 2), chain_plans(3, 3, 2));
        let oracle = sim_oracle(&before, &after);
        let per_page = 2 * (3 + 3);
        for mode in [
            ReplayMode::Serial,
            ReplayMode::Parallel { workers: 2 },
            ReplayMode::Parallel { workers: 4 },
        ] {
            let (report, images, anchors) = rt_recovered(&before, &after, mode);
            for (ckpt, low) in anchors {
                assert!(low < ckpt, "redo must start below the checkpoint");
            }
            assert_eq!(images, oracle, "{mode:?} diverged from the simulator");
            assert_eq!(report.pages_recovered, rec_pages().len());
            assert_eq!(
                report.records_replayed,
                per_page * rec_pages().len() as u64,
                "{mode:?}: records from below the checkpoint replay too"
            );
        }
    }

    #[test]
    fn recovery_refuses_a_log_that_updates_another_nodes_page() {
        // Node 1's log carries an update of node 0's page, which no
        // plan here can write. Whether node 0 crashed too or not, the
        // restart fails naming the record, before any page is written.
        let foreign = pid(0, 1);
        for crashed in [&[NodeId(1)][..], &[NodeId(0), NodeId(1)]] {
            let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
            let plans = [
                wplan(0, 0, &[(foreign, 0, 5)]),
                wplan(1, 0, &[(pid(1, 0), 0, 6)]),
            ];
            tc.run(&plans).unwrap();
            let image = Page::from_bytes(tc.page_image(foreign).unwrap()).unwrap();
            let node = tc.node_mut(NodeId(1)).unwrap();
            let t = node.begin().unwrap();
            node.cache_page(image, false).unwrap();
            let (_, at) = node.log_write(t, foreign, 8, &7u64.to_le_bytes()).unwrap();
            node.commit_begin(t).unwrap();
            node.force_log().unwrap();
            for &c in crashed {
                tc.crash(c).unwrap();
            }
            let images = |tc: &mut ThreadCluster| -> Vec<Vec<u8>> {
                [foreign, pid(1, 0)]
                    .map(|p| tc.page_image(p).unwrap())
                    .to_vec()
            };
            let before = images(&mut tc);
            let opts = RecoveryOptions::nodes(crashed);
            let corrupt = |r: Result<RecoveryReport>| match r {
                Err(Error::Corrupt(m)) => m,
                r => panic!("{crashed:?}: expected Corrupt, got {:?}", r.map(|_| ())),
            };
            let m = corrupt(tc.recover(&opts));
            assert!(m.contains(&format!("at LSN {}", at.0)), "{crashed:?}: {m}");
            assert_eq!(images(&mut tc), before, "{crashed:?}: a page was written");
            // The failed restart leaves every listed node crashed: a
            // second one fails the same way, and no run commits there.
            for &c in crashed {
                assert!(
                    tc.nodes[c.0 as usize].is_crashed(),
                    "{crashed:?}: {c} is up"
                );
            }
            assert_eq!(corrupt(tc.recover(&opts)), m, "{crashed:?}");
            match tc.run(&[wplan(1, 0, &[(pid(1, 0), 0, 8)])]) {
                Err(Error::NodeDown(n)) => assert_eq!(n, NodeId(1), "{crashed:?}"),
                r => panic!("{crashed:?}: expected NodeDown, got {:?}", r.map(|_| ())),
            }
        }
    }

    #[test]
    fn recovery_refuses_options_it_does_not_honour() {
        // A standby, an interrupting crash (torn or not) and the
        // undo sabotage are each refused by name before any node is
        // touched: the node stays crashed, and a plain restart works.
        let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        tc.run(&[wplan(0, 0, &[(pid(0, 0), 0, 5)])]).unwrap();
        tc.crash(NodeId(0)).unwrap();
        let one = || RecoveryOptions::single(NodeId(0));
        for (opts, name) in [
            (one().with_standby(NodeId(1)), "with_standby"),
            (one().crash_after(RecoveryPhase::Replay), "crash_after"),
            (one().crash_after_tear(4, true), "crash_after_tear"),
            (one().sabotage_skip_undo(), "sabotage_skip_undo"),
        ] {
            match tc.recover(&opts) {
                Err(Error::Invalid(m)) => assert!(m.contains(name), "{name}: {m}"),
                r => panic!("{name}: expected Invalid, got {:?}", r.map(|_| ())),
            }
            assert!(tc.nodes[0].is_crashed(), "{name}: node 0 was touched");
        }
        tc.recover(&one()).unwrap();
        assert_eq!(slot0(&mut tc, 0), 5);
    }
}
