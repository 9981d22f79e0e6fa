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
//!   MPL transaction streams, parking a stream that waits on a page
//!   ship or a lock while it runs the others and serves its inbox;
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
/// deliberately not attributed to any bucket. While lanes run, a worker
/// with no lane able to step blocks on its inbox if a lane waits on a
/// ship, which is `net`, and otherwise yields, which is `lock_wait`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtNodeStats {
    /// Node id.
    pub node: u32,
    /// Worker wall time, µs.
    pub wall_us: u64,
    /// Non-idle worker time: everything the thread did outside
    /// lock-wait yields and idle parks, µs.
    pub busy_us: u64,
    /// Time inside log forces (fsync), µs.
    pub disk_us: u64,
    /// Time in channel sends, page-fetch service and ship delivery,
    /// and blocked on the inbox while a lane waited on a ship, µs.
    pub net_us: u64,
    /// Busy remainder: transaction execution and loop bookkeeping, µs.
    pub cpu_us: u64,
    /// Time yielded while every lane that could not step waited on a
    /// page lock (or was parked on the scheduler), µs.
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

/// Wall time a lane waits on a contended lock, retrying it once a
/// sweep, before its transaction is aborted and its plan retried in
/// place. No longer than a worker's old 20 000-try spin on the lock,
/// which gave up after ~1.7 ms on a 2-vCPU guest.
const LOCK_BUDGET: Duration = Duration::from_millis(1);
/// Retries of one plan after forced aborts before giving up.
const PLAN_RETRIES: usize = 100;
/// Doublings of a plan's retry backoff, to 64 budgets at most.
const BACKOFF_DOUBLINGS: usize = 6;

/// How long a lane waits, holding no lock, before it begins a plan's
/// retry after the plan's `retries`-th forced abort. The first retry
/// begins at once; each later one waits one [`LOCK_BUDGET`] after the
/// second abort, twice that after the third, and so on up to
/// [`BACKOFF_DOUBLINGS`]. Two lanes whose plans lock each other's
/// pages in opposite orders wait on each other until one is aborted.
/// A retry that begins at once takes its first lock again within
/// microseconds, before the other lane's worker can take it if that
/// worker is descheduled on a busy host, and the cycle forms again.
fn retry_backoff(retries: usize) -> Duration {
    match retries {
        0 | 1 => Duration::ZERO,
        r => LOCK_BUDGET * (1 << (r - 2).min(BACKOFF_DOUBLINGS)),
    }
}
/// Patience for a remote page fetch (the owner may be mid-fsync).
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);
/// The longest an idle worker blocks on its inbox while a lane waits
/// on a ship, so a failed peer or a timed-out fetch is noticed.
const SHIP_POLL: Duration = Duration::from_millis(1);
/// The same while a lane also waits on a lock: a lock that another
/// node's reader frees sends no message, so it is retried this soon.
const LOCK_POLL: Duration = Duration::from_micros(50);

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
/// next (`lap`), and after its lanes one per message served. The leaf
/// buckets are measured *inside* those scopes and are disjoint
/// sub-intervals of them. Scopes are summed in ns, because a lane step
/// can be shorter than 1 µs, and converted to µs once, in
/// [`Worker::stats`], where the derived buckets keep the simulator's
/// partition invariant exactly: `busy = outer − lock_wait` and `cpu =
/// busy − disk − net`, so `disk + cpu + net == busy` by construction.
/// An idle worker's block on its inbox while a lane waits on a ship is
/// `net`; its yield while every wait is a lock wait is `lock_wait`.
/// Time parked in `recv_timeout` once its lanes are done (serving
/// stragglers) is idle and deliberately unattributed.
#[derive(Clone, Copy, Debug, Default)]
struct Prof {
    wall_ns: u64,
    outer_ns: u64,
    disk_ns: u64,
    net_ns: u64,
    lock_wait_ns: u64,
}

/// A profiler scope's length in ns.
fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// One MPL lane: its plans run sequentially; the worker interleaves
/// lanes so several commits can park in the force scheduler at once,
/// and so a lane that waits does not stop the others.
struct Lane<'a> {
    plans: Vec<&'a TxnPlan>,
    next: usize,
    state: State,
    retries: usize,
}

impl<'a> Lane<'a> {
    fn new(plans: Vec<&'a TxnPlan>) -> Self {
        Lane {
            plans,
            next: 0,
            state: State::Idle,
            retries: 0,
        }
    }

    /// Every plan has ended: no transaction, no parked commit, no plan.
    fn done(&self) -> bool {
        matches!(self.state, State::Idle) && self.next == self.plans.len()
    }

    /// A sweep steps the lane: it is neither parked nor waiting on a
    /// ship (a lock wait is retried, a backoff checked).
    fn can_step(&self) -> bool {
        !matches!(
            self.state,
            State::Parked(..)
                | State::InFlight(InFlight {
                    wait: Wait::Ship { .. },
                    ..
                })
        )
    }
}

/// Where a lane's current plan is.
#[derive(Clone, Copy, Debug)]
enum State {
    /// No transaction: the lane's next step begins its next plan.
    Idle,
    /// No transaction: the plan's retry after a forced abort begins at
    /// the first step from the time on ([`retry_backoff`]).
    Backoff(Instant),
    /// A transaction that blocked, kept with its locks until the lane
    /// steps it again.
    InFlight(InFlight),
    /// The commit record is appended and the commit parked in the
    /// scheduler since the time.
    Parked(TxnId, SimTime),
}

/// A transaction between its begin and its parked commit or its end.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    txn: TxnId,
    /// The plan op it runs next.
    op: usize,
    span: SpanId,
    /// Its start, read only if its span is recorded.
    start: Option<SimTime>,
    wait: Wait,
}

/// What a transaction waits on before its next op can run.
#[derive(Clone, Copy, Debug)]
enum Wait {
    /// Nothing: the lane can step.
    Nothing,
    /// The ship of `pid`, a remote page whose `slot` the op reads, from
    /// its owner; the run fails if none has come by `until`.
    Ship {
        pid: PageId,
        slot: usize,
        until: Instant,
    },
    /// The op's page lock; the transaction is aborted if the lock is
    /// still not taken at `until`.
    Lock { until: Instant },
}

/// Where a lane step's ops stopped.
enum Stop {
    /// Every op ran.
    Done,
    /// An op waits on what its transaction's [`Wait`] says.
    Blocked,
    /// An op's lock outlasted [`LOCK_BUDGET`].
    OutOfBudget,
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
    /// The lanes waiting on a ship, in the order they asked. A link
    /// delivers in send order and an owner serves its fetches in
    /// arrival order, so a ship is the answer to the oldest of them
    /// that asked its sender.
    fetches: VecDeque<usize>,
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
            fetches: VecDeque::new(),
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
    /// for all, and rolls back every transaction in flight on the
    /// worker's lanes ([`Worker::end_in_flight`]).
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
            // Only the first failure is the run's error; a later one,
            // a failed rollback here included, is its consequence.
            let _ = self.shared.failed.set(e);
            let _ = self.end_in_flight();
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

    /// Sweeps the lanes until every plan has ended in a durable commit
    /// or an abort. A sweep steps each lane that can step until its
    /// transaction parks its commit, ends or blocks ([`Worker::step`]);
    /// a blocked lane keeps its locks while the worker goes on to its
    /// other lanes, its inbox and its forces.
    fn run_lanes(&mut self) -> Result<()> {
        // The profiler's scopes here follow one another, one per lane
        // step: each ends at the clock reading that starts the next, and
        // inbox service, forces and idle waits fall into the step after
        // them.
        let mut mark = Instant::now();
        // The scheduler starts empty, so it knows no parked commit of a
        // log tail. A run that failed leaves its parked commits released
        // and unforced; force them before the first fetch is served.
        if !self.node.log().fully_forced() {
            self.force()?;
        }
        // Every live lane was parked on the scheduler after the last
        // sweep: none waits on a ship or a lock, and none just ended in
        // an abort. Only a lane can submit a commit, so nobody can join
        // the batch before a force acks part of it, and holding the
        // window open to its deadline buys nothing.
        let mut all_parked = false;
        loop {
            self.peers_ok()?;
            self.serve_inbox()?;
            if all_parked || self.sched.is_due(self.shared.clock.now_us()) {
                self.force()?;
            }

            all_parked = true;
            let (mut live, mut ready, mut locked) = (false, false, false);
            for li in 0..self.lanes.len() {
                let lane = &self.lanes[li];
                if lane.done() {
                    continue;
                }
                live = true;
                if lane.can_step() {
                    self.step(li)?;
                    self.lap(&mut mark);
                }
                match self.lanes[li].state {
                    State::Parked(..) => {}
                    State::InFlight(InFlight {
                        wait: Wait::Lock { .. },
                        ..
                    })
                    | State::Backoff(_) => (all_parked, locked) = (false, true),
                    State::InFlight(_) => all_parked = false,
                    State::Idle => (all_parked, ready) = (false, true),
                }
            }
            if !live {
                // A parked commit keeps its lane live until it is acked.
                debug_assert_eq!(self.sched.pending_len(), 0);
                self.lap(&mut mark);
                return Ok(());
            }
            if !all_parked && !ready {
                self.idle(locked)?;
            }
        }
    }

    /// Waits once no lane can step and not every live lane is parked:
    /// some lane waits on a ship or a lock. With a ship outstanding the
    /// worker blocks on its inbox — up to a poll ([`SHIP_POLL`], or
    /// [`LOCK_POLL`] if a lane also waits on a lock), and never past
    /// the scheduler's deadline — and handles what arrives; the block is
    /// `net`. With only lock waits it yields once; the yield is
    /// `lock_wait`. The oldest fetch fails the run here once it is
    /// older than [`FETCH_TIMEOUT`].
    fn idle(&mut self, locked: bool) -> Result<()> {
        let t = Instant::now();
        let Some(&li) = self.fetches.front() else {
            std::thread::yield_now();
            self.prof.lock_wait_ns += nanos(t.elapsed());
            return Ok(());
        };
        if let State::InFlight(InFlight {
            wait: Wait::Ship { pid, until, .. },
            ..
        }) = self.lanes[li].state
        {
            if t >= until {
                return Err(Error::Protocol(format!("page fetch of {pid} timed out")));
            }
        }
        let mut poll = if locked { LOCK_POLL } else { SHIP_POLL };
        if let Some(due) = self.sched.deadline() {
            let left = due.saturating_sub(self.shared.clock.now_us());
            poll = poll.min(Duration::from_micros(left));
        }
        let env = self.ep.recv_timeout(poll);
        self.prof.net_ns += nanos(t.elapsed());
        match env {
            Some(env) => self.handle(env),
            None => Ok(()),
        }
    }

    /// Serves page fetches until every node's lanes are done.
    fn serve_peers(&mut self) -> Result<()> {
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            self.peers_ok()?;
            if let Some(env) = self.ep.recv_timeout(Duration::from_micros(500)) {
                // Each message is a top-level scope here, timed by itself.
                let t = Instant::now();
                self.handle(env)?;
                self.prof.outer_ns += nanos(t.elapsed());
            }
        }
        Ok(())
    }

    /// Steps lane `li` until its transaction parks its commit, ends —
    /// in a user abort, or in a forced abort whose plan the lane
    /// retries — or blocks on a ship or a lock; a lane that backs off
    /// does nothing until its time has come. The ops run in one
    /// local loop, and the lane's state is written only when its
    /// transaction blocks, parks or ends. An error leaves the
    /// transaction in the lane for the failed run's way out to roll
    /// back ([`Worker::end_in_flight`]).
    ///
    /// The transaction's span says `committed: true` from
    /// `commit_begin` on: the commit record exists and its force is
    /// scheduled, and `run_lanes` does not return with a commit parked.
    fn step(&mut self, li: usize) -> Result<()> {
        let lane = &self.lanes[li];
        let (plan, state) = (lane.plans[lane.next], lane.state);
        if let State::Backoff(until) = state {
            if Instant::now() < until {
                return Ok(());
            }
        }
        let mut t = match state {
            State::InFlight(t) => t,
            _ => self.begin()?,
        };
        let stop = match self.run_ops(plan, &mut t) {
            Ok(Stop::Blocked) => {
                if let Wait::Ship { .. } = t.wait {
                    self.fetches.push_back(li);
                }
                self.lanes[li].state = State::InFlight(t);
                return Ok(());
            }
            Ok(stop) => stop,
            Err(e) => return Err(self.keep(li, t, e)),
        };
        let txn = t.txn;
        let (end, committed) = if matches!(stop, Stop::Done) && !plan.abort {
            let lsn = self
                .node
                .commit_begin(txn)
                .map_err(|e| self.keep(li, t, e))?;
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
            self.parked.push_back(li);
            let lane = &mut self.lanes[li];
            lane.state = State::Parked(txn, now);
            lane.retries = 0;
            (now, true)
        } else {
            let undone = roll_back(&mut self.node, txn);
            self.release_locks(plan, txn);
            let lane = &mut self.lanes[li];
            lane.state = State::Idle;
            undone?;
            if matches!(stop, Stop::Done) {
                self.report.user_aborts += 1;
                lane.next += 1;
                lane.retries = 0;
            } else {
                self.report.forced_aborts += 1;
                lane.retries += 1;
                if lane.retries > PLAN_RETRIES {
                    return Err(Error::Protocol(format!(
                        "{} lane {} livelocked on plan {}",
                        self.node.id(),
                        plan.stream,
                        lane.next
                    )));
                }
                let backoff = retry_backoff(lane.retries);
                if !backoff.is_zero() {
                    lane.state = State::Backoff(Instant::now() + backoff);
                }
            }
            (t.start.map_or(0, |_| self.shared.clock.now_us()), false)
        };
        if let Some(start) = t.start {
            self.buf.emit(Span {
                id: t.span,
                parent: SpanId::NONE,
                node: self.node.id(),
                start,
                dur: end.saturating_sub(start),
                kind: SpanKind::Txn { txn, committed },
            });
        }
        Ok(())
    }

    /// Leaves `t` in lane `li`, for the failed run's way out to roll
    /// back, and passes on the error `e` that stopped it.
    fn keep(&mut self, li: usize, t: InFlight, e: Error) -> Error {
        self.lanes[li].state = State::InFlight(t);
        e
    }

    /// Begins a transaction for a lane's next plan.
    fn begin(&mut self) -> Result<InFlight> {
        let txn = self.node.begin()?;
        let span = self.buf.alloc();
        // The clock is read for a span only if the span is recorded;
        // the commit's reading is the scheduler's and the ack's.
        let start = (!span.is_none()).then(|| self.shared.clock.now_us());
        Ok(InFlight {
            txn,
            op: 0,
            span,
            start,
            wait: Wait::Nothing,
        })
    }

    /// Locks and executes the plan's ops in order from `t.op`, until
    /// every op has run or one must wait. A lock that `try_acquire`
    /// refuses is a lock wait, which gets [`LOCK_BUDGET`] from its
    /// first refusal. A remote read takes its S lock in the owner's
    /// table, sends the fetch and waits on the ship; [`Worker::deliver`]
    /// completes the op. The fetch is traced as a [`SpanKind::Msg`]
    /// whose id rides the envelope header, so the owner's Transfer/ship
    /// spans parent on it and the causal chain crosses the mesh exactly
    /// as in the simulator; its send is `net`.
    fn run_ops(&mut self, plan: &TxnPlan, t: &mut InFlight) -> Result<Stop> {
        let me = self.node.id();
        let token = token_of(t.txn);
        while let Some(op) = plan.ops.get(t.op) {
            let (pid, mode) = match *op {
                PlanOp::Read { pid, .. } => (pid, LockMode::Shared),
                PlanOp::Write { pid, .. } => (pid, LockMode::Exclusive),
            };
            if mode == LockMode::Exclusive && pid.owner != me {
                return Err(Error::Protocol(format!(
                    "{me} plan writes remote page {pid}: the threaded runtime only writes owned pages"
                )));
            }
            if !self.shared.locks_of(pid)?.try_acquire(pid, token, mode) {
                let now = Instant::now();
                return Ok(match t.wait {
                    Wait::Lock { until } if now >= until => Stop::OutOfBudget,
                    Wait::Lock { .. } => Stop::Blocked,
                    _ => {
                        t.wait = Wait::Lock {
                            until: now + LOCK_BUDGET,
                        };
                        Stop::Blocked
                    }
                });
            }
            t.wait = Wait::Nothing;
            match *op {
                PlanOp::Read { pid, slot } if pid.owner == me => {
                    on_cached(&mut self.node, pid, |node| {
                        node.peek_slot(pid, slot).ok_or(Error::NoSuchPage(pid))
                    })?;
                }
                PlanOp::Read { pid, slot } => {
                    let sent = Instant::now();
                    self.send_traced(pid.owner, MsgKind::LockRequest, encode_pid(pid), t.span)?;
                    let now = Instant::now();
                    self.prof.net_ns += nanos(now.duration_since(sent));
                    let until = now + FETCH_TIMEOUT;
                    t.wait = Wait::Ship { pid, slot, until };
                    return Ok(Stop::Blocked);
                }
                PlanOp::Write { pid, slot, value } => {
                    let after = value.to_le_bytes();
                    // The PSN is the page's just before the update: the
                    // edge the watchdog checks.
                    let (psn_before, lsn) = on_cached(&mut self.node, pid, |node| {
                        node.log_write(t.txn, pid, slot * 8, &after)
                    })?;
                    if self.buf.is_enabled() {
                        self.buf.point(
                            self.shared.clock.now_us(),
                            me,
                            t.span,
                            SpanKind::Update {
                                pid,
                                txn: t.txn,
                                psn: psn_before,
                                lsn,
                                clr: false,
                            },
                        );
                    }
                }
            }
            t.op += 1;
            self.report.ops_executed += 1;
        }
        Ok(Stop::Done)
    }

    /// Rolls back every transaction in flight on this worker's lanes
    /// and releases its locks, so that a failed run leaves no active
    /// transaction on the node and no lock in any table. Each lane's
    /// rollback is tried; the first error is returned.
    fn end_in_flight(&mut self) -> Result<()> {
        self.fetches.clear();
        let mut first = Ok(());
        for li in 0..self.lanes.len() {
            let lane = &mut self.lanes[li];
            let State::InFlight(t) = lane.state else {
                continue;
            };
            lane.state = State::Idle;
            let plan = lane.plans[lane.next];
            let undone = roll_back(&mut self.node, t.txn);
            self.release_locks(plan, t.txn);
            first = first.and(undone);
        }
        first
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
            match std::mem::replace(&mut lane.state, State::Idle) {
                State::Parked(parked, at) if parked == txn => {
                    lane.next += 1;
                    let now = self.shared.clock.now_us();
                    self.shared.samples.record(now.saturating_sub(at));
                }
                other => {
                    return Err(Error::Protocol(format!(
                        "{txn} acknowledged, but lane {li} is {other:?}"
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

    fn serve_inbox(&mut self) -> Result<()> {
        while let Some(env) = self.ep.try_recv() {
            self.handle(env)?;
        }
        Ok(())
    }

    /// Handles one message: a fetch is served, a ship delivered.
    fn handle(&mut self, env: Envelope) -> Result<()> {
        match env.kind {
            MsgKind::LockRequest => self.serve(env),
            MsgKind::PageShip => self.deliver(env),
            kind => Err(Error::Protocol(format!(
                "threaded runtime got unexpected {kind:?} message"
            ))),
        }
    }

    /// Requester-side delivery: hands a ship to the oldest lane that
    /// asked its sender for a page, and reads that lane's slot; the read
    /// op is done and the lane can step again. The image is used once
    /// and dropped — without callback locking there is no safe way to
    /// keep it cached past the transaction's S lock. A ship of a page
    /// other than the one the lane asked for, or that no lane asked
    /// for, fails the run rather than lose it. The delivery is `net`.
    fn deliver(&mut self, env: Envelope) -> Result<()> {
        let t = Instant::now();
        let page = Page::from_bytes(env.payload)?;
        let me = self.node.id();
        let lanes = &mut self.lanes;
        let asked = |li: &usize| match lanes[*li].state {
            State::InFlight(InFlight {
                wait: Wait::Ship { pid, .. },
                ..
            }) => pid.owner == env.from,
            _ => false,
        };
        let li = match self.fetches.iter().position(asked) {
            Some(at) => self.fetches.remove(at).expect("a position in the queue"),
            None => {
                let got = page.id();
                return Err(Error::Protocol(format!(
                    "{me} got {got}, which it did not ask for"
                )));
            }
        };
        let State::InFlight(f) = &mut lanes[li].state else {
            unreachable!("a lane waiting on a ship is in flight");
        };
        if let Wait::Ship { pid, slot, .. } = f.wait {
            if page.id() != pid {
                let msg = format!("{me} fetched {pid} but got {}", page.id());
                return Err(Error::Protocol(msg));
            }
            page.read_slot(slot)?;
        }
        f.wait = Wait::Nothing;
        f.op += 1;
        self.report.ops_executed += 1;
        self.prof.net_ns += nanos(t.elapsed());
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
    ///   released its locks (`step`), so the image carries none of
    ///   its values;
    /// * the requester reads the image once and drops it
    ///   (`deliver`), so a PSN ahead of this node's durable log
    ///   never reaches a disk or another node's log.
    ///
    /// "The page's last update record is durable" is *not* this rule:
    /// a force taken while T still holds its X lock carries T's update
    /// to disk, T's commit record is appended later and its lock
    /// released at once — the update is durable, the commit is not.
    fn serve(&mut self, env: Envelope) -> Result<()> {
        let t = Instant::now();
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
        self.prof.net_ns += nanos(resumed.elapsed());
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

        /// Gives `plan` a lane of its own and steps it once, as a sweep
        /// of `run_lanes` would: until it parks its commit, ends or
        /// blocks. The plan is leaked, because a worker borrows its
        /// plans for as long as it lives.
        fn lane(&mut self, plan: &TxnPlan) -> usize {
            let plan: &'static TxnPlan = Box::leak(Box::new(plan.clone()));
            self.w.lanes.push(Lane::new(vec![plan]));
            let li = self.w.lanes.len() - 1;
            self.w.step(li).unwrap();
            li
        }

        /// Runs `plan` up to its parked commit, on a lane of its own, so
        /// its ack is timed.
        fn park(&mut self, plan: &TxnPlan) -> TxnId {
            let li = self.lane(plan);
            let State::Parked(txn, _) = self.w.lanes[li].state else {
                panic!("the plan did not reach its commit: {}", self.at(li));
            };
            txn
        }

        /// Where lane `li` is: `idle`, `backoff`, `parked`, or in flight and
        /// waiting on a `ship`, a `lock` or nothing (`ready`).
        fn at(&self, li: usize) -> &'static str {
            match self.w.lanes[li].state {
                State::Idle => "idle",
                State::Backoff(_) => "backoff",
                State::Parked(..) => "parked",
                State::InFlight(t) => match t.wait {
                    Wait::Nothing => "ready",
                    Wait::Ship { .. } => "ship",
                    Wait::Lock { .. } => "lock",
                },
            }
        }

        /// Runs the worker to its end as its thread would
        /// (`Worker::run`), for a run that fails: a run that does not
        /// would serve node 1 forever. Hands node and spans back.
        fn run(self, tc: &mut ThreadCluster) {
            let f = self.w.run();
            tc.nodes.insert(0, f.node);
            tc.trace.absorb(vec![f.buf]);
        }

        /// The requester's half of a fetch: the S lock, in the owner's
        /// table, then the request (`run_ops`).
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
        let mut plan = wplan(0, 0, &[(p, 0, 11)]);
        plan.ops.push(PlanOp::Read {
            pid: asked,
            slot: 0,
        });
        let li = h.lane(&plan);
        assert_eq!(h.at(li), "ship");
        // Node 1's replies, the mis-routed one first.
        for shipped in [stray, asked] {
            let page = Page::new(shipped, cblog_storage::PageKind::Raw, Psn::ZERO, 1024);
            h.peer
                .send(NodeId(0), MsgKind::PageShip, page.to_bytes())
                .unwrap();
        }
        h.run(&mut tc);
        match shared.failed.get() {
            Some(Error::Protocol(m)) => {
                assert!(
                    m.contains(&format!("fetched {asked} but got {stray}")),
                    "{m}"
                )
            }
            Some(e) => panic!("expected a Protocol error, got {e}"),
            None => panic!("a mis-routed ship went unnoticed"),
        }
        // The failed transaction is the one before the next to begin.
        let node = &mut tc.nodes[0];
        let next = node.begin().unwrap();
        assert!(
            matches!(
                node.forget(TxnId::new(next.node, next.seq - 1)),
                Err(Error::NoSuchTxn(_))
            ),
            "rolled back and forgotten"
        );
        assert_eq!(node.peek_slot(p, 0), Some(0), "the write was undone");
        assert!(
            shared
                .locks_of(p)
                .unwrap()
                .try_acquire(p, READER, LockMode::Exclusive),
            "the transaction's locks are released"
        );
        tc.trace_check().unwrap();
    }

    #[test]
    fn ships_go_to_the_lanes_in_the_order_they_asked() {
        // Two lanes of node 0 fetch the same page of node 1. Node 1
        // answers in the order it was asked, so each ship belongs to
        // the oldest lane still waiting on node 1.
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let remote = pid(1, 0);
        let read = |stream: usize, slot: usize| TxnPlan {
            client: NodeId(0),
            stream,
            ops: vec![PlanOp::Read { pid: remote, slot }],
            abort: false,
        };
        let (first, second) = (h.lane(&read(0, 1)), h.lane(&read(1, 2)));
        assert_eq!([h.at(first), h.at(second)], ["ship", "ship"]);
        assert_eq!(
            shared.locks_of(remote).unwrap().locked_pages(),
            1,
            "both S locks are on the page, in node 1's table"
        );
        let ship = |h: &ByHand| {
            let fetch = h.peer.try_recv().expect("a fetch reached node 1");
            assert_eq!(fetch.kind, MsgKind::LockRequest);
            assert_eq!(decode_pid(&fetch.payload).unwrap(), remote);
            let page = Page::new(remote, cblog_storage::PageKind::Raw, Psn::ZERO, 1024);
            h.peer
                .send(NodeId(0), MsgKind::PageShip, page.to_bytes())
                .unwrap();
        };

        ship(&h);
        h.w.serve_inbox().unwrap();
        assert_eq!(
            [h.at(first), h.at(second)],
            ["ready", "ship"],
            "the first ship is the first lane's"
        );
        h.w.step(first).unwrap();
        assert_eq!(h.at(first), "parked");
        ship(&h);
        h.w.serve_inbox().unwrap();
        assert_eq!(
            h.at(second),
            "ready",
            "the second ship is the second lane's"
        );
        h.w.step(second).unwrap();
        assert_eq!(h.at(second), "parked");
        assert_eq!(h.w.report.ops_executed, 2, "each lane read its slot once");
        assert!(h.w.fetches.is_empty());
        h.w.force().unwrap();
        assert_eq!(h.w.report.committed, 2);
        assert_eq!(
            shared.locks_of(remote).unwrap().locked_pages(),
            0,
            "released at commit_begin"
        );
        h.give_back(&mut tc);
        tc.trace_check().unwrap();
    }

    #[test]
    fn a_lock_never_freed_ends_in_one_forced_abort_per_budget() {
        // The lock stays taken through one whole budget: the lane waits
        // on it, retrying once a step, then its transaction ends in a
        // forced abort and the plan is retried on the same lane. Freed
        // then, the retry commits, and there was exactly one abort.
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let p = pid(0, 0);
        let table = shared.locks_of(p).unwrap();
        assert!(table.try_acquire(p, READER, LockMode::Exclusive));
        let blocked = Instant::now();
        let li = h.lane(&wplan(0, 0, &[(p, 0, 11)]));
        while h.w.report.forced_aborts == 0 {
            assert_eq!(h.at(li), "lock", "the lane waits until its budget ends");
            assert!(
                blocked.elapsed() < Duration::from_secs(5),
                "the budget never ran out"
            );
            h.w.step(li).unwrap();
        }
        assert!(
            blocked.elapsed() >= LOCK_BUDGET,
            "aborted inside the budget"
        );
        assert_eq!(h.w.report.forced_aborts, 1);
        assert_eq!(h.at(li), "idle", "the plan is retried on its lane");
        assert_eq!(h.w.lanes[li].retries, 1);
        assert_eq!(table.locked_pages(), 1, "only the holder's lock is left");

        table.release(p, READER);
        h.w.step(li).unwrap();
        assert_eq!(h.at(li), "parked");
        h.w.force().unwrap();
        assert_eq!(
            (h.w.report.committed, h.w.report.forced_aborts),
            (1, 1),
            "one forced abort, then the commit"
        );
        h.give_back(&mut tc);
        tc.trace_check().unwrap();
        assert_eq!(slot0(&mut tc, 0), 11);
    }

    #[test]
    fn a_lock_held_past_every_retry_at_one_budget_still_commits() {
        // The lock stays taken half as long again as PLAN_RETRIES retries
        // of one LOCK_BUDGET each take: a holder descheduled on a busy
        // host. The retries back off by doubling waits, so the lane
        // outwaits the holder in a few aborts and commits once the lock
        // is freed.
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let p = pid(0, 0);
        let table = shared.locks_of(p).unwrap();
        assert!(table.try_acquire(p, READER, LockMode::Exclusive));
        let held = LOCK_BUDGET * 3 * PLAN_RETRIES as u32 / 2;
        let blocked = Instant::now();
        let li = h.lane(&wplan(0, 0, &[(p, 0, 11)]));
        while blocked.elapsed() < held {
            h.w.step(li).unwrap();
            assert_ne!(h.at(li), "parked", "the lock was taken while held");
            std::thread::sleep(LOCK_POLL);
        }
        table.release(p, READER);
        while h.at(li) != "parked" {
            h.w.step(li).unwrap();
        }
        h.w.force().unwrap();
        let aborts = h.w.report.forced_aborts;
        assert_eq!(h.w.report.committed, 1);
        // A budget of 1 ms a retry, and backoffs of 0, 1, 2, …, 64 ms:
        // the ninth abort comes at ~136 ms and the next retry at ~200.
        assert!((1..=9).contains(&aborts), "{aborts} forced aborts");
        assert_eq!(h.w.lanes[li].retries, 0, "the commit resets the count");
        h.give_back(&mut tc);
        tc.trace_check().unwrap();
        assert_eq!(slot0(&mut tc, 0), 11);
    }

    #[test]
    fn a_failed_run_ends_every_transaction_in_flight() {
        // Node 0 fails while lane A, which updated P, waits on a ship
        // of a node-1 page and lane B waits on P's lock, which A holds:
        // once by a ship of a page A did not ask for, which fails A's
        // fetch, and once by another worker's failure.
        for cause in ["a stray ship", "a peer"] {
            let mut tc = parking_cluster();
            let shared = RunShared::new(&tc);
            let mut h = ByHand::new(&mut tc, &shared);
            let (p, remote) = (pid(0, 0), pid(1, 0));
            let mut a = wplan(0, 0, &[(p, 0, 11)]);
            a.ops.push(PlanOp::Read {
                pid: remote,
                slot: 0,
            });
            let (la, lb) = (h.lane(&a), h.lane(&wplan(0, 1, &[(p, 0, 22)])));
            assert_eq!([h.at(la), h.at(lb)], ["ship", "lock"], "{cause}");
            for table in [p, remote] {
                assert_eq!(shared.locks_of(table).unwrap().locked_pages(), 1);
            }
            if cause == "a stray ship" {
                let page = Page::new(pid(1, 1), cblog_storage::PageKind::Raw, Psn::ZERO, 1024);
                h.peer
                    .send(NodeId(0), MsgKind::PageShip, page.to_bytes())
                    .unwrap();
            } else {
                let _ = shared.failed.set(Error::Protocol("node 1 failed".into()));
            }
            h.run(&mut tc);
            assert!(shared.failed.get().is_some(), "{cause}: the run failed");
            for table in [p, remote] {
                assert_eq!(
                    shared.locks_of(table).unwrap().locked_pages(),
                    0,
                    "{cause}: a lock in {}'s table outlived the run",
                    table.owner
                );
            }
            // A and B were the last two transactions to begin.
            let node = &mut tc.nodes[0];
            let probe = node.begin().unwrap();
            for back in [1, 2] {
                assert!(
                    matches!(
                        node.forget(TxnId::new(probe.node, probe.seq - back)),
                        Err(Error::NoSuchTxn(_))
                    ),
                    "{cause}: the transaction {back} before the probe is still on the node"
                );
            }
            roll_back(node, probe).unwrap();

            assert_eq!(slot0(&mut tc, 0), 0, "{cause}: A's update was undone");
            tc.trace_check().unwrap();
            crash_and_recover(&mut tc);
            assert_eq!(slot0(&mut tc, 0), 0, "{cause}");
            let later = tc.run(&[wplan(0, 0, &[(p, 0, 33)])]).unwrap();
            assert_eq!(later.committed, 1, "{cause}");
            assert_eq!(slot0(&mut tc, 0), 33, "{cause}");
        }
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
        let li = h.lane(&wplan(0, 0, &[(p, 0, 11)]));
        assert_eq!(
            h.at(li),
            "lock",
            "node 0's writer conflicts with the remote reader's S lock, and waits"
        );
        assert_eq!(h.w.report.forced_aborts, 0);

        // The worker serves the fetch while its writer waits: the reader
        // gets the page as it was, and drops its lock.
        h.w.serve_inbox().unwrap();
        assert_eq!(h.shipped(p), 0);
        assert_eq!(at_owner.locked_pages(), 0);
        h.w.step(li).unwrap();
        assert_eq!(h.at(li), "parked");
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
        // P and then reads a page of node 1; while T1 is parked on the
        // ship, a fetch of Q is served and forces the log — T1's update
        // record is durable now, under T1's X lock. T1 then appends its
        // commit record and releases P. A reader of P is about to see
        // T1's value, and nothing of T1's commit is on disk.
        let mut tc = parking_cluster();
        let shared = RunShared::new(&tc);
        let mut h = ByHand::new(&mut tc, &shared);
        let (p, q, remote) = (pid(0, 0), pid(0, 1), pid(1, 0));
        h.park(&wplan(0, 0, &[(q, 0, 22)]));

        h.ask(q);
        let mut t1 = wplan(0, 1, &[(p, 0, 11)]);
        t1.ops.push(PlanOp::Read {
            pid: remote,
            slot: 0,
        });
        let forces = h.w.node.log().forces();
        let li = h.lane(&t1);
        assert_eq!(h.at(li), "ship", "T1 waits on node 1");
        h.w.serve_inbox().unwrap();
        // Node 1's inbox in link order: T1's fetch, then the ship of Q.
        let fetch = h.peer.try_recv().expect("T1's fetch reached node 1");
        assert_eq!(fetch.kind, MsgKind::LockRequest);
        assert_eq!(h.shipped(q), 22);
        assert_eq!(
            h.w.node.log().forces(),
            forces + 1,
            "the ship of Q forced T1's update"
        );
        // Node 1's reply to T1's fetch: T1 commits and releases P.
        let reply = Page::new(remote, cblog_storage::PageKind::Raw, Psn::ZERO, 1024);
        h.peer
            .send(NodeId(0), MsgKind::PageShip, reply.to_bytes())
            .unwrap();
        h.w.serve_inbox().unwrap();
        h.w.step(li).unwrap();
        assert_eq!(h.at(li), "parked");

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
