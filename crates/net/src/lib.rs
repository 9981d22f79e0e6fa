//! Accounted message transport for the deterministic cluster.
//!
//! The paper's performance case is made in message and I/O counts; the
//! [`Network`] records every logical protocol message (kind, size,
//! endpoints), charges the simulated clock, and enforces reachability
//! (sending to a crashed node fails, so protocols must handle it).
//! Actual data transfer in the simulator happens by direct call —
//! after the send has been accounted — which keeps runs deterministic
//! and the protocol state machines synchronous.

#![forbid(unsafe_code)]

use cblog_common::{
    Bucket, CostModel, Error, NodeId, Result, Rng, SimClock, SimTime, SpanCtx, SpanKind, Tracer,
};
use std::collections::HashSet;

pub mod transport;

/// Resend budget of [`Network::send_reliable`] after the first attempt.
/// Bounded so lossy links cost time, never livelock.
pub const MAX_RETRIES: u32 = 16;

/// Base backoff charged before each resend of
/// [`Network::send_reliable`] (grows linearly with the attempt
/// number), sim-µs.
pub const RETRY_BACKOFF_US: SimTime = 25;

/// Trace header attached to a protocol message: the span of the
/// operation the message belongs to and that span's causal parent.
///
/// This is how cross-node causal edges (page ship, lock grant, DPT
/// exchange, replay shuttle) become explicit in the trace instead of
/// being inferred: the sender stamps its operation's [`SpanCtx`] on the
/// message, and the transport records a `Msg` span parented to it. On
/// a traced run the header also costs [`MsgHeader::WIRE_BYTES`] on the
/// wire, so the trace-overhead experiment can price the propagation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgHeader {
    /// The causal context of the sending operation.
    pub ctx: SpanCtx,
}

impl MsgHeader {
    /// The empty header (untraced send).
    pub const NONE: MsgHeader = MsgHeader { ctx: SpanCtx::NONE };

    /// Wire size of a header: two 8-byte span ids.
    pub const WIRE_BYTES: usize = 16;

    /// Header carrying `ctx`.
    pub fn of(ctx: SpanCtx) -> MsgHeader {
        MsgHeader { ctx }
    }
}

/// One deterministic fault action, applied by a [`FaultScript`] to a
/// specific message on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultAction {
    /// The message is lost in flight ([`Error::MsgLost`] to the
    /// sender); reliable sends retry, and the retry consumes the next
    /// sequence index.
    Drop,
    /// A spurious second copy is accounted on the wire.
    Duplicate,
    /// The message is charged `delay_us` of extra latency.
    Delay,
    /// Delivered behind newer traffic — in the synchronous simulator a
    /// reordered message is simply a late one, charged like a delay
    /// but counted separately.
    Reorder,
}

impl FaultAction {
    /// Every action, for schedule enumeration.
    pub const ALL: [FaultAction; 4] = [
        FaultAction::Drop,
        FaultAction::Duplicate,
        FaultAction::Delay,
        FaultAction::Reorder,
    ];
}

/// Schedule-driven fault injection: `(sequence index, action)` pairs
/// applied to the Nth message the transport carries (0-based).
/// Installing a script replaces the RNG rolls entirely, making every
/// branch of a fault schedule enumerable and exactly replayable — this
/// is the model checker's injection mode. Multiple actions on one index
/// apply in list order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    /// The schedule, as (message sequence index, action) pairs.
    pub steps: Vec<(u64, FaultAction)>,
}

impl FaultScript {
    /// A script from explicit steps.
    pub fn new(steps: Vec<(u64, FaultAction)>) -> Self {
        FaultScript { steps }
    }
}

/// Deterministic fault-injection plan for the transport (and, via
/// [`Network::roll_tear`], for torn log writes at crash time).
///
/// All probabilities default to zero, making the default plan a strict
/// no-op; every roll comes from one private RNG stream seeded by
/// `seed`, so a given plan replays identically. Message faults apply to
/// every [`MsgKind`].
/// Installing a [`FaultScript`] switches the plan from RNG-driven to
/// schedule-driven: the probabilities are ignored and only the scripted
/// steps fire.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Probability a message is dropped in flight (the lost copy is
    /// still accounted — it consumed the wire).
    pub drop: f64,
    /// Probability a message is delayed by `delay_us`.
    pub delay: f64,
    /// Extra latency charged to a delayed or reordered message, sim-µs.
    pub delay_us: SimTime,
    /// Probability a message is duplicated (the spurious copy is
    /// accounted like a real send; receivers treat it idempotently).
    pub duplicate: f64,
    /// Probability a message is reordered behind newer traffic. In the
    /// synchronous simulator a reordered message is simply a late one,
    /// so it is charged like a delay but counted separately.
    pub reorder: f64,
    /// Probability a node crash tears the in-flight log write: a prefix
    /// of the unsynced tail survives on the device, possibly with its
    /// last byte corrupted (see `cblog_wal`).
    pub tear: f64,
    /// Schedule-driven injection mode: when set, the probability knobs
    /// are ignored and exactly the scripted steps fire.
    pub script: Option<FaultScript>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// A no-op plan carrying `seed` for later fault knobs.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            delay: 0.0,
            delay_us: 100,
            duplicate: 0.0,
            reorder: 0.0,
            tear: 0.0,
            script: None,
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the delay probability and the per-delay latency.
    pub fn with_delay(mut self, p: f64, us: SimTime) -> Self {
        self.delay = p;
        self.delay_us = us;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the torn-log-write probability applied at crash time.
    pub fn with_tear(mut self, p: f64) -> Self {
        self.tear = p;
        self
    }

    /// Switches to schedule-driven injection: exactly `script`'s steps
    /// fire, and the probability knobs are ignored.
    pub fn with_script(mut self, script: FaultScript) -> Self {
        self.script = Some(script);
        self
    }
}

/// Counters of injected faults and the retries they caused.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped in flight.
    pub dropped: u64,
    /// Messages delayed by `delay_us`.
    pub delayed: u64,
    /// Messages duplicated on the wire.
    pub duplicated: u64,
    /// Messages delivered out of order (charged as late delivery).
    pub reordered: u64,
    /// Resends performed by [`Network::send_reliable`].
    pub retries: u64,
    /// Reliable sends that exhausted their retry budget.
    pub exhausted: u64,
}

/// Every message type exchanged by any protocol in the workspace,
/// including the baselines (so experiment tables can break traffic down
/// uniformly).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum MsgKind {
    // ---- normal processing (paper §2.2) ----
    /// Lock request forwarded to the owner node.
    LockRequest,
    /// Owner grants a lock (optionally shipping the page).
    LockGrant,
    /// Page image shipped owner → requester.
    PageShip,
    /// Callback sent to a holder of a conflicting lock.
    Callback,
    /// Holder acknowledges a callback (optionally returning the page).
    CallbackAck,
    /// Dirty remote page replaced from a cache, sent to its owner.
    ReplacePage,
    /// §2.5: ask the owner to force a page to disk.
    ForceRequest,
    /// Owner tells past replacers that a page hit the disk.
    FlushAck,
    // ---- commit-time traffic (baselines; CBL sends none) ----
    /// ARIES/CSA-style shipping of log records to the server.
    LogShip,
    /// Commit request to the server.
    CommitRequest,
    /// Server acknowledges a commit after forcing its log.
    CommitAck,
    /// Server-coordinated checkpoint round (ARIES/CSA §3.1).
    CheckpointSync,
    // ---- crash recovery (paper §2.3 / §2.4) ----
    /// Crashed node asks an operational node for its cache list + DPT
    /// entries for pages the crashed node owns.
    RecoveryInfoRequest,
    /// The reply: cached-page list and DPT entries.
    RecoveryInfoReply,
    /// Crashed node pulls a cached page copy from a holder.
    RecoveryPageFetch,
    /// Lock lists shipped to the recovering node (§2.3.3).
    LockListShip,
    /// Recovering node sends the list of pages needing recovery and
    /// asks for the NodePSNList (§2.3.4).
    PsnListRequest,
    /// NodePSNList reply.
    PsnListReply,
    /// Coordinator sends a page (plus PSN bound) to a node for replay.
    RecoveryPageSend,
    /// Node returns the partially recovered page.
    RecoveryPageReturn,
    /// Recovery-complete broadcast.
    RecoveryDone,
}

impl MsgKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [MsgKind; 21] = [
        MsgKind::LockRequest,
        MsgKind::LockGrant,
        MsgKind::PageShip,
        MsgKind::Callback,
        MsgKind::CallbackAck,
        MsgKind::ReplacePage,
        MsgKind::ForceRequest,
        MsgKind::FlushAck,
        MsgKind::LogShip,
        MsgKind::CommitRequest,
        MsgKind::CommitAck,
        MsgKind::CheckpointSync,
        MsgKind::RecoveryInfoRequest,
        MsgKind::RecoveryInfoReply,
        MsgKind::RecoveryPageFetch,
        MsgKind::LockListShip,
        MsgKind::PsnListRequest,
        MsgKind::PsnListReply,
        MsgKind::RecoveryPageSend,
        MsgKind::RecoveryPageReturn,
        MsgKind::RecoveryDone,
    ];

    fn index(self) -> usize {
        MsgKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL")
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::LockRequest => "lock-req",
            MsgKind::LockGrant => "lock-grant",
            MsgKind::PageShip => "page-ship",
            MsgKind::Callback => "callback",
            MsgKind::CallbackAck => "callback-ack",
            MsgKind::ReplacePage => "replace-page",
            MsgKind::ForceRequest => "force-req",
            MsgKind::FlushAck => "flush-ack",
            MsgKind::LogShip => "log-ship",
            MsgKind::CommitRequest => "commit-req",
            MsgKind::CommitAck => "commit-ack",
            MsgKind::CheckpointSync => "ckpt-sync",
            MsgKind::RecoveryInfoRequest => "rec-info-req",
            MsgKind::RecoveryInfoReply => "rec-info-reply",
            MsgKind::RecoveryPageFetch => "rec-page-fetch",
            MsgKind::LockListShip => "lock-list",
            MsgKind::PsnListRequest => "psnlist-req",
            MsgKind::PsnListReply => "psnlist-reply",
            MsgKind::RecoveryPageSend => "rec-page-send",
            MsgKind::RecoveryPageReturn => "rec-page-return",
            MsgKind::RecoveryDone => "rec-done",
        }
    }

    /// True for messages that only exist during crash recovery.
    pub fn is_recovery(self) -> bool {
        matches!(
            self,
            MsgKind::RecoveryInfoRequest
                | MsgKind::RecoveryInfoReply
                | MsgKind::RecoveryPageFetch
                | MsgKind::LockListShip
                | MsgKind::PsnListRequest
                | MsgKind::PsnListReply
                | MsgKind::RecoveryPageSend
                | MsgKind::RecoveryPageReturn
                | MsgKind::RecoveryDone
        )
    }
}

/// Immutable snapshot of traffic statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Message count per kind (indexed like [`MsgKind::ALL`]).
    pub counts: [u64; 21],
    /// Byte count per kind.
    pub bytes: [u64; 21],
}

impl NetStats {
    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Count for one kind.
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Bytes for one kind.
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Messages belonging to recovery protocols only.
    pub fn recovery_messages(&self) -> u64 {
        MsgKind::ALL
            .iter()
            .filter(|k| k.is_recovery())
            .map(|k| self.count(*k))
            .sum()
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &NetStats) -> NetStats {
        let mut out = NetStats::default();
        for i in 0..self.counts.len() {
            out.counts[i] = self.counts[i] - earlier.counts[i];
            out.bytes[i] = self.bytes[i] - earlier.bytes[i];
        }
        out
    }
}

/// The accounted transport.
#[derive(Debug)]
pub struct Network {
    clock: SimClock,
    cost: CostModel,
    stats: NetStats,
    crashed: HashSet<NodeId>,
    disk_ios: Vec<u64>,
    faults: FaultPlan,
    fault_rng: Rng,
    fault_stats: FaultStats,
    script_seq: u64,
    tracer: Tracer,
    attribution: Option<Bucket>,
    overlap: Option<SimTime>,
}

impl Network {
    /// Transport with a fault-injection plan.
    pub fn with_faults(nodes: usize, cost: CostModel, faults: FaultPlan) -> Self {
        let fault_rng = Rng::seed_from_u64(faults.seed);
        Network {
            clock: SimClock::new(nodes),
            cost,
            stats: NetStats::default(),
            crashed: HashSet::new(),
            disk_ios: vec![0; nodes],
            faults,
            fault_rng,
            fault_stats: FaultStats::default(),
            script_seq: 0,
            tracer: Tracer::disabled(),
            attribution: None,
            overlap: None,
        }
    }

    /// Enters overlap mode: until [`Network::end_overlap`], every
    /// global-clock advance (wire time, disk I/O, fault delays, retry
    /// backoff) is *accumulated* instead of moving the shared clock, so
    /// the caller can measure a unit of work's serial duration and then
    /// advance the wall once for a whole batch of units that logically
    /// run concurrently. Per-node busy charges are unaffected — they
    /// never moved the global clock to begin with. Panics if overlap
    /// mode is already active (no nesting).
    pub fn begin_overlap(&mut self) {
        assert!(self.overlap.is_none(), "overlap mode already active");
        self.overlap = Some(0);
    }

    /// Leaves overlap mode and returns the simulated time the unit
    /// would have consumed had it run serially. The caller decides how
    /// much of it actually elapses on the wall (see
    /// [`Network::advance_time`]).
    pub fn end_overlap(&mut self) -> SimTime {
        self.overlap.take().expect("overlap mode not active")
    }

    /// Unconditionally drops any active overlap accumulator. Error
    /// paths unwinding out of a parallel replay must call this so a
    /// leaked overlap mode cannot silently swallow later clock
    /// advances (a stalled simulated clock).
    pub fn clear_overlap(&mut self) {
        self.overlap = None;
    }

    /// All global-clock advances funnel through here so overlap mode
    /// sees every one of them.
    fn advance_clock(&mut self, dt: SimTime) {
        match &mut self.overlap {
            Some(acc) => *acc += dt,
            None => self.clock.advance(dt),
        }
    }

    /// Overrides the profiler bucket every subsequent charge lands in
    /// (None = each charge's natural bucket: disk I/O → `Disk`,
    /// message handling → `Net`, CPU → `Cpu`). Crash recovery sets
    /// this to [`Bucket::Replay`] for its whole run so restart work is
    /// attributed as such regardless of the resource it consumed.
    pub fn set_attribution(&mut self, bucket: Option<Bucket>) {
        self.attribution = bucket;
    }

    fn bucket_for(&self, natural: Bucket) -> Bucket {
        self.attribution.unwrap_or(natural)
    }

    /// Installs the cluster's tracer: every header-carrying send emits
    /// a `Msg` span parented to the header's context.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats.clone()
    }

    fn account(&mut self, from: NodeId, to: NodeId, kind: MsgKind, bytes: usize) {
        let i = kind.index();
        self.stats.counts[i] += 1;
        self.stats.bytes[i] += bytes as u64;
        let wire = self.cost.message_cost(bytes);
        let bucket = self.bucket_for(Bucket::Net);
        self.advance_clock(wire);
        self.clock
            .charge_overlapped_as(from, bucket, self.cost.handle_us);
        self.clock
            .charge_overlapped_as(to, bucket, self.cost.handle_us);
    }

    /// Records one message `from → to` of `kind` carrying `bytes`
    /// payload bytes. Fails if either endpoint is crashed, or with
    /// [`Error::MsgLost`] if the fault plan drops it — the lost copy is
    /// still accounted, since it consumed the wire.
    pub fn send(&mut self, from: NodeId, to: NodeId, kind: MsgKind, bytes: usize) -> Result<()> {
        if self.crashed.contains(&to) {
            return Err(Error::NodeDown(to));
        }
        if self.crashed.contains(&from) {
            return Err(Error::NodeDown(from));
        }
        self.account(from, to, kind, bytes);
        let acts: Vec<FaultAction> = match &self.faults.script {
            // Schedule-driven mode: the sequence counter advances on
            // every message — including under an empty script, so a
            // clean pass can measure the schedule space — and exactly
            // the scripted steps fire.
            Some(script) => {
                let seq = self.script_seq;
                self.script_seq += 1;
                script
                    .steps
                    .iter()
                    .filter(|(at, _)| *at == seq)
                    .map(|(_, a)| *a)
                    .collect()
            }
            // Seeded mode: one draw per fault the plan enables, in this
            // order.
            None => {
                let f = &self.faults;
                [
                    (f.duplicate, FaultAction::Duplicate),
                    (f.delay, FaultAction::Delay),
                    (f.reorder, FaultAction::Reorder),
                    (f.drop, FaultAction::Drop),
                ]
                .into_iter()
                .filter(|&(p, _)| p > 0.0 && self.fault_rng.gen_bool(p))
                .map(|(_, a)| a)
                .collect()
            }
        };
        for act in acts {
            match act {
                FaultAction::Duplicate => {
                    self.fault_stats.duplicated += 1;
                    self.account(from, to, kind, bytes);
                }
                FaultAction::Delay => {
                    self.fault_stats.delayed += 1;
                    self.advance_clock(self.faults.delay_us);
                }
                FaultAction::Reorder => {
                    self.fault_stats.reordered += 1;
                    self.advance_clock(self.faults.delay_us);
                }
                FaultAction::Drop => {
                    self.fault_stats.dropped += 1;
                    return Err(Error::MsgLost { from, to });
                }
            }
        }
        Ok(())
    }

    /// Messages seen so far in schedule-driven mode
    /// (the next unused [`FaultScript`] sequence index). Always 0
    /// without a script installed — a clean sizing pass must install
    /// an *empty* script.
    pub fn script_msgs_seen(&self) -> u64 {
        self.script_seq
    }

    /// As [`Network::send`] with a trace header: on a traced run the
    /// header's [`MsgHeader::WIRE_BYTES`] are accounted on the wire and
    /// a `Msg` span (the explicit cross-node causal edge) is emitted,
    /// parented to the header's span. A dropped message still emits —
    /// it consumed the wire; only an unreachable endpoint does not.
    pub fn send_hdr(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        bytes: usize,
        hdr: MsgHeader,
    ) -> Result<()> {
        let bytes = bytes + self.header_bytes();
        let r = self.send(from, to, kind, bytes);
        if !matches!(r, Err(Error::NodeDown(_))) {
            self.trace_msg(from, to, kind, bytes, hdr);
        }
        r
    }

    /// As [`Network::send_reliable`] with a trace header (see
    /// [`Network::send_hdr`]); one `Msg` span covers the logical
    /// message regardless of how many resends masked losses.
    pub fn send_reliable_hdr(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        bytes: usize,
        hdr: MsgHeader,
    ) -> Result<()> {
        let bytes = bytes + self.header_bytes();
        let r = self.send_reliable(from, to, kind, bytes);
        if !matches!(r, Err(Error::NodeDown(_))) {
            self.trace_msg(from, to, kind, bytes, hdr);
        }
        r
    }

    fn header_bytes(&self) -> usize {
        if self.tracer.is_enabled() {
            MsgHeader::WIRE_BYTES
        } else {
            0
        }
    }

    fn trace_msg(&self, from: NodeId, to: NodeId, kind: MsgKind, bytes: usize, hdr: MsgHeader) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.point(
            self.clock.now(),
            from,
            hdr.ctx.span,
            SpanKind::Msg {
                kind: kind.label(),
                from,
                to,
                bytes: bytes as u64,
                carries_log: matches!(kind, MsgKind::LogShip),
            },
        );
    }

    /// As [`Network::send`] but resends on loss, up to [`MAX_RETRIES`]
    /// times, charging a linearly growing backoff before each resend.
    /// Crashed endpoints fail immediately (a down node is not a lost
    /// message). Exhausting the budget yields
    /// [`Error::RetriesExhausted`].
    pub fn send_reliable(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        bytes: usize,
    ) -> Result<()> {
        let mut attempt: u32 = 0;
        loop {
            match self.send(from, to, kind, bytes) {
                Err(Error::MsgLost { .. }) if attempt < MAX_RETRIES => {
                    attempt += 1;
                    self.fault_stats.retries += 1;
                    self.advance_clock(RETRY_BACKOFF_US * attempt as u64);
                }
                Err(Error::MsgLost { .. }) => {
                    self.fault_stats.exhausted += 1;
                    return Err(Error::RetriesExhausted {
                        from,
                        to,
                        attempts: attempt + 1,
                    });
                }
                r => return r,
            }
        }
    }

    /// Rolls the torn-write fault for a crash interrupting a force of
    /// `pending` unsynced tail bytes: `Some((landed, corrupt))` means
    /// `landed` bytes of the tail physically reached the device, with
    /// the last landed byte flipped if `corrupt`.
    pub fn roll_tear(&mut self, pending: u64) -> Option<(u64, bool)> {
        if pending == 0 || self.faults.tear <= 0.0 || !self.fault_rng.gen_bool(self.faults.tear) {
            return None;
        }
        let landed = self.fault_rng.gen_range(1..pending + 1);
        let corrupt = self.fault_rng.gen_bool(0.5);
        Some((landed, corrupt))
    }

    /// Records a disk I/O of `bytes` performed by `node`.
    pub fn disk_io(&mut self, node: NodeId, bytes: usize) {
        if let Some(d) = self.disk_ios.get_mut(node.0 as usize) {
            *d += 1;
        }
        let t = self.cost.io_cost(bytes);
        let bucket = self.bucket_for(Bucket::Disk);
        self.advance_clock(t);
        self.clock.charge_overlapped_as(node, bucket, t);
    }

    /// Marks a node crashed (unreachable).
    pub fn mark_crashed(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Marks a node reachable again (restart begins).
    pub fn mark_up(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }

    /// Is `node` currently crashed?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> NetStats {
        self.stats.clone()
    }

    /// Disk I/Os charged to `node`.
    pub fn disk_ios_of(&self, node: NodeId) -> u64 {
        self.disk_ios.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// The simulated clock (elapsed time, per-node busy time).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Advances the simulated clock by non-protocol work.
    pub fn advance_time(&mut self, dt: SimTime) {
        self.advance_clock(dt);
    }

    /// Records lock-blocked time for a node (profiler only — blocked
    /// time is never busy time).
    pub fn charge_wait(&mut self, node: NodeId, dt: SimTime) {
        self.clock.charge_wait(node, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::with_faults(3, CostModel::unit(), FaultPlan::default())
    }

    #[test]
    fn send_counts_by_kind_and_node() {
        let mut n = net();
        n.send(NodeId(0), NodeId(1), MsgKind::LockRequest, 64)
            .unwrap();
        n.send(NodeId(1), NodeId(0), MsgKind::LockGrant, 32)
            .unwrap();
        n.send(NodeId(0), NodeId(1), MsgKind::LockRequest, 64)
            .unwrap();
        let s = n.stats();
        assert_eq!(s.count(MsgKind::LockRequest), 2);
        assert_eq!(s.count(MsgKind::LockGrant), 1);
        assert_eq!(s.bytes_of(MsgKind::LockRequest), 128);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 160);
    }

    #[test]
    fn crashed_nodes_unreachable_both_ways() {
        let mut n = net();
        n.mark_crashed(NodeId(1));
        assert!(matches!(
            n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 10),
            Err(Error::NodeDown(NodeId(1)))
        ));
        assert!(matches!(
            n.send(NodeId(1), NodeId(0), MsgKind::PageShip, 10),
            Err(Error::NodeDown(NodeId(1)))
        ));
        assert!(n.is_crashed(NodeId(1)));
        n.mark_up(NodeId(1));
        assert!(n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 10).is_ok());
    }

    #[test]
    fn disk_io_charges_node() {
        let mut n = net();
        n.disk_io(NodeId(2), 8192);
        assert_eq!(n.disk_ios_of(NodeId(2)), 1);
        assert!(n.clock().busy(NodeId(2)) > 0);
    }

    #[test]
    fn stats_since_diff() {
        let mut n = net();
        n.send(NodeId(0), NodeId(1), MsgKind::Callback, 8).unwrap();
        let snap = n.stats();
        n.send(NodeId(0), NodeId(1), MsgKind::Callback, 8).unwrap();
        n.send(NodeId(0), NodeId(1), MsgKind::CallbackAck, 8)
            .unwrap();
        let d = n.stats().since(&snap);
        assert_eq!(d.count(MsgKind::Callback), 1);
        assert_eq!(d.count(MsgKind::CallbackAck), 1);
    }

    #[test]
    fn recovery_kind_classification() {
        assert!(MsgKind::PsnListReply.is_recovery());
        assert!(!MsgKind::LockRequest.is_recovery());
        let mut n = net();
        n.send(NodeId(0), NodeId(1), MsgKind::PsnListRequest, 8)
            .unwrap();
        n.send(NodeId(0), NodeId(1), MsgKind::LockRequest, 8)
            .unwrap();
        assert_eq!(n.stats().recovery_messages(), 1);
    }

    #[test]
    fn all_kinds_have_unique_indices_and_labels() {
        let mut seen = std::collections::HashSet::new();
        for k in MsgKind::ALL {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
        }
        assert_eq!(seen.len(), MsgKind::ALL.len());
    }

    #[test]
    fn default_fault_plan_is_noop() {
        let mut n = net();
        for _ in 0..50 {
            n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 100)
                .unwrap();
        }
        let fs = n.fault_stats();
        assert_eq!(fs, FaultStats::default());
    }

    #[test]
    fn certain_drop_loses_message_but_accounts_it() {
        let mut n = Network::with_faults(2, CostModel::unit(), FaultPlan::new(7).with_drop(1.0));
        assert!(matches!(
            n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 100),
            Err(Error::MsgLost { .. })
        ));
        assert_eq!(n.stats().count(MsgKind::PageShip), 1, "lost copy accounted");
        assert_eq!(n.fault_stats().dropped, 1);
    }

    #[test]
    fn duplicate_accounts_second_copy() {
        let mut n =
            Network::with_faults(2, CostModel::unit(), FaultPlan::new(7).with_duplicate(1.0));
        n.send(NodeId(0), NodeId(1), MsgKind::Callback, 10).unwrap();
        assert_eq!(n.stats().count(MsgKind::Callback), 2);
        assert_eq!(n.fault_stats().duplicated, 1);
    }

    #[test]
    fn delay_and_reorder_charge_extra_latency() {
        let base = {
            let mut n = net();
            n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 100)
                .unwrap();
            n.clock().now()
        };
        let mut n = Network::with_faults(
            2,
            CostModel::unit(),
            FaultPlan::new(7).with_delay(1.0, 500).with_reorder(1.0),
        );
        n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 100)
            .unwrap();
        assert_eq!(n.clock().now(), base + 1000, "delay + reorder latency");
        assert_eq!(n.fault_stats().delayed, 1);
        assert_eq!(n.fault_stats().reordered, 1);
    }

    #[test]
    fn send_reliable_retries_through_loss_then_succeeds() {
        let mut n = Network::with_faults(2, CostModel::unit(), FaultPlan::new(42).with_drop(0.5));
        for _ in 0..20 {
            n.send_reliable(NodeId(0), NodeId(1), MsgKind::LockRequest, 48)
                .unwrap();
        }
        let fs = n.fault_stats();
        assert!(fs.retries > 0, "a 50% lossy link must retry");
        assert_eq!(fs.exhausted, 0);
        assert_eq!(fs.dropped, fs.retries, "every drop was retried");
    }

    #[test]
    fn send_reliable_exhausts_bounded_budget_on_dead_link() {
        let mut n = Network::with_faults(2, CostModel::unit(), FaultPlan::new(7).with_drop(1.0));
        match n.send_reliable(NodeId(0), NodeId(1), MsgKind::PageShip, 100) {
            Err(Error::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, MAX_RETRIES + 1)
            }
            r => panic!("expected RetriesExhausted, got {r:?}"),
        }
        assert_eq!(n.fault_stats().exhausted, 1);
        assert_eq!(
            n.stats().count(MsgKind::PageShip),
            u64::from(MAX_RETRIES + 1),
            "every attempt accounted"
        );
    }

    #[test]
    fn send_reliable_does_not_retry_crashed_endpoints() {
        let mut n = Network::with_faults(2, CostModel::unit(), FaultPlan::new(7).with_drop(1.0));
        n.mark_crashed(NodeId(1));
        assert!(matches!(
            n.send_reliable(NodeId(0), NodeId(1), MsgKind::PageShip, 100),
            Err(Error::NodeDown(NodeId(1)))
        ));
        assert_eq!(n.fault_stats().retries, 0);
    }

    #[test]
    fn roll_tear_is_seeded_and_bounded() {
        let mut a = Network::with_faults(2, CostModel::unit(), FaultPlan::new(9).with_tear(1.0));
        let mut b = Network::with_faults(2, CostModel::unit(), FaultPlan::new(9).with_tear(1.0));
        for _ in 0..10 {
            let ra = a.roll_tear(100);
            assert_eq!(ra, b.roll_tear(100), "same seed, same rolls");
            let (landed, _) = ra.expect("tear probability 1");
            assert!((1..=100).contains(&landed));
        }
        assert_eq!(a.roll_tear(0), None, "nothing pending, nothing torn");
        let mut c = net();
        assert_eq!(c.roll_tear(100), None, "no-op plan never tears");
    }

    #[test]
    fn traced_send_emits_msg_span_with_header_parent() {
        let mut n = net();
        let t = Tracer::new(64);
        n.set_tracer(t.clone());
        let op = t.alloc();
        n.send_hdr(
            NodeId(0),
            NodeId(1),
            MsgKind::PageShip,
            100,
            MsgHeader::of(SpanCtx::root(op)),
        )
        .unwrap();
        let trace = t.snapshot();
        let spans = trace.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, op, "edge parented to the operation");
        match &spans[0].kind {
            SpanKind::Msg {
                kind,
                from,
                to,
                bytes,
                carries_log,
            } => {
                assert_eq!(*kind, "page-ship");
                assert_eq!((*from, *to), (NodeId(0), NodeId(1)));
                assert_eq!(*bytes, 100 + MsgHeader::WIRE_BYTES as u64);
                assert!(!carries_log);
            }
            k => panic!("expected Msg span, got {k:?}"),
        }
        // The header cost hit the accounted wire bytes too.
        assert_eq!(
            n.stats().bytes_of(MsgKind::PageShip),
            100 + MsgHeader::WIRE_BYTES as u64
        );
    }

    #[test]
    fn untraced_send_hdr_costs_nothing_and_emits_nothing() {
        let mut n = net();
        n.send_hdr(NodeId(0), NodeId(1), MsgKind::Callback, 50, MsgHeader::NONE)
            .unwrap();
        assert_eq!(n.stats().bytes_of(MsgKind::Callback), 50, "no header bytes");
    }

    #[test]
    fn reliable_hdr_emits_one_span_across_retries() {
        let mut n = Network::with_faults(2, CostModel::unit(), FaultPlan::new(42).with_drop(0.5));
        let t = Tracer::new(256);
        n.set_tracer(t.clone());
        for _ in 0..20 {
            n.send_reliable_hdr(
                NodeId(0),
                NodeId(1),
                MsgKind::LockRequest,
                48,
                MsgHeader::NONE,
            )
            .unwrap();
        }
        assert!(n.fault_stats().retries > 0, "losses actually retried");
        assert_eq!(t.snapshot().len(), 20, "one span per logical message");
    }

    #[test]
    fn log_ship_span_trips_the_watchdog() {
        let mut n = net();
        let t = Tracer::new(64);
        n.set_tracer(t.clone());
        n.send_hdr(NodeId(1), NodeId(0), MsgKind::LogShip, 256, MsgHeader::NONE)
            .unwrap();
        let err = t.check().unwrap_err();
        assert!(err.contains("log records crossed the network"), "{err}");
    }

    #[test]
    fn send_to_crashed_node_emits_no_span() {
        let mut n = net();
        let t = Tracer::new(64);
        n.set_tracer(t.clone());
        n.mark_crashed(NodeId(1));
        assert!(n
            .send_hdr(NodeId(0), NodeId(1), MsgKind::PageShip, 10, MsgHeader::NONE)
            .is_err());
        assert!(
            t.snapshot().is_empty(),
            "unreachable endpoint: nothing sent"
        );
    }

    #[test]
    fn profiler_buckets_follow_charge_sites() {
        let cost = CostModel::default();
        let mut n = Network::with_faults(2, cost.clone(), FaultPlan::default());
        n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 100)
            .unwrap();
        n.disk_io(NodeId(0), 1024);
        n.charge_wait(NodeId(0), 9);
        let c = n.clock();
        assert_eq!(c.bucket_us(NodeId(0), Bucket::Net), cost.handle_us);
        assert_eq!(c.bucket_us(NodeId(1), Bucket::Net), cost.handle_us);
        assert_eq!(c.bucket_us(NodeId(0), Bucket::Disk), cost.io_cost(1024));
        assert_eq!(c.bucket_us(NodeId(0), Bucket::LockWait), 9);
        assert_eq!(
            c.busy(NodeId(0)),
            cost.handle_us + cost.io_cost(1024),
            "lock-wait stays out of busy"
        );
        // A replay scope reroutes every charge, whatever the resource.
        n.set_attribution(Some(Bucket::Replay));
        n.disk_io(NodeId(1), 1024);
        n.set_attribution(None);
        assert_eq!(n.clock().bucket_us(NodeId(1), Bucket::Disk), 0);
        assert_eq!(
            n.clock().bucket_us(NodeId(1), Bucket::Replay),
            cost.io_cost(1024)
        );
        assert_eq!(n.attribution, None);
    }

    #[test]
    fn overlap_mode_accumulates_instead_of_advancing() {
        let mut n = net();
        let cost = CostModel::unit();
        let before = n.clock().now();
        n.begin_overlap();
        assert!(n.overlap.is_some());
        n.send(NodeId(0), NodeId(1), MsgKind::PageShip, 100)
            .unwrap();
        n.disk_io(NodeId(0), 1024);
        n.advance_time(11);
        let serial = n.end_overlap();
        assert_eq!(
            serial,
            cost.message_cost(100) + cost.io_cost(1024) + 11,
            "accumulator captures every would-be advance"
        );
        assert_eq!(n.clock().now(), before, "global clock held still");
        // Per-node busy charges land normally even in overlap mode.
        assert_eq!(n.clock().bucket_us(NodeId(0), Bucket::Net), cost.handle_us);
        // Out of overlap mode the clock moves again.
        n.advance_time(7);
        assert_eq!(n.clock().now(), before + 7);
        // clear_overlap is the unconditional error-path escape hatch.
        n.begin_overlap();
        n.advance_time(1000);
        n.clear_overlap();
        assert!(n.overlap.is_none());
        n.advance_time(3);
        assert_eq!(n.clock().now(), before + 10);
    }
}
