//! Causal cross-node tracing: spans with cluster-unique ids and causal
//! parents, one bounded span store with an online invariant watchdog,
//! and the views every consumer renders from it.
//!
//! The paper's correctness argument is a *cross-node* total order: every
//! update to a page bumps its PSN under an exclusive lock, so the update
//! history of one page is totally ordered across all nodes even though
//! each node logs privately (LSNs are never compared across nodes).
//! Node-local metrics (`obs`) cannot check that order, they see one
//! node's slice of it. The span stream is the cluster-wide instrument:
//! every traced unit (transaction, page transfer, recovery phase,
//! per-page replay hop, protocol message) becomes a [`Span`] with a
//! cluster-unique [`SpanId`] and a causal parent, and cross-node edges
//! are carried explicitly in message headers (`cblog_net::MsgHeader`)
//! instead of being inferred after the fact.
//!
//! # One store, two ways to fill it
//!
//! [`SpanBuf`] is the only code that allocates span ids and stores
//! spans. [`Trace`] is the cluster's merged store: a `SpanBuf` whose
//! ids are the plain sequence 1, 2, 3, … plus the watchdog, which
//! observes every span once, as it enters.
//!
//! * The **simulator** fills the trace directly: its schedule is
//!   serialized, so emission order is causal order. [`Tracer`] is the
//!   `Rc<RefCell<Trace>>` handle the cluster and its network share.
//! * The **threaded runtime** gives each worker its own `SpanBuf`
//!   (ids namespaced by worker, so threads allocate without
//!   coordination) and hands the buffers to [`Trace::absorb`] at
//!   join. [`SpanBuf::merge`] orders them by worker, keeps local
//!   emission order and rewrites ids into the trace's sequence. That
//!   order is sound for every invariant the watchdog checks because
//!   each is per-page, and a page is only ever updated or replayed by
//!   its owner's thread: per-page span order inside one buffer *is*
//!   the true order, and concatenation preserves it.
//!
//! # Views
//!
//! Written once over `&[Span]`, so both engines render through the
//! same code: per-page PSN [`lineage`] / [`render_lineage`] (default
//! page: [`busiest_page`]), [`chrome_trace_json`] (one process lane
//! per node in `chrome://tracing` / Perfetto), [`render_recent`] (the
//! last spans of every node, the post-mortem view), and the violation
//! report of [`Trace::check`] with the offending page's lineage slice.
//!
//! Tracing is an observer: it never charges the simulated clock and
//! draws no randomness, so enabling it cannot change a run's outcome,
//! and same-seed runs produce byte-identical exports. A disabled
//! [`Tracer`] is a `None` behind the handle and a disabled [`SpanBuf`]
//! a cleared flag: emission is a single branch, which is what keeps the
//! tracing-off overhead unmeasurable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::ids::{Lsn, NodeId, PageId, Psn, TxnId};
use crate::obs::json_escape;
use crate::simclock::SimTime;

/// The phases of distributed restart (paper §2.3), in execution order.
///
/// Recovery code, phase-timing reports and [`SpanKind::Phase`] all
/// share this enum; the only place a phase has a string name is
/// [`RecoveryPhase::label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryPhase {
    /// Local ARIES analysis pass over each crashed node's log.
    Analysis,
    /// Cache-inventory + DPT exchange with every operational node.
    InfoExchange,
    /// Rebuild of the crashed owners' global lock tables (§2.3.3).
    LockRebuild,
    /// Determine the recovery set: which pages need replay, and from
    /// whose logs (§2.3.4).
    RecoverySets,
    /// Fence pages under recovery with owner-side exclusive locks.
    RecoveryLocks,
    /// Gather NodePSNLists from the involved nodes.
    PsnLists,
    /// PSN-ordered replay, shuttling each page between involved nodes.
    Replay,
    /// Roll back loser transactions.
    Undo,
    /// Recovery-complete broadcast and final bookkeeping.
    Done,
}

impl RecoveryPhase {
    /// Every phase, in execution order.
    pub const ALL: [RecoveryPhase; 9] = [
        RecoveryPhase::Analysis,
        RecoveryPhase::InfoExchange,
        RecoveryPhase::LockRebuild,
        RecoveryPhase::RecoverySets,
        RecoveryPhase::RecoveryLocks,
        RecoveryPhase::PsnLists,
        RecoveryPhase::Replay,
        RecoveryPhase::Undo,
        RecoveryPhase::Done,
    ];

    /// Short report/trace label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPhase::Analysis => "analysis",
            RecoveryPhase::InfoExchange => "info_exchange",
            RecoveryPhase::LockRebuild => "lock_rebuild",
            RecoveryPhase::RecoverySets => "recovery_sets",
            RecoveryPhase::RecoveryLocks => "recovery_locks",
            RecoveryPhase::PsnLists => "psn_lists",
            RecoveryPhase::Replay => "replay",
            RecoveryPhase::Undo => "undo",
            RecoveryPhase::Done => "done",
        }
    }
}

impl fmt::Display for RecoveryPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cluster-unique span identifier. The simulator allocates ids from
/// one shared monotone counter, so allocation order is deterministic;
/// threaded workers allocate from disjoint per-worker namespaces
/// ([`SpanBuf`]) that are rewritten into one monotone sequence when the
/// buffers are merged. Either way two live spans never share an id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (no parent / tracing disabled).
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            f.write_str("-")
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

/// Causal context propagated with an operation: the operation's own
/// span and that span's parent. This is the payload of a message
/// header (`cblog_net::MsgHeader` wraps one), so the receiving side of
/// a cross-node edge knows exactly which span caused the message.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpanCtx {
    /// The span the current operation runs under.
    pub span: SpanId,
    /// That span's causal parent.
    pub parent: SpanId,
}

impl SpanCtx {
    /// The empty context (tracing disabled / no active span).
    pub const NONE: SpanCtx = SpanCtx {
        span: SpanId::NONE,
        parent: SpanId::NONE,
    };

    /// Context for a root span.
    pub fn root(span: SpanId) -> SpanCtx {
        SpanCtx {
            span,
            parent: SpanId::NONE,
        }
    }

    /// Context for `span` caused by `parent`.
    pub fn child(span: SpanId, parent: SpanId) -> SpanCtx {
        SpanCtx { span, parent }
    }
}

/// Why a page image crossed the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferWhy {
    /// Owner → requester ship on a page fetch.
    Ship,
    /// Holder → requester ship answering an exclusive callback.
    Callback,
    /// Dirty remote page replaced from a cache back to its owner.
    Replace,
    /// Recovery replay shuttle hop (§2.4).
    Recovery,
}

impl TransferWhy {
    /// Short label for lineage lines and trace export.
    pub fn label(self) -> &'static str {
        match self {
            TransferWhy::Ship => "ship",
            TransferWhy::Callback => "callback",
            TransferWhy::Replace => "replace",
            TransferWhy::Recovery => "recovery",
        }
    }
}

/// B+-tree structural operation (the `access` crate's traced units).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeOp {
    /// Root-to-leaf descent.
    Traverse,
    /// Leaf split (new page allocated, separator posted).
    Split,
    /// Leaf merge (an emptied leaf folded out of its parent, its
    /// record freed).
    Merge,
}

impl TreeOp {
    /// Short label for lineage lines and trace export.
    pub fn label(self) -> &'static str {
        match self {
            TreeOp::Traverse => "traverse",
            TreeOp::Split => "split",
            TreeOp::Merge => "merge",
        }
    }
}

/// What a span records: the traced unit or causal edge.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanKind {
    /// A transaction's lifetime on its home node (begin → outcome).
    Txn {
        /// The transaction.
        txn: TxnId,
        /// True if it committed, false if it aborted.
        committed: bool,
    },
    /// One transaction's commit pipeline (submit → durable → acked).
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// One log force acknowledging a batch of commits (group commit).
    GroupForce {
        /// The forcing node.
        node: NodeId,
        /// Commit records covered by this force.
        txns: u64,
        /// Log bytes made durable.
        bytes: u64,
    },
    /// One logged update: the page's PSN edge `psn → psn+1`.
    Update {
        /// The updated page.
        pid: PageId,
        /// The updating transaction.
        txn: TxnId,
        /// PSN *before* the update (the edge is `psn → psn.next()`).
        psn: Psn,
        /// LSN of the log record in the updater's local log.
        lsn: Lsn,
        /// True for a compensation (undo) update.
        clr: bool,
    },
    /// A page image crossing the network.
    Transfer {
        /// The page.
        pid: PageId,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The page's PSN at ship time.
        psn: Psn,
        /// Why the page moved.
        why: TransferWhy,
        /// The sender's log rule for this kind of transfer. To the
        /// owner (callback, replacement): true iff every local log
        /// record was forced before a *dirty* image left the node. From
        /// the owner (ship): true iff no transaction whose update the
        /// image carries has released its locks with its commit record
        /// still undurable (DESIGN §16). Always true for recovery
        /// transfers.
        wal_ok: bool,
    },
    /// A global lock granted by an owner to a remote transaction.
    LockGrant {
        /// The locked page.
        pid: PageId,
        /// The granting owner node.
        owner: NodeId,
        /// The requesting node.
        to: NodeId,
        /// The requesting transaction.
        txn: TxnId,
    },
    /// An owned page image written to the owner's disk.
    PageWrite {
        /// The page.
        pid: PageId,
        /// The writing owner node.
        node: NodeId,
        /// The PSN of the written image.
        psn: Psn,
        /// WAL rule: true iff the owner's own covering records were
        /// forced before the write.
        wal_ok: bool,
    },
    /// A node crashed (volatile state lost).
    Crash {
        /// The crashed node.
        node: NodeId,
    },
    /// A whole recovery pass (paper §2.3/§2.4).
    Recovery {
        /// How many nodes restarted in this pass.
        nodes: u32,
    },
    /// One recovery phase completed on a crashed node's behalf.
    Phase {
        /// The recovering node.
        node: NodeId,
        /// The completed phase.
        phase: RecoveryPhase,
    },
    /// One per-page replay hop: `node` applied its own log records to
    /// the page while it held the replay shuttle (§2.4).
    ReplayHop {
        /// The page under recovery.
        pid: PageId,
        /// The node whose log was replayed.
        node: NodeId,
        /// Page PSN when the hop began.
        from_psn: Psn,
        /// Page PSN when the hop ended.
        to_psn: Psn,
        /// Log records applied during the hop.
        applied: u64,
    },
    /// A protocol message (the cross-node causal edge, recorded from
    /// its `MsgHeader` by the transport).
    Msg {
        /// Message kind label (`MsgKind::label`).
        kind: &'static str,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Accounted payload bytes (header included).
        bytes: u64,
        /// True iff the payload carries log records — the paper's
        /// design never does; baselines do.
        carries_log: bool,
    },
    /// A B+-tree structural operation (`access` crate).
    Tree {
        /// The operation.
        op: TreeOp,
        /// The transaction driving it.
        txn: TxnId,
    },
    /// §2.5 log-space reclamation: a node discarded the prefix of its
    /// local log below `upto`. The protocol may only reclaim records
    /// already covered by the master checkpoint, so `upto` past
    /// `anchor` is a violation the watchdog flags.
    LogTruncate {
        /// The reclaiming node.
        node: NodeId,
        /// New start of the retained log (everything below is gone).
        upto: Lsn,
        /// The master-record checkpoint anchor at reclamation time.
        anchor: Lsn,
    },
}

impl SpanKind {
    /// The page this span is about, if any — the lineage filter.
    pub fn page(&self) -> Option<PageId> {
        match self {
            SpanKind::Update { pid, .. }
            | SpanKind::Transfer { pid, .. }
            | SpanKind::LockGrant { pid, .. }
            | SpanKind::PageWrite { pid, .. }
            | SpanKind::ReplayHop { pid, .. } => Some(*pid),
            _ => None,
        }
    }

    /// Short category name (Chrome trace `cat`, lane naming).
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Txn { .. } => "txn",
            SpanKind::Commit { .. } => "commit",
            SpanKind::GroupForce { .. } => "force",
            SpanKind::Update { .. } => "update",
            SpanKind::Transfer { .. } => "transfer",
            SpanKind::LockGrant { .. } => "lock",
            SpanKind::PageWrite { .. } => "write",
            SpanKind::Crash { .. } => "crash",
            SpanKind::Recovery { .. } => "recovery",
            SpanKind::Phase { .. } => "recovery",
            SpanKind::ReplayHop { .. } => "replay",
            SpanKind::Msg { .. } => "msg",
            SpanKind::Tree { .. } => "tree",
            SpanKind::LogTruncate { .. } => "wal",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Txn { txn, committed } => {
                write!(
                    f,
                    "txn {txn} {}",
                    if *committed { "commit" } else { "abort" }
                )
            }
            SpanKind::Commit { txn } => write!(f, "commit-pipeline {txn}"),
            SpanKind::GroupForce { node, txns, bytes } => {
                write!(f, "group-force {node} {txns}txns {bytes}B")
            }
            SpanKind::Update {
                pid,
                txn,
                psn,
                lsn,
                clr,
            } => write!(
                f,
                "{} {pid} psn {}→{} {lsn} by {txn}",
                if *clr { "undo" } else { "update" },
                psn.0,
                psn.0 + 1
            ),
            SpanKind::Transfer {
                pid,
                from,
                to,
                psn,
                why,
                wal_ok,
            } => write!(
                f,
                "{} {pid} {from}→{to} @psn {}{}",
                why.label(),
                psn.0,
                if *wal_ok { "" } else { " WAL-VIOLATION" }
            ),
            SpanKind::LockGrant {
                pid,
                owner,
                to,
                txn,
            } => {
                write!(f, "lock-grant {pid} {owner}→{to} for {txn}")
            }
            SpanKind::PageWrite {
                pid,
                node,
                psn,
                wal_ok,
            } => write!(
                f,
                "disk-write {pid} on {node} @psn {}{}",
                psn.0,
                if *wal_ok { "" } else { " WAL-VIOLATION" }
            ),
            SpanKind::Crash { node } => write!(f, "crash {node}"),
            SpanKind::Recovery { nodes } => write!(f, "recovery {nodes} node(s)"),
            SpanKind::Phase { node, phase } => write!(f, "phase {phase} for {node}"),
            SpanKind::ReplayHop {
                pid,
                node,
                from_psn,
                to_psn,
                applied,
            } => write!(
                f,
                "replay-hop {pid} on {node} psn {}→{} ({applied} applied)",
                from_psn.0, to_psn.0
            ),
            SpanKind::Msg {
                kind,
                from,
                to,
                bytes,
                ..
            } => {
                write!(f, "msg {kind} {from}→{to} {bytes}B")
            }
            SpanKind::Tree { op, txn } => write!(f, "btree-{} by {txn}", op.label()),
            SpanKind::LogTruncate { node, upto, anchor } => {
                write!(f, "log-truncate {node} upto {upto} (anchor {anchor})")
            }
        }
    }
}

/// One traced unit: id, causal parent, emitting node, sim-time
/// interval, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Cluster-unique id.
    pub id: SpanId,
    /// Causal parent ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// The node the span is attributed to.
    pub node: NodeId,
    /// Start sim-time, µs.
    pub start: SimTime,
    /// Duration, µs (0 for point events).
    pub dur: SimTime,
    /// The payload.
    pub kind: SpanKind,
}

impl Span {
    /// A zero-duration span at `at`.
    pub fn point(id: SpanId, at: SimTime, node: NodeId, parent: SpanId, kind: SpanKind) -> Span {
        Span {
            id,
            parent,
            node,
            start: at,
            dur: 0,
            kind,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}us {} {}←{}] {}",
            self.start, self.node, self.id, self.parent, self.kind
        )
    }
}

/// One invariant violation detected by the watchdog.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The span that violated the invariant.
    pub span: SpanId,
    /// The page involved, if page-scoped (drives the lineage slice).
    pub pid: Option<PageId>,
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.what)
    }
}

/// Online watchdog state: per-page PSN frontiers and the violations
/// found so far. Fed by [`Trace::emit`]; a crash clears the frontiers
/// because PSNs above the durable coverage are legitimately regenerated
/// by post-recovery execution.
#[derive(Clone, Debug, Default)]
struct Watchdog {
    /// Highest PSN each page has reached via update/replay edges.
    hi_psn: BTreeMap<PageId, Psn>,
    /// Last PSN each page was replayed to (replay-order check).
    replay_hi: BTreeMap<PageId, Psn>,
    violations: Vec<Violation>,
    /// Spans observed, retained or not.
    observed: u64,
}

impl Watchdog {
    fn observe(&mut self, span: &Span) {
        self.observed += 1;
        match &span.kind {
            SpanKind::Update { pid, psn, .. } => {
                let after = psn.next();
                if let Some(&hi) = self.hi_psn.get(pid) {
                    if after <= hi {
                        self.violations.push(Violation {
                            span: span.id,
                            pid: Some(*pid),
                            what: format!(
                                "PSN not strictly increasing on {pid}: update edge {}→{} \
                                 but page already reached psn {}",
                                psn.0, after.0, hi.0
                            ),
                        });
                    }
                }
                let e = self.hi_psn.entry(*pid).or_insert(after);
                *e = (*e).max(after);
            }
            SpanKind::ReplayHop {
                pid,
                from_psn,
                to_psn,
                ..
            } => {
                if to_psn < from_psn {
                    self.violations.push(Violation {
                        span: span.id,
                        pid: Some(*pid),
                        what: format!(
                            "replay hop moved {pid} backwards: psn {}→{}",
                            from_psn.0, to_psn.0
                        ),
                    });
                }
                if let Some(&r) = self.replay_hi.get(pid) {
                    if *from_psn < r {
                        self.violations.push(Violation {
                            span: span.id,
                            pid: Some(*pid),
                            what: format!(
                                "replay out of global PSN order on {pid}: hop starts at \
                                 psn {} after page was already replayed to psn {}",
                                from_psn.0, r.0
                            ),
                        });
                    }
                }
                let e = self.replay_hi.entry(*pid).or_insert(*to_psn);
                *e = (*e).max(*to_psn);
                let h = self.hi_psn.entry(*pid).or_insert(*to_psn);
                *h = (*h).max(*to_psn);
            }
            // Spans whose flags are clean fall through to the catch-all:
            // the watchdog only acts on the violating shapes.
            SpanKind::Transfer {
                pid,
                from,
                to,
                wal_ok: false,
                why,
                ..
            } => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: Some(*pid),
                    what: format!(
                        "WAL rule violated: dirty {pid} left {from} for {to} ({}) \
                         with unforced covering log records",
                        why.label()
                    ),
                });
            }
            SpanKind::PageWrite {
                pid,
                node,
                wal_ok: false,
                ..
            } => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: Some(*pid),
                    what: format!(
                        "WAL rule violated: {pid} written to disk on {node} with \
                         unforced covering log records"
                    ),
                });
            }
            SpanKind::Msg {
                kind,
                from,
                to,
                carries_log: true,
                ..
            } => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: None,
                    what: format!(
                        "log records crossed the network: {kind} {from}→{to} \
                         (the paper's design ships none)"
                    ),
                });
            }
            SpanKind::LogTruncate { node, upto, anchor } if upto > anchor => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: None,
                    what: format!(
                        "log-space protocol violated: {node} reclaimed its log up to \
                         {upto}, past the master checkpoint anchor {anchor} — records \
                         newer than the checkpoint were discarded"
                    ),
                });
            }
            SpanKind::Crash { .. } => {
                // Unforced updates above the durable coverage died with
                // the volatile state; recovery rebuilds a lower PSN and
                // execution legitimately re-walks those numbers.
                self.hi_psn.clear();
                self.replay_hi.clear();
            }
            _ => {}
        }
    }
}

/// Default bound on retained spans.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// The one span recorder: a plain-data, `Send`, bounded span buffer.
///
/// A worker thread's buffer ([`SpanBuf::new`]) allocates ids from the
/// worker's namespace, `((worker + 1) << 48) | seq`, so raw worker ids
/// always have bits ≥ 48 set: that is how [`SpanBuf::merge`] tells an
/// in-batch parent reference (rewritten) from a reference to an
/// already-merged span id (kept verbatim). The buffer inside a
/// [`Trace`] has no namespace; its ids are the merged sequence.
///
/// The first `capacity` spans are kept (the head preserves lineage
/// from the start of a run) and later ones counted, a count
/// [`SpanBuf::merge`] returns. A span a *worker's* buffer drops never reaches
/// the watchdog: a nonzero drop count there means reduced invariant
/// coverage, not just a shorter export.
#[derive(Clone, Debug, Default)]
pub struct SpanBuf {
    /// Id namespace: `(worker + 1) << 48`, or 0 inside a [`Trace`].
    ns: u64,
    seq: u64,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    enabled: bool,
}

impl SpanBuf {
    /// A disabled buffer: allocation returns [`SpanId::NONE`],
    /// emission is a no-op. This is the tracing-off fast path.
    pub fn disabled() -> SpanBuf {
        SpanBuf::default()
    }

    /// An enabled buffer for `worker` (its id namespace) retaining up
    /// to `capacity` spans (clamped to at least 1).
    pub fn new(worker: u32, capacity: usize) -> SpanBuf {
        SpanBuf::in_namespace((worker as u64 + 1) << 48, capacity)
    }

    fn in_namespace(ns: u64, capacity: usize) -> SpanBuf {
        SpanBuf {
            ns,
            seq: 0,
            spans: Vec::new(),
            cap: capacity.max(1),
            dropped: 0,
            enabled: true,
        }
    }

    /// Is this buffer recording? A caller that stamps spans off a real
    /// clock reads it only when this is true.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates the next id in this buffer's namespace
    /// ([`SpanId::NONE`] when disabled).
    pub fn alloc(&mut self) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.seq += 1;
        SpanId(self.ns | self.seq)
    }

    /// Records a completed span (bounded: head kept, overflow counted).
    pub fn emit(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Allocates an id and records a zero-duration span in one call;
    /// returns the id (NONE when disabled).
    pub fn point(&mut self, at: SimTime, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        let id = self.alloc();
        if !id.is_none() {
            self.emit(Span::point(id, at, node, parent, kind));
        }
        id
    }

    /// Number of spans retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Merges per-thread buffers into one deterministic span sequence.
    ///
    /// Buffers are ordered by ascending worker index and concatenated
    /// with local emission order preserved; ids are rewritten to a
    /// monotone sequence continuing from `*next_id` (which is advanced
    /// past the ids consumed). Parent references are rewritten through
    /// the same map — including references into *other* buffers of the
    /// batch, which is how cross-thread causal edges carried in message
    /// headers survive the merge. A parent below the `1 << 48` worker
    /// namespace is an id from an earlier merge batch and is kept
    /// verbatim; an in-namespace parent that is not in the batch (its
    /// span was dropped at capacity) degrades to [`SpanId::NONE`].
    ///
    /// Returns the merged spans and the total dropped count.
    pub fn merge(mut bufs: Vec<SpanBuf>, next_id: &mut u64) -> (Vec<Span>, u64) {
        bufs.sort_by_key(|b| b.ns);
        let mut map: BTreeMap<SpanId, SpanId> = BTreeMap::new();
        let mut dropped = 0;
        for b in &bufs {
            dropped += b.dropped;
            for s in &b.spans {
                *next_id += 1;
                map.insert(s.id, SpanId(*next_id));
            }
        }
        let remap = |id: SpanId| -> SpanId {
            match map.get(&id) {
                Some(&new) => new,
                None if id.0 < (1 << 48) => id,
                None => SpanId::NONE,
            }
        };
        let mut out = Vec::with_capacity(map.len());
        for b in bufs {
            for mut s in b.spans {
                s.id = remap(s.id);
                s.parent = remap(s.parent);
                out.push(s);
            }
        }
        (out, dropped)
    }
}

/// The cluster-wide merged span store: a [`SpanBuf`] in the merged id
/// space plus the invariant watchdog, which observes every span as it
/// enters, before the capacity check: a full store shortens the
/// export, never the invariant coverage. Plain data and `Send`; the
/// threaded cluster holds one directly, the simulator shares one
/// behind a [`Tracer`]. `Trace::default()` is the disabled trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    buf: SpanBuf,
    watchdog: Watchdog,
}

impl Trace {
    /// An enabled trace retaining up to `capacity` spans (clamped to
    /// at least 1), watchdog on.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            buf: SpanBuf::in_namespace(0, capacity),
            watchdog: Watchdog::default(),
        }
    }

    /// True if spans are recorded (false for the disabled trace).
    pub fn is_enabled(&self) -> bool {
        self.buf.enabled
    }

    /// Allocates the next span id of the merged sequence
    /// ([`SpanId::NONE`] when disabled).
    pub fn alloc(&mut self) -> SpanId {
        self.buf.alloc()
    }

    /// Shows a completed span to the watchdog, then stores it.
    pub fn emit(&mut self, span: Span) {
        if self.buf.enabled {
            self.watchdog.observe(&span);
            self.buf.emit(span);
        }
    }

    /// Allocates an id and records a zero-duration span in one call;
    /// returns the id (NONE when disabled).
    pub fn point(&mut self, at: SimTime, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        let id = self.alloc();
        if !id.is_none() {
            self.emit(Span::point(id, at, node, parent, kind));
        }
        id
    }

    /// Merges a batch of worker buffers ([`SpanBuf::merge`]) and
    /// enters each merged span like any other: observed once, then
    /// stored. The workers' drop counts are added to this trace's.
    pub fn absorb(&mut self, bufs: Vec<SpanBuf>) {
        let (spans, dropped) = SpanBuf::merge(bufs, &mut self.buf.seq);
        self.buf.dropped += dropped;
        for s in spans {
            self.emit(s);
        }
    }

    /// Every retained span, in emission (= watchdog) order.
    pub fn spans(&self) -> &[Span] {
        &self.buf.spans
    }

    /// Number of spans retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained (or tracing is disabled).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans lost to a capacity bound, here or in an absorbed buffer.
    pub fn dropped(&self) -> u64 {
        self.buf.dropped
    }

    /// Spans the watchdog has observed, retained or not.
    pub fn observed(&self) -> u64 {
        self.watchdog.observed
    }

    /// Violations the watchdog has found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.watchdog.violations
    }

    /// Passes iff the watchdog has seen no violation; otherwise
    /// returns an error message listing every violation with the
    /// offending page's lineage slice (the last few spans up to the
    /// violation). Reads what the watchdog already found: no span is
    /// walked again.
    pub fn check(&self) -> std::result::Result<(), String> {
        self.check_since(0)
    }

    /// [`Trace::check`] of the violations past the first `seen` of
    /// [`Trace::violations`]: the verdict on what a caller added since
    /// it read `violations().len()`.
    pub fn check_since(&self, seen: usize) -> std::result::Result<(), String> {
        let violations = self.violations().get(seen..).unwrap_or_default();
        if violations.is_empty() {
            return Ok(());
        }
        let mut msg = format!("trace watchdog: {} violation(s)\n", violations.len());
        for v in violations {
            msg.push_str(&format!("- {v}\n"));
            if let Some(pid) = v.pid {
                // The slice that *leads to* the violation, not the
                // whole history: everything up to the offending span,
                // truncated to the last 12 entries.
                let upto: Vec<&Span> = lineage(self.spans(), pid)
                    .into_iter()
                    .take_while(|s| s.id <= v.span)
                    .collect();
                let tail = upto.len().saturating_sub(12);
                if tail > 0 {
                    msg.push_str(&format!("    … {tail} earlier span(s)\n"));
                }
                for s in &upto[tail..] {
                    msg.push_str(&format!("    {s}\n"));
                }
            }
        }
        Err(msg)
    }
}

/// The simulator's shared handle to the cluster [`Trace`] (cheap `Rc`
/// clone; the simulator is single-threaded, and the cluster and its
/// network emit into the same store). A disabled tracer holds no
/// store at all, so the emission fast-path with tracing off is one
/// `Option` check.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Trace>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(t) => write!(f, "Tracer({} spans)", t.borrow().len()),
        }
    }
}

impl Tracer {
    /// A disabled tracer: allocation returns [`SpanId::NONE`], emission
    /// is a no-op.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A handle to a fresh [`Trace::new`] of `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(Trace::new(capacity)))),
        }
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// [`Trace::alloc`] ([`SpanId::NONE`] when disabled).
    pub fn alloc(&self) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(t) => t.borrow_mut().alloc(),
        }
    }

    /// [`Trace::emit`] (no-op when disabled).
    pub fn emit(&self, span: Span) {
        if let Some(t) = &self.inner {
            t.borrow_mut().emit(span);
        }
    }

    /// [`Trace::point`] ([`SpanId::NONE`] when disabled).
    pub fn point(&self, at: SimTime, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(t) => t.borrow_mut().point(at, node, parent, kind),
        }
    }

    /// [`Trace::check`] (vacuously ok when disabled).
    pub fn check(&self) -> std::result::Result<(), String> {
        match &self.inner {
            None => Ok(()),
            Some(t) => t.borrow().check(),
        }
    }

    /// A copy of the trace as it stands (the disabled trace when
    /// disabled), for rendering through the views.
    pub fn snapshot(&self) -> Trace {
        match &self.inner {
            None => Trace::default(),
            Some(t) => t.borrow().clone(),
        }
    }
}

/// The page with the most page-scoped spans (lineage default).
pub fn busiest_page(spans: &[Span]) -> Option<PageId> {
    let mut counts: BTreeMap<PageId, usize> = BTreeMap::new();
    for s in spans {
        if let Some(pid) = s.kind.page() {
            *counts.entry(pid).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.to_u64().cmp(&a.0.to_u64())))
        .map(|(pid, _)| pid)
}

/// The PSN lineage of `pid`: every page-scoped span mentioning it plus
/// the crash markers that punctuate its history, in emission (= causal)
/// order.
pub fn lineage(spans: &[Span], pid: PageId) -> Vec<&Span> {
    spans
        .iter()
        .filter(|s| s.kind.page() == Some(pid) || matches!(s.kind, SpanKind::Crash { .. }))
        .collect()
}

/// Human-readable lineage dump for `pid`, one line per span.
pub fn render_lineage(spans: &[Span], pid: PageId) -> String {
    let mut out = format!("PSN lineage of {pid}:\n");
    let lin = lineage(spans, pid);
    if lin.is_empty() {
        out.push_str("  (no spans recorded)\n");
    }
    for s in lin {
        out.push_str(&format!("  {s}\n"));
    }
    out
}

/// The post-mortem view: the last `n` retained spans of every node,
/// oldest first, one block per node. What a failed check prints so the
/// protocol history around a divergence arrives with the error.
pub fn render_recent(spans: &[Span], n: usize) -> String {
    let mut by_node: BTreeMap<NodeId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_node.entry(s.node).or_default().push(s);
    }
    let mut out = String::new();
    for (node, of_node) in by_node {
        let earlier = of_node.len().saturating_sub(n);
        out.push_str(&format!("--- last spans of {node} ---\n"));
        if earlier > 0 {
            out.push_str(&format!("  … {earlier} earlier span(s)\n"));
        }
        for s in &of_node[earlier..] {
            out.push_str(&format!("  {s}\n"));
        }
    }
    out
}

/// Exports `spans` as Chrome trace-event JSON (the "JSON object
/// format": `{"traceEvents": [...]}`), loadable in `chrome://tracing`
/// and Perfetto. Nodes become processes; span categories become named
/// thread lanes; cross-node transfers and messages additionally emit
/// flow-event pairs so the causal edge is drawn as an arrow.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut events: Vec<String> = Vec::new();
    // Lane metadata: one process per node, one named lane per
    // category present on that node.
    let mut lanes: BTreeMap<(u32, usize), &'static str> = BTreeMap::new();
    for s in spans {
        let cat = s.kind.category();
        lanes.insert((s.node.0, lane_of(cat)), cat);
        if let SpanKind::Transfer { to, .. } | SpanKind::Msg { to, .. } = &s.kind {
            lanes.insert((to.0, lane_of(s.kind.category())), cat);
        }
    }
    let mut seen_procs = std::collections::BTreeSet::new();
    for ((node, lane), cat) in &lanes {
        if seen_procs.insert(*node) {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            ));
        }
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{lane},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(cat)
        ));
    }
    for s in spans {
        let lane = lane_of(s.kind.category());
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"span\":\"{}\",\"parent\":\"{}\"}}}}",
            s.node.0,
            lane,
            s.start,
            s.dur,
            json_escape(&s.kind.to_string()),
            s.kind.category(),
            s.id,
            s.parent
        ));
        // Cross-node edges as flow arrows.
        let edge = match &s.kind {
            SpanKind::Transfer { from, to, .. } => Some((*from, *to)),
            SpanKind::Msg { from, to, .. } => Some((*from, *to)),
            _ => None,
        };
        if let Some((from, to)) = edge {
            events.push(format!(
                "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{},\
                 \"name\":\"edge\",\"cat\":\"flow\"}}",
                from.0, lane, s.start, s.id.0
            ));
            events.push(format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{},\
                 \"name\":\"edge\",\"cat\":\"flow\"}}",
                to.0,
                lane,
                s.start + s.dur,
                s.id.0
            ));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("]}");
    out
}

/// Stable lane (Chrome `tid`) per span category.
fn lane_of(cat: &str) -> usize {
    match cat {
        "txn" => 1,
        "commit" => 2,
        "force" => 3,
        "update" => 4,
        "transfer" => 5,
        "lock" => 6,
        "write" => 7,
        "replay" => 8,
        "recovery" => 9,
        "crash" => 10,
        "msg" => 11,
        "tree" => 12,
        "wal" => 13,
        _ => 14,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PageId {
        PageId::new(NodeId(0), i)
    }

    fn txn(n: u32, s: u64) -> TxnId {
        TxnId::new(NodeId(n), s)
    }

    fn update_kind(node: u32, p: PageId, psn: u64) -> SpanKind {
        SpanKind::Update {
            pid: p,
            txn: txn(node, 1),
            psn: Psn(psn),
            lsn: Lsn(psn),
            clr: false,
        }
    }

    fn update(t: &mut Trace, at: SimTime, node: u32, p: PageId, psn: u64) -> SpanId {
        t.point(at, NodeId(node), SpanId::NONE, update_kind(node, p, psn))
    }

    /// `pid(0)` crossing `from → to` at psn 2.
    fn transfer(from: u32, to: u32, why: TransferWhy, wal_ok: bool) -> SpanKind {
        SpanKind::Transfer {
            pid: pid(0),
            from: NodeId(from),
            to: NodeId(to),
            psn: Psn(2),
            why,
            wal_ok,
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        // The handle with no store, and the store with a disabled
        // buffer (what the threaded cluster holds with tracing off).
        let crash = Span::point(
            SpanId(1),
            0,
            NodeId(0),
            SpanId::NONE,
            SpanKind::Crash { node: NodeId(0) },
        );
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.alloc(), SpanId::NONE);
        t.emit(crash.clone());
        assert!(t.check().is_ok());
        let mut off = t.snapshot();
        assert_eq!(off.alloc(), SpanId::NONE);
        off.emit(crash);
        assert!(off.is_empty());
        assert_eq!(off.observed(), 0, "a disabled trace observes nothing");
        assert_eq!(
            chrome_trace_json(off.spans()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        // Clones of the handle share one store: the network's message
        // spans and the cluster's spans draw from one id sequence.
        let t = Tracer::new(16);
        let a = t.alloc();
        let b = t.clone().alloc();
        assert_eq!((a, b), (SpanId(1), SpanId(2)));
        t.clone().emit(Span::point(
            b,
            0,
            NodeId(0),
            a,
            SpanKind::Crash { node: NodeId(0) },
        ));
        assert_eq!(t.snapshot().len(), 1);
    }

    #[test]
    fn monotone_updates_pass_the_watchdog() {
        let mut t = Trace::new(64);
        for (i, n) in [(1u64, 0u32), (2, 1), (3, 1), (4, 2)] {
            update(&mut t, i * 10, n, pid(0), i);
        }
        assert!(t.check().is_ok());
        assert_eq!(t.violations().len(), 0);
    }

    #[test]
    fn psn_regression_is_caught_with_lineage_slice() {
        let mut t = Trace::new(64);
        update(&mut t, 10, 0, pid(3), 1);
        update(&mut t, 20, 1, pid(3), 2);
        update(&mut t, 30, 2, pid(3), 2); // re-walks psn 2→3: violation
        let err = t.check().unwrap_err();
        assert!(err.contains("not strictly increasing"), "{err}");
        assert!(err.contains("P0.3"), "lineage slice names the page: {err}");
        assert_eq!(t.violations().len(), 1);
        assert_eq!(t.violations()[0].pid, Some(pid(3)));
    }

    #[test]
    fn crash_resets_the_psn_frontier() {
        let mut t = Trace::new(64);
        update(&mut t, 10, 0, pid(0), 5);
        t.point(
            20,
            NodeId(0),
            SpanId::NONE,
            SpanKind::Crash { node: NodeId(0) },
        );
        // Post-recovery execution legitimately re-walks lower PSNs.
        update(&mut t, 30, 0, pid(0), 3);
        assert!(t.check().is_ok(), "{:?}", t.check());
    }

    #[test]
    fn replay_order_violation_is_caught() {
        let mut t = Trace::new(64);
        let hop = |from: u64, to: u64, node: u32| SpanKind::ReplayHop {
            pid: pid(1),
            node: NodeId(node),
            from_psn: Psn(from),
            to_psn: Psn(to),
            applied: to - from,
        };
        t.point(10, NodeId(1), SpanId::NONE, hop(1, 4, 1));
        t.point(20, NodeId(2), SpanId::NONE, hop(4, 7, 2));
        assert!(t.check().is_ok());
        t.point(30, NodeId(1), SpanId::NONE, hop(2, 9, 1)); // restarts below 7
        let err = t.check().unwrap_err();
        assert!(err.contains("replay out of global PSN order"), "{err}");
    }

    #[test]
    fn wal_rule_and_log_ship_violations_are_caught() {
        let mut t = Trace::new(64);
        let replace = transfer(1, 0, TransferWhy::Replace, false);
        t.point(10, NodeId(1), SpanId::NONE, replace);
        t.point(
            20,
            NodeId(1),
            SpanId::NONE,
            SpanKind::Msg {
                kind: "log-ship",
                from: NodeId(1),
                to: NodeId(0),
                bytes: 100,
                carries_log: true,
            },
        );
        let err = t.check().unwrap_err();
        assert!(err.contains("WAL rule violated"), "{err}");
        assert!(err.contains("log records crossed the network"), "{err}");
        assert_eq!(t.violations().len(), 2);
    }

    #[test]
    fn log_truncation_past_the_anchor_is_caught() {
        let mut t = Trace::new(64);
        // Reclaiming below (or exactly to) the anchor is the protocol
        // working as designed.
        t.point(
            10,
            NodeId(0),
            SpanId::NONE,
            SpanKind::LogTruncate {
                node: NodeId(0),
                upto: Lsn(100),
                anchor: Lsn(100),
            },
        );
        assert!(t.check().is_ok());
        // Reclaiming past it discards records the master checkpoint
        // still needs.
        t.point(
            20,
            NodeId(0),
            SpanId::NONE,
            SpanKind::LogTruncate {
                node: NodeId(0),
                upto: Lsn(250),
                anchor: Lsn(100),
            },
        );
        let err = t.check().unwrap_err();
        assert!(err.contains("log-space protocol violated"), "{err}");
        assert!(err.contains("anchor"), "{err}");
    }

    #[test]
    fn lineage_is_page_scoped_and_ordered() {
        let mut t = Trace::new(64);
        update(&mut t, 10, 0, pid(0), 1);
        update(&mut t, 20, 0, pid(1), 1);
        let ship = transfer(0, 1, TransferWhy::Ship, true);
        t.point(30, NodeId(0), SpanId::NONE, ship);
        let lin = lineage(t.spans(), pid(0));
        assert_eq!(lin.len(), 2);
        assert!(lin[0].start < lin[1].start);
        assert_eq!(busiest_page(t.spans()), Some(pid(0)));
        let s = render_lineage(t.spans(), pid(0));
        assert!(s.contains("update P0.0"), "{s}");
        assert!(s.contains("ship P0.0 N0→N1"), "{s}");
    }

    #[test]
    fn capacity_bound_keeps_head_and_counts_drops() {
        let mut t = Trace::new(2);
        for i in 1..=5u64 {
            update(&mut t, i, 0, pid(0), i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // The watchdog still saw the dropped spans.
        update(&mut t, 99, 0, pid(0), 2); // regression vs frontier psn 6
        assert!(t.check().is_err());
    }

    #[test]
    fn chrome_export_is_schema_shaped() {
        let mut t = Trace::new(64);
        update(&mut t, 10, 0, pid(0), 1);
        let ship = transfer(0, 1, TransferWhy::Ship, true);
        t.point(30, NodeId(0), SpanId::NONE, ship);
        let j = chrome_trace_json(t.spans());
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"ph\":\"M\""), "{j}");
        assert!(j.contains("\"process_name\""), "{j}");
        assert!(
            j.contains("\"ph\":\"s\"") && j.contains("\"ph\":\"f\""),
            "flow pair: {j}"
        );
        // Every event is an object in one array; no trailing commas.
        assert!(!j.contains(",]") && !j.contains(",,"), "{j}");
    }

    #[test]
    fn span_ctx_constructors() {
        let root = SpanCtx::root(SpanId(3));
        assert_eq!(root.parent, SpanId::NONE);
        let c = SpanCtx::child(SpanId(4), SpanId(3));
        assert_eq!(c.parent, SpanId(3));
        assert_eq!(SpanCtx::NONE.span, SpanId::NONE);
        assert_eq!(format!("{}", SpanId::NONE), "-");
        assert_eq!(format!("{}", SpanId(7)), "S7");
    }

    fn buf_crash(b: &mut SpanBuf, at: SimTime, node: u32) -> SpanId {
        b.point(
            at,
            NodeId(node),
            SpanId::NONE,
            SpanKind::Crash { node: NodeId(node) },
        )
    }

    #[test]
    fn spanbuf_disabled_is_inert_and_ids_are_namespaced() {
        let mut off = SpanBuf::disabled();
        assert_eq!(off.alloc(), SpanId::NONE);
        buf_crash(&mut off, 5, 0);
        assert!(off.is_empty());

        let mut a = SpanBuf::new(0, 16);
        let mut b = SpanBuf::new(1, 16);
        let ia = a.alloc();
        let ib = b.alloc();
        assert_eq!(ia, SpanId(1 << 48 | 1));
        assert_eq!(ib, SpanId(2 << 48 | 1));
        assert_ne!(ia, ib, "worker namespaces must not collide");
    }

    #[test]
    fn spanbuf_merge_is_deterministic_and_rewrites_parents() {
        // Build twice in opposite buffer order; merged output must be
        // identical, with ids rewritten to one monotone sequence and a
        // cross-buffer parent edge surviving the rewrite.
        let build = |swap: bool| {
            let mut a = SpanBuf::new(0, 16);
            let mut b = SpanBuf::new(1, 16);
            let cause = buf_crash(&mut a, 1, 0);
            // b's span is caused by a's (cross-thread edge), plus one
            // parent that refers to an already-merged trace id (< 2^48)
            // and must be kept verbatim.
            b.point(2, NodeId(1), cause, SpanKind::Crash { node: NodeId(1) });
            b.point(3, NodeId(1), SpanId(7), SpanKind::Crash { node: NodeId(1) });
            let bufs = if swap { vec![b, a] } else { vec![a, b] };
            let mut next = 10;
            SpanBuf::merge(bufs, &mut next)
        };
        let (m1, d1) = build(false);
        let (m2, _) = build(true);
        assert_eq!(m1, m2, "merge must not depend on buffer arrival order");
        assert_eq!(d1, 0);
        assert_eq!(
            m1.iter().map(|s| s.id.0).collect::<Vec<_>>(),
            vec![11, 12, 13],
            "ids continue the trace's monotone sequence"
        );
        assert_eq!(m1[1].parent, m1[0].id, "cross-buffer parent rewritten");
        assert_eq!(m1[2].parent, SpanId(7), "pre-merged parent kept");
    }

    #[test]
    fn spanbuf_bounds_the_store_and_drops_count_through_merge() {
        let mut b = SpanBuf::new(3, 2);
        for at in 0..5 {
            buf_crash(&mut b, at, 0);
        }
        assert_eq!(b.len(), 2, "head kept");
        let mut next = 0;
        let (spans, dropped) = SpanBuf::merge(vec![b], &mut next);
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 3);
        assert_eq!(next, 2);
    }

    #[test]
    fn merged_spanbuf_trace_replays_through_the_watchdog() {
        // Two workers each update their own page; absorbed into one
        // trace they are clean, and each span was observed once. A
        // regressing PSN inside one worker's buffer must surface when
        // the buffer is absorbed.
        let fill = |buf: &mut SpanBuf, node: u32, psns: &[u64]| {
            for &psn in psns {
                let kind = update_kind(node, PageId::new(NodeId(node), 0), psn);
                buf.point(psn, NodeId(node), SpanId::NONE, kind);
            }
        };
        let mut a = SpanBuf::new(0, 64);
        let mut b = SpanBuf::new(1, 64);
        fill(&mut a, 0, &[1, 2, 3]);
        fill(&mut b, 1, &[1, 2, 3]);
        let mut t = Trace::new(64);
        let first = t.point(0, NodeId(0), SpanId::NONE, SpanKind::Recovery { nodes: 1 });
        t.absorb(vec![b, a]);
        assert!(t.check().is_ok(), "{:?}", t.check());
        assert_eq!((t.len(), t.observed()), (7, 7), "each span observed once");
        assert_eq!(first, SpanId(1));
        assert_eq!(
            t.spans().iter().map(|s| s.id.0).collect::<Vec<_>>(),
            (1..=7).collect::<Vec<_>>(),
            "absorbed ids continue the trace's own sequence"
        );
        assert_eq!(t.alloc(), SpanId(8));

        // The regression sits past the store's bound: dropped from the
        // export, still seen by the watchdog.
        let mut bad = SpanBuf::new(0, 64);
        fill(&mut bad, 0, &[1, 2, 2]);
        let mut small = Trace::new(1);
        small.absorb(vec![bad]);
        assert_eq!((small.len(), small.dropped(), small.observed()), (1, 2, 3));
        assert!(small.check().is_err(), "PSN regression must be caught");
    }

    #[test]
    fn recent_view_shows_the_last_spans_of_every_node() {
        let mut t = Trace::new(64);
        for psn in 1..=5 {
            update(&mut t, psn * 10, 0, pid(0), psn);
        }
        update(&mut t, 60, 1, pid(1), 1);
        let s = render_recent(t.spans(), 2);
        let n0 = s.find("--- last spans of N0 ---").expect("node 0 block");
        let n1 = s.find("--- last spans of N1 ---").expect("node 1 block");
        assert!(n0 < n1, "one block per node, in node order: {s}");
        assert!(s.contains("… 3 earlier span(s)"), "{s}");
        assert!(!s.contains("psn 3→4") && s.contains("psn 4→5"), "{s}");
        assert!(s.find("psn 4→5").unwrap() < s.find("psn 5→6").unwrap());
        assert!(!s[n1..].contains("earlier"), "node 1 fits: {s}");
    }
}
