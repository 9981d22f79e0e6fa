//! Cluster and node configuration.
//!
//! [`ClusterConfig`] is built exclusively through
//! [`ClusterConfig::builder`] — the fluent [`ClusterConfigBuilder`] is
//! the one construction path, so every knob (group commit, fault plan,
//! cost model, …) is named at the call site instead of hand-mutated
//! struct fields.

use cblog_common::{CostModel, SimTime};
use cblog_net::FaultPlan;

/// When a node's force-pending commits are flushed to disk.
///
/// The paper's commit is a single local log force (§2.2); group commit
/// amortizes that force across transactions that commit close together
/// in time. A transaction whose Commit record has been appended waits
/// (force-pending) until the node's next force covers its LSN; one
/// force then acknowledges every covered transaction at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GroupCommitPolicy {
    /// Force as soon as a Commit record is appended: one force per
    /// commit, the pre-group-commit behavior.
    #[default]
    Immediate,
    /// Coalesce commits into batches: hold the force until `window_us`
    /// sim-µs after the first pending commit, or until `max_batch`
    /// commits are pending, whichever comes first.
    Window {
        /// Maximum time a pending commit waits for company, sim-µs.
        window_us: SimTime,
        /// Force as soon as this many commits are pending (0 and 1
        /// both mean "never wait for company").
        max_batch: usize,
    },
    /// Load-adaptive windows: the scheduler tracks a decayed estimate
    /// of the commit inter-arrival gap and sizes each batch's window
    /// to collect `target_batch` commits — `window = gap ×
    /// (target_batch − 1)`, clamped to `[min_window_us,
    /// max_window_us]`. When even one companion is not expected within
    /// `max_window_us` (estimated gap exceeds it), the window
    /// collapses to `min_window_us`, so light load degenerates to
    /// near-[`GroupCommitPolicy::Immediate`] latency while heavy load
    /// converges to full batches — no per-workload tuning.
    Adaptive {
        /// Smallest window a batch is ever held open, sim-µs.
        min_window_us: SimTime,
        /// Largest window a batch is ever held open, sim-µs.
        max_window_us: SimTime,
        /// Commits per force the controller aims for; a batch this
        /// full is forced regardless of its window.
        target_batch: usize,
    },
}

impl GroupCommitPolicy {
    /// True for the force-per-commit policy.
    pub fn is_immediate(&self) -> bool {
        match *self {
            GroupCommitPolicy::Immediate => true,
            GroupCommitPolicy::Window { max_batch, .. } => max_batch <= 1,
            GroupCommitPolicy::Adaptive { target_batch, .. } => target_batch <= 1,
        }
    }
}

/// Configuration of a single node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Page size in bytes (also the database block size).
    pub page_size: usize,
    /// Buffer pool capacity in pages.
    pub buffer_frames: usize,
    /// Pages in the local database (0 = diskless client node that owns
    /// no data but still has a local log, like nodes 2 and 4 in the
    /// paper's Figure 1).
    pub owned_pages: u32,
    /// Bounded log size in bytes (None = unbounded). Bounded logs
    /// trigger the §2.5 space-management protocol.
    pub log_capacity: Option<u64>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            page_size: 1024,
            buffer_frames: 64,
            owned_pages: 16,
            log_capacity: None,
        }
    }
}

/// Configuration of a whole cluster. Construct with
/// [`ClusterConfig::builder`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes. Node ids are `0..node_count`.
    pub(crate) node_count: usize,
    /// Pages owned by each node (len must equal `node_count`; nodes
    /// with 0 own no database). If shorter, missing entries default to
    /// `default_node.owned_pages`.
    pub(crate) owned_pages: Vec<u32>,
    /// Template for per-node settings other than `owned_pages`.
    pub(crate) default_node: NodeConfig,
    /// Simulated cost model for messages and disk I/O.
    pub(crate) cost: CostModel,
    /// Baseline ablation: force every dirty page to the owner's disk
    /// when it is transferred between nodes (Rdb/VMS and the
    /// Mohan–Narang simple/medium shared-disks schemes, paper §3.2).
    /// The paper's design keeps this off — contribution (1).
    pub(crate) force_on_transfer: bool,
    /// Group-commit policy for the per-node force scheduler.
    /// [`GroupCommitPolicy::Immediate`] reproduces the one-force-per-
    /// commit behavior existing tests pin down.
    pub(crate) group_commit: GroupCommitPolicy,
    /// Deterministic fault-injection plan (message loss/delay/dup/
    /// reorder and torn log writes). The default plan injects nothing.
    pub(crate) faults: FaultPlan,
    /// Causal tracing: when on, every transaction, page transfer, lock
    /// grant, recovery phase and message carries a span with a causal
    /// parent, the online invariant watchdog checks PSN/WAL invariants
    /// live, and traced messages pay 16 extra wire bytes for the span
    /// header. Off by default — disabled tracing costs one branch per
    /// would-be span and changes no accounting.
    pub(crate) tracing: bool,
    /// Span sampling: trace the full span tree of 1-in-N transactions
    /// (1 = every transaction, the pre-sampling behavior). Cluster-wide
    /// invariants (WAL rule on writes/transfers, log truncation,
    /// messages) are still traced for every transaction — sampling only
    /// thins the per-transaction trees, which is what makes long
    /// checked runs cheap.
    pub(crate) trace_sample_one_in: u64,
    /// Time-series telemetry: `Some((interval_us, ring_capacity))`
    /// attaches a metrics [`Sampler`](cblog_common::Sampler) to the
    /// cluster, sampling every registry metric once per sim-time
    /// interval into a bounded ring. Off by default (zero cost).
    pub(crate) telemetry: Option<(SimTime, usize)>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            node_count: 2,
            owned_pages: Vec::new(),
            default_node: NodeConfig::default(),
            cost: CostModel::default(),
            force_on_transfer: false,
            group_commit: GroupCommitPolicy::Immediate,
            faults: FaultPlan::default(),
            tracing: false,
            trace_sample_one_in: 1,
            telemetry: None,
        }
    }
}

impl ClusterConfig {
    /// Starts a fluent builder — the single construction path for
    /// cluster configurations.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// Per-node config for node `i`.
    pub fn node_config(&self, i: usize) -> NodeConfig {
        let mut cfg = self.default_node.clone();
        if let Some(&p) = self.owned_pages.get(i) {
            cfg.owned_pages = p;
        }
        cfg
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Page size in bytes (uniform across nodes).
    pub fn page_size(&self) -> usize {
        self.default_node.page_size
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The group-commit policy.
    pub fn group_commit(&self) -> GroupCommitPolicy {
        self.group_commit
    }

    /// True if the force-on-transfer ablation is enabled.
    pub fn force_on_transfer(&self) -> bool {
        self.force_on_transfer
    }

    /// The fault-injection plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// True if causal tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Span-sampling rate: the full span tree is traced for 1-in-N
    /// transactions (1 = all).
    pub fn trace_sample_one_in(&self) -> u64 {
        self.trace_sample_one_in
    }

    /// Time-series telemetry `(interval_us, ring_capacity)`, if on.
    pub fn telemetry(&self) -> Option<(SimTime, usize)> {
        self.telemetry
    }
}

/// Fluent builder for [`ClusterConfig`].
///
/// ```
/// use cblog_core::{ClusterConfig, GroupCommitPolicy};
/// use cblog_net::FaultPlan;
///
/// let cfg = ClusterConfig::builder()
///     .owned_pages(vec![8, 0, 0]) // node 0 owns 8 pages; 2 clients
///     .page_size(512)
///     .buffer_frames(8)
///     .group_commit(GroupCommitPolicy::Immediate)
///     .faults(FaultPlan::new(42).with_drop(0.05))
///     .build();
/// assert_eq!(cfg.node_count(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the node count (ids `0..n`). Usually implied by
    /// [`ClusterConfigBuilder::owned_pages`]; call this after it to
    /// grow the cluster beyond the ownership vector (extra nodes fall
    /// back to the template's `owned_pages`).
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.node_count = n;
        self
    }

    /// Sets the per-node ownership vector and the node count to match.
    pub fn owned_pages(mut self, per_node: Vec<u32>) -> Self {
        self.cfg.node_count = per_node.len();
        self.cfg.owned_pages = per_node;
        self
    }

    /// Sets the page size for every node.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.cfg.default_node.page_size = bytes;
        self
    }

    /// Sets the buffer-pool capacity (in frames) for every node.
    pub fn buffer_frames(mut self, frames: usize) -> Self {
        self.cfg.default_node.buffer_frames = frames;
        self
    }

    /// Sets the template `owned_pages` used by nodes beyond the
    /// ownership vector.
    pub fn default_owned_pages(mut self, pages: u32) -> Self {
        self.cfg.default_node.owned_pages = pages;
        self
    }

    /// Bounds (or unbounds, with `None`) every node's log.
    pub fn log_capacity(mut self, capacity: Option<u64>) -> Self {
        self.cfg.default_node.log_capacity = capacity;
        self
    }

    /// Sets the simulated cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Enables/disables the force-on-transfer ablation (§3.2).
    pub fn force_on_transfer(mut self, on: bool) -> Self {
        self.cfg.force_on_transfer = on;
        self
    }

    /// Sets the group-commit policy.
    pub fn group_commit(mut self, policy: GroupCommitPolicy) -> Self {
        self.cfg.group_commit = policy;
        self
    }

    /// Installs a fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Enables/disables causal tracing (spans, PSN lineage, invariant
    /// watchdog, Chrome-trace export). Traced messages carry a 16-byte
    /// span header on the wire; with tracing off no accounting changes.
    pub fn tracing(mut self, on: bool) -> Self {
        self.cfg.tracing = on;
        self
    }

    /// Samples the full span tree of 1-in-`n` transactions instead of
    /// all of them (`n` is clamped to at least 1). Cluster-wide
    /// invariant spans stay untouched.
    pub fn trace_sample_one_in(mut self, n: u64) -> Self {
        self.cfg.trace_sample_one_in = n.max(1);
        self
    }

    /// Attaches time-series telemetry: every registry metric is
    /// sampled once per `interval_us` of sim-time into a ring of
    /// `capacity` per-interval values.
    pub fn telemetry(mut self, interval_us: SimTime, capacity: usize) -> Self {
        self.cfg.telemetry = Some((interval_us, capacity));
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> ClusterConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_config_overrides_owned_pages() {
        let cfg = ClusterConfig::builder()
            .owned_pages(vec![8, 0])
            .nodes(3)
            .build();
        assert_eq!(cfg.node_config(0).owned_pages, 8);
        assert_eq!(cfg.node_config(1).owned_pages, 0);
        // Missing entry falls back to the template.
        assert_eq!(
            cfg.node_config(2).owned_pages,
            NodeConfig::default().owned_pages
        );
    }

    #[test]
    fn group_commit_defaults_to_immediate() {
        assert_eq!(
            ClusterConfig::builder().build().group_commit(),
            GroupCommitPolicy::Immediate
        );
        assert!(GroupCommitPolicy::Immediate.is_immediate());
        assert!(GroupCommitPolicy::Window {
            window_us: 100,
            max_batch: 1
        }
        .is_immediate());
        assert!(!GroupCommitPolicy::Window {
            window_us: 100,
            max_batch: 8
        }
        .is_immediate());
    }
}
