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

/// The logging paradigm a [`crate::Cluster`] runs: client-based
/// logging or one of the three baselines the paper contrasts it with
/// (§3.1 and §3.2). Every other step (callback locking, page fetch,
/// eviction routing) is the same protocol, so an experiment that
/// changes the paradigm changes nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Paradigm {
    /// The paper's design: steal/no-force buffering, one local log per
    /// node, pages move between nodes without touching a disk.
    #[default]
    ClientBased,
    /// Rdb/VMS and the Mohan–Narang simple/medium shared-disks
    /// schemes: a dirty page is forced to its owner's disk whenever it
    /// moves between nodes.
    ForceOnTransfer,
    /// Primary-copy authority (Rahm 1991), with the page's owner as its
    /// PCA node: no-steal buffering (an updated page stays pinned in
    /// the modifier's cache until its transaction ends), and at commit
    /// every updated remote page travels to its owner together with
    /// its log records, which the owner appends to its own log and
    /// forces before acknowledging (double logging). Priced under
    /// [`GroupCommitPolicy::Immediate`] only: a parked commit would
    /// let another local transaction update a page before it ships.
    /// Recovery is not modelled: [`crate::recover`] refuses such a
    /// cluster. A traced run fails [`crate::Cluster::trace_check`] on
    /// "log records crossed the network", the property this scheme
    /// breaks by design.
    PrimaryCopy,
    /// ARIES/CSA client-server logging (§3.1). Node 0 is the server: it
    /// owns every page ([`crate::Cluster::new`] refuses a configuration
    /// in which another node owns any) and keeps the only durable log.
    /// A client appends its records to its own log, which is never
    /// forced: it is the transaction's record buffer, and rollback
    /// reads it. The records travel to the server at commit, or
    /// earlier when a dirty page they cover returns to the server (the
    /// WAL rule, followed by a server force). A commit is a log ship, a
    /// commit request, a server force and an acknowledgement, and it
    /// is synchronous under every [`GroupCommitPolicy`]. A server
    /// checkpoint first collects the dirty pages of every client. That
    /// checkpoint lists no client transaction as active, and recovery
    /// is not modelled: [`crate::recover`] refuses such a cluster. A
    /// traced run fails [`crate::Cluster::trace_check`] on "log records
    /// crossed the network", as under [`Paradigm::PrimaryCopy`].
    ClientServer,
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
    /// Pages owned by each node, one entry per node: node ids are
    /// `0..owned_pages.len()`, and a node with 0 owns no database.
    pub(crate) owned_pages: Vec<u32>,
    /// Template for per-node settings other than `owned_pages`.
    pub(crate) default_node: NodeConfig,
    /// Simulated cost model for messages and disk I/O.
    pub(crate) cost: CostModel,
    /// The logging paradigm; the paper's design is
    /// [`Paradigm::ClientBased`], the others are its §3.1–3.2 baselines.
    pub(crate) paradigm: Paradigm,
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
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            owned_pages: vec![16, 16],
            default_node: NodeConfig::default(),
            cost: CostModel::default(),
            paradigm: Paradigm::ClientBased,
            group_commit: GroupCommitPolicy::Immediate,
            faults: FaultPlan::default(),
            tracing: false,
        }
    }
}

impl ClusterConfig {
    /// Starts a fluent builder — the single construction path for
    /// cluster configurations.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// Per-node config for node `i` (`i < owned_pages.len()`).
    pub(crate) fn node_config(&self, i: usize) -> NodeConfig {
        NodeConfig {
            owned_pages: self.owned_pages[i],
            ..self.default_node.clone()
        }
    }

    /// Page size in bytes (uniform across nodes).
    pub fn page_size(&self) -> usize {
        self.default_node.page_size
    }

    /// The logging paradigm.
    pub fn paradigm(&self) -> Paradigm {
        self.paradigm
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
/// assert_eq!(cfg.page_size(), 512);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the per-node ownership vector, and so the node count.
    pub fn owned_pages(mut self, per_node: Vec<u32>) -> Self {
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

    /// Sets the logging paradigm (the §3.1–3.2 baselines).
    pub fn paradigm(mut self, paradigm: Paradigm) -> Self {
        self.cfg.paradigm = paradigm;
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
        let cfg = ClusterConfig::builder().owned_pages(vec![8, 0]).build();
        assert_eq!(cfg.node_config(0).owned_pages, 8);
        assert_eq!(cfg.node_config(1).owned_pages, 0);
        assert_eq!(cfg.owned_pages.len(), 2, "one node per entry");
    }

    #[test]
    fn group_commit_defaults_to_immediate() {
        assert_eq!(
            ClusterConfig::builder().build().group_commit,
            GroupCommitPolicy::Immediate
        );
    }
}
