//! Simulated time and the experiment cost model.
//!
//! The 1996 paper's performance arguments are about *counts*: messages
//! exchanged, log records shipped, pages forced to disk, log bytes
//! scanned during recovery. The simulator counts all of those exactly;
//! the cost model here merely converts counts into a simulated elapsed
//! time so experiments can also report latency/throughput-shaped results
//! with an explicit, configurable hardware flavour.

use crate::ids::NodeId;

/// Simulated time in microseconds.
pub type SimTime = u64;

/// Converts protocol events into simulated elapsed time.
///
/// Defaults are flavoured after mid-1990s commodity hardware (10 Mb/s
/// switched Ethernet, ~10 ms average disk access), which is the setting
/// the paper argues in. Every experiment either sweeps these or reports
/// the underlying counts, which are model-free.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Fixed per-message latency (send+receive software overhead), µs.
    pub msg_fixed_us: u64,
    /// Per-KiB wire cost, µs (10 Mb/s ≈ 800 µs/KiB; we default to a
    /// faster 100 Mb/s-class 80 µs/KiB to avoid drowning every effect in
    /// wire time).
    pub wire_us_per_kib: u64,
    /// Fixed per-I/O disk latency (seek + rotation), µs.
    pub io_fixed_us: u64,
    /// Per-KiB disk transfer cost, µs.
    pub disk_us_per_kib: u64,
    /// CPU cost charged to a node for handling one message, µs.
    pub handle_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            msg_fixed_us: 500,
            wire_us_per_kib: 80,
            io_fixed_us: 10_000,
            disk_us_per_kib: 350,
            handle_us: 100,
        }
    }
}

impl CostModel {
    /// A model where only message counts matter (unit costs); useful in
    /// tests asserting exact accounting.
    pub fn unit() -> Self {
        CostModel {
            msg_fixed_us: 1,
            wire_us_per_kib: 0,
            io_fixed_us: 1,
            disk_us_per_kib: 0,
            handle_us: 0,
        }
    }

    /// Simulated cost of a message carrying `bytes` payload bytes.
    pub fn message_cost(&self, bytes: usize) -> SimTime {
        self.msg_fixed_us + (bytes as u64 * self.wire_us_per_kib) / 1024
    }

    /// Simulated cost of one disk I/O of `bytes` bytes.
    pub fn io_cost(&self, bytes: usize) -> SimTime {
        self.io_fixed_us + (bytes as u64 * self.disk_us_per_kib) / 1024
    }
}

/// Resource bucket for per-node simulated-time attribution (the
/// profiler dimension of DESIGN §11).
///
/// Every microsecond of per-node service time lands in exactly one
/// bucket, so a node's bucket row is a partition of its busy time;
/// [`Bucket::LockWait`] is the one exception — blocked time is not
/// service time, so it accumulates beside `busy`, not inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// Synchronous disk work: log forces, page reads/writes.
    Disk,
    /// Plain CPU work (record generation, replay application, …).
    Cpu,
    /// Message handling (send/receive software path).
    Net,
    /// Time a transaction spent blocked on a conflicting lock.
    LockWait,
    /// Work performed on behalf of crash recovery (any resource).
    Replay,
}

/// Number of [`Bucket`] variants.
pub const BUCKETS: usize = 5;

impl Bucket {
    /// Every bucket, in display order.
    pub const ALL: [Bucket; BUCKETS] = [
        Bucket::Disk,
        Bucket::Cpu,
        Bucket::Net,
        Bucket::LockWait,
        Bucket::Replay,
    ];

    /// Stable label used in metric keys, folded stacks and reports.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Disk => "disk",
            Bucket::Cpu => "cpu",
            Bucket::Net => "net",
            Bucket::LockWait => "lock_wait",
            Bucket::Replay => "replay",
        }
    }

    fn index(self) -> usize {
        match self {
            Bucket::Disk => 0,
            Bucket::Cpu => 1,
            Bucket::Net => 2,
            Bucket::LockWait => 3,
            Bucket::Replay => 4,
        }
    }
}

/// Simulated clock with per-node busy-time accounting.
///
/// `busy[n]` accumulates the service time node `n` spent handling
/// messages and performing disk I/O. A centralized design (e.g. server
/// logging à la ARIES/CSA) concentrates busy time on the server; the
/// sustainable system throughput is bounded by the busiest resource,
/// which is how the scalability experiment (E2) quantifies the paper's
/// "dependencies on server resources are reduced considerably" claim.
///
/// Alongside `busy`, each charge is attributed to a [`Bucket`], so
/// `bucket_us(n, b)` decomposes a node's busy time into disk / CPU / net /
/// replay (plus lock-wait, which is tracked but never part of `busy`).
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: SimTime,
    busy: Vec<SimTime>,
    buckets: Vec<[SimTime; BUCKETS]>,
}

impl SimClock {
    /// New clock at time zero tracking `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        SimClock {
            now: 0,
            busy: vec![0; nodes],
            buckets: vec![[0; BUCKETS]; nodes],
        }
    }

    /// Current simulated time, µs.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances global time by `dt` µs.
    pub fn advance(&mut self, dt: SimTime) {
        self.now += dt;
    }

    /// Charges service time to `node` in `bucket` without advancing
    /// global time (work overlapped with other activity).
    pub fn charge_overlapped_as(&mut self, node: NodeId, bucket: Bucket, dt: SimTime) {
        if let Some(b) = self.busy.get_mut(node.0 as usize) {
            *b += dt;
            self.buckets[node.0 as usize][bucket.index()] += dt;
        }
    }

    /// Records `dt` µs `node` spent blocked on a lock. Blocked time is
    /// not service time: it lands in [`Bucket::LockWait`] only, never
    /// in `busy`.
    pub fn charge_wait(&mut self, node: NodeId, dt: SimTime) {
        if let Some(b) = self.buckets.get_mut(node.0 as usize) {
            b[Bucket::LockWait.index()] += dt;
        }
    }

    /// Busy time accumulated by `node`, µs.
    pub fn busy(&self, node: NodeId) -> SimTime {
        self.busy.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// Time attributed to `bucket` on `node`, µs.
    pub fn bucket_us(&self, node: NodeId, bucket: Bucket) -> SimTime {
        self.buckets
            .get(node.0 as usize)
            .map(|b| b[bucket.index()])
            .unwrap_or(0)
    }

    /// Busy time of the busiest node — the bottleneck resource.
    pub fn max_busy(&self) -> SimTime {
        self.busy.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_costs_scale_with_bytes() {
        let m = CostModel::default();
        assert!(m.message_cost(8192) > m.message_cost(64));
        assert!(m.io_cost(8192) > m.io_cost(0));
        assert_eq!(m.io_cost(0), m.io_fixed_us);
    }

    #[test]
    fn unit_model_counts_events() {
        let m = CostModel::unit();
        assert_eq!(m.message_cost(1 << 20), 1);
        assert_eq!(m.io_cost(1 << 20), 1);
    }

    /// Service time that also advances the clock.
    fn charge(c: &mut SimClock, node: NodeId, bucket: Bucket, dt: SimTime) {
        c.advance(dt);
        c.charge_overlapped_as(node, bucket, dt);
    }

    #[test]
    fn clock_accumulates_and_finds_bottleneck() {
        let mut c = SimClock::new(3);
        charge(&mut c, NodeId(0), Bucket::Cpu, 5);
        charge(&mut c, NodeId(1), Bucket::Cpu, 20);
        charge(&mut c, NodeId(1), Bucket::Cpu, 5);
        c.charge_overlapped_as(NodeId(2), Bucket::Cpu, 100);
        assert_eq!(c.now(), 30);
        assert_eq!(c.busy(NodeId(0)), 5);
        assert_eq!(c.busy(NodeId(1)), 25);
        assert_eq!(c.busy(NodeId(2)), 100);
        assert_eq!(c.max_busy(), 100);
    }

    #[test]
    fn charging_unknown_node_is_ignored() {
        let mut c = SimClock::new(1);
        charge(&mut c, NodeId(9), Bucket::Cpu, 7);
        assert_eq!(c.now(), 7);
        assert_eq!(c.busy(NodeId(9)), 0);
        assert!(Bucket::ALL.iter().all(|&b| c.bucket_us(NodeId(9), b) == 0));
    }

    #[test]
    fn buckets_partition_busy_time() {
        let mut c = SimClock::new(2);
        charge(&mut c, NodeId(0), Bucket::Disk, 10);
        c.charge_overlapped_as(NodeId(0), Bucket::Net, 3);
        charge(&mut c, NodeId(0), Bucket::Cpu, 4);
        c.charge_overlapped_as(NodeId(1), Bucket::Replay, 8);
        c.charge_wait(NodeId(0), 100);
        for n in [NodeId(0), NodeId(1)] {
            let service: SimTime = Bucket::ALL
                .iter()
                .filter(|b| **b != Bucket::LockWait)
                .map(|&b| c.bucket_us(n, b))
                .sum();
            assert_eq!(service, c.busy(n), "buckets partition busy for {n:?}");
        }
        assert_eq!(c.bucket_us(NodeId(0), Bucket::Disk), 10);
        assert_eq!(c.bucket_us(NodeId(0), Bucket::Cpu), 4);
        assert_eq!(c.bucket_us(NodeId(0), Bucket::LockWait), 100);
        assert_eq!(c.busy(NodeId(0)), 17, "lock-wait never counts as busy");
        assert_eq!(c.bucket_us(NodeId(1), Bucket::Replay), 8);
    }

    #[test]
    fn bucket_labels_are_stable() {
        let labels: Vec<&str> = Bucket::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels, vec!["disk", "cpu", "net", "lock_wait", "replay"]);
    }
}
