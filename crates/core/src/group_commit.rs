//! Per-node force scheduler: the group-commit batching policy.
//!
//! `Node::commit_begin` appends a transaction's Commit record and
//! registers it here as *force-pending* at its commit LSN. The
//! scheduler decides when the node's next `LogManager::force` happens;
//! one force then acknowledges every pending transaction whose commit
//! LSN it covers. Under [`GroupCommitPolicy::Immediate`] every submit
//! is due at once (one force per commit, the paper's baseline §2.2
//! behavior); under [`GroupCommitPolicy::Window`] the force is held
//! until the window elapses or the batch fills, amortizing the
//! dominant commit-path cost (`io_fixed_us`) across the group.
//! [`GroupCommitPolicy::Adaptive`] sizes that window itself: a decayed
//! (EWMA, α = ¼) estimate of the commit inter-arrival gap picks
//! `window = gap × (target_batch − 1)` per batch, clamped to the
//! configured bounds, collapsing to the minimum window when no
//! companion commit is expected in time.
//!
//!
//! It also holds the ship-force rule's state, the pages each parked
//! commit wrote: [`ForceScheduler::ship_needs_force`] is the one
//! predicate both engines ask before a page leaves its owner.
//!
//! The scheduler never talks to the log itself — the cluster owns the
//! force (it also charges simulated I/O for it). This keeps the
//! batching policy and the WAL mechanism independently testable.

use std::collections::VecDeque;

use cblog_common::{Lsn, PageId, SimTime, TxnId};

use crate::config::GroupCommitPolicy;

/// One force-pending commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingCommit {
    /// The committing transaction.
    pub txn: TxnId,
    /// LSN of its Commit record; durable once `flushed_lsn` passes it.
    pub lsn: Lsn,
}

/// Coalesces force-pending commits for one node.
#[derive(Debug)]
pub struct ForceScheduler {
    policy: GroupCommitPolicy,
    pending: VecDeque<PendingCommit>,
    /// The pages each parked commit wrote, keyed by its commit LSN, in
    /// submission order. Trimmed with `pending`, so its capacity is
    /// reused from batch to batch.
    writes: Vec<(Lsn, PageId)>,
    /// Sim-time at which the open window expires (set when the first
    /// commit of a batch arrives; cleared when the batch drains).
    deadline: Option<SimTime>,
    /// Sim-time the open batch's first commit arrived (adaptive
    /// resizes measure the window from here, never extending it).
    batch_open: SimTime,
    /// Sim-time of the last submit, for gap measurement.
    last_submit: Option<SimTime>,
    /// Decayed commit inter-arrival gap, µs in ×8 fixed point
    /// (`None` until two submits have been observed).
    ema_gap_x8: Option<u64>,
}

impl ForceScheduler {
    /// New scheduler with the given policy.
    pub fn new(policy: GroupCommitPolicy) -> Self {
        ForceScheduler {
            policy,
            pending: VecDeque::new(),
            writes: Vec::new(),
            deadline: None,
            batch_open: 0,
            last_submit: None,
            ema_gap_x8: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> GroupCommitPolicy {
        self.policy
    }

    /// The window the scheduler would hold the next batch open for:
    /// 0 for [`GroupCommitPolicy::Immediate`], the static width for
    /// [`GroupCommitPolicy::Window`], and the rate-derived width for
    /// [`GroupCommitPolicy::Adaptive`]. Surfaced as `wal/window_us`.
    pub fn window_us(&self) -> SimTime {
        match self.policy {
            GroupCommitPolicy::Immediate => 0,
            GroupCommitPolicy::Window { window_us, .. } => window_us,
            GroupCommitPolicy::Adaptive {
                min_window_us,
                max_window_us,
                target_batch,
            } => match self.ema_gap_x8 {
                // No rate estimate yet: assume light load.
                None => min_window_us,
                Some(g8) => {
                    let gap = g8 / 8;
                    if gap > max_window_us {
                        // Even one companion is not expected within the
                        // latency budget — batching is futile, degrade
                        // to (near-)Immediate latency.
                        min_window_us
                    } else {
                        gap.saturating_mul(target_batch.saturating_sub(1) as u64)
                            .clamp(min_window_us, max_window_us)
                    }
                }
            },
        }
    }

    /// Registers a commit as force-pending. The first commit of a
    /// batch opens the window at `now`; under the adaptive policy each
    /// submit refreshes the rate estimate and may *shrink* (never
    /// extend) the open window.
    pub fn submit(&mut self, txn: TxnId, lsn: Lsn, now: SimTime) {
        if let GroupCommitPolicy::Adaptive { .. } = self.policy {
            if let Some(prev) = self.last_submit {
                let gap = now.saturating_sub(prev);
                // EWMA with α = ¼ in ×8 fixed point: integer-only and
                // deterministic, yet able to represent sub-µs gaps.
                self.ema_gap_x8 = Some(match self.ema_gap_x8 {
                    None => gap * 8,
                    Some(e) => (3 * e + 8 * gap) / 4,
                });
            }
            self.last_submit = Some(now);
        }
        if self.pending.is_empty() {
            self.batch_open = now;
            self.deadline = match self.policy {
                GroupCommitPolicy::Immediate => Some(now),
                GroupCommitPolicy::Window { window_us, .. } => Some(now + window_us),
                GroupCommitPolicy::Adaptive { .. } => Some(now + self.window_us()),
            };
        } else if let GroupCommitPolicy::Adaptive { .. } = self.policy {
            // The refreshed estimate resizes the open window, measured
            // from the first commit's arrival. A shorter window takes
            // effect at once; a longer one never delays the commits
            // already waiting.
            let resized = self.batch_open + self.window_us();
            if self.deadline.is_some_and(|d| resized < d) {
                self.deadline = Some(resized);
            }
        }
        self.pending.push_back(PendingCommit { txn, lsn });
    }

    /// True once the batch must be forced: window expired or batch
    /// full. Empty schedulers are never due.
    pub fn is_due(&self, now: SimTime) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        match self.policy {
            GroupCommitPolicy::Immediate => true,
            GroupCommitPolicy::Window { max_batch, .. } => {
                (max_batch > 0 && self.pending.len() >= max_batch)
                    || self.deadline.is_some_and(|d| now >= d)
            }
            GroupCommitPolicy::Adaptive { target_batch, .. } => {
                (target_batch > 0 && self.pending.len() >= target_batch)
                    || self.deadline.is_some_and(|d| now >= d)
            }
        }
    }

    /// Deadline of the open window, if a batch is pending. `pump`
    /// advances the sim-clock here when the system is otherwise idle.
    pub fn deadline(&self) -> Option<SimTime> {
        if self.pending.is_empty() {
            None
        } else {
            self.deadline
        }
    }

    /// Number of force-pending commits.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Records the pages written by the commit just submitted at
    /// `lsn`, for [`ForceScheduler::ship_needs_force`].
    pub fn wrote(&mut self, lsn: Lsn, pages: impl IntoIterator<Item = PageId>) {
        self.writes.extend(pages.into_iter().map(|pid| (lsn, pid)));
    }

    /// The ship-force rule (DESIGN §16): true if some parked commit
    /// whose record is not durable at `flushed` wrote `pid`. Its
    /// transaction has released its locks, so the page's image may
    /// carry its update, and a crash now would still roll it back: the
    /// log must be forced before the image leaves the node.
    pub fn ship_needs_force(&self, pid: PageId, flushed: Lsn) -> bool {
        self.writes
            .iter()
            .any(|&(lsn, p)| p == pid && lsn >= flushed)
    }

    /// True if `txn` is parked here awaiting a force.
    pub fn is_pending(&self, txn: TxnId) -> bool {
        self.pending.iter().any(|p| p.txn == txn)
    }

    /// Removes and returns every pending commit whose Commit record is
    /// durable (`lsn < flushed`), in submission order, and forgets the
    /// pages they wrote. Called after
    /// *any* force of the node's log — including WAL-rule forces taken
    /// for page transfers — so batches interleaved with other forces
    /// are acknowledged exactly once (idempotent: a second call with
    /// the same `flushed` returns nothing).
    pub fn drain_acked(&mut self, flushed: Lsn) -> Vec<TxnId> {
        let mut acked = Vec::new();
        self.pending.retain(|p| {
            if p.lsn < flushed {
                acked.push(p.txn);
                false
            } else {
                true
            }
        });
        self.writes.retain(|&(lsn, _)| lsn >= flushed);
        if self.pending.is_empty() {
            self.deadline = None;
        }
        acked
    }

    /// Drops all pending commits (node crash: the unforced Commit
    /// records are gone, so the transactions were never committed).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.writes.clear();
        self.deadline = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    fn txn(i: u64) -> TxnId {
        TxnId::new(NodeId(1), i)
    }

    fn windowed(window_us: SimTime, max_batch: usize) -> ForceScheduler {
        ForceScheduler::new(GroupCommitPolicy::Window {
            window_us,
            max_batch,
        })
    }

    #[test]
    fn immediate_is_due_on_first_submit() {
        let mut s = ForceScheduler::new(GroupCommitPolicy::Immediate);
        assert!(!s.is_due(0));
        s.submit(txn(1), Lsn(8), 0);
        assert!(s.is_due(0));
    }

    #[test]
    fn window_holds_until_deadline_or_full_batch() {
        let mut s = windowed(100, 3);
        s.submit(txn(1), Lsn(8), 50);
        assert!(!s.is_due(149), "window still open");
        assert!(s.is_due(150), "deadline reached");
        assert_eq!(s.deadline(), Some(150));
        // Later submits do not extend the first commit's deadline.
        s.submit(txn(2), Lsn(40), 120);
        assert_eq!(s.deadline(), Some(150));
        // A full batch is due regardless of the clock.
        s.submit(txn(3), Lsn(80), 121);
        assert!(s.is_due(121));
    }

    #[test]
    fn drain_acks_only_durable_commits_in_order() {
        let mut s = windowed(100, 8);
        s.submit(txn(1), Lsn(8), 0);
        s.submit(txn(2), Lsn(40), 1);
        s.submit(txn(3), Lsn(80), 2);
        // A force that covered only the first two records (e.g. a
        // WAL-rule force that ran before txn 3 appended).
        assert_eq!(s.drain_acked(Lsn(80)), vec![txn(1), txn(2)]);
        assert_eq!(s.drain_acked(Lsn(80)), Vec::<TxnId>::new(), "idempotent");
        assert!(s.is_pending(txn(3)));
        assert_eq!(s.drain_acked(Lsn(200)), vec![txn(3)]);
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.deadline(), None, "deadline cleared with the batch");
    }

    fn pid(i: u32) -> PageId {
        PageId::new(NodeId(0), i)
    }

    #[test]
    fn a_ship_needs_a_force_only_for_a_page_an_undurable_parked_commit_wrote() {
        let mut s = windowed(100, 8);
        s.submit(txn(1), Lsn(8), 0);
        s.wrote(Lsn(8), [pid(0)]);
        s.submit(txn(2), Lsn(40), 1);
        s.wrote(Lsn(40), [pid(1), pid(2)]);
        assert!(s.ship_needs_force(pid(0), Lsn(8)));
        assert!(s.ship_needs_force(pid(2), Lsn(8)));
        assert!(
            !s.ship_needs_force(pid(3), Lsn(8)),
            "no parked commit wrote it"
        );
        // A force nobody has drained yet already answers for the
        // commits it covered.
        assert!(!s.ship_needs_force(pid(0), Lsn(40)), "txn 1 is durable");
        assert!(s.ship_needs_force(pid(1), Lsn(40)), "txn 2 is not");
    }

    #[test]
    fn a_partial_drain_forgets_only_the_acknowledged_commits_pages() {
        let mut s = windowed(100, 8);
        s.submit(txn(1), Lsn(8), 0);
        s.wrote(Lsn(8), [pid(0), pid(2)]);
        s.submit(txn(2), Lsn(40), 1);
        s.wrote(Lsn(40), [pid(0), pid(1)]);
        assert_eq!(s.drain_acked(Lsn(40)), vec![txn(1)]);
        // Asked with an older flush mark, only txn 2's pages remain.
        assert!(
            !s.ship_needs_force(pid(2), Lsn::ZERO),
            "only txn 1 wrote P2"
        );
        assert!(s.ship_needs_force(pid(0), Lsn::ZERO), "txn 2 also wrote P0");
        assert!(s.ship_needs_force(pid(1), Lsn::ZERO));
        assert_eq!(s.drain_acked(Lsn(200)), vec![txn(2)]);
        assert!(!s.ship_needs_force(pid(0), Lsn::ZERO));
        assert!(!s.ship_needs_force(pid(1), Lsn::ZERO));
    }

    fn adaptive(min: SimTime, max: SimTime, target: usize) -> ForceScheduler {
        ForceScheduler::new(GroupCommitPolicy::Adaptive {
            min_window_us: min,
            max_window_us: max,
            target_batch: target,
        })
    }

    #[test]
    fn adaptive_starts_at_the_minimum_window() {
        let mut s = adaptive(10, 1_000, 4);
        assert_eq!(s.window_us(), 10, "no rate estimate yet");
        s.submit(txn(1), Lsn(8), 100);
        assert_eq!(s.deadline(), Some(110));
        assert!(!s.is_due(109));
        assert!(s.is_due(110));
    }

    #[test]
    fn adaptive_window_tracks_the_arrival_rate() {
        let mut s = adaptive(10, 1_000, 4);
        // Steady stream 50 µs apart: the EWMA converges to gap = 50,
        // so the window converges to 50 × (4 − 1) = 150.
        let mut now = 0;
        for i in 0..32 {
            s.submit(txn(i), Lsn(8 * (i + 1)), now);
            s.drain_acked(Lsn(u64::MAX));
            now += 50;
        }
        assert_eq!(s.window_us(), 150);
        // The stream speeds up 10×: the window shrinks toward 15.
        for i in 32..64 {
            s.submit(txn(i), Lsn(8 * (i + 1)), now);
            s.drain_acked(Lsn(u64::MAX));
            now += 5;
        }
        assert_eq!(s.window_us(), 15);
    }

    #[test]
    fn adaptive_clamps_and_degenerates_under_light_load() {
        let mut s = adaptive(10, 100, 4);
        // Gap 1000 µs > max window: no companion can arrive in time,
        // so the controller collapses to the minimum window instead of
        // making every commit wait the full 100 µs for nothing.
        let mut now = 0;
        for i in 0..16 {
            s.submit(txn(i), Lsn(8 * (i + 1)), now);
            s.drain_acked(Lsn(u64::MAX));
            now += 1_000;
        }
        assert_eq!(s.window_us(), 10);
        // Gap 60 µs: desired window 180 exceeds the max → clamped.
        let mut s = adaptive(10, 100, 4);
        let mut now = 0;
        for i in 0..16 {
            s.submit(txn(i), Lsn(8 * (i + 1)), now);
            s.drain_acked(Lsn(u64::MAX));
            now += 60;
        }
        assert_eq!(s.window_us(), 100);
        // Gap 1 µs: desired window 3 is below the min → clamped up.
        let mut s = adaptive(10, 100, 4);
        for i in 0..16 {
            s.submit(txn(i), Lsn(8 * (i + 1)), i);
            s.drain_acked(Lsn(u64::MAX));
        }
        assert_eq!(s.window_us(), 10);
    }

    #[test]
    fn adaptive_resize_shrinks_but_never_extends_an_open_window() {
        let mut s = adaptive(10, 10_000, 8);
        // Train a slow rate: gap 500 → window 3500.
        let mut now = 0;
        for i in 0..16 {
            s.submit(txn(i), Lsn(8 * (i + 1)), now);
            s.drain_acked(Lsn(u64::MAX));
            now += 500;
        }
        assert_eq!(s.window_us(), 3_500);
        // Open a batch; then a burst arrives. Each fast submit pulls
        // the gap estimate (and the open deadline) down, measured from
        // the batch's first commit.
        s.submit(txn(100), Lsn(2_000), now);
        let d0 = s.deadline().unwrap();
        assert_eq!(d0, now + 3_500);
        let open = now;
        for i in 1..5 {
            s.submit(txn(100 + i), Lsn(2_000 + 8 * i), now + i);
        }
        let d1 = s.deadline().unwrap();
        assert!(d1 < d0, "burst must shrink the open window");
        assert!(d1 >= open + 10, "never below the minimum window");
        // A slow straggler afterwards must not push the deadline back.
        s.submit(txn(200), Lsn(3_000), now + 3_000);
        assert!(s.deadline().unwrap() <= d1.max(now + 3_000));
    }

    #[test]
    fn adaptive_batch_fills_at_target() {
        let mut s = adaptive(10, 1_000_000, 3);
        s.submit(txn(1), Lsn(8), 0);
        s.submit(txn(2), Lsn(16), 0);
        assert!(!s.is_due(0), "window open, batch below target");
        s.submit(txn(3), Lsn(24), 0);
        assert!(s.is_due(0), "target batch reached");
    }

    #[test]
    fn clear_drops_everything() {
        let mut s = windowed(100, 8);
        s.submit(txn(1), Lsn(8), 0);
        s.wrote(Lsn(8), [pid(0)]);
        s.clear();
        assert_eq!(s.pending_len(), 0);
        assert!(!s.ship_needs_force(pid(0), Lsn::ZERO), "pages forgotten");
        assert!(!s.is_due(1_000_000));
        assert_eq!(s.drain_acked(Lsn(u64::MAX)), Vec::<TxnId>::new());
    }
}
