//! Parameterized workload generation (seeded, reproducible).

use cblog_common::{NodeId, PageId, Rng};
use cblog_core::{PlanOp, TxnPlan};

/// Workload shape parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// RNG seed — identical seeds produce identical workloads.
    pub seed: u64,
    /// Transactions per client.
    pub txns_per_client: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Fraction of operations that are writes.
    pub write_ratio: f64,
    /// Fraction of accesses that hit the hot set.
    pub hot_access: f64,
    /// Fraction of pages forming the hot set.
    pub hot_fraction: f64,
    /// Probability a transaction ends in a user abort.
    pub abort_prob: f64,
    /// Slots used per page (bounds slot choice).
    pub slots_per_page: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            txns_per_client: 50,
            ops_per_txn: 8,
            write_ratio: 0.5,
            hot_access: 0.0,
            hot_fraction: 0.1,
            abort_prob: 0.0,
            slots_per_page: 16,
        }
    }
}

/// Generates per-client transaction queues over `pages`, every plan on
/// stream 0 of its client. Each client draws from the same page
/// population (sharing governed by hot-set skew); `private_pages`, if
/// given, maps each client to a disjoint page subset instead
/// (contention-free workloads for bottleneck experiments).
pub fn generate(
    cfg: &WorkloadConfig,
    clients: &[NodeId],
    pages: &[PageId],
    private_pages: Option<&dyn Fn(NodeId) -> Vec<PageId>>,
) -> Vec<TxnPlan> {
    assert!(!pages.is_empty(), "workload needs pages");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let hot_n = ((pages.len() as f64 * cfg.hot_fraction).ceil() as usize).clamp(1, pages.len());
    let mut plans = Vec::with_capacity(clients.len() * cfg.txns_per_client);
    let mut val = 1u64;
    for &client in clients {
        let pool: Vec<PageId> = match private_pages {
            Some(f) => f(client),
            None => pages.to_vec(),
        };
        assert!(!pool.is_empty(), "client {client} has no pages");
        let hot = hot_n.min(pool.len());
        for _ in 0..cfg.txns_per_client {
            let mut ops = Vec::with_capacity(cfg.ops_per_txn);
            for _ in 0..cfg.ops_per_txn {
                let pid = if cfg.hot_access > 0.0 && rng.gen_bool(cfg.hot_access) {
                    pool[rng.gen_range_usize(0..hot)]
                } else {
                    pool[rng.gen_range_usize(0..pool.len())]
                };
                let slot = rng.gen_range_usize(0..cfg.slots_per_page);
                if rng.gen_bool(cfg.write_ratio) {
                    val += 1;
                    ops.push(PlanOp::Write {
                        pid,
                        slot,
                        value: val,
                    });
                } else {
                    ops.push(PlanOp::Read { pid, slot });
                }
            }
            let abort = cfg.abort_prob > 0.0 && rng.gen_bool(cfg.abort_prob);
            plans.push(TxnPlan {
                client,
                stream: 0,
                ops,
                abort,
            });
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::pages0;

    fn pid(op: &PlanOp) -> PageId {
        match *op {
            PlanOp::Read { pid, .. } | PlanOp::Write { pid, .. } => pid,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::default();
        let clients = [NodeId(1), NodeId(2)];
        let pages = pages0(8);
        let a = generate(&cfg, &clients, &pages, None);
        let b = generate(&cfg, &clients, &pages, None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.client, y.client);
            assert_eq!(x.abort, y.abort);
        }
    }

    #[test]
    fn write_ratio_respected_roughly() {
        let cfg = WorkloadConfig {
            write_ratio: 0.25,
            txns_per_client: 100,
            ops_per_txn: 10,
            ..WorkloadConfig::default()
        };
        let specs = generate(&cfg, &[NodeId(1)], &pages0(4), None);
        let (mut w, mut total) = (0usize, 0usize);
        for s in &specs {
            for op in &s.ops {
                total += 1;
                if matches!(op, PlanOp::Write { .. }) {
                    w += 1;
                }
            }
        }
        let ratio = w as f64 / total as f64;
        assert!((0.18..0.32).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hot_skew_concentrates_accesses() {
        let cfg = WorkloadConfig {
            hot_access: 0.9,
            hot_fraction: 0.1,
            txns_per_client: 200,
            ..WorkloadConfig::default()
        };
        let pages = pages0(20);
        let specs = generate(&cfg, &[NodeId(1)], &pages, None);
        let hot_set: Vec<PageId> = pages[..2].to_vec();
        let (mut hot, mut total) = (0usize, 0usize);
        for s in &specs {
            for op in &s.ops {
                total += 1;
                if hot_set.contains(&pid(op)) {
                    hot += 1;
                }
            }
        }
        assert!(
            hot as f64 / total as f64 > 0.7,
            "hot fraction {}",
            hot as f64 / total as f64
        );
    }

    #[test]
    fn private_pages_partition() {
        let cfg = WorkloadConfig::default();
        let pages = pages0(8);
        let private = |c: NodeId| -> Vec<PageId> {
            if c == NodeId(1) {
                pages[..4].to_vec()
            } else {
                pages[4..].to_vec()
            }
        };
        let specs = generate(&cfg, &[NodeId(1), NodeId(2)], &pages, Some(&private));
        for s in &specs {
            for op in &s.ops {
                if s.client == NodeId(1) {
                    assert!(pid(op).index < 4);
                } else {
                    assert!(pid(op).index >= 4);
                }
            }
        }
    }

    #[test]
    fn abort_probability_generates_aborts() {
        let cfg = WorkloadConfig {
            abort_prob: 0.5,
            txns_per_client: 100,
            ..WorkloadConfig::default()
        };
        let specs = generate(&cfg, &[NodeId(1)], &pages0(4), None);
        let aborts = specs.iter().filter(|s| s.abort).count();
        assert!((20..80).contains(&aborts), "aborts {aborts}");
    }
}
