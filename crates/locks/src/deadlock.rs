//! Waits-for graph deadlock detection.
//!
//! The deterministic cluster scheduler records an edge whenever a
//! transaction's operation reports `WouldBlock` on a set of holders,
//! and clears a transaction's edges when it runs again or terminates.
//! Cycle detection picks the youngest transaction in the cycle as the
//! victim (largest id: ids grow with start order on each node).

use cblog_common::{IdMap, IdSet, TxnId};

/// A waits-for graph over transactions.
#[derive(Debug, Default)]
pub struct WaitsForGraph {
    edges: IdMap<TxnId, IdSet<TxnId>>,
}

impl WaitsForGraph {
    /// Empty graph.
    pub fn new() -> Self {
        WaitsForGraph::default()
    }

    /// Replaces the wait set of `waiter` (it blocks on `holders`).
    pub fn set_waits(&mut self, waiter: TxnId, holders: &[TxnId]) {
        let set: IdSet<TxnId> = holders.iter().copied().filter(|h| *h != waiter).collect();
        if set.is_empty() {
            self.edges.remove(&waiter);
        } else {
            self.edges.insert(waiter, set);
        }
    }

    /// Removes `txn` both as waiter and as awaited holder.
    pub fn remove(&mut self, txn: TxnId) {
        self.edges.remove(&txn);
        for set in self.edges.values_mut() {
            set.remove(&txn);
        }
        self.edges.retain(|_, s| !s.is_empty());
    }

    /// Finds a cycle and returns the chosen victim (the youngest, i.e.
    /// largest-id transaction in the cycle), or `None`.
    pub fn find_victim(&self) -> Option<TxnId> {
        // Iterative DFS with three-color marking over a deterministic
        // ordering of start nodes.
        let mut starts: Vec<TxnId> = self.edges.keys().copied().collect();
        starts.sort();
        let mut color: IdMap<TxnId, u8> = IdMap::default(); // 1=gray, 2=black
        for &s in &starts {
            if color.get(&s).copied().unwrap_or(0) != 0 {
                continue;
            }
            // stack of (node, neighbor iterator index); keep a path.
            let mut path: Vec<TxnId> = Vec::new();
            let mut stack: Vec<(TxnId, Vec<TxnId>, usize)> = Vec::new();
            let neigh = |t: TxnId| -> Vec<TxnId> {
                let mut v: Vec<TxnId> = self
                    .edges
                    .get(&t)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                v.sort();
                v
            };
            color.insert(s, 1);
            path.push(s);
            stack.push((s, neigh(s), 0));
            while let Some((node, ns, idx)) = stack.last_mut() {
                if *idx >= ns.len() {
                    color.insert(*node, 2);
                    path.pop();
                    stack.pop();
                    continue;
                }
                let next = ns[*idx];
                *idx += 1;
                match color.get(&next).copied().unwrap_or(0) {
                    0 => {
                        color.insert(next, 1);
                        path.push(next);
                        let nn = neigh(next);
                        stack.push((next, nn, 0));
                    }
                    1 => {
                        // Found a cycle: the path suffix from `next`.
                        let pos = path.iter().position(|t| *t == next).expect("on path");
                        return path[pos..].iter().copied().max();
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    fn t(n: u32, s: u64) -> TxnId {
        TxnId::new(NodeId(n), s)
    }

    #[test]
    fn no_cycle_no_victim() {
        let mut g = WaitsForGraph::new();
        g.set_waits(t(1, 1), &[t(1, 2)]);
        g.set_waits(t(1, 2), &[t(2, 1)]);
        assert_eq!(g.find_victim(), None);
    }

    #[test]
    fn two_cycle_picks_youngest() {
        let mut g = WaitsForGraph::new();
        g.set_waits(t(1, 1), &[t(1, 2)]);
        g.set_waits(t(1, 2), &[t(1, 1)]);
        assert_eq!(g.find_victim(), Some(t(1, 2)));
    }

    #[test]
    fn cross_node_cycle_detected() {
        let mut g = WaitsForGraph::new();
        g.set_waits(t(1, 5), &[t(2, 3)]);
        g.set_waits(t(2, 3), &[t(3, 9)]);
        g.set_waits(t(3, 9), &[t(1, 5)]);
        let v = g.find_victim().unwrap();
        assert_eq!(v, t(3, 9), "largest TxnId in cycle");
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut g = WaitsForGraph::new();
        g.set_waits(t(1, 1), &[t(1, 1)]);
        assert_eq!(g.find_victim(), None);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn remove_breaks_cycles() {
        let mut g = WaitsForGraph::new();
        g.set_waits(t(1, 1), &[t(1, 2)]);
        g.set_waits(t(1, 2), &[t(1, 1)]);
        g.remove(t(1, 2));
        assert_eq!(g.find_victim(), None);
        assert!(g.edges.is_empty(), "t1's edge to removed txn is gone");
    }

    #[test]
    fn set_waits_replaces_previous_edges() {
        let mut g = WaitsForGraph::new();
        g.set_waits(t(1, 1), &[t(1, 2)]);
        g.set_waits(t(1, 2), &[t(1, 1)]);
        // t1 stops waiting on t2, now waits on t3.
        g.set_waits(t(1, 1), &[t(1, 3)]);
        assert_eq!(g.find_victim(), None);
    }

    #[test]
    fn cycle_off_the_dfs_root_found() {
        let mut g = WaitsForGraph::new();
        g.set_waits(t(1, 1), &[t(1, 2)]);
        g.set_waits(t(1, 2), &[t(1, 3)]);
        g.set_waits(t(1, 3), &[t(1, 2)]);
        assert_eq!(g.find_victim(), Some(t(1, 3)));
    }
}
