//! Committed-state oracle: the golden model of what the database must
//! contain after a run (plus crashes and recoveries).
//!
//! `run_workload` folds the writes of every committed plan into the
//! oracle, in the order the commits were acknowledged. Verification
//! then reads every tracked slot back through a fresh transaction and
//! compares — durability (committed updates survive) and atomicity
//! (aborted and loser updates do not) in one check.

use cblog_common::{PageId, Result};
use cblog_core::Cluster;
use std::collections::HashMap;

/// A tracked slot: page + counter-slot index.
type SlotKey = (PageId, usize);

/// Shadow map of committed values.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    committed: HashMap<SlotKey, u64>,
}

impl Oracle {
    /// Empty oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Records one write of a transaction whose commit was
    /// acknowledged: `value` is now the slot's committed value.
    pub fn commit(&mut self, pid: PageId, slot: usize, value: u64) {
        self.committed.insert((pid, slot), value);
    }

    /// Expected committed value of a slot, if any write committed.
    pub fn expect(&self, pid: PageId, slot: usize) -> Option<u64> {
        self.committed.get(&(pid, slot)).copied()
    }

    /// Reads every tracked slot back through `sys` (fresh transactions
    /// on `reader`) and returns the number of verified slots. Any
    /// mismatch is an error describing the divergence.
    pub fn verify(&self, sys: &mut Cluster, reader: cblog_common::NodeId) -> Result<usize> {
        self.verify_impl(sys, reader, true)
    }

    /// [`Oracle::verify`] without the post-mortem dump on
    /// mismatch. The model checker runs thousands of expected-to-fail
    /// verifications while shrinking a counterexample; the one-line
    /// error is the useful part there, and the dump would multiply it
    /// by megabytes.
    pub fn verify_quiet(&self, sys: &mut Cluster, reader: cblog_common::NodeId) -> Result<usize> {
        self.verify_impl(sys, reader, false)
    }

    fn verify_impl(
        &self,
        sys: &mut Cluster,
        reader: cblog_common::NodeId,
        dump_on_mismatch: bool,
    ) -> Result<usize> {
        let mut checked = 0;
        let mut items: Vec<(SlotKey, u64)> = self.committed.iter().map(|(k, v)| (*k, *v)).collect();
        items.sort();
        for ((pid, slot), want) in items {
            let txn = sys.begin(reader)?;
            let got = match sys.read_u64(txn, pid, slot) {
                Ok(v) => v,
                Err(e) => {
                    let _ = sys.abort(txn);
                    return Err(e);
                }
            };
            sys.commit(txn)?;
            if got != want {
                // Divergence: print the span history around the
                // corruption (or how to get it) before failing.
                if dump_on_mismatch {
                    eprintln!("oracle mismatch at {pid} slot {slot}:");
                    eprint!("{}", sys.post_mortem(pid));
                }
                return Err(cblog_common::Error::Protocol(format!(
                    "oracle mismatch at {pid} slot {slot}: database {got}, expected {want}"
                )));
            }
            checked += 1;
        }
        Ok(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;

    #[test]
    fn later_commit_overwrites() {
        let mut o = Oracle::new();
        let p = PageId::new(NodeId(0), 0);
        o.commit(p, 0, 10);
        o.commit(p, 0, 30);
        assert_eq!(o.expect(p, 0), Some(30));
    }
}
