//! Committed-state oracle: the golden model of what the database must
//! contain after a run (plus crashes and recoveries).
//!
//! The driver records every write of a transaction and folds it into
//! the oracle only at commit time. Verification then reads every
//! tracked slot back through a fresh transaction and compares —
//! durability (committed updates survive) and atomicity (aborted and
//! loser updates do not) in one check.

use crate::driver::System;
use cblog_common::{PageId, Result};
use std::collections::HashMap;

/// A tracked slot: page + counter-slot index.
type SlotKey = (PageId, usize);

/// Shadow map of committed values.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    committed: HashMap<SlotKey, u64>,
    staged: HashMap<u64, Vec<(SlotKey, u64)>>,
}

impl Oracle {
    /// Empty oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Stages a write of an uncommitted transaction (keyed by an
    /// opaque id the driver chooses).
    pub fn stage(&mut self, txn_key: u64, pid: PageId, slot: usize, value: u64) {
        self.staged
            .entry(txn_key)
            .or_default()
            .push(((pid, slot), value));
    }

    /// Folds a transaction's staged writes into committed state.
    pub fn commit(&mut self, txn_key: u64) {
        if let Some(writes) = self.staged.remove(&txn_key) {
            for (k, v) in writes {
                self.committed.insert(k, v);
            }
        }
    }

    /// Discards a transaction's staged writes.
    pub fn abort(&mut self, txn_key: u64) {
        self.staged.remove(&txn_key);
    }

    /// Number of tracked committed slots.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// True if nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Expected committed value of a slot, if any write committed.
    pub fn expect(&self, pid: PageId, slot: usize) -> Option<u64> {
        self.committed.get(&(pid, slot)).copied()
    }

    /// Reads every tracked slot back through `sys` (fresh transactions
    /// on `reader`) and returns the number of verified slots. Any
    /// mismatch is an error describing the divergence.
    pub fn verify<S: System>(&self, sys: &mut S, reader: cblog_common::NodeId) -> Result<usize> {
        self.verify_impl(sys, reader, true)
    }

    /// [`Oracle::verify`] without the post-mortem dump on
    /// mismatch. The model checker runs thousands of expected-to-fail
    /// verifications while shrinking a counterexample; the one-line
    /// error is the useful part there, and the dump would multiply it
    /// by megabytes.
    pub fn verify_quiet<S: System>(
        &self,
        sys: &mut S,
        reader: cblog_common::NodeId,
    ) -> Result<usize> {
        self.verify_impl(sys, reader, false)
    }

    fn verify_impl<S: System>(
        &self,
        sys: &mut S,
        reader: cblog_common::NodeId,
        dump_on_mismatch: bool,
    ) -> Result<usize> {
        let mut checked = 0;
        let mut items: Vec<(SlotKey, u64)> = self.committed.iter().map(|(k, v)| (*k, *v)).collect();
        items.sort();
        for ((pid, slot), want) in items {
            let txn = sys.begin(reader)?;
            let got = match sys.read(txn, pid, slot) {
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
                    if let Some(dump) = sys.post_mortem(pid) {
                        eprintln!("oracle mismatch at {pid} slot {slot}:");
                        eprint!("{dump}");
                    }
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
    fn staged_writes_apply_only_on_commit() {
        let mut o = Oracle::new();
        let p = PageId::new(NodeId(0), 0);
        o.stage(1, p, 0, 10);
        o.stage(2, p, 1, 20);
        assert!(o.is_empty());
        o.commit(1);
        o.abort(2);
        assert_eq!(o.expect(p, 0), Some(10));
        assert_eq!(o.expect(p, 1), None);
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn later_commit_overwrites() {
        let mut o = Oracle::new();
        let p = PageId::new(NodeId(0), 0);
        o.stage(1, p, 0, 10);
        o.commit(1);
        o.stage(2, p, 0, 30);
        o.commit(2);
        assert_eq!(o.expect(p, 0), Some(30));
    }
}
