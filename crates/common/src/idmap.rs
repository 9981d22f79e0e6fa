//! Hash tables keyed by the id newtypes.
//!
//! Every hot table of the engine (buffer map, dirty page table,
//! transaction table, lock tables) is keyed by a [`PageId`] or a
//! [`TxnId`]. The ids are made by this program, never by a peer or a
//! user, so the default hasher's protection against crafted collisions
//! buys nothing here, and its cost (SipHash-1-3, ~20 ns a lookup) is
//! paid a dozen times per update. [`IdHasher`] is one multiply per id
//! and a shift.
//!
//! Iteration order of an [`IdMap`] is a fixed function of its contents
//! (the default hasher's is random per process). Nothing may come to
//! depend on it: code that needs an order sorts.
//!
//! [`PageId`]: crate::PageId
//! [`TxnId`]: crate::TxnId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// `HashMap` keyed by an internal id, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` of internal ids, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The hash [`IdMap`] files `key` under. A table sharded by key takes
/// its shard from the upper half of this value, which the map inside
/// the shard (bucket from the low bits) does not reuse.
pub fn id_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    BuildHasherDefault::<IdHasher>::default().hash_one(key)
}

/// Multiply-mix hasher for keys that are one or two machine words.
///
/// Each word is folded in with one multiply by an odd 64-bit constant
/// (2⁶⁴/φ, Fibonacci hashing). A multiply only carries information
/// upwards: the top bits of the product depend on every input bit,
/// the low bits only on the low input bits. The standard table takes
/// its bucket from the low bits and its 7-bit control tag from the
/// top, and page indexes are sequential while owners sit in the id's
/// upper half, so [`Hasher::finish`] folds the upper half down.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(PHI);
    }

    /// Keys that do not arrive as one `u64` (none today) still hash
    /// correctly, eight bytes per multiply.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, PageId, TxnId};

    /// Distinct values of the table's bucket bits (low 12) and of its
    /// control tag (top 7) over `keys`.
    fn spread<K: Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
        let (mut low, mut top) = (IdSet::default(), IdSet::default());
        for k in keys {
            let h = id_hash(&k);
            low.insert(h & 0xFFF);
            top.insert(h >> 57);
        }
        (low.len(), top.len())
    }

    #[test]
    fn sequential_ids_spread_over_buckets_and_control_bytes() {
        let pages = (0..4).flat_map(|o| (0..4096).map(move |i| PageId::new(NodeId(o), i)));
        let (low, top) = spread(pages);
        assert!(low >= 2048 && top >= 64, "pages: {low} buckets, {top} tags");
        let txns = (0..4).flat_map(|n| (1..4096).map(move |s| TxnId::new(NodeId(n), s)));
        let (low, top) = spread(txns);
        assert!(low >= 2048 && top >= 64, "txns: {low} buckets, {top} tags");
        // Ids that differ only above the low word (one page index on
        // many owners) must not share a bucket either.
        let (low, _) = spread((0..4096).map(|o| PageId::new(NodeId(o), 7)));
        assert!(low >= 2048, "owners: {low} buckets");
    }

    #[test]
    fn equal_ids_hash_equal_and_an_id_is_one_word() {
        let p = PageId::new(NodeId(3), 99);
        assert_eq!(id_hash(&p), id_hash(&PageId::from_u64(p.to_u64())));
        // One multiply: the id reaches the hasher as a single word.
        let mut h = IdHasher::default();
        h.write_u64(p.to_u64());
        assert_eq!(id_hash(&p), h.finish());
    }

    #[test]
    fn byte_keys_hash_by_content() {
        assert_eq!(id_hash(&[1u8, 2, 3][..]), id_hash(&vec![1u8, 2, 3][..]));
        assert_ne!(id_hash(&[1u8, 2, 3][..]), id_hash(&[1u8, 2, 4][..]));
    }

    #[test]
    fn the_map_is_a_map() {
        let mut m: IdMap<TxnId, u64> = IdMap::default();
        for s in 1..=1000 {
            m.insert(TxnId::new(NodeId(1), s), s);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&TxnId::new(NodeId(1), 500)), Some(&500));
        assert_eq!(m.remove(&TxnId::new(NodeId(1), 500)), Some(500));
        assert_eq!(m.get(&TxnId::new(NodeId(2), 1)), None);
    }
}
