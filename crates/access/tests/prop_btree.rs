//! Randomized model test: random operation sequences on the B+-tree
//! match a `BTreeMap` model, across random fan-outs, with a structural
//! check and a crash/recovery round at the end of every case.
//!
//! Uses the workspace's deterministic `Rng` (the build has no
//! crates.io access, so no proptest); every case is reproducible from
//! its printed seed.

use cblog_access::BTree;
use cblog_common::{CostModel, NodeId, PageId, Rng};
use cblog_core::{recovery, Cluster, ClusterConfig, RecoveryOptions};
use std::collections::BTreeMap;

const TREE_PAGES: u32 = 16;

fn cluster() -> (Cluster, Vec<PageId>) {
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![TREE_PAGES, 0])
            .page_size(2048)
            .buffer_frames(32)
            .cost(CostModel::unit())
            .build(),
    )
    .unwrap();
    let pages: Vec<PageId> = (0..TREE_PAGES).map(|i| PageId::new(NodeId(0), i)).collect();
    for p in &pages {
        c.format_slotted(*p).unwrap();
    }
    (c, pages)
}

#[derive(Clone, Debug)]
enum TreeOp {
    Insert(u64, u64),
    Delete(u64),
    Get(u64),
    Range(u64, u64),
}

fn gen_op(rng: &mut Rng) -> TreeOp {
    // Weights mirror the original proptest strategy: 3:1:1:1.
    match rng.gen_range(0..6) {
        0..=2 => TreeOp::Insert(rng.gen_range(0..64), rng.next_u64()),
        3 => TreeOp::Delete(rng.gen_range(0..64)),
        4 => TreeOp::Get(rng.gen_range(0..64)),
        _ => {
            let a = rng.gen_range(0..64);
            let b = rng.gen_range(0..64);
            TreeOp::Range(a.min(b), a.max(b))
        }
    }
}

#[test]
fn btree_matches_model_and_survives_crash() {
    for case in 0u64..16 {
        let mut rng = Rng::seed_from_u64(0xB7EE_0000 + case);
        let n_ops = rng.gen_range_usize(1..120);
        let fanout = rng.gen_range_usize(3..10);
        let (mut c, pages) = cluster();
        let t = c.begin(NodeId(1)).unwrap();
        let tree = BTree::create(&mut c, t, pages.clone(), fanout).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..n_ops {
            match gen_op(&mut rng) {
                TreeOp::Insert(k, v) => {
                    tree.insert(&mut c, t, k, v).unwrap();
                    model.insert(k, v);
                }
                TreeOp::Delete(k) => {
                    let got = tree.delete(&mut c, t, k).unwrap();
                    assert_eq!(got, model.remove(&k), "case {case}");
                }
                TreeOp::Get(k) => {
                    assert_eq!(
                        tree.get(&mut c, t, k).unwrap(),
                        model.get(&k).copied(),
                        "case {case}"
                    );
                }
                TreeOp::Range(lo, hi) => {
                    let got = tree.range(&mut c, t, lo, hi).unwrap();
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(got, want, "case {case}");
                }
            }
        }
        assert_eq!(tree.check(&mut c, t).unwrap(), model.len(), "case {case}");
        c.commit(t).unwrap();
        // Crash the owner with the current images only in its buffer;
        // the recovered tree must still match the model.
        for p in &pages {
            let _ = c.evict_page(NodeId(1), *p);
        }
        c.crash(NodeId(0));
        recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
        let t = c.begin(NodeId(1)).unwrap();
        assert_eq!(tree.check(&mut c, t).unwrap(), model.len(), "case {case}");
        for (k, v) in &model {
            assert_eq!(tree.get(&mut c, t, *k).unwrap(), Some(*v), "case {case}");
        }
        c.commit(t).unwrap();
    }
}
