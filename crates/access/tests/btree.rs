//! B+-tree over the transactional cluster: correctness against a
//! `BTreeMap` model, atomicity of aborted splits, crash recovery of
//! the tree structure, and multi-node access.

use cblog_access::BTree;
use cblog_common::{CostModel, NodeId, PageId, Rng};
use cblog_core::{recovery, Cluster, ClusterConfig, RecoveryOptions};
use std::collections::BTreeMap;

const TREE_PAGES: u32 = 24;

fn cluster(clients: usize) -> (Cluster, Vec<PageId>) {
    let mut owned = vec![TREE_PAGES];
    owned.extend(std::iter::repeat(0).take(clients));
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(2048)
            .buffer_frames(48)
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

#[test]
fn insert_get_matches_btreemap_through_splits() {
    let (mut c, pages) = cluster(1);
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages, 8).unwrap();
    let mut model = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(7);
    let mut keys: Vec<u64> = (0..400).map(|i| i * 3).collect();
    rng.shuffle(&mut keys);
    for &k in &keys {
        tree.insert(&mut c, t, k, k + 1).unwrap();
        model.insert(k, k + 1);
    }
    assert!(tree.depth(&mut c, t).unwrap() >= 3, "splits happened");
    assert_eq!(tree.check(&mut c, t).unwrap(), model.len());
    for &k in &keys {
        assert_eq!(tree.get(&mut c, t, k).unwrap(), Some(k + 1));
    }
    // Absent keys.
    assert_eq!(tree.get(&mut c, t, 1).unwrap(), None);
    assert_eq!(tree.get(&mut c, t, u64::MAX).unwrap(), None);
    c.commit(t).unwrap();
}

#[test]
fn overwrite_and_delete_match_model() {
    let (mut c, pages) = cluster(1);
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages, 6).unwrap();
    let mut model = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(8);
    for _ in 0..600 {
        let k = rng.gen_range(0..200u64);
        match rng.gen_range(0..3u64) {
            0 | 1 => {
                let v = rng.gen_range(0..1_000_000u64);
                tree.insert(&mut c, t, k, v).unwrap();
                model.insert(k, v);
            }
            _ => {
                let got = tree.delete(&mut c, t, k).unwrap();
                assert_eq!(got, model.remove(&k));
            }
        }
    }
    assert_eq!(tree.check(&mut c, t).unwrap(), model.len());
    for (k, v) in &model {
        assert_eq!(tree.get(&mut c, t, *k).unwrap(), Some(*v));
    }
    c.commit(t).unwrap();
}

#[test]
fn range_scans_match_model() {
    let (mut c, pages) = cluster(1);
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages, 5).unwrap();
    let mut model = BTreeMap::new();
    for k in (0..300u64).step_by(2) {
        tree.insert(&mut c, t, k, k * 7).unwrap();
        model.insert(k, k * 7);
    }
    for (lo, hi) in [
        (0u64, 10u64),
        (37, 153),
        (0, u64::MAX),
        (299, 299),
        (500, 600),
    ] {
        let got = tree.range(&mut c, t, lo, hi).unwrap();
        let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "range [{lo},{hi}]");
    }
    c.commit(t).unwrap();
}

#[test]
fn aborted_bulk_insert_rolls_back_splits() {
    let (mut c, pages) = cluster(1);
    // Build and commit a small tree.
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages, 4).unwrap();
    for k in 0..10u64 {
        tree.insert(&mut c, t, k, k).unwrap();
    }
    c.commit(t).unwrap();
    let t = c.begin(NodeId(1)).unwrap();
    let depth_before = tree.depth(&mut c, t).unwrap();
    let count_before = tree.check(&mut c, t).unwrap();
    c.commit(t).unwrap();
    // A big insert burst that forces deep splits, then abort.
    let t = c.begin(NodeId(1)).unwrap();
    for k in 100..250u64 {
        tree.insert(&mut c, t, k, k).unwrap();
    }
    assert!(tree.depth(&mut c, t).unwrap() > depth_before);
    c.abort(t).unwrap();
    // Everything — leaf contents AND structure records — rolled back.
    let t = c.begin(NodeId(1)).unwrap();
    assert_eq!(tree.depth(&mut c, t).unwrap(), depth_before);
    assert_eq!(tree.check(&mut c, t).unwrap(), count_before);
    for k in 0..10u64 {
        assert_eq!(tree.get(&mut c, t, k).unwrap(), Some(k));
    }
    assert_eq!(tree.get(&mut c, t, 150).unwrap(), None);
    c.commit(t).unwrap();
}

#[test]
fn tree_survives_owner_crash_and_recovery() {
    let (mut c, pages) = cluster(2);
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages.clone(), 6).unwrap();
    for k in 0..200u64 {
        tree.insert(&mut c, t, k, k * 2).unwrap();
    }
    c.commit(t).unwrap();
    // Push every tree page's current image to the owner buffer, then
    // crash the owner: the tree must be rebuilt from the client's log.
    for p in &pages {
        let _ = c.evict_page(NodeId(1), *p);
    }
    c.crash(NodeId(0));
    let rep = recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
    assert!(rep.pages_recovered > 0);
    // Full structural check + all lookups through the other client.
    let t = c.begin(NodeId(2)).unwrap();
    assert_eq!(tree.check(&mut c, t).unwrap(), 200);
    for k in 0..200u64 {
        assert_eq!(tree.get(&mut c, t, k).unwrap(), Some(k * 2));
    }
    c.commit(t).unwrap();
}

#[test]
fn two_clients_share_the_tree() {
    let (mut c, pages) = cluster(2);
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages, 8).unwrap();
    c.commit(t).unwrap();
    // Alternating writers (serialized by page locks at this scale).
    for round in 0..20u64 {
        for client in [1u32, 2] {
            let key = round * 10 + client as u64;
            let t = c.begin(NodeId(client)).unwrap();
            tree.insert(&mut c, t, key, key * 100).unwrap();
            c.commit(t).unwrap();
        }
    }
    let t = c.begin(NodeId(2)).unwrap();
    assert_eq!(tree.check(&mut c, t).unwrap(), 40);
    for round in 0..20u64 {
        for client in [1u64, 2] {
            let key = round * 10 + client;
            assert_eq!(tree.get(&mut c, t, key).unwrap(), Some(key * 100));
        }
    }
    c.commit(t).unwrap();
}

#[test]
fn index_spanning_two_owners_survives_either_owner_crash() {
    // Tree node pages split across two owner nodes: the index itself
    // is distributed, and recovering either owner rebuilds its half.
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![12, 12, 0, 0])
            .page_size(2048)
            .buffer_frames(48)
            .cost(CostModel::unit())
            .build(),
    )
    .unwrap();
    let mut pages: Vec<PageId> = Vec::new();
    for owner in [0u32, 1] {
        for i in 0..12 {
            let p = PageId::new(NodeId(owner), i);
            c.format_slotted(p).unwrap();
            pages.push(p);
        }
    }
    // Interleave so node records land on both owners.
    let interleaved: Vec<PageId> = (0..12).flat_map(|i| [pages[i], pages[12 + i]]).collect();
    let t = c.begin(NodeId(2)).unwrap();
    let tree = BTree::create(&mut c, t, interleaved.clone(), 6).unwrap();
    for k in 0..250u64 {
        tree.insert(&mut c, t, k, k + 1).unwrap();
    }
    c.commit(t).unwrap();
    for victim in [NodeId(0), NodeId(1)] {
        for p in &interleaved {
            let _ = c.evict_page(NodeId(2), *p);
            let _ = c.evict_page(NodeId(3), *p);
        }
        c.crash(victim);
        recovery::recover(&mut c, &RecoveryOptions::single(victim)).unwrap();
        let t = c.begin(NodeId(3)).unwrap();
        assert_eq!(tree.check(&mut c, t).unwrap(), 250);
        for k in (0..250u64).step_by(17) {
            assert_eq!(tree.get(&mut c, t, k).unwrap(), Some(k + 1));
        }
        c.commit(t).unwrap();
    }
}

#[test]
fn crash_mid_transaction_loses_uncommitted_tree_growth() {
    let (mut c, pages) = cluster(2);
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages, 4).unwrap();
    for k in 0..20u64 {
        tree.insert(&mut c, t, k, k).unwrap();
    }
    c.commit(t).unwrap();
    // Uncommitted burst with durable records, then client crash.
    let t = c.begin(NodeId(1)).unwrap();
    for k in 100..160u64 {
        tree.insert(&mut c, t, k, k).unwrap();
    }
    c.node_mut(NodeId(1)).force_log().unwrap();
    c.crash(NodeId(1));
    let rep = recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
    assert_eq!(rep.losers_undone, 1);
    let t = c.begin(NodeId(2)).unwrap();
    assert_eq!(tree.check(&mut c, t).unwrap(), 20, "burst undone");
    for k in 0..20u64 {
        assert_eq!(tree.get(&mut c, t, k).unwrap(), Some(k));
    }
    c.commit(t).unwrap();
}

#[test]
fn structural_ops_are_counted_and_traced() {
    use cblog_common::metrics::keys;
    use cblog_common::span::{SpanKind, TreeOp};
    let mut owned = vec![TREE_PAGES, 0];
    owned.truncate(2);
    let mut c = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(2048)
            .buffer_frames(48)
            .cost(CostModel::unit())
            .tracing(true)
            .build(),
    )
    .unwrap();
    let pages: Vec<PageId> = (0..TREE_PAGES).map(|i| PageId::new(NodeId(0), i)).collect();
    for p in &pages {
        c.format_slotted(*p).unwrap();
    }
    let t = c.begin(NodeId(1)).unwrap();
    let tree = BTree::create(&mut c, t, pages, 4).unwrap();
    for k in 0..60u64 {
        tree.insert(&mut c, t, k, k).unwrap();
    }
    assert_eq!(tree.get(&mut c, t, 30).unwrap(), Some(30));
    for k in 0..60u64 {
        tree.delete(&mut c, t, k).unwrap();
    }
    assert_eq!(
        tree.check(&mut c, t).unwrap(),
        0,
        "tree emptied, still sound"
    );
    c.commit(t).unwrap();

    let reg = c.node(NodeId(1)).registry();
    let traverses = reg.counter(keys::ACCESS_TRAVERSES).get();
    let splits = reg.counter(keys::ACCESS_SPLITS).get();
    let merges = reg.counter(keys::ACCESS_MERGES).get();
    assert!(
        traverses >= 121,
        "get+insert+delete each traverse: {traverses}"
    );
    assert!(splits > 0, "fan-out 4 over 60 keys splits: {splits}");
    assert!(merges > 0, "emptied leaves merge away: {merges}");

    // The spans mirror the counters and hang off the transaction span.
    let trace = c.tracer().snapshot();
    let tree_spans: Vec<_> = trace
        .spans()
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Tree { op, .. } => Some((op, s.parent)),
            _ => None,
        })
        .collect();
    let count = |want: TreeOp| tree_spans.iter().filter(|(op, _)| *op == want).count() as u64;
    assert_eq!(count(TreeOp::Traverse), traverses);
    assert_eq!(count(TreeOp::Split), splits);
    assert_eq!(count(TreeOp::Merge), merges);
    assert!(
        tree_spans.iter().all(|(_, parent)| !parent.is_none()),
        "tree spans are parented under their transaction"
    );
    c.trace_check().unwrap();
}
