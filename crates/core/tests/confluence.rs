//! Replay is confluent across pages (DESIGN §16).
//!
//! Every log record names one page, and the PSN filter applies a
//! page's records in that page's own PSN order whatever else has
//! replayed. So after a restart pass, replaying the dirty pages in any
//! order gives the same images: the order *across* pages carries no
//! information, and only the order *within* a page does. This is what
//! lets the threaded engine replay its dirty pages in ascending page
//! order, and the simulator replay each page's hop chain with no
//! cross-page schedule.
//!
//! Three owner-local logs are checked: the shape of the benchmark's
//! `crash-recover` workload, scaled down; the recovery workload of
//! `rt/tests/equivalence.rs`; and multi-page transactions whose page
//! orders form a cycle. Each is replayed in ascending page order and
//! in seeded permutations, and the images, PSNs included, must be
//! byte-identical to each other, to the images just before the crash,
//! and to the images the threaded engine's restart leaves, which redoes
//! each record as it reads the log. The must-fail check reverses one
//! page's records and expects a different image.
//!
//! The cross-log case runs on the simulator's `Cluster`: two clients
//! and the owner write the owner's pages, in opposite page orders on
//! different nodes, so each page's hop chain spans two or three logs.
//! The owner crashes, and each page's unit from [`plan_replay`] is
//! replayed hop by hop in ascending and in permuted page order; the
//! images must equal each other and the owner's images before the
//! crash. Its must-fail twin swaps two hops of one page.

use cblog_common::{CostModel, Lsn, NodeId, PageId, Psn, Rng, TxnId};
use cblog_core::node::RollbackStep;
use cblog_core::{
    plan_replay, Cluster, ClusterConfig, Node, NodeConfig, NodePsnEntry, RedoRecords, ReplayUnit,
};
use std::collections::BTreeMap;

/// A node owning `pages` pages, all of them cached.
fn warm_node(id: u32, pages: u32) -> Node {
    let cfg = NodeConfig {
        page_size: 512,
        buffer_frames: pages as usize + 8,
        owned_pages: pages,
        log_capacity: None,
    };
    let mut node = Node::new(NodeId(id), cfg).unwrap();
    for i in 0..pages {
        let (page, _) = node.authoritative_copy(PageId::new(node.id(), i)).unwrap();
        node.cache_page(page, false).unwrap();
    }
    node
}

/// One transaction on `node`: `(page index, slot, value)` writes, then
/// a commit, or a rollback when `abort`.
fn txn(node: &mut Node, writes: &[(u32, usize, u64)], abort: bool) {
    let t = node.begin().unwrap();
    for &(page, slot, value) in writes {
        let pid = PageId::new(node.id(), page);
        node.log_write(t, pid, slot * 8, &value.to_le_bytes())
            .unwrap();
    }
    if abort {
        roll_back(node, t);
    } else {
        node.commit_begin(t).unwrap();
        node.force_log().unwrap();
        node.finish_commit(t).unwrap();
    }
}

fn roll_back(node: &mut Node, t: TxnId) {
    node.start_abort(t).unwrap();
    loop {
        match node.rollback_step(t, Lsn::ZERO).unwrap() {
            RollbackStep::Done => break,
            RollbackStep::NeedPage(pid) => {
                let (page, _) = node.authoritative_copy(pid).unwrap();
                node.cache_page(page, false).unwrap();
            }
            RollbackStep::Undone(_) => {}
        }
    }
    node.finish_abort(t).unwrap();
}

/// Writes the cached image of each page in `pages` to disk, after the
/// log force the WAL rule asks for.
fn flush(node: &mut Node, pages: impl IntoIterator<Item = u32>) {
    node.force_log().unwrap();
    for i in pages {
        let (page, _) = node.authoritative_copy(PageId::new(node.id(), i)).unwrap();
        node.write_owned_page(&page).unwrap();
    }
}

/// `crash-recover`'s shape, scaled down: 8 lanes of transactions of
/// 16 writes over 256 pages, 1 in 20 rolled back by its user, a
/// checkpoint and some pages on disk part way, and one transaction per
/// lane still open at the crash.
fn crash_recover_shaped() -> Vec<Node> {
    const PAGES: u32 = 256;
    let mut node = warm_node(0, PAGES);
    let mut rng = Rng::seed_from_u64(7302);
    let writes = |rng: &mut Rng| -> Vec<(u32, usize, u64)> {
        (0..16)
            .map(|_| {
                let page = rng.gen_range(0..PAGES as u64) as u32;
                (page, rng.gen_range_usize(0..8), rng.next_u64())
            })
            .collect()
    };
    for i in 0..8 * 40 {
        let w = writes(&mut rng);
        txn(&mut node, &w, i % 20 == 19);
        if i == 8 * 20 {
            flush(&mut node, (0..PAGES).step_by(3));
            node.checkpoint().unwrap();
        }
    }
    for _ in 0..8 {
        let t = node.begin().unwrap();
        for (page, slot, value) in writes(&mut rng) {
            let pid = PageId::new(node.id(), page);
            node.log_write(t, pid, slot * 8, &value.to_le_bytes())
                .unwrap();
        }
    }
    vec![node]
}

/// The recovery workload of `rt/tests/equivalence.rs`: two nodes, each
/// writing each of its six pages once a round for six rounds.
fn equivalence_workload() -> Vec<Node> {
    (0..2)
        .map(|n| {
            let mut node = warm_node(n, 6);
            for round in 0..6u64 {
                for page in 0..6 {
                    let value = 10_000 * n as u64 + 100 * round + page as u64;
                    txn(&mut node, &[(page, (round % 8) as usize, value)], false);
                }
            }
            node
        })
        .collect()
}

/// Multi-page transactions whose page orders form a cycle: T1 writes
/// P0 then P1, T2 P1 then P2, T3 P2 then P0, round after round, so
/// "page A's update precedes page B's in some transaction" holds for
/// every ordered pair around the cycle.
fn cyclic_transactions() -> Vec<Node> {
    let mut node = warm_node(0, 3);
    for round in 0..10u64 {
        for k in 0..3u32 {
            let (a, b) = (k, (k + 1) % 3);
            let value = 1_000 * round + k as u64;
            txn(&mut node, &[(a, 1, value), (b, 2, value + 1)], round == 4);
        }
    }
    // One of them left open at the crash.
    let t = node.begin().unwrap();
    node.log_write(t, PageId::new(node.id(), 2), 0, &99u64.to_le_bytes())
        .unwrap();
    node.log_write(t, PageId::new(node.id(), 0), 0, &98u64.to_le_bytes())
        .unwrap();
    vec![node]
}

/// A page's id, PSN and bytes.
type Image = (PageId, Psn, Vec<u8>);

/// Crashes every node and runs the simulator's restart pass: the
/// nodes, each one's redo records, every dirty page, ascending, and
/// those pages' images just before the crash.
fn restarted(mut nodes: Vec<Node>) -> (Vec<Node>, Vec<RedoRecords>, Vec<PageId>, Vec<Image>) {
    let mut redo = Vec::new();
    let mut dirty = Vec::new();
    let mut before = Vec::new();
    for node in &mut nodes {
        for i in 0..node.config().owned_pages {
            let (page, _) = node.authoritative_copy(PageId::new(node.id(), i)).unwrap();
            before.push((page.id(), page.psn(), page.to_bytes()));
        }
        node.force_log().unwrap();
        node.crash();
        node.mark_restarting().unwrap();
        let (_, _, records) = node.restart_pass().unwrap();
        redo.push(records);
        dirty.extend(node.dpt().entries().iter().map(|e| e.pid));
    }
    dirty.sort_unstable();
    before.retain(|(pid, _, _)| dirty.binary_search(pid).is_ok());
    (nodes, redo, dirty, before)
}

/// Replays `order`'s pages from their disk images through the PSN
/// filter, each page's records in log order except `reversed`'s, which
/// go one at a time, last first; returns every page's image, PSN
/// included, in ascending page order, and the records applied.
fn replay(
    nodes: &mut [Node],
    redo: &[RedoRecords],
    order: &[PageId],
    reversed: Option<PageId>,
) -> (Vec<Image>, u64) {
    let mut images = Vec::new();
    let mut applied = 0;
    for &pid in order {
        let owner = pid.owner.0 as usize;
        let (mut page, _) = nodes[owner].authoritative_copy(pid).unwrap();
        let records = &redo[owner];
        if reversed == Some(pid) {
            // The page's PSNs, from a replay of a copy in log order.
            let mut copy = page.clone();
            records.replay(&mut copy, page.psn(), None).unwrap();
            let psns: Vec<u64> = (page.psn().0..copy.psn().0).collect();
            for &psn in psns.iter().rev() {
                applied += records.replay(&mut page, Psn(psn), Some(Psn(psn))).unwrap();
            }
        } else {
            let from = page.psn();
            applied += records.replay(&mut page, from, None).unwrap();
        }
        images.push((pid, page.psn(), page.to_bytes()));
    }
    images.sort_by_key(|&(pid, _, _)| pid);
    (images, applied)
}

/// Crashes every node again and restarts it with the threaded engine's
/// pass, which redoes each page as it reads the log: every dirty page's
/// image, PSN included, in ascending page order.
fn redone(nodes: &mut [Node]) -> Vec<Image> {
    let mut images = Vec::new();
    for node in nodes {
        node.crash();
        node.mark_restarting().unwrap();
        let (_, redone) = node.restart_redo().unwrap();
        images.extend(
            redone
                .into_iter()
                .map(|i| (i.page.id(), i.page.psn(), i.page.to_bytes())),
        );
    }
    images
}

fn logs() -> [(&'static str, Vec<Node>); 3] {
    [
        ("crash-recover shape", crash_recover_shaped()),
        ("equivalence workload", equivalence_workload()),
        ("cyclic transactions", cyclic_transactions()),
    ]
}

#[test]
fn replay_is_confluent_across_pages() {
    for (name, nodes) in logs() {
        let (mut nodes, redo, ascending, before_crash) = restarted(nodes);
        assert!(ascending.len() > 1, "{name}: more than one dirty page");
        let (want, applied) = replay(&mut nodes, &redo, &ascending, None);
        assert!(applied > ascending.len() as u64, "{name}: redo has work");
        assert!(
            want == before_crash,
            "{name}: replay rebuilds the lost images"
        );
        for seed in 0..8 {
            let mut order = ascending.clone();
            Rng::seed_from_u64(seed).shuffle(&mut order);
            let (got, n) = replay(&mut nodes, &redo, &order, None);
            assert_eq!(n, applied, "{name}, seed {seed}");
            assert!(got == want, "{name}: seed {seed}'s order changed an image");
        }
        assert!(
            redone(&mut nodes) == want,
            "{name}: redo as the log is read rebuilds other images"
        );
    }
}

#[test]
fn reversing_one_pages_records_is_caught() {
    // The check sees an order that matters: the one within a page.
    for (name, nodes) in logs() {
        let (mut nodes, redo, ascending, _) = restarted(nodes);
        let (want, _) = replay(&mut nodes, &redo, &ascending, None);
        // The page with the most records is the one reversed.
        let (victim, _) = ascending
            .iter()
            .map(|&pid| {
                let owner = pid.owner.0 as usize;
                let (mut page, _) = nodes[owner].authoritative_copy(pid).unwrap();
                let from = page.psn();
                (pid, redo[owner].replay(&mut page, from, None).unwrap())
            })
            .max_by_key(|&(_, n)| n)
            .unwrap();
        let mut order = ascending.clone();
        Rng::seed_from_u64(1).shuffle(&mut order);
        let (got, _) = replay(&mut nodes, &redo, &order, Some(victim));
        assert!(
            got != want,
            "{name}: reversing {victim}'s records went unseen"
        );
    }
}

/// Pages of the cross-log case, all owned by node 0.
const OWNED: u32 = 8;

/// Node 0 owns `OWNED` pages; nodes 1 and 2 are clients. Round after
/// round, node 1's transactions write page k then k + 1, node 2's
/// k + 1 then k, and node 0's k + 3 then k, so the pages' hop chains
/// span three logs and the logs' page orders disagree. Some pages go
/// to disk part way. The owner writes every page last, so it caches
/// every current image when it crashes. Returns the crashed cluster
/// and those images, PSNs included, in ascending page order.
fn cross_log_scene() -> (Cluster, Vec<Image>) {
    let cfg = ClusterConfig::builder()
        .owned_pages(vec![OWNED, 0, 0])
        .page_size(512)
        .buffer_frames(32)
        .cost(CostModel::unit())
        .build();
    let mut c = Cluster::new(cfg).unwrap();
    let page = |k: u32| PageId::new(NodeId(0), k % OWNED);
    let mut rng = Rng::seed_from_u64(2142);
    for round in 0..6 {
        for k in 0..OWNED {
            for (node, pages) in [(1, [k, k + 1]), (2, [k + 1, k]), (0, [k + 3, k])] {
                let t = c.begin(NodeId(node)).unwrap();
                for p in pages {
                    let slot = rng.gen_range_usize(0..8);
                    c.write_u64(t, page(p), slot, rng.next_u64()).unwrap();
                }
                c.commit(t).unwrap();
            }
        }
        if round == 2 {
            for k in (0..OWNED).step_by(3) {
                c.force_page(page(k)).unwrap();
            }
        }
    }
    let t = c.begin(NodeId(0)).unwrap();
    for k in (0..OWNED).rev() {
        c.write_u64(t, page(k), 7, u64::from(k)).unwrap();
    }
    c.commit(t).unwrap();
    let want = (0..OWNED)
        .map(|k| {
            let (img, _) = c.node_mut(NodeId(0)).authoritative_copy(page(k)).unwrap();
            (page(k), img.psn(), img.to_bytes())
        })
        .collect();
    c.crash(NodeId(0));
    (c, want)
}

/// The lists the simulator's recovery merges — the crashed owner's
/// from its restart pass, each client's from `psn_list` over the
/// owner's pages — with each node's redo records, and the units
/// [`plan_replay`] builds from them. A page's involved nodes are those
/// whose lists name it.
fn cross_log_units(c: &mut Cluster) -> (BTreeMap<NodeId, RedoRecords>, Vec<ReplayUnit>) {
    let owner = NodeId(0);
    c.node_mut(owner).mark_restarting().unwrap();
    let (_, list, records) = c.node_mut(owner).restart_pass().unwrap();
    let mut lists = BTreeMap::from([(owner, list)]);
    let mut redo = BTreeMap::from([(owner, records)]);
    let pages: Vec<PageId> = (0..OWNED).map(|k| PageId::new(owner, k)).collect();
    for n in [NodeId(1), NodeId(2)] {
        let (list, records, _) = c.node_mut(n).psn_list(&pages).unwrap();
        lists.insert(n, list);
        redo.insert(n, records);
    }
    assert!(
        opposite_orders(&lists[&NodeId(1)], &lists[&NodeId(2)]),
        "two logs' transactions order a pair of pages both ways"
    );
    let mut involved: BTreeMap<PageId, Vec<NodeId>> = BTreeMap::new();
    for (&n, list) in &lists {
        for e in list {
            let nodes = involved.entry(e.pid).or_default();
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    (redo, plan_replay(&involved, &lists))
}

/// Whether a transaction in `a` writes some page P before a page Q
/// while one in `b` writes Q before P: the cross-page cycle a
/// transaction-order schedule could not level.
fn opposite_orders(a: &[NodePsnEntry], b: &[NodePsnEntry]) -> bool {
    let pairs = |list: &[NodePsnEntry]| -> Vec<(PageId, PageId)> {
        list.windows(2)
            .filter(|w| w[0].txn == w[1].txn && w[0].pid != w[1].pid)
            .map(|w| (w[0].pid, w[1].pid))
            .collect()
    };
    let of_b = pairs(b);
    pairs(a).iter().any(|&(p, q)| of_b.contains(&(q, p)))
}

/// Replays `units` in the given order from the owner's disk images:
/// each unit's hops in hop order, a hop one call of the PSN filter on
/// its node's records from the hop's start PSN up to the next hop's.
/// Returns the images, PSNs included, in ascending page order, and the
/// records applied.
fn replay_units(
    c: &mut Cluster,
    redo: &BTreeMap<NodeId, RedoRecords>,
    units: &[ReplayUnit],
) -> (Vec<Image>, u64) {
    let mut images = Vec::new();
    let mut applied = 0;
    for unit in units {
        let (mut page, _) = c.node_mut(NodeId(0)).authoritative_copy(unit.pid).unwrap();
        for (i, &(psn, n)) in unit.hops.iter().enumerate() {
            let bound = unit.hops.get(i + 1).map(|&(p, _)| p);
            applied += redo[&n].replay(&mut page, psn, bound).unwrap();
        }
        images.push((unit.pid, page.psn(), page.to_bytes()));
    }
    images.sort_by_key(|&(pid, _, _)| pid);
    (images, applied)
}

#[test]
fn replay_is_confluent_across_pages_and_logs() {
    let (mut c, before_crash) = cross_log_scene();
    let (redo, units) = cross_log_units(&mut c);
    assert_eq!(units.len(), OWNED as usize, "every page is replayed");
    let logs_of = |u: &ReplayUnit| {
        let mut nodes: Vec<NodeId> = u.hops.iter().map(|&(_, n)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    };
    assert!(units.iter().all(|u| logs_of(u) >= 2), "chains span logs");
    assert!(units.iter().any(|u| logs_of(u) == 3), "some span three");
    let (want, applied) = replay_units(&mut c, &redo, &units);
    assert!(want == before_crash, "replay rebuilds the lost images");
    for seed in 0..8 {
        let mut order = units.clone();
        Rng::seed_from_u64(seed).shuffle(&mut order);
        let (got, n) = replay_units(&mut c, &redo, &order);
        assert_eq!(n, applied, "seed {seed}");
        assert!(got == want, "seed {seed}'s order changed an image");
    }
}

#[test]
fn swapping_two_hops_of_a_page_is_caught() {
    // The check sees an order that matters: the hop order of a page.
    let (mut c, _) = cross_log_scene();
    let (redo, units) = cross_log_units(&mut c);
    let (want, _) = replay_units(&mut c, &redo, &units);
    let mut swapped = units.clone();
    let victim = swapped
        .iter_mut()
        .max_by_key(|u| u.hops.len())
        .expect("a unit");
    let pid = victim.pid;
    victim.hops.swap(0, 1);
    let (got, _) = replay_units(&mut c, &redo, &swapped);
    assert!(got != want, "swapping two of {pid}'s hops went unseen");
}
