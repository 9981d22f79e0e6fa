//! Replay is confluent across pages (DESIGN §16).
//!
//! Every log record names one page, and the PSN filter applies a
//! page's records in that page's own PSN order whatever else has
//! replayed. So after a restart pass, replaying the dirty pages in any
//! order gives the same images: the order *across* pages carries no
//! information, and only the order *within* a page does. This is what
//! lets the threaded engine replay its dirty pages in ascending page
//! order with no replay plan.
//!
//! Three logs are checked: the shape of the benchmark's
//! `crash-recover` workload, scaled down; the recovery workload of
//! `rt/tests/equivalence.rs`; and multi-page transactions whose page
//! orders form a cycle. Each is replayed in ascending page order and
//! in seeded permutations, and the images, PSNs included, must be
//! byte-identical. The must-fail check reverses one page's records and
//! expects a different image.

use cblog_common::{Lsn, NodeId, PageId, Psn, Rng, TxnId};
use cblog_core::node::RollbackStep;
use cblog_core::{Node, NodeConfig, RedoRecords};

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

/// Crashes every node and runs its restart pass: the nodes, each
/// one's redo records, and every dirty page, ascending.
fn restarted(mut nodes: Vec<Node>) -> (Vec<Node>, Vec<RedoRecords>, Vec<PageId>) {
    let mut redo = Vec::new();
    let mut dirty = Vec::new();
    for node in &mut nodes {
        node.force_log().unwrap();
        node.crash();
        node.mark_restarting().unwrap();
        let (_, records) = node.restart_redo().unwrap();
        redo.push(records);
        dirty.extend(node.dpt().entries().iter().map(|e| e.pid));
    }
    dirty.sort_unstable();
    (nodes, redo, dirty)
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
) -> (Vec<(PageId, Psn, Vec<u8>)>, u64) {
    let mut runs = Vec::new();
    let mut images = Vec::new();
    let mut applied = 0;
    for &pid in order {
        let owner = pid.owner.0 as usize;
        let (mut page, _) = nodes[owner].authoritative_copy(pid).unwrap();
        let records = &redo[owner];
        if reversed == Some(pid) {
            // The page's PSNs, from a replay of a copy in log order.
            let mut copy = page.clone();
            records.replay(&mut copy, 0, None, &mut runs).unwrap();
            let psns: Vec<u64> = runs.iter().flat_map(|&(f, l, _)| f.0..=l.0).collect();
            for &psn in psns.iter().rev() {
                let at = records.seek(pid, Psn(psn));
                applied += records
                    .replay(&mut page, at, Some(Psn(psn)), &mut runs)
                    .unwrap()
                    .1;
            }
        } else {
            applied += records.replay(&mut page, 0, None, &mut runs).unwrap().1;
        }
        images.push((pid, page.psn(), page.to_bytes()));
    }
    images.sort_by_key(|&(pid, _, _)| pid);
    (images, applied)
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
        let (mut nodes, redo, ascending) = restarted(nodes);
        assert!(ascending.len() > 1, "{name}: more than one dirty page");
        let (want, applied) = replay(&mut nodes, &redo, &ascending, None);
        assert!(applied > ascending.len() as u64, "{name}: redo has work");
        for seed in 0..8 {
            let mut order = ascending.clone();
            Rng::seed_from_u64(seed).shuffle(&mut order);
            let (got, n) = replay(&mut nodes, &redo, &order, None);
            assert_eq!(n, applied, "{name}, seed {seed}");
            assert!(got == want, "{name}: seed {seed}'s order changed an image");
        }
    }
}

#[test]
fn reversing_one_pages_records_is_caught() {
    // The check sees an order that matters: the one within a page.
    for (name, nodes) in logs() {
        let (mut nodes, redo, ascending) = restarted(nodes);
        let (want, _) = replay(&mut nodes, &redo, &ascending, None);
        // The page with the most records is the one reversed.
        let (victim, _) = ascending
            .iter()
            .map(|&pid| {
                let owner = pid.owner.0 as usize;
                let (mut page, _) = nodes[owner].authoritative_copy(pid).unwrap();
                let n = redo[owner].replay(&mut page, 0, None, &mut Vec::new());
                (pid, n.unwrap().1)
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
