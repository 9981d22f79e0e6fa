//! The allocation budgets of the commit path and of restart, counted.
//!
//! A wall clock on a shared two-core guest cannot say whether the
//! update path still builds owned records, or whether a restart scan
//! still copies every record it reads; the allocator can. The counter
//! is per thread, so tests running beside each other do not count each
//! other's allocations.

use cblog_common::{Error, NodeId, PageId, TxnId};
use cblog_core::{plan_replay, recover, Cluster, ClusterConfig, Node, NodeConfig, RecoveryOptions};
use cblog_locks::{LockMode, ShardedLockTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down has no counter left; nothing measures it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const PAGES: u32 = 32;
const GROUP: usize = 16;

/// `n` transactions as the threaded engine runs them on the grouped
/// workloads: begin, two slot writes, `commit_begin`; one force per
/// `GROUP` commits, then `finish_commit` and `forget` for each.
fn commit_loop(node: &mut Node, n: u64, parked: &mut Vec<TxnId>) {
    for i in 0..n {
        let txn = node.begin().unwrap();
        for w in 0..2 {
            let pid = PageId::new(node.id(), ((2 * i + w) % PAGES as u64) as u32);
            let after = (i + w).to_le_bytes();
            node.log_write(txn, pid, (i % 8) as usize * 8, &after)
                .unwrap();
        }
        node.commit_begin(txn).unwrap();
        parked.push(txn);
        if parked.len() == GROUP {
            node.force_log().unwrap();
            for txn in parked.drain(..) {
                node.finish_commit(txn).unwrap();
                node.forget(txn).unwrap();
            }
        }
    }
}

/// A node owning `PAGES` pages, all of them cached.
fn warm_node() -> Node {
    let cfg = NodeConfig {
        page_size: 1024,
        buffer_frames: PAGES as usize + 16,
        owned_pages: PAGES,
        log_capacity: None,
    };
    let mut node = Node::new(NodeId(0), cfg).unwrap();
    for i in 0..PAGES {
        let (page, _) = node.authoritative_copy(PageId::new(NodeId(0), i)).unwrap();
        node.cache_page(page, false).unwrap();
    }
    node
}

#[test]
fn the_commit_path_allocates_only_to_grow() {
    let mut node = warm_node();
    let mut parked = Vec::with_capacity(GROUP);
    commit_loop(&mut node, 1_000, &mut parked);
    let (made, ()) = allocations_of(|| commit_loop(&mut node, 1_000, &mut parked));
    // What is left is growth: the in-memory store doubling under
    // 206 B per commit. With a record built before it is encoded (four
    // allocations per write, one per frame) this loop made 12 065.
    assert!(
        made < 100,
        "1000 transactions (4000 records) made {made} allocations"
    );
    assert_eq!(node.commits(), 2_000);
    assert!((1..=2_000).all(|seq| matches!(
        node.forget(TxnId::new(NodeId(0), seq)),
        Err(Error::NoSuchTxn(_))
    )));

    // A page lock nobody else holds: taken and dropped on the stack.
    let locks = ShardedLockTable::new(16);
    let lock_loop = |n: u64| {
        for i in 0..n {
            let pages = [0, 1].map(|w| PageId::new(NodeId(0), ((2 * i + w) % 64) as u32));
            for pid in pages {
                assert!(locks.try_acquire(pid, i, LockMode::Exclusive));
            }
            for pid in pages {
                locks.release(pid, i);
            }
        }
    };
    lock_loop(1_000);
    assert_eq!(allocations_of(|| lock_loop(1_000)).0, 0);
    assert_eq!(locks.locked_pages(), 0);
}

/// What restart allocates over a crashed node's log of `n`
/// transactions (2 writes each) over the same `PAGES` pages.
struct RestartAllocations {
    /// The threaded engine's pass, which redoes as it reads.
    redo: u64,
    /// The simulator's pass over the same log, with its list.
    pass: u64,
    /// Redo records the simulator's pass kept, each of which the
    /// threaded engine's pass applied.
    kept: usize,
    /// Planning replay over the list.
    planned: u64,
}

fn restart_allocations(n: u64) -> RestartAllocations {
    let mut node = warm_node();
    commit_loop(&mut node, n, &mut Vec::with_capacity(GROUP));
    node.force_log().unwrap();
    node.crash();
    node.mark_restarting().unwrap();
    let (redo, (_, images)) = allocations_of(|| node.restart_redo().unwrap());
    let applied: u64 = images.iter().map(|i| i.applied).sum();
    drop(images);
    node.crash();
    node.mark_restarting().unwrap();
    let (pass, (_, list, records)) = allocations_of(|| node.restart_pass().unwrap());
    let kept = node
        .dpt()
        .entries()
        .into_iter()
        .map(|e| {
            let mut page = node.authoritative_copy(e.pid).unwrap().0;
            let from = page.psn();
            records.replay(&mut page, from, None).unwrap()
        })
        .sum::<u64>() as usize;
    assert_eq!(
        applied, kept as u64,
        "the redo pass applied what the pass keeps"
    );
    let involved: BTreeMap<PageId, Vec<NodeId>> = node
        .dpt()
        .entries()
        .into_iter()
        .map(|e| (e.pid, vec![node.id()]))
        .collect();
    let lists = BTreeMap::from([(node.id(), list)]);
    let (planned, units) = allocations_of(|| plan_replay(&involved, &lists));
    assert_eq!(units.len(), PAGES as usize);
    RestartAllocations {
        redo,
        pass,
        kept,
        planned,
    }
}

#[test]
fn a_restart_pass_allocates_per_page_not_per_record() {
    // Once the simulator's pass has read a sample of its range it
    // sizes its arena and list for the rest, so four times the records
    // over the same pages cost it no more allocations; growing them by
    // doubling all the way cost six more, and decoding an update into
    // an owned op two per record. The threaded engine's pass keeps
    // nothing per record, only one image per page. Planning replay over
    // the pass's list allocates per page only: the same count for any
    // number of records.
    let small = restart_allocations(500);
    let large = restart_allocations(2_000);
    assert_eq!(
        (small.kept, large.kept),
        (1_000, 4_000),
        "every update kept"
    );
    assert_eq!(
        small.planned, large.planned,
        "4 000 more updates changed the planner's allocations"
    );
    for (what, small, large) in [
        ("restart_redo", small.redo, large.redo),
        ("restart_pass", small.pass, large.pass),
    ] {
        assert!(
            large <= small + 2,
            "4 000 more updates made {} more {what} allocations ({small} → {large})",
            large.saturating_sub(small)
        );
    }
    // The threaded engine's pass builds no NodePSNList, nor the table
    // of each page's last transaction that the list rule keeps, nor
    // the arena of redo records.
    for a in [&small, &large] {
        assert!(
            a.redo < a.pass,
            "restart_redo made {} allocations, restart_pass {}",
            a.redo,
            a.pass
        );
    }
}

/// Allocations of the simulator's whole recovery of one crashed owner
/// whose log holds `n` transactions (2 writes each) over `PAGES` pages,
/// and the records it replayed.
fn cluster_recovery_allocations(n: u64) -> (u64, u64) {
    let cfg = ClusterConfig::builder()
        .owned_pages(vec![PAGES])
        .page_size(1024)
        .buffer_frames(PAGES as usize + 16)
        .build();
    let mut cluster = Cluster::new(cfg).unwrap();
    let owner = NodeId(0);
    for i in 0..n {
        let txn = cluster.begin(owner).unwrap();
        for w in 0..2 {
            let pid = PageId::new(owner, ((2 * i + w) % PAGES as u64) as u32);
            cluster
                .write_u64(txn, pid, (i % 8) as usize, i + w)
                .unwrap();
        }
        cluster.commit(txn).unwrap();
    }
    cluster.crash(owner);
    let (made, report) =
        allocations_of(|| recover(&mut cluster, &RecoveryOptions::single(owner)).unwrap());
    assert_eq!(report.pages_recovered, PAGES as usize);
    (made, report.records_replayed)
}

#[test]
fn a_simulated_recovery_allocates_per_page_not_per_record() {
    // The crashed owner's one restart pass sizes its arrays from a
    // sample and yields its NodePSNList and redo records, and each
    // replay hop applies from them; what grows is the planner's table
    // of transactions. A second scan for the list, growing it by
    // doubling, and one more scan per hop made two more.
    let (small, replayed_small) = cluster_recovery_allocations(500);
    let (large, replayed_large) = cluster_recovery_allocations(2_000);
    assert_eq!(
        (replayed_small, replayed_large),
        (1_000, 4_000),
        "every update replayed"
    );
    assert!(
        large <= small + 2,
        "4 000 more updates made {} more recovery allocations ({small} → {large})",
        large.saturating_sub(small)
    );
}
