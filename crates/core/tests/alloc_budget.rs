//! The allocation budgets of the commit path and of restart, counted.
//!
//! A wall clock on a shared two-core guest cannot say whether the
//! update path still builds owned records, or whether a restart scan
//! still copies every record it reads; the allocator can. The counter
//! is per thread, so tests running beside each other do not count each
//! other's allocations.

use cblog_common::{NodeId, PageId, TxnId};
use cblog_core::{Node, NodeConfig};
use cblog_locks::{LockMode, ShardedLockTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    let forgotten = TxnId::new(NodeId(0), 1_500);
    assert!(node.active_txns().is_empty() && node.txn(forgotten).is_none());

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

/// Allocations of the one restart pass over a crashed node's log of
/// `n` transactions (2 writes each) over the same `PAGES` pages, and
/// the redo records it kept.
fn restart_allocations(n: u64) -> (u64, usize) {
    let mut node = warm_node();
    commit_loop(&mut node, n, &mut Vec::with_capacity(GROUP));
    node.force_log().unwrap();
    node.crash();
    node.mark_restarting().unwrap();
    let (made, pass) = allocations_of(|| node.restart_pass().unwrap());
    (made, pass.2.len())
}

#[test]
fn a_restart_pass_allocates_per_page_not_per_record() {
    // Four times the records over the same pages may cost a restart a
    // few more doublings of its arena and lists, never an allocation
    // per record: decoding an update into an owned op made two.
    let (small, kept_small) = restart_allocations(500);
    let (large, kept_large) = restart_allocations(2_000);
    assert_eq!(
        (kept_small, kept_large),
        (1_000, 4_000),
        "every update kept"
    );
    assert!(
        large <= small + 40,
        "4 000 more updates made {} more allocations ({small} → {large})",
        large.saturating_sub(small)
    );
}
