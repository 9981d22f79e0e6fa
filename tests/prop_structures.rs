//! Randomized model tests of the substrate data structures against
//! simple reference models: slotted pages, log record codec, space
//! map PSN floors, buffer pool membership, DPT bookkeeping, and the
//! PSN redo filter.
//!
//! Cases are generated with the workspace's deterministic `Rng` (no
//! crates.io access, so no proptest); each failure names its case.

use cblog_common::{Lsn, NodeId, PageId, Psn, Rng, TxnId};
use cblog_storage::{BufferPool, Page, PageKind, SlottedPage, SpaceMap};
use cblog_wal::{DirtyPageTable, LogPayload, LogRecord, LogRecordRef, PageOp};
use std::collections::HashMap;

fn pid(i: u32) -> PageId {
    PageId::new(NodeId(1), i)
}

fn bytes(rng: &mut Rng, range: std::ops::Range<usize>) -> Vec<u8> {
    let n = rng.gen_range_usize(range);
    (0..n).map(|_| rng.gen_range(0..256) as u8).collect()
}

// ---------------------------------------------------------------------
// Slotted page vs a HashMap model
// ---------------------------------------------------------------------

#[test]
fn slotted_page_matches_model() {
    for case in 0u64..64 {
        let mut rng = Rng::seed_from_u64(0x51A7 + case);
        let n_ops = rng.gen_range_usize(1..60);
        let mut page = Page::new(pid(0), PageKind::Slotted, Psn(0), 1024);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut sp = SlottedPage::new(&mut page);
        for _ in 0..n_ops {
            match rng.gen_range(0..4) {
                0 => {
                    let data = bytes(&mut rng, 1..24);
                    let slot = sp.free_slot();
                    if sp.insert_at(slot, &data).is_ok() {
                        model.insert(slot, data);
                    }
                }
                1 => {
                    let live: Vec<u16> = model.keys().copied().collect();
                    if !live.is_empty() {
                        let slot = live[rng.gen_range_usize(0..32) % live.len()];
                        let old = sp.delete(slot).unwrap();
                        assert_eq!(&old, model.get(&slot).unwrap(), "case {case}");
                        model.remove(&slot);
                    }
                }
                2 => {
                    let live: Vec<u16> = model.keys().copied().collect();
                    if !live.is_empty() {
                        let slot = live[rng.gen_range_usize(0..32) % live.len()];
                        let data = bytes(&mut rng, 1..24);
                        if sp.update(slot, &data).is_ok() {
                            model.insert(slot, data);
                        }
                    }
                }
                _ => sp.compact(),
            }
            // Full consistency check after every step.
            let live = (0..sp.dir_len()).filter(|&s| sp.get(s).is_ok()).count();
            assert_eq!(live, model.len(), "case {case}");
            for (slot, data) in &model {
                assert_eq!(sp.get(*slot).unwrap(), &data[..], "case {case}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Log record codec
// ---------------------------------------------------------------------

#[test]
fn log_records_roundtrip() {
    for case in 0u64..128 {
        let mut rng = Rng::seed_from_u64(0xC0DEC + case);
        let rec = LogRecord {
            txn: TxnId::new(NodeId(3), rng.gen_range(1..1000)),
            prev_lsn: Lsn(rng.gen_range(0..100000)),
            payload: LogPayload::Update {
                pid: pid(rng.gen_range(0..64) as u32),
                psn_before: Psn(rng.gen_range(0..1_000_000)),
                op: PageOp::WriteRange {
                    off: rng.gen_range(0..64) as u32,
                    before: bytes(&mut rng, 0..32),
                    after: bytes(&mut rng, 0..32),
                },
            },
        };
        let encoded = rec.encode();
        let (back, used) = LogRecordRef::decode(&encoded).unwrap();
        assert_eq!(back.to_owned(), rec, "case {case}");
        assert_eq!(used, encoded.len(), "case {case}");
    }
}

#[test]
fn corrupted_log_records_never_decode_silently() {
    for case in 0u64..64 {
        let mut rng = Rng::seed_from_u64(0xBADC0DE + case);
        let rec = LogRecord {
            txn: TxnId::new(NodeId(3), rng.gen_range(1..1000)),
            prev_lsn: Lsn(9),
            payload: LogPayload::Update {
                pid: pid(1),
                psn_before: Psn(5),
                op: PageOp::WriteRange {
                    off: 0,
                    before: vec![1; 16],
                    after: vec![2; 16],
                },
            },
        };
        let mut encoded = rec.encode();
        // Flip a body byte (header flips may alter the length field;
        // those are caught by the length/crc checks too but can read
        // past the buffer differently).
        let i = rng.gen_range_usize(8..encoded.len());
        encoded[i] ^= 0xFF;
        let r = LogRecordRef::decode(&encoded);
        assert!(r.is_err(), "case {case}: bit flip at {i} must not decode");
    }
}

// ---------------------------------------------------------------------
// Space map: PSN floors never regress across alloc/free cycles
// ---------------------------------------------------------------------

#[test]
fn spacemap_psn_floor_is_monotone() {
    for case in 0u64..32 {
        let mut rng = Rng::seed_from_u64(0x5ACE + case);
        let n = rng.gen_range_usize(1..12);
        let mut m = SpaceMap::new(1);
        let mut last_initial = Psn(0);
        for _ in 0..n {
            let fin = rng.gen_range(1..500);
            let (idx, initial) = m.allocate_many(1, 1).unwrap()[0];
            assert!(
                initial > last_initial,
                "case {case}: initial {initial:?} must exceed previous {last_initial:?}"
            );
            last_initial = initial;
            // The page may or may not reach `fin`; deallocate with the
            // max of initial and fin to stay realistic.
            let final_psn = Psn(initial.0.max(fin));
            m.deallocate(idx, final_psn).unwrap();
            last_initial = Psn(last_initial.0.max(final_psn.0));
        }
    }
}

// ---------------------------------------------------------------------
// Buffer pool membership model
// ---------------------------------------------------------------------

#[test]
fn buffer_pool_matches_membership_model() {
    for case in 0u64..48 {
        let mut rng = Rng::seed_from_u64(0xB00F + case);
        let cap = rng.gen_range_usize(2..16);
        let n = rng.gen_range_usize(1..150);
        let mut bp = BufferPool::new(cap);
        let mut resident: Vec<PageId> = Vec::new();
        for _ in 0..n {
            let p = pid(rng.gen_range(0..32) as u32);
            let dirty = rng.gen_bool(0.5);
            let ev = bp
                .insert(Page::new(p, PageKind::Raw, Psn(1), 256), dirty)
                .unwrap();
            if !resident.contains(&p) {
                resident.push(p);
            }
            if let Some(ev) = ev {
                let evicted = ev.page.id();
                assert_ne!(evicted, p, "case {case}: fresh insert never evicts itself");
                resident.retain(|x| *x != evicted);
            }
            let cached = bp.cached_ids().len();
            assert!(cached <= cap, "case {case}");
            assert_eq!(cached, resident.len(), "case {case}");
            for r in &resident {
                assert!(bp.contains(*r), "case {case}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// DPT: RedoLSN only moves forward; entries drop only via the
// flush-ack rule
// ---------------------------------------------------------------------

#[test]
fn dpt_redo_lsn_is_monotone_per_entry() {
    for case in 0u64..48 {
        let mut rng = Rng::seed_from_u64(0xD97 + case);
        let n = rng.gen_range_usize(1..80);
        let mut dpt = DirtyPageTable::new();
        let mut lsn = 100u64;
        let mut psn: HashMap<PageId, u64> = HashMap::new();
        let mut last_redo: HashMap<PageId, u64> = HashMap::new();
        for _ in 0..n {
            let p = pid(rng.gen_range(0..4) as u32);
            let ev = rng.gen_range(0..4) as u8;
            lsn += 10;
            let cur = psn.entry(p).or_insert(1);
            match ev {
                0 => {
                    dpt.ensure(p, Psn(*cur), Lsn(lsn));
                }
                1 => {
                    *cur += 1;
                    dpt.on_update(p, Psn(*cur), Lsn(lsn));
                }
                2 => {
                    dpt.on_replace(p, Lsn(lsn));
                }
                _ => {
                    dpt.on_flush_ack(p);
                }
            }
            if let Some(e) = dpt.get(p) {
                if let Some(prev) = last_redo.get(&p) {
                    assert!(
                        e.redo_lsn.0 >= *prev,
                        "case {case}: RedoLSN regressed on {p}: {} < {prev}",
                        e.redo_lsn.0
                    );
                }
                last_redo.insert(p, e.redo_lsn.0);
            } else {
                last_redo.remove(&p);
            }
        }
    }
}

// ---------------------------------------------------------------------
// PSN redo filter: replay in PSN order is exactly-once from any
// prefix state
// ---------------------------------------------------------------------

#[test]
fn psn_filtered_replay_is_exactly_once() {
    for case in 0u64..64 {
        let mut rng = Rng::seed_from_u64(0xF117E6 + case);
        let n_updates = rng.gen_range_usize(1..40);
        let start_at = rng.gen_range_usize(0..40);
        let double_apply = rng.gen_bool(0.5);
        // Build a history of n updates to one page.
        let mut ops = Vec::new();
        for i in 0..n_updates as u64 {
            ops.push((
                Psn(1 + i),
                PageOp::WriteRange {
                    off: ((i % 16) * 8) as u32,
                    before: i.to_le_bytes().to_vec(),
                    after: (i + 1).to_le_bytes().to_vec(),
                },
            ));
        }
        // Final reference state: apply all in order.
        let mut reference = Page::new(pid(0), PageKind::Raw, Psn(1), 256);
        for (psn, op) in &ops {
            assert_eq!(reference.psn(), *psn, "case {case}");
            op.apply_redo(&mut reference).unwrap();
            reference.set_psn(psn.next());
        }
        // Start from an arbitrary prefix (disk state after some flush).
        let cut = start_at.min(n_updates);
        let mut page = Page::new(pid(0), PageKind::Raw, Psn(1), 256);
        for (psn, op) in &ops[..cut] {
            op.apply_redo(&mut page).unwrap();
            page.set_psn(psn.next());
        }
        // Replay the whole history with the PSN filter, possibly twice.
        let rounds = if double_apply { 2 } else { 1 };
        for _ in 0..rounds {
            for (psn, op) in &ops {
                if page.psn() == *psn {
                    op.apply_redo(&mut page).unwrap();
                    page.set_psn(psn.next());
                }
            }
        }
        assert_eq!(page.psn(), reference.psn(), "case {case}");
        assert_eq!(page.body(), reference.body(), "case {case}");
    }
}
