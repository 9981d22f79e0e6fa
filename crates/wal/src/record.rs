//! Log record model and serialization.
//!
//! Record framing on disk:
//!
//! ```text
//! 0   4  total length (header + body)
//! 4   4  crc32 over body
//! 8   .. body: txn id, prev_lsn, payload tag, payload fields
//! ```
//!
//! Every update-describing record (Update, Clr) carries the page id and
//! the PSN the page had *just before* the update (paper §2.1). That PSN
//! is the sole cross-node ordering token used by recovery.

use crate::dpt::DptEntry;
use cblog_common::{Decoder, Encoder, Error, Lsn, PageId, Psn, Result, TxnId};
use cblog_storage::{Page, SlottedPage};

/// A page mutation, loggable physically or logically.
///
/// Each operation knows how to redo itself and how to produce its
/// inverse (for undo / CLR generation). Redo and undo application do
/// not touch the PSN — the caller owns the PSN discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageOp {
    /// Physical byte-range overwrite within the page body.
    WriteRange {
        /// Byte offset within the page body.
        off: u32,
        /// Before-image (undo).
        before: Vec<u8>,
        /// After-image (redo).
        after: Vec<u8>,
    },
    /// Logical record insertion into a slotted page.
    Insert {
        /// Slot the record was placed in.
        slot: u16,
        /// Record payload.
        data: Vec<u8>,
    },
    /// Logical record deletion from a slotted page.
    Delete {
        /// Slot the record was removed from.
        slot: u16,
        /// The deleted record (undo needs it).
        old: Vec<u8>,
    },
    /// Logical in-place record replacement.
    UpdateRec {
        /// Slot updated.
        slot: u16,
        /// Previous payload.
        old: Vec<u8>,
        /// New payload.
        new: Vec<u8>,
    },
}

impl PageOp {
    /// Applies the forward (redo) effect to `page`.
    pub fn apply_redo(&self, page: &mut Page) -> Result<()> {
        match self {
            PageOp::WriteRange { off, after, .. } => page.write_range(*off as usize, after),
            PageOp::Insert { slot, data } => SlottedPage::new(page).insert_at(*slot, data),
            PageOp::Delete { slot, .. } => SlottedPage::new(page).delete(*slot).map(|_| ()),
            PageOp::UpdateRec { slot, new, .. } => {
                SlottedPage::new(page).update(*slot, new).map(|_| ())
            }
        }
    }

    /// Applies the backward (undo) effect to `page`.
    pub fn apply_undo(&self, page: &mut Page) -> Result<()> {
        self.inverse().apply_redo(page)
    }

    /// The inverse operation — what a CLR logs as its redo.
    pub fn inverse(&self) -> PageOp {
        match self {
            PageOp::WriteRange { off, before, after } => PageOp::WriteRange {
                off: *off,
                before: after.clone(),
                after: before.clone(),
            },
            PageOp::Insert { slot, data } => PageOp::Delete {
                slot: *slot,
                old: data.clone(),
            },
            PageOp::Delete { slot, old } => PageOp::Insert {
                slot: *slot,
                data: old.clone(),
            },
            PageOp::UpdateRec { slot, old, new } => PageOp::UpdateRec {
                slot: *slot,
                old: new.clone(),
                new: old.clone(),
            },
        }
    }

    /// True for logical (record-level) operations.
    pub fn is_logical(&self) -> bool {
        !matches!(self, PageOp::WriteRange { .. })
    }

    fn encode(&self, e: &mut Encoder) {
        match self {
            PageOp::WriteRange { off, before, after } => put_write_range(e, *off, before, after),
            PageOp::Insert { slot, data } => {
                e.put_u8(1);
                e.put_u16(*slot);
                e.put_bytes(data);
            }
            PageOp::Delete { slot, old } => {
                e.put_u8(2);
                e.put_u16(*slot);
                e.put_bytes(old);
            }
            PageOp::UpdateRec { slot, old, new } => {
                e.put_u8(3);
                e.put_u16(*slot);
                e.put_bytes(old);
                e.put_bytes(new);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        match d.get_u8()? {
            0 => Ok(PageOp::WriteRange {
                off: d.get_u32()?,
                before: d.get_bytes()?.to_vec(),
                after: d.get_bytes()?.to_vec(),
            }),
            1 => Ok(PageOp::Insert {
                slot: d.get_u16()?,
                data: d.get_bytes()?.to_vec(),
            }),
            2 => Ok(PageOp::Delete {
                slot: d.get_u16()?,
                old: d.get_bytes()?.to_vec(),
            }),
            3 => Ok(PageOp::UpdateRec {
                slot: d.get_u16()?,
                old: d.get_bytes()?.to_vec(),
                new: d.get_bytes()?.to_vec(),
            }),
            t => Err(Error::Corrupt(format!("bad page op tag {t}"))),
        }
    }
}

/// Lays out the body of a [`PageOp::WriteRange`]: the one place that
/// knows it, for an owned op and for a [`RangeUpdate`]'s borrowed
/// images alike.
fn put_write_range(e: &mut Encoder, off: u32, before: &[u8], after: &[u8]) {
    e.put_u8(0);
    e.put_u32(off);
    e.put_bytes(before);
    e.put_bytes(after);
}

/// Payload tag of [`LogPayload::Update`].
const TAG_UPDATE: u8 = 1;

/// Appends one framed record to `out` and returns its length: the
/// 8-byte frame goes first as a placeholder, `body` writes the payload
/// fields behind the common prefix, and the frame is patched at the
/// record's start offset once the body behind it is complete. Every
/// record in a log was laid out here.
fn frame_into(
    out: &mut Vec<u8>,
    txn: TxnId,
    prev_lsn: Lsn,
    tag: u8,
    body: impl FnOnce(&mut Encoder),
) -> usize {
    let start = out.len();
    let mut e = Encoder::from_vec(std::mem::take(out));
    e.put_u64(0);
    e.put_txn(txn);
    e.put_lsn(prev_lsn);
    e.put_u8(tag);
    body(&mut e);
    *out = e.into_vec();
    let total = out.len() - start;
    let crc = cblog_common::crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&(total as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    total
}

/// An [`LogPayload::Update`] record carrying a [`PageOp::WriteRange`],
/// with both images borrowed: what the physical write path logs, so
/// that the before-image is read straight out of the cached page and
/// no owned [`LogRecord`] is built to be encoded once and dropped.
/// Encodes byte for byte as the owned record does.
#[derive(Clone, Copy, Debug)]
pub struct RangeUpdate<'a> {
    /// The writing transaction.
    pub txn: TxnId,
    /// Its previous record.
    pub prev_lsn: Lsn,
    /// Updated page.
    pub pid: PageId,
    /// Page PSN just before this update.
    pub psn_before: Psn,
    /// Byte offset within the page body.
    pub off: u32,
    /// Before-image (undo).
    pub before: &'a [u8],
    /// After-image (redo).
    pub after: &'a [u8],
}

impl RangeUpdate<'_> {
    /// Appends the framed record to `out`; returns its length.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        frame_into(out, self.txn, self.prev_lsn, TAG_UPDATE, |e| {
            e.put_page(self.pid);
            e.put_psn(self.psn_before);
            put_write_range(e, self.off, self.before, self.after);
        })
    }
}

/// Body of a fuzzy checkpoint-end record: the node's DPT and the
/// transactions active at checkpoint time with their last LSNs.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CheckpointBody {
    /// Snapshot of the dirty page table.
    pub dpt: Vec<DptEntry>,
    /// Active transactions and their most recent log record.
    pub active_txns: Vec<(TxnId, Lsn)>,
}

/// The record variants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction start.
    Begin,
    /// A page update by an active transaction.
    Update {
        /// Updated page.
        pid: PageId,
        /// Page PSN just before this update.
        psn_before: Psn,
        /// The operation.
        op: PageOp,
    },
    /// Compensation record written while undoing.
    Clr {
        /// Updated (compensated) page.
        pid: PageId,
        /// Page PSN just before the compensation update.
        psn_before: Psn,
        /// The compensation operation (redo-only).
        op: PageOp,
        /// Next record of this transaction to undo (skips already
        /// compensated work on repeated rollbacks).
        undo_next: Lsn,
    },
    /// Transaction committed (force point).
    Commit,
    /// Transaction rollback completed.
    Abort,
    /// Fuzzy checkpoint started.
    CheckpointBegin,
    /// Fuzzy checkpoint finished; body snapshotted during the fuzz.
    CheckpointEnd(CheckpointBody),
    /// Page allocation in the local database.
    AllocPage {
        /// Allocated page.
        pid: PageId,
        /// Kind tag (storage::PageKind encoding).
        kind: u8,
    },
    /// Page deallocation in the local database.
    FreePage {
        /// Freed page.
        pid: PageId,
        /// PSN at deallocation (raises the space-map floor).
        final_psn: Psn,
    },
}

impl LogPayload {
    fn tag(&self) -> u8 {
        match self {
            LogPayload::Begin => 0,
            LogPayload::Update { .. } => TAG_UPDATE,
            LogPayload::Clr { .. } => 2,
            LogPayload::Commit => 3,
            LogPayload::Abort => 4,
            LogPayload::CheckpointBegin => 5,
            LogPayload::CheckpointEnd(_) => 6,
            LogPayload::AllocPage { .. } => 7,
            LogPayload::FreePage { .. } => 8,
        }
    }
}

/// One record in a node's local log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// The transaction this record belongs to (checkpoints use a
    /// reserved txn id of (node, 0)).
    pub txn: TxnId,
    /// Previous record of the same transaction (backward chain), or
    /// [`Lsn::ZERO`].
    pub prev_lsn: Lsn,
    /// The payload.
    pub payload: LogPayload,
}

impl LogRecord {
    /// The page this record updates, if it is an Update/Clr.
    pub fn page(&self) -> Option<PageId> {
        match &self.payload {
            LogPayload::Update { pid, .. } | LogPayload::Clr { pid, .. } => Some(*pid),
            _ => None,
        }
    }

    /// The PSN-before of an Update/Clr record.
    pub fn psn_before(&self) -> Option<Psn> {
        match &self.payload {
            LogPayload::Update { psn_before, .. } | LogPayload::Clr { psn_before, .. } => {
                Some(*psn_before)
            }
            _ => None,
        }
    }

    /// The operation of an Update/Clr record.
    pub fn op(&self) -> Option<&PageOp> {
        match &self.payload {
            LogPayload::Update { op, .. } | LogPayload::Clr { op, .. } => Some(op),
            _ => None,
        }
    }

    /// Serializes the record with framing (length + crc) into a buffer
    /// of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Appends the framed record to `out`, leaving what `out` holds in
    /// place, and returns the record's length. This is how a record
    /// reaches the log tail: written once, where it is forced from.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        frame_into(
            out,
            self.txn,
            self.prev_lsn,
            self.payload.tag(),
            |out| match &self.payload {
                LogPayload::Begin
                | LogPayload::Commit
                | LogPayload::Abort
                | LogPayload::CheckpointBegin => {}
                LogPayload::Update {
                    pid,
                    psn_before,
                    op,
                } => {
                    out.put_page(*pid);
                    out.put_psn(*psn_before);
                    op.encode(out);
                }
                LogPayload::Clr {
                    pid,
                    psn_before,
                    op,
                    undo_next,
                } => {
                    out.put_page(*pid);
                    out.put_psn(*psn_before);
                    out.put_lsn(*undo_next);
                    op.encode(out);
                }
                LogPayload::CheckpointEnd(b) => {
                    out.put_u32(b.dpt.len() as u32);
                    for e in &b.dpt {
                        e.encode(out);
                    }
                    out.put_u32(b.active_txns.len() as u32);
                    for (t, l) in &b.active_txns {
                        out.put_txn(*t);
                        out.put_lsn(*l);
                    }
                }
                LogPayload::AllocPage { pid, kind } => {
                    out.put_page(*pid);
                    out.put_u8(*kind);
                }
                LogPayload::FreePage { pid, final_psn } => {
                    out.put_page(*pid);
                    out.put_psn(*final_psn);
                }
            },
        )
    }

    /// Decodes one framed record from the front of `buf`, returning the
    /// record and the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(LogRecord, usize)> {
        if buf.len() < 8 {
            return Err(Error::Corrupt("truncated log record frame".into()));
        }
        let total = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        if total < 8 || total > buf.len() {
            return Err(Error::Corrupt(format!(
                "log record length {total} exceeds available {}",
                buf.len()
            )));
        }
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let body = &buf[8..total];
        if cblog_common::crc32(body) != crc {
            return Err(Error::Corrupt("log record crc mismatch".into()));
        }
        let mut d = Decoder::new(body);
        let txn = d.get_txn()?;
        let prev_lsn = d.get_lsn()?;
        let payload = match d.get_u8()? {
            0 => LogPayload::Begin,
            TAG_UPDATE => LogPayload::Update {
                pid: d.get_page()?,
                psn_before: d.get_psn()?,
                op: PageOp::decode(&mut d)?,
            },
            2 => LogPayload::Clr {
                pid: d.get_page()?,
                psn_before: d.get_psn()?,
                undo_next: d.get_lsn()?,
                op: PageOp::decode(&mut d)?,
            },
            3 => LogPayload::Commit,
            4 => LogPayload::Abort,
            5 => LogPayload::CheckpointBegin,
            6 => {
                let n = d.get_u32()? as usize;
                let mut dpt = Vec::with_capacity(n);
                for _ in 0..n {
                    dpt.push(DptEntry::decode(&mut d)?);
                }
                let m = d.get_u32()? as usize;
                let mut active_txns = Vec::with_capacity(m);
                for _ in 0..m {
                    let t = d.get_txn()?;
                    let l = d.get_lsn()?;
                    active_txns.push((t, l));
                }
                LogPayload::CheckpointEnd(CheckpointBody { dpt, active_txns })
            }
            7 => LogPayload::AllocPage {
                pid: d.get_page()?,
                kind: d.get_u8()?,
            },
            8 => LogPayload::FreePage {
                pid: d.get_page()?,
                final_psn: d.get_psn()?,
            },
            t => return Err(Error::Corrupt(format!("bad log payload tag {t}"))),
        };
        Ok((
            LogRecord {
                txn,
                prev_lsn,
                payload,
            },
            total,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::NodeId;
    use cblog_storage::PageKind;

    fn pid() -> PageId {
        PageId::new(NodeId(2), 5)
    }

    fn txn() -> TxnId {
        TxnId::new(NodeId(1), 3)
    }

    fn round_trip(r: LogRecord) {
        let bytes = r.encode();
        let (back, consumed) = LogRecord::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, r);
    }

    #[test]
    fn encoded_bytes_are_the_format() {
        // Byte for byte what every earlier version appended for this
        // record (length, CRC over the body, body): the checksum kernel
        // may change, the log format may not, or restart recovery stops
        // reading old logs.
        let rec = LogRecord {
            txn: txn(),
            prev_lsn: Lsn(0x1122),
            payload: LogPayload::Update {
                pid: pid(),
                psn_before: Psn(41),
                op: PageOp::WriteRange {
                    off: 16,
                    before: 7u64.to_le_bytes().to_vec(),
                    after: 0xDEAD_BEEF_u64.to_le_bytes().to_vec(),
                },
            },
        };
        #[rustfmt::skip]
        let golden: [u8; 74] = [
            0x4a, 0x00, 0x00, 0x00, 0xdd, 0x44, 0xa0, 0xa6,
            0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x22, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x01,
            0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
            0x29, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00,
            0x10, 0x00, 0x00, 0x00,
            0x08, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x08, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00,
        ];
        assert_eq!(rec.encode(), golden);
        assert_eq!(LogRecord::decode(&golden).unwrap(), (rec, golden.len()));
    }

    /// One record of every payload variant.
    fn all_payloads() -> Vec<LogRecord> {
        vec![
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::Begin,
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn(10),
                payload: LogPayload::Update {
                    pid: pid(),
                    psn_before: Psn(7),
                    op: PageOp::WriteRange {
                        off: 16,
                        before: vec![0; 8],
                        after: vec![1; 8],
                    },
                },
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn(20),
                payload: LogPayload::Clr {
                    pid: pid(),
                    psn_before: Psn(9),
                    op: PageOp::Insert {
                        slot: 2,
                        data: b"rec".to_vec(),
                    },
                    undo_next: Lsn(5),
                },
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn(30),
                payload: LogPayload::Commit,
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn(31),
                payload: LogPayload::Abort,
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::CheckpointBegin,
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::CheckpointEnd(CheckpointBody {
                    dpt: vec![DptEntry::new(pid(), Psn(3), Lsn(44))],
                    active_txns: vec![(txn(), Lsn(40))],
                }),
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::AllocPage {
                    pid: pid(),
                    kind: 1,
                },
            },
            LogRecord {
                txn: txn(),
                prev_lsn: Lsn::ZERO,
                payload: LogPayload::FreePage {
                    pid: pid(),
                    final_psn: Psn(12),
                },
            },
        ]
    }

    #[test]
    fn all_payloads_round_trip() {
        for r in all_payloads() {
            round_trip(r);
        }
    }

    #[test]
    fn encode_into_behind_a_prefix_equals_encode() {
        // The frame is patched at the record's start offset, not at the
        // buffer's: whatever the tail already holds is left alone.
        let mut tail = b"earlier records".to_vec();
        for r in all_payloads() {
            let at = tail.len();
            let n = r.encode_into(&mut tail);
            assert_eq!(&tail[..15], b"earlier records");
            assert_eq!(tail[at..], r.encode()[..], "{:?}", r.payload);
            assert_eq!(n, tail.len() - at);
        }
    }

    #[test]
    fn a_borrowed_range_update_encodes_as_the_owned_record() {
        let (before, after) = (7u64.to_le_bytes(), 0xDEAD_BEEF_u64.to_le_bytes());
        let owned = LogRecord {
            txn: txn(),
            prev_lsn: Lsn(0x1122),
            payload: LogPayload::Update {
                pid: pid(),
                psn_before: Psn(41),
                op: PageOp::WriteRange {
                    off: 16,
                    before: before.to_vec(),
                    after: after.to_vec(),
                },
            },
        };
        let borrowed = RangeUpdate {
            txn: txn(),
            prev_lsn: Lsn(0x1122),
            pid: pid(),
            psn_before: Psn(41),
            off: 16,
            before: &before,
            after: &after,
        };
        let mut out = vec![0xAA; 3];
        assert_eq!(borrowed.encode_into(&mut out), 74);
        assert_eq!(out[3..], owned.encode()[..]);
    }

    #[test]
    fn corruption_detected() {
        let r = LogRecord {
            txn: txn(),
            prev_lsn: Lsn(10),
            payload: LogPayload::Commit,
        };
        let mut bytes = r.encode();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(LogRecord::decode(&bytes).is_err());
        assert!(LogRecord::decode(&bytes[..4]).is_err());
    }

    #[test]
    fn write_range_redo_undo_are_inverses() {
        let mut page = Page::new(pid(), PageKind::Raw, Psn(0), 256);
        page.write_range(16, &[9; 8]).unwrap();
        let op = PageOp::WriteRange {
            off: 16,
            before: vec![9; 8],
            after: vec![1; 8],
        };
        op.apply_redo(&mut page).unwrap();
        assert_eq!(page.read_range(16, 8).unwrap(), &[1; 8]);
        op.apply_undo(&mut page).unwrap();
        assert_eq!(page.read_range(16, 8).unwrap(), &[9; 8]);
        assert!(!op.is_logical());
    }

    #[test]
    fn logical_ops_redo_undo_are_inverses() {
        let mut page = Page::new(pid(), PageKind::Slotted, Psn(0), 512);
        let slot = SlottedPage::new(&mut page).insert(b"original").unwrap();

        let upd = PageOp::UpdateRec {
            slot,
            old: b"original".to_vec(),
            new: b"changed".to_vec(),
        };
        upd.apply_redo(&mut page).unwrap();
        assert_eq!(SlottedPage::new(&mut page).get(slot).unwrap(), b"changed");
        upd.apply_undo(&mut page).unwrap();
        assert_eq!(SlottedPage::new(&mut page).get(slot).unwrap(), b"original");

        let del = PageOp::Delete {
            slot,
            old: b"original".to_vec(),
        };
        del.apply_redo(&mut page).unwrap();
        assert!(!SlottedPage::new(&mut page).is_live(slot));
        del.apply_undo(&mut page).unwrap();
        assert_eq!(SlottedPage::new(&mut page).get(slot).unwrap(), b"original");
        assert!(del.is_logical());
    }

    #[test]
    fn inverse_of_inverse_is_identity() {
        let op = PageOp::UpdateRec {
            slot: 3,
            old: b"a".to_vec(),
            new: b"b".to_vec(),
        };
        assert_eq!(op.inverse().inverse(), op);
        let op = PageOp::Insert {
            slot: 1,
            data: b"x".to_vec(),
        };
        assert_eq!(op.inverse().inverse(), op);
    }

    #[test]
    fn accessors() {
        let r = LogRecord {
            txn: txn(),
            prev_lsn: Lsn(1),
            payload: LogPayload::Update {
                pid: pid(),
                psn_before: Psn(4),
                op: PageOp::WriteRange {
                    off: 0,
                    before: vec![],
                    after: vec![],
                },
            },
        };
        assert_eq!(r.page(), Some(pid()));
        assert_eq!(r.psn_before(), Some(Psn(4)));
        assert!(r.op().is_some());
        let c = LogRecord {
            txn: txn(),
            prev_lsn: Lsn(1),
            payload: LogPayload::Commit,
        };
        assert_eq!(c.page(), None);
        assert_eq!(c.psn_before(), None);
        assert!(c.op().is_none());
    }
}
