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
            PageOp::WriteRange { off, before, after } => {
                e.put_u8(0);
                e.put_u32(*off);
                e.put_bytes(before);
                e.put_bytes(after);
            }
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
            LogPayload::Update { .. } => 1,
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

    /// Serializes the record with framing (length + crc), into one
    /// buffer: the frame header goes first as a placeholder and is
    /// filled in once the body behind it is complete.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Encoder::with_capacity(128);
        out.put_u64(0);
        out.put_txn(self.txn);
        out.put_lsn(self.prev_lsn);
        out.put_u8(self.payload.tag());
        match &self.payload {
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
                op.encode(&mut out);
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
                op.encode(&mut out);
            }
            LogPayload::CheckpointEnd(b) => {
                out.put_u32(b.dpt.len() as u32);
                for e in &b.dpt {
                    e.encode(&mut out);
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
        }
        let mut v = out.into_vec();
        let total = v.len() as u32;
        let crc = cblog_common::crc32(&v[8..]);
        v[0..4].copy_from_slice(&total.to_le_bytes());
        v[4..8].copy_from_slice(&crc.to_le_bytes());
        v
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
            1 => LogPayload::Update {
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

    #[test]
    fn all_payloads_round_trip() {
        round_trip(LogRecord {
            txn: txn(),
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::Begin,
        });
        round_trip(LogRecord {
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
        });
        round_trip(LogRecord {
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
        });
        round_trip(LogRecord {
            txn: txn(),
            prev_lsn: Lsn(30),
            payload: LogPayload::Commit,
        });
        round_trip(LogRecord {
            txn: txn(),
            prev_lsn: Lsn(31),
            payload: LogPayload::Abort,
        });
        round_trip(LogRecord {
            txn: txn(),
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::CheckpointBegin,
        });
        round_trip(LogRecord {
            txn: txn(),
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::CheckpointEnd(CheckpointBody {
                dpt: vec![DptEntry::new(pid(), Psn(3), Lsn(44))],
                active_txns: vec![(txn(), Lsn(40))],
            }),
        });
        round_trip(LogRecord {
            txn: txn(),
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::AllocPage {
                pid: pid(),
                kind: 1,
            },
        });
        round_trip(LogRecord {
            txn: txn(),
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::FreePage {
                pid: pid(),
                final_psn: Psn(12),
            },
        });
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
