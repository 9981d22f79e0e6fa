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
//!
//! One function lays a record out and one parses it:
//! [`LogRecordRef::encode_into`] and [`LogRecordRef::decode`], which
//! checks the frame's length and checksum before it parses. The
//! borrowed forms ([`LogRecordRef`], [`LogPayloadRef`], [`PageOpRef`])
//! decode in place over a frame: ids and PSNs are read out of it, op
//! images are slices of it, so a forward scan allocates nothing for the
//! records it looks at and drops. The owned forms ([`LogRecord`],
//! [`LogPayload`], [`PageOp`]) are what callers build and keep; `From`
//! borrows an owned record, `to_owned` copies a borrowed one.

use crate::dpt::DptEntry;
use cblog_common::{Decoder, Encoder, Error, Lsn, NodeId, PageId, Psn, Result, TxnId};
use cblog_storage::{Page, SlottedPage};
use std::borrow::Cow;

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
    #[inline]
    pub fn apply_redo(&self, page: &mut Page) -> Result<()> {
        PageOpRef::from(self).apply_redo(page)
    }

    /// Applies the backward (undo) effect to `page`.
    pub fn apply_undo(&self, page: &mut Page) -> Result<()> {
        PageOpRef::from(self).inverse().apply_redo(page)
    }

    /// The inverse operation — what a CLR logs as its redo.
    pub fn inverse(&self) -> PageOp {
        PageOpRef::from(self).inverse().to_owned()
    }
}

/// A [`PageOp`] whose images are borrowed: from a log frame when
/// decoded, from the owned op when converted with `From`. Redo, the
/// inverse and the op's encoding are written once, here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageOpRef<'a> {
    /// See [`PageOp::WriteRange`].
    WriteRange {
        /// Byte offset within the page body.
        off: u32,
        /// Before-image (undo).
        before: &'a [u8],
        /// After-image (redo).
        after: &'a [u8],
    },
    /// See [`PageOp::Insert`].
    Insert {
        /// Slot the record was placed in.
        slot: u16,
        /// Record payload.
        data: &'a [u8],
    },
    /// See [`PageOp::Delete`].
    Delete {
        /// Slot the record was removed from.
        slot: u16,
        /// The deleted record.
        old: &'a [u8],
    },
    /// See [`PageOp::UpdateRec`].
    UpdateRec {
        /// Slot updated.
        slot: u16,
        /// Previous payload.
        old: &'a [u8],
        /// New payload.
        new: &'a [u8],
    },
}

impl<'a> From<&'a PageOp> for PageOpRef<'a> {
    #[inline]
    fn from(op: &'a PageOp) -> Self {
        match op {
            PageOp::WriteRange { off, before, after } => PageOpRef::WriteRange {
                off: *off,
                before,
                after,
            },
            PageOp::Insert { slot, data } => PageOpRef::Insert { slot: *slot, data },
            PageOp::Delete { slot, old } => PageOpRef::Delete { slot: *slot, old },
            PageOp::UpdateRec { slot, old, new } => PageOpRef::UpdateRec {
                slot: *slot,
                old,
                new,
            },
        }
    }
}

impl<'a> PageOpRef<'a> {
    /// Applies the forward (redo) effect to `page`; the PSN is the
    /// caller's. A range write, the physical op, is a copy and is
    /// applied inline; a slotted-page op goes through an out-of-line
    /// call.
    #[inline]
    pub fn apply_redo(self, page: &mut Page) -> Result<()> {
        match self {
            PageOpRef::WriteRange { off, after, .. } => page.write_range(off as usize, after),
            op => op.apply_logical(page),
        }
    }

    /// [`PageOpRef::apply_redo`] of any op, out of line.
    fn apply_logical(self, page: &mut Page) -> Result<()> {
        match self {
            PageOpRef::WriteRange { off, after, .. } => page.write_range(off as usize, after),
            PageOpRef::Insert { slot, data } => SlottedPage::new(page).insert_at(slot, data),
            PageOpRef::Delete { slot, .. } => SlottedPage::new(page).delete(slot).map(|_| ()),
            PageOpRef::UpdateRec { slot, new, .. } => {
                SlottedPage::new(page).update(slot, new).map(|_| ())
            }
        }
    }

    /// The inverse operation over the same images, roles swapped.
    pub fn inverse(self) -> PageOpRef<'a> {
        match self {
            PageOpRef::WriteRange { off, before, after } => PageOpRef::WriteRange {
                off,
                before: after,
                after: before,
            },
            PageOpRef::Insert { slot, data } => PageOpRef::Delete { slot, old: data },
            PageOpRef::Delete { slot, old } => PageOpRef::Insert { slot, data: old },
            PageOpRef::UpdateRec { slot, old, new } => PageOpRef::UpdateRec {
                slot,
                old: new,
                new: old,
            },
        }
    }

    /// An owned copy of the op.
    pub fn to_owned(self) -> PageOp {
        match self {
            PageOpRef::WriteRange { off, before, after } => PageOp::WriteRange {
                off,
                before: before.to_vec(),
                after: after.to_vec(),
            },
            PageOpRef::Insert { slot, data } => PageOp::Insert {
                slot,
                data: data.to_vec(),
            },
            PageOpRef::Delete { slot, old } => PageOp::Delete {
                slot,
                old: old.to_vec(),
            },
            PageOpRef::UpdateRec { slot, old, new } => PageOp::UpdateRec {
                slot,
                old: old.to_vec(),
                new: new.to_vec(),
            },
        }
    }

    /// Writes the op: the one place that lays an op out. Self-delimiting,
    /// so ops written end to end read back one after another.
    #[inline]
    pub fn encode(self, e: &mut Encoder) {
        match self {
            PageOpRef::WriteRange { off, before, after } => {
                e.put_u8(0);
                e.put_u32(off);
                e.put_bytes(before);
                e.put_bytes(after);
            }
            PageOpRef::Insert { slot, data } => {
                e.put_u8(1);
                e.put_u16(slot);
                e.put_bytes(data);
            }
            PageOpRef::Delete { slot, old } => {
                e.put_u8(2);
                e.put_u16(slot);
                e.put_bytes(old);
            }
            PageOpRef::UpdateRec { slot, old, new } => {
                e.put_u8(3);
                e.put_u16(slot);
                e.put_bytes(old);
                e.put_bytes(new);
            }
        }
    }

    /// Bytes [`PageOpRef::encode`] writes for the op.
    #[inline]
    pub fn encoded_len(self) -> usize {
        match self {
            PageOpRef::WriteRange { before, after, .. } => {
                1 + 4 + 4 + before.len() + 4 + after.len()
            }
            PageOpRef::Insert { data, .. } | PageOpRef::Delete { old: data, .. } => {
                1 + 2 + 4 + data.len()
            }
            PageOpRef::UpdateRec { old, new, .. } => 1 + 2 + 4 + old.len() + 4 + new.len(),
        }
    }

    /// Reads an op [`PageOpRef::encode`] wrote, its images borrowed
    /// from the decoder's buffer.
    #[inline]
    pub fn decode(d: &mut Decoder<'a>) -> Result<Self> {
        match d.get_u8()? {
            0 => Ok(PageOpRef::WriteRange {
                off: d.get_u32()?,
                before: d.get_bytes()?,
                after: d.get_bytes()?,
            }),
            1 => Ok(PageOpRef::Insert {
                slot: d.get_u16()?,
                data: d.get_bytes()?,
            }),
            2 => Ok(PageOpRef::Delete {
                slot: d.get_u16()?,
                old: d.get_bytes()?,
            }),
            3 => Ok(PageOpRef::UpdateRec {
                slot: d.get_u16()?,
                old: d.get_bytes()?,
                new: d.get_bytes()?,
            }),
            t => Err(Error::Corrupt(format!("bad page op tag {t}"))),
        }
    }
}

/// Appends one framed record to `out` and returns its length: the
/// 8-byte frame goes first as a placeholder, `body` writes the payload
/// fields behind the common prefix, and the frame is patched at the
/// record's start offset once the body behind it is complete.
#[inline]
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
    /// place, and returns the record's length.
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        LogRecordRef::from(self).encode_into(out)
    }
}

/// A [`LogPayload`] decoded in place (see [`LogRecordRef`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogPayloadRef<'a> {
    /// See [`LogPayload::Begin`].
    Begin,
    /// See [`LogPayload::Update`].
    Update {
        /// Updated page.
        pid: PageId,
        /// Page PSN just before this update.
        psn_before: Psn,
        /// The operation, borrowed.
        op: PageOpRef<'a>,
    },
    /// See [`LogPayload::Clr`].
    Clr {
        /// Updated (compensated) page.
        pid: PageId,
        /// Page PSN just before the compensation update.
        psn_before: Psn,
        /// The compensation operation, borrowed.
        op: PageOpRef<'a>,
        /// Next record of this transaction to undo.
        undo_next: Lsn,
    },
    /// See [`LogPayload::Commit`].
    Commit,
    /// See [`LogPayload::Abort`].
    Abort,
    /// See [`LogPayload::CheckpointBegin`].
    CheckpointBegin,
    /// See [`LogPayload::CheckpointEnd`]. The one payload a decode
    /// allocates for: its body is two lists, and a log holds few.
    CheckpointEnd(Cow<'a, CheckpointBody>),
}

/// Payload tag of [`LogPayload::Update`].
const TAG_UPDATE: u8 = 1;
/// Payload tag of [`LogPayload::Clr`].
const TAG_CLR: u8 = 2;
/// Body bytes in front of every payload: the transaction id, the
/// previous LSN and the payload tag.
const PREFIX: usize = 12 + 8 + 1;

/// The first `n` bytes of a record body and the rest: the one length
/// check of a fixed-width read.
#[inline]
fn fixed(body: &[u8], n: usize) -> Result<(&[u8], &[u8])> {
    if body.len() < n {
        return Err(short_body());
    }
    Ok(body.split_at(n))
}

#[cold]
fn short_body() -> Error {
    Error::Corrupt("log record body shorter than its fixed fields".into())
}

/// The little-endian u64 at `at` of a fixed-width prefix.
#[inline]
fn u64_at(h: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(h[at..at + 8].try_into().expect("an 8-byte range"))
}

/// Reads `bytes` with `read` and refuses any byte past the last field
/// it read: a frame holds one record and nothing else, so the op that
/// ends an Update or a CLR is exactly the frame's tail.
#[inline]
fn whole<'a, T>(bytes: &'a [u8], read: impl FnOnce(&mut Decoder<'a>) -> Result<T>) -> Result<T> {
    let mut d = Decoder::new(bytes);
    let v = read(&mut d)?;
    match d.remaining() {
        0 => Ok(v),
        n => Err(trailing(n)),
    }
}

#[cold]
fn trailing(n: usize) -> Error {
    Error::Corrupt(format!("{n} bytes after the log record's last field"))
}

impl LogPayloadRef<'_> {
    #[inline]
    fn tag(&self) -> u8 {
        match self {
            LogPayloadRef::Begin => 0,
            LogPayloadRef::Update { .. } => TAG_UPDATE,
            LogPayloadRef::Clr { .. } => TAG_CLR,
            LogPayloadRef::Commit => 3,
            LogPayloadRef::Abort => 4,
            LogPayloadRef::CheckpointBegin => 5,
            LogPayloadRef::CheckpointEnd(_) => 6,
        }
    }
}

/// A [`LogRecord`] decoded in place over its frame, or borrowed from an
/// owned record: the form every log read and every log write goes
/// through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecordRef<'a> {
    /// The transaction this record belongs to.
    pub txn: TxnId,
    /// Previous record of the same transaction, or [`Lsn::ZERO`].
    pub prev_lsn: Lsn,
    /// The payload.
    pub payload: LogPayloadRef<'a>,
}

impl<'a> From<&'a LogRecord> for LogRecordRef<'a> {
    #[inline]
    fn from(r: &'a LogRecord) -> Self {
        let payload = match &r.payload {
            LogPayload::Begin => LogPayloadRef::Begin,
            LogPayload::Update {
                pid,
                psn_before,
                op,
            } => LogPayloadRef::Update {
                pid: *pid,
                psn_before: *psn_before,
                op: op.into(),
            },
            LogPayload::Clr {
                pid,
                psn_before,
                op,
                undo_next,
            } => LogPayloadRef::Clr {
                pid: *pid,
                psn_before: *psn_before,
                op: op.into(),
                undo_next: *undo_next,
            },
            LogPayload::Commit => LogPayloadRef::Commit,
            LogPayload::Abort => LogPayloadRef::Abort,
            LogPayload::CheckpointBegin => LogPayloadRef::CheckpointBegin,
            LogPayload::CheckpointEnd(b) => LogPayloadRef::CheckpointEnd(Cow::Borrowed(b)),
        };
        LogRecordRef {
            txn: r.txn,
            prev_lsn: r.prev_lsn,
            payload,
        }
    }
}

impl<'a> LogRecordRef<'a> {
    /// The page, PSN-before and op of an Update or Clr record.
    #[inline]
    pub fn update(&self) -> Option<(PageId, Psn, PageOpRef<'a>)> {
        match self.payload {
            LogPayloadRef::Update {
                pid,
                psn_before,
                op,
            }
            | LogPayloadRef::Clr {
                pid,
                psn_before,
                op,
                ..
            } => Some((pid, psn_before, op)),
            _ => None,
        }
    }

    /// An owned copy of the record.
    pub fn to_owned(&self) -> LogRecord {
        let payload = match &self.payload {
            LogPayloadRef::Begin => LogPayload::Begin,
            LogPayloadRef::Update {
                pid,
                psn_before,
                op,
            } => LogPayload::Update {
                pid: *pid,
                psn_before: *psn_before,
                op: (*op).to_owned(),
            },
            LogPayloadRef::Clr {
                pid,
                psn_before,
                op,
                undo_next,
            } => LogPayload::Clr {
                pid: *pid,
                psn_before: *psn_before,
                op: (*op).to_owned(),
                undo_next: *undo_next,
            },
            LogPayloadRef::Commit => LogPayload::Commit,
            LogPayloadRef::Abort => LogPayload::Abort,
            LogPayloadRef::CheckpointBegin => LogPayload::CheckpointBegin,
            LogPayloadRef::CheckpointEnd(b) => LogPayload::CheckpointEnd(CheckpointBody::clone(b)),
        };
        LogRecord {
            txn: self.txn,
            prev_lsn: self.prev_lsn,
            payload,
        }
    }

    /// Appends the framed record to `out`, leaving what `out` holds in
    /// place, and returns the record's length: every record in a log
    /// was laid out here, written once, where it is forced from.
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        frame_into(
            out,
            self.txn,
            self.prev_lsn,
            self.payload.tag(),
            |out| match &self.payload {
                LogPayloadRef::Begin
                | LogPayloadRef::Commit
                | LogPayloadRef::Abort
                | LogPayloadRef::CheckpointBegin => {}
                LogPayloadRef::Update {
                    pid,
                    psn_before,
                    op,
                } => {
                    out.put_page(*pid);
                    out.put_psn(*psn_before);
                    op.encode(out);
                }
                LogPayloadRef::Clr {
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
                LogPayloadRef::CheckpointEnd(b) => {
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
            },
        )
    }

    /// Decodes one framed record from the front of `buf` in place and
    /// returns it with the number of bytes it takes: the frame check
    /// (its length and checksum), then the parse of the checked frame.
    /// The one parser of a frame, and outside this crate the only way
    /// to it, so nothing parses a frame that was not checked. Inside,
    /// only the batch reader splits the two halves: it checks each
    /// frame as it reads and parses it later ([`crate::manager::Batch`]).
    #[inline]
    pub fn decode(buf: &'a [u8]) -> Result<(LogRecordRef<'a>, usize)> {
        let n = check_frame(buf)?;
        Ok((LogRecordRef::parse(&buf[..n])?, n))
    }

    /// Parses `frame`, one record's whole frame that [`check_frame`]
    /// passed, in place. Nothing is checked here but the body's fields.
    #[inline]
    pub(crate) fn parse(frame: &'a [u8]) -> Result<LogRecordRef<'a>> {
        let body = &frame[8..];
        // Updates and CLRs, nearly every record, read their fixed
        // fields at fixed offsets behind one length check.
        let (h, payload) = match body.get(PREFIX - 1) {
            Some(&TAG_UPDATE) => {
                let (h, op) = fixed(body, PREFIX + 16)?;
                let payload = LogPayloadRef::Update {
                    pid: PageId::from_u64(u64_at(h, PREFIX)),
                    psn_before: Psn(u64_at(h, PREFIX + 8)),
                    op: whole(op, PageOpRef::decode)?,
                };
                (h, payload)
            }
            Some(&TAG_CLR) => {
                let (h, op) = fixed(body, PREFIX + 24)?;
                let payload = LogPayloadRef::Clr {
                    pid: PageId::from_u64(u64_at(h, PREFIX)),
                    psn_before: Psn(u64_at(h, PREFIX + 8)),
                    undo_next: Lsn(u64_at(h, PREFIX + 16)),
                    op: whole(op, PageOpRef::decode)?,
                };
                (h, payload)
            }
            _ => {
                let (h, rest) = fixed(body, PREFIX)?;
                (h, whole(rest, |d| decode_payload(h[PREFIX - 1], d))?)
            }
        };
        let node = NodeId(u32::from_le_bytes(
            h[..4].try_into().expect("a 4-byte range"),
        ));
        let txn = TxnId::new(node, u64_at(h, 4));
        Ok(LogRecordRef {
            txn,
            prev_lsn: Lsn(u64_at(h, 12)),
            payload,
        })
    }
}

/// Checks the framed record at the front of `buf`, its length and its
/// checksum, and returns the length of its frame: the half of
/// [`LogRecordRef::decode`] that a batch reader runs ahead of the
/// parse.
#[inline]
pub(crate) fn check_frame(buf: &[u8]) -> Result<usize> {
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
    if cblog_common::crc32(&buf[8..total]) != crc {
        return Err(Error::Corrupt("log record crc mismatch".into()));
    }
    Ok(total)
}

/// The payload of a record other than an Update or a CLR, tagged `tag`,
/// from the body bytes behind [`PREFIX`].
fn decode_payload<'a>(tag: u8, d: &mut Decoder<'_>) -> Result<LogPayloadRef<'a>> {
    Ok(match tag {
        0 => LogPayloadRef::Begin,
        3 => LogPayloadRef::Commit,
        4 => LogPayloadRef::Abort,
        5 => LogPayloadRef::CheckpointBegin,
        6 => {
            // Page, two PSNs, RedoLSN and two flags, at the least.
            let n = d.get_count(4 * 8 + 2)?;
            let mut dpt = Vec::with_capacity(n);
            for _ in 0..n {
                dpt.push(DptEntry::decode(d)?);
            }
            // A transaction id and its last LSN.
            let m = d.get_count(12 + 8)?;
            let mut active_txns = Vec::with_capacity(m);
            for _ in 0..m {
                let t = d.get_txn()?;
                let l = d.get_lsn()?;
                active_txns.push((t, l));
            }
            LogPayloadRef::CheckpointEnd(Cow::Owned(CheckpointBody { dpt, active_txns }))
        }
        t => return Err(Error::Corrupt(format!("bad log payload tag {t}"))),
    })
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
        let (back, consumed) = LogRecordRef::decode(&bytes).unwrap();
        let back = back.to_owned();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, r);
        // In place: the same record, borrowing its images from the
        // frame, and the same bytes when it is laid out again.
        let (borrowed, consumed) = LogRecordRef::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(borrowed, LogRecordRef::from(&r));
        assert_eq!(borrowed.to_owned(), r);
        let mut again = Vec::new();
        assert_eq!(borrowed.encode_into(&mut again), bytes.len());
        assert_eq!(again, bytes);
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
        assert_eq!(
            LogRecordRef::decode(&golden).unwrap(),
            (LogRecordRef::from(&rec), golden.len())
        );
        // The borrowed decode reads the same fields, and its images are
        // the frame's own bytes.
        let (borrowed, n) = LogRecordRef::decode(&golden).unwrap();
        assert_eq!(n, golden.len());
        assert_eq!(borrowed.to_owned(), rec);
        let Some((page, psn, PageOpRef::WriteRange { off, before, after })) = borrowed.update()
        else {
            panic!("an update with a range write: {borrowed:?}");
        };
        assert_eq!((page, psn, off), (pid(), Psn(41), 16));
        assert_eq!(before.as_ptr(), golden[54..].as_ptr());
        assert_eq!(after.as_ptr(), golden[66..].as_ptr());
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
        // What the physical write path appends: both images borrowed,
        // the before-image straight out of the cached page.
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
        let borrowed = LogRecordRef {
            txn: txn(),
            prev_lsn: Lsn(0x1122),
            payload: LogPayloadRef::Update {
                pid: pid(),
                psn_before: Psn(41),
                op: PageOpRef::WriteRange {
                    off: 16,
                    before: &before,
                    after: &after,
                },
            },
        };
        let mut out = vec![0xAA; 3];
        assert_eq!(borrowed.encode_into(&mut out), 74);
        assert_eq!(out[3..], owned.encode()[..]);
        assert_eq!(borrowed, LogRecordRef::from(&owned));
    }

    #[test]
    fn borrowed_ops_redo_and_invert_as_owned_ones() {
        let ops = [
            PageOp::WriteRange {
                off: 16,
                before: vec![0; 8],
                after: vec![5; 8],
            },
            PageOp::Insert {
                slot: 0,
                data: b"fresh".to_vec(),
            },
            PageOp::UpdateRec {
                slot: 0,
                old: b"fresh".to_vec(),
                new: b"later".to_vec(),
            },
            PageOp::Delete {
                slot: 0,
                old: b"later".to_vec(),
            },
        ];
        let mut by_owned = Page::new(pid(), PageKind::Slotted, Psn(0), 512);
        let mut by_ref = by_owned.clone();
        for op in &ops {
            let r = PageOpRef::from(op);
            assert_eq!(r.to_owned(), *op);
            assert_eq!(r.inverse().to_owned(), op.inverse());
            assert_eq!(r.inverse().inverse(), r);
            let mut e = Encoder::default();
            r.encode(&mut e);
            assert_eq!(e.as_slice().len(), r.encoded_len());
            e.put_u8(0xEE);
            let mut d = Decoder::new(e.as_slice());
            assert_eq!(PageOpRef::decode(&mut d).unwrap(), r, "self-delimiting");
            assert_eq!(d.remaining(), 1);
            op.apply_redo(&mut by_owned).unwrap();
            r.apply_redo(&mut by_ref).unwrap();
            assert_eq!(by_owned.to_bytes(), by_ref.to_bytes());
        }
    }

    /// `rec`'s frame with the little-endian u32 at body offset `at`
    /// set to `v`, and the CRC recomputed so the change reaches the body.
    fn with_u32_at(rec: &LogRecord, at: usize, v: u32) -> Vec<u8> {
        let mut bytes = rec.encode();
        bytes[8 + at..][..4].copy_from_slice(&v.to_le_bytes());
        let crc = cblog_common::crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn a_checkpoint_count_past_the_record_is_corrupt() {
        let rec = LogRecord {
            txn: txn(),
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::CheckpointEnd(CheckpointBody {
                dpt: vec![DptEntry::new(pid(), Psn(3), Lsn(44))],
                active_txns: vec![(txn(), Lsn(40))],
            }),
        };
        // Body: txn (12), prev LSN (8), tag (1), DPT count, one entry
        // without a replace LSN (34), active-transaction count.
        let (dpt_count, txn_count) = (12 + 8 + 1, 12 + 8 + 1 + 4 + 34);
        assert_eq!(
            LogRecordRef::decode(&with_u32_at(&rec, dpt_count, 1))
                .unwrap()
                .0
                .to_owned(),
            rec
        );
        assert_eq!(
            LogRecordRef::decode(&with_u32_at(&rec, txn_count, 1))
                .unwrap()
                .0
                .to_owned(),
            rec
        );
        for at in [dpt_count, txn_count] {
            let bytes = with_u32_at(&rec, at, u32::MAX);
            assert!(matches!(
                LogRecordRef::decode(&bytes),
                Err(Error::Corrupt(_))
            ));
        }
    }

    /// A frame around `body`, its length and CRC computed for it.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32 + 8).to_le_bytes().to_vec();
        out.extend_from_slice(&cblog_common::crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn a_cut_or_padded_body_is_corrupt_even_when_its_crc_matches() {
        // The collector copies an op as the tail of its frame, so the
        // decode must prove there is nothing behind the op.
        let slotted = [
            PageOp::Delete {
                slot: 1,
                old: b"gone".to_vec(),
            },
            PageOp::UpdateRec {
                slot: 0,
                old: b"old".to_vec(),
                new: b"newer".to_vec(),
            },
        ];
        let updates = slotted.into_iter().map(|op| LogRecord {
            txn: txn(),
            prev_lsn: Lsn(3),
            payload: LogPayload::Update {
                pid: pid(),
                psn_before: Psn(2),
                op,
            },
        });
        for rec in all_payloads().into_iter().chain(updates) {
            let bytes = rec.encode();
            assert_eq!(framed(&bytes[8..]), bytes);
            for len in 0..bytes.len() {
                let cut = &bytes[..len];
                assert!(
                    matches!(LogRecordRef::decode(cut), Err(Error::Corrupt(_))),
                    "{:?} cut to {len} bytes",
                    rec.payload
                );
                if len >= 8 {
                    let reframed = framed(&cut[8..]);
                    assert!(
                        matches!(LogRecordRef::decode(&reframed), Err(Error::Corrupt(_))),
                        "{:?} with its body cut to {} bytes",
                        rec.payload,
                        len - 8
                    );
                }
            }
            for extra in [&[0][..], &[0xEE; 3], &bytes[8..]] {
                let mut body = bytes[8..].to_vec();
                body.extend_from_slice(extra);
                let padded = framed(&body);
                assert!(
                    matches!(LogRecordRef::decode(&padded), Err(Error::Corrupt(_))),
                    "{:?} with {} bytes after its last field",
                    rec.payload,
                    extra.len()
                );
            }
        }
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
        assert!(LogRecordRef::decode(&bytes).is_err());
        assert!(LogRecordRef::decode(&bytes[..4]).is_err());
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
    }

    #[test]
    fn logical_ops_redo_undo_are_inverses() {
        let mut page = Page::new(pid(), PageKind::Slotted, Psn(0), 512);
        let slot = 0;
        SlottedPage::new(&mut page)
            .insert_at(slot, b"original")
            .unwrap();

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
        assert!(SlottedPage::new(&mut page).get(slot).is_err());
        del.apply_undo(&mut page).unwrap();
        assert_eq!(SlottedPage::new(&mut page).get(slot).unwrap(), b"original");
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
        let update = LogRecordRef::from(&r).update();
        assert_eq!(update.map(|(_, psn, _)| psn), Some(Psn(4)));
        assert!(r.op().is_some());
        let c = LogRecord {
            txn: txn(),
            prev_lsn: Lsn(1),
            payload: LogPayload::Commit,
        };
        assert_eq!(c.page(), None);
        assert!(LogRecordRef::from(&c).update().is_none());
        assert!(c.op().is_none());
    }
}
