//! Shared wire-format primitives for branch records.
//!
//! Corpus chunks ([`crate::corpus`]) and session `RECORDS` payloads
//! ([`crate::frame`]) carry records in one delta/varint encoding; this
//! module holds the single copy of the varint/zigzag/tag encoding and
//! the record encode/decode logic, so hardening against corrupt inputs
//! lands in one place.
//!
//! Records are parsed by one slice parser, [`WireCursor`]: corpus chunks
//! and `RECORDS` payloads are both in memory by the time their records
//! are read, so the parser walks a byte slice with a position instead of
//! pulling bytes through [`std::io::Read`]. What reads a *stream* — the
//! corpus prologue and [`crate::frame::FrameReader`] — goes through
//! [`CountingReader`]. Both track the byte offset consumed so far, so
//! every corrupt-path [`TraceError`] reports *where* in the input the
//! problem was detected, which is what makes fuzzer findings and
//! truncated-download reports actionable. The `Read`-based record
//! parser the slice parser replaced stays in the tests as its slow twin.

use std::io::Read;

use ev8_util::bytebuf::ByteBuf;

use crate::error::TraceError;
use crate::types::{BranchKind, BranchRecord, Pc};

/// Trace names longer than this are rejected as corrupt rather than
/// allocated: a flipped bit in the name-length varint must not buy a
/// multi-GiB `vec![0; len]`.
pub(crate) const MAX_NAME_LEN: usize = 1 << 16;

/// Cap on the record-count *preallocation* (not on the trace size).
/// A record is at least 4 encoded bytes, so an honest 2^16-record trace
/// is ≥ 256 KiB of input; preallocating beyond this from an unvalidated
/// header would let a forged count field reserve gigabytes up front.
/// Longer traces simply grow the vector as records actually parse.
pub(crate) const RECORD_PREALLOC_CAP: usize = 1 << 16;

pub(crate) const KIND_MASK: u8 = 0b0111;
pub(crate) const TAKEN_BIT: u8 = 0b1000;

pub(crate) fn kind_to_tag(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::IndirectJump => 4,
    }
}

pub(crate) fn kind_from_tag(tag: u8) -> Option<BranchKind> {
    Some(match tag {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        4 => BranchKind::IndirectJump,
        _ => return None,
    })
}

pub(crate) fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn put_varint(buf: &mut ByteBuf, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// A [`Read`] adapter that counts consumed bytes, so decode errors can
/// say at which offset the input went wrong.
pub(crate) struct CountingReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> CountingReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        CountingReader { inner, offset: 0 }
    }

    /// A reader whose offset starts at `offset` instead of 0 — the slow
    /// twin's view of a payload extracted from a larger stream.
    #[cfg(test)]
    pub(crate) fn new_at(inner: R, offset: u64) -> Self {
        CountingReader { inner, offset }
    }

    /// Bytes successfully consumed so far.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// Mutable access to the wrapped reader. The corpus decoder uses
    /// this to snapshot (and then disable) its prologue CRC accumulator
    /// once the checksummed header + index region has been consumed.
    pub(crate) fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Builds a [`TraceError::Corrupt`] at the current offset.
    pub(crate) fn corrupt(&self, what: &'static str) -> TraceError {
        TraceError::Corrupt {
            what,
            offset: self.offset,
        }
    }

    /// Reads exactly `buf.len()` bytes; a short read reports
    /// [`TraceError::UnexpectedEof`] at the offset where the data ran out.
    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TraceError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(TraceError::UnexpectedEof {
                    offset: self.offset,
                })
            }
            Err(e) => Err(TraceError::Io(e)),
        }
    }

    pub(crate) fn read_u8(&mut self) -> Result<u8, TraceError> {
        let mut byte = [0u8; 1];
        self.read_exact(&mut byte)?;
        Ok(byte[0])
    }

    /// Reads one byte, returning `Ok(None)` on clean end-of-stream — the
    /// frame-boundary probe a session stream uses to detect its end.
    pub(crate) fn try_read_u8(&mut self) -> Result<Option<u8>, TraceError> {
        let mut byte = [0u8; 1];
        match self.inner.read_exact(&mut byte) {
            Ok(()) => {
                self.offset += 1;
                Ok(Some(byte[0]))
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(TraceError::Io(e)),
        }
    }

    /// Reads an LEB128 varint, rejecting encodings wider than 64 bits.
    pub(crate) fn read_varint(&mut self) -> Result<u64, TraceError> {
        let start = self.offset;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8()?;
            if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
                return Err(TraceError::Corrupt {
                    what: "varint overflow",
                    offset: start,
                });
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// The one wire-record parser: a cursor over bytes already in memory.
///
/// `base` is the slice's position in the enclosing stream, so error
/// offsets are stream positions — session offsets for a `RECORDS`
/// payload, the chunk's file offset plus the position in its
/// decompressed wire bytes for a corpus chunk. It makes the checks of
/// the `Read`-based parser it replaced, in the same order and with the
/// same error and offset for each (pinned against that parser, kept as a
/// test-only twin, over seeded mutations of frame payloads and corpus
/// chunks).
pub(crate) struct WireCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> WireCursor<'a> {
    /// A cursor at the start of `bytes`, which sit at stream offset
    /// `base`.
    pub(crate) fn new_at(bytes: &'a [u8], base: u64) -> Self {
        WireCursor {
            bytes,
            pos: 0,
            base,
        }
    }

    /// Stream offset of the next unread byte.
    #[inline]
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Builds a [`TraceError::Corrupt`] at the current offset.
    pub(crate) fn corrupt(&self, what: &'static str) -> TraceError {
        TraceError::Corrupt {
            what,
            offset: self.offset(),
        }
    }

    /// Reads one byte; running out reports [`TraceError::UnexpectedEof`]
    /// at the bytes consumed so far.
    #[inline(always)]
    fn byte(&mut self) -> Result<u8, TraceError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(TraceError::UnexpectedEof {
                offset: self.offset(),
            }),
        }
    }

    /// Reads an LEB128 varint, rejecting encodings wider than 64 bits at
    /// the varint's first byte.
    #[inline(always)]
    pub(crate) fn varint(&mut self) -> Result<u64, TraceError> {
        let start = self.offset();
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
                return Err(TraceError::Corrupt {
                    what: "varint overflow",
                    offset: start,
                });
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Parses one record whose PC delta chain continues from `prev_next`
    /// and hands its fields — pc, target, kind, taken, gap — to `put`,
    /// with no [`BranchRecord`] built in between. Returns the address
    /// that executes after the record (its target when taken, else its
    /// fall-through): the next record's `prev_next`.
    ///
    /// Tag bits 4–7 are ignored. Errors: an unknown kind tag, or an
    /// always-taken kind marked not-taken, at the tag; a varint overflow
    /// at the varint's first byte; a gap over `u32` at the gap; running
    /// out of bytes at the bytes consumed so far.
    #[inline(always)]
    pub(crate) fn record(
        &mut self,
        prev_next: Pc,
        put: impl FnOnce(Pc, Pc, BranchKind, bool, u32),
    ) -> Result<Pc, TraceError> {
        let tag_at = self.offset();
        let tag = self.byte()?;
        let kind = kind_from_tag(tag & KIND_MASK).ok_or(TraceError::Corrupt {
            what: "unknown branch kind tag",
            offset: tag_at,
        })?;
        let taken = tag & TAKEN_BIT != 0;
        if kind.is_always_taken() && !taken {
            return Err(TraceError::Corrupt {
                what: "non-conditional branch marked not-taken",
                offset: tag_at,
            });
        }
        let pc_delta = zigzag_decode(self.varint()?);
        let pc = Pc::new(prev_next.as_u64().wrapping_add(pc_delta as u64));
        let tgt_delta = zigzag_decode(self.varint()?);
        let target = Pc::new(pc.as_u64().wrapping_add(tgt_delta as u64));
        let gap_at = self.offset();
        let gap = u32::try_from(self.varint()?).map_err(|_| TraceError::Corrupt {
            what: "gap exceeds u32",
            offset: gap_at,
        })?;
        put(pc, target, kind, taken, gap);
        Ok(if taken { target } else { pc.next() })
    }
}

/// Cumulative consumption limits for one streaming session.
///
/// PR 3 hardened the decoders against *structurally* forged input (a
/// corrupt count field cannot buy a giant preallocation). Long-running
/// sessions need the complementary *cumulative* guarantee: a client that
/// sends perfectly well-formed input forever must still be cut off. A
/// `SessionBudget` meters three things:
///
/// * the per-frame payload cap ([`SessionBudget::check_frame_len`]) —
///   rejected before any payload allocation;
/// * total bytes consumed across the session
///   ([`SessionBudget::charge_bytes`]);
/// * total records decoded across the session
///   ([`SessionBudget::charge_records`]).
///
/// Every rejection is a structured [`TraceError`] carrying the byte
/// offset at which the budget ran out, so server logs and close frames
/// can report exactly where a client crossed the line.
#[derive(Clone, Copy, Debug)]
pub struct SessionBudget {
    max_frame_len: u64,
    max_bytes: u64,
    max_records: u64,
    bytes: u64,
    records: u64,
}

/// Default per-frame payload cap: 1 MiB.
pub const DEFAULT_FRAME_CAP: u64 = 1 << 20;

impl SessionBudget {
    /// A budget with the given per-frame cap and cumulative limits.
    pub fn new(max_frame_len: u64, max_bytes: u64, max_records: u64) -> Self {
        SessionBudget {
            max_frame_len,
            max_bytes,
            max_records,
            bytes: 0,
            records: 0,
        }
    }

    /// A budget that never trips (all limits at `u64::MAX`).
    pub fn unlimited() -> Self {
        SessionBudget::new(u64::MAX, u64::MAX, u64::MAX)
    }

    /// The per-frame payload cap.
    pub fn max_frame_len(&self) -> u64 {
        self.max_frame_len
    }

    /// Bytes charged so far.
    pub fn bytes_used(&self) -> u64 {
        self.bytes
    }

    /// Records charged so far.
    pub fn records_used(&self) -> u64 {
        self.records
    }

    /// Validates a declared frame-payload length against the per-frame
    /// cap, *before* anything is allocated or read.
    ///
    /// # Errors
    ///
    /// [`TraceError::FrameTooLarge`] at `offset` when `len` exceeds the
    /// cap.
    pub fn check_frame_len(&self, len: u64, offset: u64) -> Result<(), TraceError> {
        if len > self.max_frame_len {
            return Err(TraceError::FrameTooLarge {
                len,
                cap: self.max_frame_len,
                offset,
            });
        }
        Ok(())
    }

    /// Charges `n` bytes against the cumulative session byte budget.
    ///
    /// # Errors
    ///
    /// [`TraceError::BudgetExceeded`] at `offset` when the charge would
    /// cross the limit (the charge is still recorded, so the reported
    /// usage shows what was attempted).
    pub fn charge_bytes(&mut self, n: u64, offset: u64) -> Result<(), TraceError> {
        self.bytes = self.bytes.saturating_add(n);
        if self.bytes > self.max_bytes {
            return Err(TraceError::BudgetExceeded {
                what: "session bytes",
                used: self.bytes,
                limit: self.max_bytes,
                offset,
            });
        }
        Ok(())
    }

    /// Charges `n` records against the cumulative session record budget.
    ///
    /// # Errors
    ///
    /// [`TraceError::BudgetExceeded`] at `offset` when the charge would
    /// cross the limit.
    pub fn charge_records(&mut self, n: u64, offset: u64) -> Result<(), TraceError> {
        self.records = self.records.saturating_add(n);
        if self.records > self.max_records {
            return Err(TraceError::BudgetExceeded {
                what: "session records",
                used: self.records,
                limit: self.max_records,
                offset,
            });
        }
        Ok(())
    }
}

/// Encodes one record given the previous record's fall-through PC.
pub(crate) fn put_record(buf: &mut ByteBuf, rec: &BranchRecord, prev_next: Pc) {
    let mut tag = kind_to_tag(rec.kind);
    if rec.is_taken() {
        tag |= TAKEN_BIT;
    }
    buf.put_u8(tag);
    // Wrapping two's-complement deltas: PCs span the full u64 space, so
    // the difference can exceed i64 — the wrap is reversed bit-exactly
    // by the wrapping add on decode.
    let pc_delta = rec.pc.as_u64().wrapping_sub(prev_next.as_u64()) as i64;
    put_varint(buf, zigzag_encode(pc_delta));
    let tgt_delta = rec.target.as_u64().wrapping_sub(rec.pc.as_u64()) as i64;
    put_varint(buf, zigzag_encode(tgt_delta));
    put_varint(buf, rec.gap as u64);
}

/// Decodes the body of one record, `tag` having already been read at
/// offset `tag_at`: the `Read`-based record parser [`WireCursor::record`]
/// replaced, kept as its slow twin.
#[cfg(test)]
pub(crate) fn read_record_body<R: Read>(
    r: &mut CountingReader<R>,
    tag: u8,
    tag_at: u64,
    prev_next: Pc,
) -> Result<BranchRecord, TraceError> {
    let kind = kind_from_tag(tag & KIND_MASK).ok_or(TraceError::Corrupt {
        what: "unknown branch kind tag",
        offset: tag_at,
    })?;
    let taken = tag & TAKEN_BIT != 0;
    if kind.is_always_taken() && !taken {
        return Err(TraceError::Corrupt {
            what: "non-conditional branch marked not-taken",
            offset: tag_at,
        });
    }
    let pc_delta = zigzag_decode(r.read_varint()?);
    let pc = Pc::new(prev_next.as_u64().wrapping_add(pc_delta as u64));
    let tgt_delta = zigzag_decode(r.read_varint()?);
    let target = Pc::new(pc.as_u64().wrapping_add(tgt_delta as u64));
    let gap_at = r.offset();
    let gap = r.read_varint()?;
    let gap = u32::try_from(gap).map_err(|_| TraceError::Corrupt {
        what: "gap exceeds u32",
        offset: gap_at,
    })?;
    Ok(BranchRecord {
        pc,
        target,
        kind,
        outcome: crate::types::Outcome::from(taken),
        gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            123456789,
            -987654321,
        ] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = ByteBuf::new();
            put_varint(&mut buf, v);
            let mut r = CountingReader::new(buf.as_ref());
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_rejected_with_offset() {
        // Eleven continuation bytes encode more than 64 bits; the error
        // reports the offset where the varint *started*.
        let mut bytes = vec![0u8; 3];
        bytes.extend_from_slice(&[0xffu8; 11]);
        let mut r = CountingReader::new(bytes.as_slice());
        let mut skip = [0u8; 3];
        r.read_exact(&mut skip).unwrap();
        match r.read_varint() {
            Err(TraceError::Corrupt { what, offset }) => {
                assert_eq!(what, "varint overflow");
                assert_eq!(offset, 3);
            }
            other => panic!("expected corrupt varint, got {other:?}"),
        }
    }

    #[test]
    fn counting_reader_tracks_offsets() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = CountingReader::new(data.as_slice());
        assert_eq!(r.offset(), 0);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.offset(), 1);
        let mut two = [0u8; 2];
        r.read_exact(&mut two).unwrap();
        assert_eq!(r.offset(), 3);
        assert_eq!(r.try_read_u8().unwrap(), Some(4));
        assert_eq!(r.read_u8().unwrap(), 5);
        // Clean end: try_read reports None, read_exact reports EOF at 5.
        assert_eq!(r.try_read_u8().unwrap(), None);
        match r.read_u8() {
            Err(TraceError::UnexpectedEof { offset: 5 }) => {}
            other => panic!("expected eof at 5, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_varint_reports_offset() {
        let bytes = [0x80u8, 0x80]; // two continuation bytes, then nothing
        let mut r = CountingReader::new(bytes.as_slice());
        match r.read_varint() {
            Err(TraceError::UnexpectedEof { offset: 2 }) => {}
            other => panic!("expected eof at 2, got {other:?}"),
        }
    }
}
