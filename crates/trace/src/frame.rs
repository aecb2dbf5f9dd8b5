//! Length-prefixed framing for streaming trace sessions.
//!
//! The prediction-as-a-service server multiplexes many long-lived client
//! sessions; each session is a sequence of *frames* — a one-byte kind
//! tag, a little-endian `u32` payload length, and the payload:
//!
//! ```text
//! +------+----------------+-----------------------+
//! | kind | len (u32 LE)   | payload (len bytes)   |
//! +------+----------------+-----------------------+
//! ```
//!
//! Frame *kinds* are opaque to this module (the server's protocol module
//! assigns meanings); what lives here is the hostile-input hardening.
//! [`FrameReader`] reads the stream through the same byte-counting reader
//! as the corpus prologue, and [`decode_records`] parses a payload with
//! the corpus chunks' slice parser, so every error carries its offset in
//! the session stream:
//!
//! * a declared payload length is validated against the per-frame cap
//!   **before** any allocation ([`TraceError::FrameTooLarge`]);
//! * every consumed byte and decoded record is charged against the
//!   session's cumulative [`SessionBudget`]
//!   ([`TraceError::BudgetExceeded`]);
//! * payloads land in a caller-owned scratch buffer whose capacity is
//!   bounded by the frame cap, so a session's memory high-water mark is
//!   a configuration constant, not a function of client behaviour.
//!
//! [`encode_records`] / [`decode_records`] carry branch records *inside*
//! frame payloads using the wire record encoding of corpus chunks (same
//! varint deltas as [`crate::corpus`]), with the delta chain continuing
//! across frames through a caller-held `prev_next` cursor. Unlike a
//! corpus chunk, a payload has no CRC in front of it, so every byte a
//! client sends reaches [`decode_records`] as it arrived.

use std::io::{Read, Write};

use ev8_util::bytebuf::ByteBuf;

use crate::error::TraceError;
use crate::types::{BranchRecord, Outcome, Pc};
use crate::wire::{self, CountingReader, SessionBudget, WireCursor};

/// Encoded size of a frame header (kind byte + u32 length).
pub const FRAME_HEADER_LEN: usize = 5;

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol-defined frame kind tag.
    pub kind: u8,
    /// Payload length in bytes.
    pub len: u32,
}

/// Writes one frame (header + payload) to `w`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure. Payloads are `&[u8]`, so
/// the `u32` length always fits by construction (a slice longer than
/// `u32::MAX` cannot be assembled through [`ByteBuf`] in this workspace);
/// oversized payloads are rejected defensively as [`TraceError::Corrupt`].
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), TraceError> {
    let len = u32::try_from(payload.len()).map_err(|_| TraceError::Corrupt {
        what: "frame payload exceeds u32",
        offset: 0,
    })?;
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = kind;
    header[1..].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads frames off a byte stream, enforcing the per-frame cap and the
/// session's cumulative byte budget.
///
/// # Example
///
/// ```
/// use ev8_trace::frame::{write_frame, FrameReader};
/// use ev8_trace::SessionBudget;
///
/// let mut buf = Vec::new();
/// write_frame(&mut buf, 0x42, b"hello").unwrap();
///
/// let mut r = FrameReader::new(buf.as_slice(), SessionBudget::unlimited());
/// let mut payload = Vec::new();
/// let header = r.read_frame(&mut payload).unwrap().unwrap();
/// assert_eq!(header.kind, 0x42);
/// assert_eq!(payload, b"hello");
/// assert!(r.read_frame(&mut payload).unwrap().is_none()); // clean EOF
/// ```
pub struct FrameReader<R: Read> {
    inner: CountingReader<R>,
    budget: SessionBudget,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with the given session budget.
    pub fn new(inner: R, budget: SessionBudget) -> Self {
        FrameReader {
            inner: CountingReader::new(inner),
            budget,
        }
    }

    /// Bytes consumed from the underlying stream so far.
    pub fn offset(&self) -> u64 {
        self.inner.offset()
    }

    /// The session budget (for usage reporting).
    pub fn budget(&self) -> &SessionBudget {
        &self.budget
    }

    /// Mutable access to the session budget, so record decoding charged
    /// outside this reader (e.g. [`decode_records`]) draws from the same
    /// session-wide pool.
    pub fn budget_mut(&mut self) -> &mut SessionBudget {
        &mut self.budget
    }

    /// Reads the next frame into `payload` (cleared and reused — its
    /// capacity stays bounded by the per-frame cap).
    ///
    /// Returns `Ok(None)` on clean end-of-stream at a frame boundary.
    ///
    /// # Errors
    ///
    /// * [`TraceError::FrameTooLarge`] — declared length over the cap,
    ///   detected before any allocation;
    /// * [`TraceError::BudgetExceeded`] — the session byte budget ran
    ///   out;
    /// * [`TraceError::UnexpectedEof`] — the stream ended mid-frame;
    /// * [`TraceError::Io`] — transport failure.
    pub fn read_frame(&mut self, payload: &mut Vec<u8>) -> Result<Option<FrameHeader>, TraceError> {
        let header_at = self.inner.offset();
        let kind = match self.inner.try_read_u8()? {
            Some(k) => k,
            None => return Ok(None),
        };
        let mut len_bytes = [0u8; 4];
        self.inner.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes);
        self.budget.check_frame_len(u64::from(len), header_at)?;
        self.budget
            .charge_bytes(FRAME_HEADER_LEN as u64 + u64::from(len), header_at)?;
        payload.clear();
        payload.resize(len as usize, 0);
        self.inner.read_exact(payload)?;
        Ok(Some(FrameHeader { kind, len }))
    }
}

/// Encodes `records` as a records-frame payload: a varint count followed
/// by wire-encoded records whose PC delta chain continues from
/// `prev_next` (updated to the last record's fall-through PC, so the
/// next chunk picks up where this one left off).
pub fn encode_records(payload: &mut ByteBuf, records: &[BranchRecord], prev_next: &mut Pc) {
    wire::put_varint(payload, records.len() as u64);
    for rec in records {
        wire::put_record(payload, rec, *prev_next);
        *prev_next = rec.next_pc();
    }
}

/// Decodes a records-frame payload produced by [`encode_records`],
/// appending to `out` and charging each record against `budget`.
///
/// `base_offset` is the payload's position in the session stream (so
/// errors report session offsets, not slice offsets); `prev_next` is the
/// caller's cross-frame delta cursor.
///
/// The declared count is validated against the structural bound of the
/// wire format (a record encodes to at least 4 bytes) *before* any
/// preallocation — the same forged-count hardening as the corpus
/// decoder — and against the remaining record budget.
///
/// # Errors
///
/// [`TraceError::Corrupt`] for structural violations,
/// [`TraceError::BudgetExceeded`] when the record budget runs out, and
/// the usual decode errors for malformed record bodies.
pub fn decode_records(
    payload: &[u8],
    prev_next: &mut Pc,
    budget: &mut SessionBudget,
    base_offset: u64,
    out: &mut Vec<BranchRecord>,
) -> Result<(), TraceError> {
    let mut r = WireCursor::new_at(payload, base_offset);
    let count_at = r.offset();
    let count = r.varint()?;
    // Structural bound: the smallest record encoding is 4 bytes, so an
    // honest count can never exceed payload_len / 4. A forged count is
    // rejected before it buys any allocation.
    let bound = (payload.len() / 4) as u64;
    if count > bound {
        return Err(TraceError::Corrupt {
            what: "record count exceeds payload structural bound",
            offset: count_at,
        });
    }
    budget.charge_records(count, count_at)?;
    out.reserve(count as usize);
    for _ in 0..count {
        *prev_next = r.record(*prev_next, |pc, target, kind, taken, gap| {
            out.push(BranchRecord {
                pc,
                target,
                kind,
                outcome: Outcome::from(taken),
                gap,
            })
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BranchKind;

    /// [`decode_records`] as it was before the slice parser: the
    /// `CountingReader` record parser, kept as the slow twin.
    fn decode_records_twin(
        payload: &[u8],
        prev_next: &mut Pc,
        budget: &mut SessionBudget,
        base_offset: u64,
        out: &mut Vec<BranchRecord>,
    ) -> Result<(), TraceError> {
        let mut r = CountingReader::new_at(payload, base_offset);
        let count_at = r.offset();
        let count = r.read_varint()?;
        let bound = (payload.len() / 4) as u64;
        if count > bound {
            return Err(TraceError::Corrupt {
                what: "record count exceeds payload structural bound",
                offset: count_at,
            });
        }
        budget.charge_records(count, count_at)?;
        out.reserve(count as usize);
        for _ in 0..count {
            let tag_at = r.offset();
            let tag = r.read_u8()?;
            let rec = wire::read_record_body(&mut r, tag, tag_at, *prev_next)?;
            *prev_next = rec.next_pc();
            out.push(rec);
        }
        Ok(())
    }

    /// The 2,000-branch `RECORDS` payload the workspace's
    /// `fault_injection` sweep corrupts, built the same way.
    fn fault_sweep_payload() -> Vec<u8> {
        let records: Vec<BranchRecord> = (0..2_000u64)
            .map(|i| {
                BranchRecord::conditional(
                    Pc::new(0x40_0000 + (i % 97) * 4),
                    Pc::new(0x41_0000 + (i % 31) * 4),
                    (i * 2654435761) % 5 != 0,
                )
                .with_gap((i % 7) as u32)
            })
            .collect();
        let mut buf = ByteBuf::new();
        encode_records(&mut buf, &records, &mut Pc::default());
        buf.into_vec()
    }

    #[test]
    fn slice_parser_matches_its_reader_twin_over_ten_thousand_mutations() {
        let base = fault_sweep_payload();
        let (mut ok, mut err) = (0u32, 0u32);
        for seed in 0..10_000u64 {
            let mutated = ev8_faults::fuzz::corrupt(&base, seed);
            let (mut cursor, mut twin_cursor) = (Pc::default(), Pc::default());
            let (mut records, mut twin_records) = (Vec::new(), Vec::new());
            let got = decode_records(
                &mutated,
                &mut cursor,
                &mut SessionBudget::unlimited(),
                17,
                &mut records,
            );
            let want = decode_records_twin(
                &mutated,
                &mut twin_cursor,
                &mut SessionBudget::unlimited(),
                17,
                &mut twin_records,
            );
            match (got, want) {
                (Ok(()), Ok(())) => ok += 1,
                // Kind, `what` and offset: the whole Debug rendering.
                (Err(a), Err(b)) if format!("{a:?}") == format!("{b:?}") => err += 1,
                (got, want) => panic!("seed {seed}: slice parser {got:?}, twin {want:?}"),
            }
            assert_eq!(records, twin_records, "seed {seed}");
            assert_eq!(cursor, twin_cursor, "seed {seed}");
        }
        assert_eq!((ok, err), (1_765, 8_235));
    }

    fn sample_records(n: u64) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                let pc = Pc::new(0x4000 + i * 16);
                if i % 4 == 0 {
                    BranchRecord::always_taken(pc, Pc::new(0x9000 + i * 8), BranchKind::Call)
                        .with_gap((i % 7) as u32)
                } else {
                    BranchRecord::conditional(pc, Pc::new(0x9000 + i * 8), i % 3 == 0)
                        .with_gap((i % 7) as u32)
                }
            })
            .collect()
    }

    #[test]
    fn frame_roundtrip_multiple() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"abc").unwrap();
        write_frame(&mut buf, 2, b"").unwrap();
        write_frame(&mut buf, 3, &[9u8; 100]).unwrap();
        let mut r = FrameReader::new(buf.as_slice(), SessionBudget::unlimited());
        let mut p = Vec::new();
        assert_eq!(
            r.read_frame(&mut p).unwrap(),
            Some(FrameHeader { kind: 1, len: 3 })
        );
        assert_eq!(p, b"abc");
        assert_eq!(
            r.read_frame(&mut p).unwrap(),
            Some(FrameHeader { kind: 2, len: 0 })
        );
        assert!(p.is_empty());
        assert_eq!(
            r.read_frame(&mut p).unwrap(),
            Some(FrameHeader { kind: 3, len: 100 })
        );
        assert_eq!(p.len(), 100);
        assert_eq!(r.read_frame(&mut p).unwrap(), None);
    }

    #[test]
    fn truncated_frame_reports_eof_offset() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, &[1u8; 32]).unwrap();
        buf.truncate(FRAME_HEADER_LEN + 10);
        let mut r = FrameReader::new(buf.as_slice(), SessionBudget::unlimited());
        let mut p = Vec::new();
        match r.read_frame(&mut p) {
            Err(TraceError::UnexpectedEof { offset }) => {
                assert_eq!(offset, FRAME_HEADER_LEN as u64)
            }
            other => panic!("expected eof, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_reports_eof() {
        let buf = [5u8, 1, 0]; // kind + 2 of 4 length bytes
        let mut r = FrameReader::new(buf.as_slice(), SessionBudget::unlimited());
        let mut p = Vec::new();
        assert!(matches!(
            r.read_frame(&mut p),
            Err(TraceError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn records_roundtrip_across_chunks() {
        let records = sample_records(100);
        let mut enc_cursor = Pc::default();
        let mut payloads = Vec::new();
        for chunk in records.chunks(33) {
            let mut payload = ByteBuf::new();
            encode_records(&mut payload, chunk, &mut enc_cursor);
            payloads.push(payload.into_vec());
        }
        let mut dec_cursor = Pc::default();
        let mut budget = SessionBudget::unlimited();
        let mut out = Vec::new();
        for p in &payloads {
            decode_records(p, &mut dec_cursor, &mut budget, 0, &mut out).unwrap();
        }
        assert_eq!(out, records);
        assert_eq!(budget.records_used(), 100);
    }

    #[test]
    fn top_slot_fall_through_wraps_the_cursor() {
        // count 1 | tag 0 (conditional, not taken) | pc delta zigzag(-4)
        // | target delta 0 | gap 0: a record in the top instruction slot
        // whose fall-through is address 0.
        let payload = [1u8, 0, 7, 0, 0];
        let top = Pc::new(u64::MAX - 3);
        let rec = BranchRecord::conditional(top, top, false);
        let mut cursor = Pc::default();
        let mut out = Vec::new();
        decode_records(
            &payload,
            &mut cursor,
            &mut SessionBudget::unlimited(),
            0,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, [rec]);
        assert_eq!(cursor, Pc::new(0));

        let mut encoded = ByteBuf::new();
        let mut enc_cursor = Pc::default();
        encode_records(&mut encoded, &out, &mut enc_cursor);
        assert_eq!(encoded.as_slice(), payload);
        assert_eq!(enc_cursor, Pc::new(0));
    }

    #[test]
    fn corrupt_kind_tag_reports_offset() {
        // A payload at session offset 40: the count varint, then the
        // first record's tag byte at offset 41.
        let decode = |payload: &[u8]| {
            decode_records(
                payload,
                &mut Pc::default(),
                &mut SessionBudget::unlimited(),
                40,
                &mut Vec::new(),
            )
        };
        for (tag, expected) in [
            (0x07, "unknown branch kind tag"),
            (0x01, "non-conditional branch marked not-taken"),
        ] {
            match decode(&[1, tag, 0, 0, 0]) {
                Err(TraceError::Corrupt { what, offset }) => {
                    assert_eq!(what, expected);
                    assert_eq!(offset, 41);
                }
                other => panic!("expected corrupt tag {tag:#x}, got {other:?}"),
            }
        }
        assert!(matches!(
            decode(&[]),
            Err(TraceError::UnexpectedEof { offset: 40 })
        ));
    }

    #[test]
    fn forged_record_count_rejected_before_prealloc() {
        // A tiny payload claiming 2^40 records must die on the structural
        // bound, not allocate.
        let mut payload = ByteBuf::new();
        wire::put_varint(&mut payload, 1 << 40);
        let mut cursor = Pc::default();
        let mut budget = SessionBudget::unlimited();
        let mut out: Vec<BranchRecord> = Vec::new();
        let err = decode_records(payload.as_slice(), &mut cursor, &mut budget, 77, &mut out)
            .expect_err("forged count must be rejected");
        match err {
            TraceError::Corrupt { what, offset } => {
                assert_eq!(what, "record count exceeds payload structural bound");
                assert_eq!(offset, 77);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(out.capacity() < 1024, "forged count drove a preallocation");
    }

    #[test]
    fn record_budget_trips_with_offset() {
        let records = sample_records(50);
        let mut cursor = Pc::default();
        let mut payload = ByteBuf::new();
        encode_records(&mut payload, &records, &mut cursor);
        let mut budget = SessionBudget::new(u64::MAX, u64::MAX, 30);
        let mut dec_cursor = Pc::default();
        let mut out = Vec::new();
        let err = decode_records(
            payload.as_slice(),
            &mut dec_cursor,
            &mut budget,
            5,
            &mut out,
        )
        .expect_err("record budget must trip");
        match err {
            TraceError::BudgetExceeded {
                what,
                used,
                limit,
                offset,
            } => {
                assert_eq!(what, "session records");
                assert_eq!(used, 50);
                assert_eq!(limit, 30);
                assert_eq!(offset, 5);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn scratch_capacity_stays_bounded_by_cap() {
        // Many frames through one scratch buffer: capacity never exceeds
        // the largest payload, which the cap bounds.
        let cap = 256u64;
        let mut buf = Vec::new();
        for i in 0..20u8 {
            write_frame(&mut buf, i, &[i; 200]).unwrap();
        }
        let mut r = FrameReader::new(buf.as_slice(), SessionBudget::new(cap, u64::MAX, u64::MAX));
        let mut p = Vec::new();
        while let Some(_h) = r.read_frame(&mut p).unwrap() {
            assert!(p.capacity() <= cap as usize);
        }
    }
}
