//! Chunked, compressed, checksummed on-disk trace corpus format — the
//! one file format traces are stored in.
//!
//! The paper's Table 2 methodology assumes SPEC-sized, many-seed trace
//! corpora; regenerating traces per run or holding them in RAM via the
//! workload cache caps experiments far below that. This module is the
//! persistent tier: a zero-dependency container that stores a trace as
//! independently decodable compressed chunks, so replay streams straight
//! from disk into packed [`FlatTrace`] blocks without ever materializing
//! the 24 B/record AoS [`Trace`].
//!
//! # On-disk layout (format version 1)
//!
//! All multi-byte integers are LEB128 varints except where noted.
//!
//! ```text
//! header   := "EV8C"  version:u16le  name_len  name  record_count
//!             instruction_count  chunk_len  chunk_count
//! index    := chunk_count * { records  raw_len  comp_len  method:u8  crc:u32le }
//! prologue_crc:u32le                   // CRC-32 of header + index bytes
//! chunks   := concatenated stored chunk payloads (comp_len bytes each)
//! ```
//!
//! Each chunk holds up to `chunk_len` records in the delta/varint wire
//! encoding that session `RECORDS` payloads also use ([`crate::frame`]),
//! with the PC-delta cursor **reset at every chunk boundary** so chunks
//! decode independently. A chunk's stored payload is either the raw wire
//! bytes (`method` 0) or an in-tree LZ77 token stream (`method` 1, the
//! crate's private `lz` module) — whichever is smaller. `crc` is the CRC-32 of the
//! *stored* payload, so every storage-level mutation of a chunk body is
//! caught before decompression or record decode runs; the prologue CRC
//! does the same for the header and index. The index precedes the
//! payloads, so a [`CorpusReader`] needs only sequential [`Read`] — no
//! seeking.
//!
//! # Hardening
//!
//! The decoder follows the workspace's decoder contract: every length
//! field is validated against structural bounds *before* any allocation
//! (a forged `raw_len` cannot buy gigabytes), every failure is a typed
//! [`TraceError`] carrying a byte offset, and the declared record and
//! instruction totals are cross-checked against what actually decoded —
//! there is no input that yields silently wrong records.
//!
//! # Example
//!
//! ```
//! use ev8_trace::corpus::{write_corpus, CorpusReader};
//! use ev8_trace::{BranchRecord, Pc, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("demo");
//! for i in 0..100u64 {
//!     b.run(2);
//!     b.branch(BranchRecord::conditional(Pc::new(0x1000 + i * 8), Pc::new(0x2000), i % 3 == 0));
//! }
//! let trace = b.finish();
//!
//! let mut bytes = Vec::new();
//! write_corpus(&mut bytes, &trace).unwrap();
//!
//! let decoded = CorpusReader::new(bytes.as_slice()).unwrap().read_trace().unwrap();
//! assert_eq!(decoded, trace);
//! ```

use std::io::{Read, Write};

use ev8_util::bytebuf::ByteBuf;
use ev8_util::crc::{crc32, Crc32};

use crate::error::TraceError;
use crate::flat::{FlatTrace, FlatTraceBuilder};
use crate::lz;
use crate::trace::Trace;
use crate::types::{BranchRecord, Pc};
use crate::wire::{self, CountingReader, WireCursor};

/// Magic bytes identifying a corpus file.
pub const CORPUS_MAGIC: [u8; 4] = *b"EV8C";

/// Current corpus format version. Readers reject any other value —
/// including newer ones — with [`TraceError::UnsupportedVersion`], so a
/// future format revision can never be half-read by an old build.
pub const CORPUS_VERSION: u16 = 1;

/// Default records per chunk: large enough to amortize per-chunk
/// overhead (index entry + CRC + compressor warm-up) to noise, small
/// enough that one in-flight chunk stays comfortably cache-sized.
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 16;

/// Hard cap a reader accepts for `chunk_len`. Writers never get near it;
/// a forged header cannot use it to scale other limits unboundedly.
const MAX_CHUNK_RECORDS: u64 = 1 << 20;

/// Ceiling on the wire encoding of one record: tag byte + two zigzag
/// PC-delta varints (≤ 10 bytes each) + gap varint (≤ 5 bytes). Used to
/// bound `raw_len` against the chunk's declared record count before any
/// buffer is allocated.
const MAX_RECORD_WIRE: u64 = 26;

/// Floor on the wire encoding of one record (tag + three 1-byte varints).
const MIN_RECORD_WIRE: u64 = 4;

/// Chunk payload stored as raw wire bytes.
const METHOD_STORED: u8 = 0;
/// Chunk payload stored as an LZ77 token stream.
const METHOD_LZ: u8 = 1;

/// One parsed index entry.
#[derive(Clone, Copy, Debug)]
struct ChunkEntry {
    records: u64,
    raw_len: u64,
    comp_len: u64,
    method: u8,
    crc: u32,
}

/// A [`Read`] adapter that CRCs everything consumed through it while
/// enabled; the corpus prologue (header + index) is checksummed this way
/// without buffering it.
struct CrcRead<R> {
    inner: R,
    crc: Crc32,
    enabled: bool,
}

impl<R: Read> Read for CrcRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if self.enabled {
            self.crc.update(&buf[..n]);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streams records into an in-progress corpus; [`CorpusWriter::finish`]
/// emits the complete file.
///
/// Compressed chunks are buffered in memory until `finish` (the index
/// precedes the payloads on disk, so their sizes must all be known
/// first); at the observed < 3 bytes/record this stays small even for
/// full-scale traces.
pub struct CorpusWriter {
    name: String,
    chunk_len: usize,
    /// Wire bytes of the chunk currently being filled.
    buf: ByteBuf,
    /// Records in the current chunk.
    pending: usize,
    /// Fall-through PC of the previous record in the current chunk.
    prev_next: Pc,
    chunks: Vec<(ChunkEntry, Vec<u8>)>,
    record_count: u64,
    instruction_count: u64,
}

impl CorpusWriter {
    /// A writer for a trace called `name` with the default chunk size.
    pub fn new(name: &str) -> Self {
        CorpusWriter::with_chunk_len(name, DEFAULT_CHUNK_RECORDS)
    }

    /// A writer with an explicit records-per-chunk size (tests use tiny
    /// chunks to exercise boundaries).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero or exceeds the format's cap.
    pub fn with_chunk_len(name: &str, chunk_len: usize) -> Self {
        assert!(
            chunk_len >= 1 && chunk_len as u64 <= MAX_CHUNK_RECORDS,
            "chunk_len out of range"
        );
        CorpusWriter {
            name: name.to_owned(),
            chunk_len,
            buf: ByteBuf::new(),
            pending: 0,
            prev_next: Pc::default(),
            chunks: Vec::new(),
            record_count: 0,
            instruction_count: 0,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, rec: &BranchRecord) {
        wire::put_record(&mut self.buf, rec, self.prev_next);
        self.prev_next = rec.next_pc();
        self.pending += 1;
        self.record_count += 1;
        self.instruction_count += 1 + rec.gap as u64;
        if self.pending == self.chunk_len {
            self.seal_chunk();
        }
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Compresses and files away the current chunk, resetting the delta
    /// cursor so the next chunk decodes independently.
    fn seal_chunk(&mut self) {
        debug_assert!(self.pending > 0);
        self.chunks
            .push(store_chunk(self.buf.as_slice(), self.pending as u64));
        self.buf.clear();
        self.pending = 0;
        self.prev_next = Pc::default();
    }

    /// Seals the final chunk and writes the complete corpus to `w`,
    /// returning the total bytes written.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    pub fn finish<W: Write>(mut self, w: &mut W) -> Result<u64, TraceError> {
        if self.pending > 0 {
            self.seal_chunk();
        }
        let mut prologue = ByteBuf::new();
        prologue.put_slice(&CORPUS_MAGIC);
        prologue.put_u16_le(CORPUS_VERSION);
        wire::put_varint(&mut prologue, self.name.len() as u64);
        prologue.put_slice(self.name.as_bytes());
        wire::put_varint(&mut prologue, self.record_count);
        wire::put_varint(&mut prologue, self.instruction_count);
        wire::put_varint(&mut prologue, self.chunk_len as u64);
        wire::put_varint(&mut prologue, self.chunks.len() as u64);
        for (entry, _) in &self.chunks {
            wire::put_varint(&mut prologue, entry.records);
            wire::put_varint(&mut prologue, entry.raw_len);
            wire::put_varint(&mut prologue, entry.comp_len);
            prologue.put_u8(entry.method);
            prologue.put_u32_le(entry.crc);
        }
        let crc = crc32(prologue.as_slice());
        prologue.put_u32_le(crc);
        w.write_all(prologue.as_slice())?;
        let mut total = prologue.len() as u64;
        for (_, stored) in &self.chunks {
            w.write_all(stored)?;
            total += stored.len() as u64;
        }
        Ok(total)
    }
}

/// Stores one chunk's wire bytes holding `records` records: compressed
/// when that is smaller, raw otherwise, with the CRC of what is stored.
fn store_chunk(raw: &[u8], records: u64) -> (ChunkEntry, Vec<u8>) {
    let packed = lz::compress(raw);
    let (method, stored) = if packed.len() < raw.len() {
        (METHOD_LZ, packed)
    } else {
        (METHOD_STORED, raw.to_vec())
    };
    let entry = ChunkEntry {
        records,
        raw_len: raw.len() as u64,
        comp_len: stored.len() as u64,
        method,
        crc: crc32(&stored),
    };
    (entry, stored)
}

/// Writes `trace` as a corpus with the default chunk size; returns the
/// encoded size in bytes.
///
/// # Errors
///
/// [`TraceError::Io`] on write failure.
pub fn write_corpus<W: Write>(w: &mut W, trace: &Trace) -> Result<u64, TraceError> {
    write_corpus_chunked(w, trace, DEFAULT_CHUNK_RECORDS)
}

/// [`write_corpus`] with an explicit records-per-chunk size.
///
/// # Errors
///
/// [`TraceError::Io`] on write failure.
///
/// # Panics
///
/// Panics if `chunk_len` is zero or exceeds the format's cap.
pub fn write_corpus_chunked<W: Write>(
    w: &mut W,
    trace: &Trace,
    chunk_len: usize,
) -> Result<u64, TraceError> {
    let mut writer = CorpusWriter::with_chunk_len(trace.name(), chunk_len);
    for rec in trace.records() {
        writer.push(rec);
    }
    writer.finish(w)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Decodes one chunk's wire bytes (`raw`, declared to hold `records`
/// records) straight into the packed columns of a block called `name`.
///
/// Record-decode errors report `chunk_at` plus the position in the
/// *decompressed* wire bytes (those positions do not exist in the file,
/// but they locate the failure within the chunk). The columns are
/// reserved to `records`, which the index validation bounds by
/// [`MAX_CHUNK_RECORDS`].
fn decode_chunk(
    name: &str,
    raw: &[u8],
    records: u64,
    chunk_at: u64,
) -> Result<FlatTrace, TraceError> {
    let mut body = WireCursor::new_at(raw, chunk_at);
    let mut builder = FlatTraceBuilder::with_capacity(name, records as usize);
    let mut prev_next = Pc::default();
    for _ in 0..records {
        prev_next = body.record(prev_next, |pc, target, kind, taken, gap| {
            builder.push_fields(pc, target, kind, taken, gap)
        })?;
    }
    if body.offset() - chunk_at != raw.len() as u64 {
        return Err(body.corrupt("chunk body has trailing bytes"));
    }
    Ok(builder.finish())
}

/// Streaming corpus decoder: validates the prologue eagerly, then yields
/// one packed [`FlatTrace`] block per chunk from sequential reads.
///
/// Block-granular streaming is what keeps replay memory flat: at any
/// moment only one compressed chunk, its decompressed wire bytes, and
/// the packed block being built are resident, regardless of trace size.
pub struct CorpusReader<R: Read> {
    r: CountingReader<CrcRead<R>>,
    name: String,
    record_count: u64,
    instruction_count: u64,
    chunk_len: u64,
    index: Vec<ChunkEntry>,
    /// Next chunk to decode.
    cursor: usize,
    /// Records decoded so far across all chunks.
    records_done: u64,
    /// Instructions (records + gaps) decoded so far.
    instructions_done: u64,
    /// Set once the end-of-stream validation has passed.
    finished: bool,
    /// Scratch for the compressed and decompressed chunk bytes.
    stored_buf: Vec<u8>,
    raw_buf: Vec<u8>,
}

impl<R: Read> CorpusReader<R> {
    /// Opens a corpus: reads and validates the header and chunk index
    /// (including their CRC) without touching any chunk payload.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for
    /// foreign or future files, [`TraceError::ChecksumMismatch`] when
    /// the prologue CRC fails, [`TraceError::Corrupt`] /
    /// [`TraceError::UnexpectedEof`] (with byte offsets) for structural
    /// damage.
    pub fn new(inner: R) -> Result<Self, TraceError> {
        let mut r = CountingReader::new(CrcRead {
            inner,
            crc: Crc32::new(),
            enabled: true,
        });
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != CORPUS_MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let mut ver = [0u8; 2];
        r.read_exact(&mut ver)?;
        let version = u16::from_le_bytes(ver);
        if version != CORPUS_VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let len_at = r.offset();
        let name_len = r.read_varint()? as usize;
        if name_len > wire::MAX_NAME_LEN {
            return Err(TraceError::Corrupt {
                what: "unreasonable name length",
                offset: len_at,
            });
        }
        let mut name_bytes = vec![0u8; name_len];
        let name_at = r.offset();
        r.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes).map_err(|_| TraceError::Corrupt {
            what: "trace name is not utf-8",
            offset: name_at,
        })?;
        let record_count = r.read_varint()?;
        let instruction_count = r.read_varint()?;
        if instruction_count < record_count {
            return Err(r.corrupt("instruction count below record count"));
        }
        let chunk_len_at = r.offset();
        let chunk_len = r.read_varint()?;
        if chunk_len == 0 || chunk_len > MAX_CHUNK_RECORDS {
            return Err(TraceError::Corrupt {
                what: "chunk length out of range",
                offset: chunk_len_at,
            });
        }
        let chunk_count_at = r.offset();
        let chunk_count = r.read_varint()?;
        // Every chunk holds at least one record, so the index can never
        // legitimately outnumber the records.
        if chunk_count > record_count {
            return Err(TraceError::Corrupt {
                what: "more chunks than records",
                offset: chunk_count_at,
            });
        }
        // Prealloc is bounded: forged counts grow the vec only as
        // entries actually parse (each costs ≥ 8 input bytes).
        let mut index = Vec::with_capacity(chunk_count.min(1 << 16) as usize);
        let mut records_total = 0u64;
        for _ in 0..chunk_count {
            let entry_at = r.offset();
            let records = r.read_varint()?;
            if records == 0 || records > chunk_len {
                return Err(TraceError::Corrupt {
                    what: "chunk record count out of range",
                    offset: entry_at,
                });
            }
            let raw_len = r.read_varint()?;
            if raw_len < records * MIN_RECORD_WIRE || raw_len > records * MAX_RECORD_WIRE {
                return Err(TraceError::Corrupt {
                    what: "chunk raw length out of range",
                    offset: entry_at,
                });
            }
            let comp_len = r.read_varint()?;
            let method = r.read_u8()?;
            let valid_len = match method {
                METHOD_STORED => comp_len == raw_len,
                METHOD_LZ => comp_len > 0 && comp_len <= raw_len,
                _ => {
                    return Err(TraceError::Corrupt {
                        what: "unknown chunk compression method",
                        offset: entry_at,
                    })
                }
            };
            if !valid_len {
                return Err(TraceError::Corrupt {
                    what: "chunk compressed length inconsistent with method",
                    offset: entry_at,
                });
            }
            let mut crc_bytes = [0u8; 4];
            r.read_exact(&mut crc_bytes)?;
            records_total += records;
            index.push(ChunkEntry {
                records,
                raw_len,
                comp_len,
                method,
                crc: u32::from_le_bytes(crc_bytes),
            });
        }
        if records_total != record_count {
            return Err(r.corrupt("chunk index record total mismatch"));
        }
        // Snapshot the running CRC before consuming the stored value,
        // then stop hashing — chunk payloads carry their own CRCs.
        let computed = r.get_mut().crc.finish();
        r.get_mut().enabled = false;
        let crc_at = r.offset();
        let mut stored = [0u8; 4];
        r.read_exact(&mut stored)?;
        let expected = u32::from_le_bytes(stored);
        if expected != computed {
            return Err(TraceError::ChecksumMismatch {
                what: "corpus header",
                expected,
                found: computed,
                offset: crc_at,
            });
        }
        Ok(CorpusReader {
            r,
            name,
            record_count,
            instruction_count,
            chunk_len,
            index,
            cursor: 0,
            records_done: 0,
            instructions_done: 0,
            finished: false,
            stored_buf: Vec::new(),
            raw_buf: Vec::new(),
        })
    }

    /// The trace's name (benchmark identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total records the header declares.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Total instructions (records + gaps) the header declares.
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }

    /// Number of chunks in the corpus.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Records per full chunk.
    pub fn chunk_len(&self) -> u64 {
        self.chunk_len
    }

    /// Decodes the next chunk into a packed [`FlatTrace`] block, or
    /// returns `Ok(None)` after the final chunk once the end-of-stream
    /// validation (record and instruction totals, no trailing bytes)
    /// has passed.
    ///
    /// # Errors
    ///
    /// [`TraceError::ChecksumMismatch`] when a chunk's stored bytes fail
    /// their CRC; [`TraceError::Corrupt`] / [`TraceError::UnexpectedEof`]
    /// for structural damage. After an error the reader is poisoned —
    /// further calls return whatever the underlying stream yields next,
    /// with no records silently skipped.
    pub fn next_block(&mut self) -> Result<Option<FlatTrace>, TraceError> {
        if self.cursor == self.index.len() {
            if !self.finished {
                if self.records_done != self.record_count {
                    return Err(self.r.corrupt("record count mismatch"));
                }
                if self.instructions_done != self.instruction_count {
                    return Err(self.r.corrupt("instruction count mismatch"));
                }
                if self.r.try_read_u8()?.is_some() {
                    return Err(self.r.corrupt("trailing bytes after final chunk"));
                }
                self.finished = true;
            }
            return Ok(None);
        }
        let entry = self.index[self.cursor];
        let chunk_at = self.r.offset();
        // comp_len was validated against raw_len, which was validated
        // against the per-record wire ceiling: bounded allocation.
        self.stored_buf.clear();
        self.stored_buf.resize(entry.comp_len as usize, 0);
        self.r.read_exact(&mut self.stored_buf)?;
        let found = crc32(&self.stored_buf);
        if found != entry.crc {
            return Err(TraceError::ChecksumMismatch {
                what: "corpus chunk",
                expected: entry.crc,
                found,
                offset: chunk_at,
            });
        }
        let raw: &[u8] = match entry.method {
            METHOD_STORED => &self.stored_buf,
            _ => {
                self.raw_buf.clear();
                lz::decompress(&self.stored_buf, entry.raw_len as usize, &mut self.raw_buf)
                    .map_err(|what| TraceError::Corrupt {
                        what,
                        offset: chunk_at,
                    })?;
                &self.raw_buf
            }
        };
        let block = decode_chunk(&self.name, raw, entry.records, chunk_at)?;
        self.cursor += 1;
        self.records_done += entry.records;
        self.instructions_done += block.instruction_count();
        Ok(Some(block))
    }

    /// Walks every block in order, invoking `f` on each.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error; see [`CorpusReader::next_block`].
    pub fn for_each_block(mut self, mut f: impl FnMut(&FlatTrace)) -> Result<(), TraceError> {
        while let Some(block) = self.next_block()? {
            f(&block);
        }
        Ok(())
    }

    /// Walks every record in order, invoking `f` on each — the
    /// record-granular form of [`CorpusReader::for_each_block`].
    ///
    /// # Errors
    ///
    /// Propagates the first decode error; see [`CorpusReader::next_block`].
    pub fn for_each(self, mut f: impl FnMut(&BranchRecord)) -> Result<(), TraceError> {
        self.for_each_block(|block| block.for_each(&mut f))
    }

    /// Materializes the whole corpus as an AoS [`Trace`] — the
    /// compatibility path for consumers that need random access; replay
    /// paths should stream blocks instead.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error; see [`CorpusReader::next_block`].
    pub fn read_trace(self) -> Result<Trace, TraceError> {
        let name = self.name.clone();
        let declared = self.record_count.min(wire::RECORD_PREALLOC_CAP as u64) as usize;
        let mut records = Vec::with_capacity(declared);
        let mut instruction_count = 0u64;
        self.for_each_block(|block| {
            instruction_count += block.instruction_count();
            records.extend(block.iter());
        })?;
        // The totals cross-check in next_block guarantees the invariant
        // Trace::from_parts asserts.
        Ok(Trace::from_parts(name, records, instruction_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::types::BranchKind;

    fn sample(n: u64) -> Trace {
        let mut b = TraceBuilder::new("corpus-sample");
        for i in 0..n {
            b.run(i % 7);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + (i % 64) * 8),
                Pc::new(0x4000 + (i % 17) * 4),
                i % 3 != 0,
            ));
            if i % 13 == 0 {
                b.branch(BranchRecord::always_taken(
                    Pc::new(0x9000),
                    Pc::new(0x1000),
                    BranchKind::Call,
                ));
            }
        }
        b.finish()
    }

    fn encode(trace: &Trace, chunk_len: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        let total = write_corpus_chunked(&mut bytes, trace, chunk_len).expect("encode");
        assert_eq!(total as usize, bytes.len());
        bytes
    }

    #[test]
    fn roundtrips_across_chunk_sizes() {
        let trace = sample(500);
        for chunk_len in [1usize, 7, 64, 500, 1 << 16] {
            let bytes = encode(&trace, chunk_len);
            let reader = CorpusReader::new(bytes.as_slice()).expect("open");
            assert_eq!(reader.name(), trace.name());
            assert_eq!(reader.record_count(), trace.len() as u64);
            assert_eq!(reader.instruction_count(), trace.instruction_count());
            let decoded = reader.read_trace().expect("decode");
            assert_eq!(decoded, trace, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = TraceBuilder::new("empty").finish();
        let bytes = encode(&trace, 8);
        let mut reader = CorpusReader::new(bytes.as_slice()).expect("open");
        assert_eq!(reader.chunk_count(), 0);
        assert!(reader.next_block().expect("end").is_none());
        // Idempotent after the end.
        assert!(reader.next_block().expect("end").is_none());
        let decoded = CorpusReader::new(bytes.as_slice())
            .unwrap()
            .read_trace()
            .unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn blocks_match_flat_packing_of_chunks() {
        let trace = sample(300);
        let chunk_len = 100;
        let bytes = encode(&trace, chunk_len);
        let mut reader = CorpusReader::new(bytes.as_slice()).expect("open");
        let mut start = 0usize;
        while let Some(block) = reader.next_block().expect("block") {
            let end = start + block.len();
            let mut expected = FlatTraceBuilder::new(trace.name());
            for r in &trace.records()[start..end] {
                expected.push(r);
            }
            assert_eq!(block, expected.finish(), "chunk at record {start}");
            assert!(block.len() <= chunk_len);
            start = end;
        }
        assert_eq!(start, trace.len());
    }

    #[test]
    fn compresses_repetitive_traces() {
        let trace = sample(20_000);
        let bytes = encode(&trace, DEFAULT_CHUNK_RECORDS);
        let per_record = bytes.len() as f64 / trace.len() as f64;
        assert!(
            per_record < 10.0,
            "corpus stores {per_record:.2} B/record, want < 10"
        );
    }

    #[test]
    fn trailing_garbage_after_final_chunk_is_rejected() {
        let trace = sample(50);
        let mut bytes = encode(&trace, 16);
        bytes.push(0xAB);
        let mut reader = CorpusReader::new(bytes.as_slice()).expect("open");
        let err = loop {
            match reader.next_block() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("trailing byte accepted"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceError::Corrupt { what, .. }
            if what == "trailing bytes after final chunk"));
    }

    #[test]
    fn chunk_body_corruption_is_a_checksum_mismatch() {
        let trace = sample(200);
        let mut bytes = encode(&trace, 64);
        let last = bytes.len() - 1; // inside the final chunk payload
        bytes[last] ^= 0x40;
        let mut reader = CorpusReader::new(bytes.as_slice()).expect("prologue intact");
        let err = loop {
            match reader.next_block() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corrupt chunk accepted"),
                Err(e) => break e,
            }
        };
        match err {
            TraceError::ChecksumMismatch { what, offset, .. } => {
                assert_eq!(what, "corpus chunk");
                assert!(offset > 0 && offset < bytes.len() as u64);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_corruption_is_caught_at_open() {
        let trace = sample(100);
        let base = encode(&trace, 32);

        // Magic.
        let mut m = base.clone();
        m[0] ^= 0xFF;
        assert!(matches!(
            CorpusReader::new(m.as_slice()),
            Err(TraceError::BadMagic { .. })
        ));

        // Version.
        let mut m = base.clone();
        m[4] = 0xEE;
        assert!(matches!(
            CorpusReader::new(m.as_slice()),
            Err(TraceError::UnsupportedVersion { found: 0xEE })
        ));

        // Any other prologue byte: either a structural error or the
        // prologue CRC — never a successful open with wrong metadata.
        for i in 6..32usize {
            let mut m = base.clone();
            m[i] ^= 0x10;
            assert!(
                CorpusReader::new(m.as_slice()).is_err(),
                "prologue mutation at byte {i} accepted"
            );
        }
    }

    #[test]
    fn version_is_rejected_before_checksum() {
        // A future-format file with a perfectly valid CRC must still be
        // refused on the version field alone.
        let trace = sample(10);
        let mut bytes = encode(&trace, 8);
        bytes[4] = (CORPUS_VERSION + 1) as u8;
        bytes[5] = ((CORPUS_VERSION + 1) >> 8) as u8;
        match CorpusReader::new(bytes.as_slice()).map(|_| ()) {
            Err(TraceError::UnsupportedVersion { found }) => {
                assert_eq!(found, CORPUS_VERSION + 1);
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    /// The chunk decode as it was before the slice parser: the
    /// `CountingReader` record parser, pushing each record — the slow twin
    /// [`decode_chunk`] is pinned against.
    fn decode_chunk_twin(
        name: &str,
        raw: &[u8],
        records: u64,
        chunk_at: u64,
    ) -> Result<FlatTrace, TraceError> {
        let mut body = CountingReader::new_at(raw, chunk_at);
        let mut builder = FlatTraceBuilder::new(name);
        let mut prev_next = Pc::default();
        for _ in 0..records {
            let tag_at = body.offset();
            let tag = body.read_u8()?;
            let rec = wire::read_record_body(&mut body, tag, tag_at, prev_next)?;
            prev_next = rec.next_pc();
            builder.push(&rec);
        }
        if body.offset() - chunk_at != raw.len() as u64 {
            return Err(body.corrupt("chunk body has trailing bytes"));
        }
        Ok(builder.finish())
    }

    /// Every branch kind, gaps past the packed column's escape, and PCs
    /// past the 32-bit word index, so both decoders' escape paths run.
    fn escape_heavy_sample(n: u64) -> Trace {
        let mut b = TraceBuilder::new("escapes");
        for i in 0..n {
            b.run(match i % 11 {
                0 => 300,
                5 => 70_000,
                _ => i % 5,
            });
            let high = if i % 13 == 0 { 1u64 << 36 } else { 0 };
            let pc = Pc::new(high + 0x2000 + (i % 41) * 4);
            let target = Pc::new(0x8000 + (i % 23) * 4);
            b.branch(match i % 5 {
                0 => BranchRecord::conditional(pc, target, i % 3 == 0),
                1 => BranchRecord::always_taken(pc, target, BranchKind::Unconditional),
                2 => BranchRecord::always_taken(pc, target, BranchKind::Call),
                3 => BranchRecord::always_taken(pc, target, BranchKind::Return),
                _ => BranchRecord::always_taken(pc, target, BranchKind::IndirectJump),
            });
        }
        b.finish()
    }

    #[test]
    fn chunk_decode_matches_its_reader_twin_on_mutated_wire_bytes() {
        let trace = escape_heavy_sample(2_000);
        let mut writer = CorpusWriter::with_chunk_len(trace.name(), 256);
        for r in trace.records() {
            writer.push(r);
        }
        writer.seal_chunk();
        let chunks = writer.chunks;
        let raws: Vec<Vec<u8>> = chunks
            .iter()
            .map(|(entry, stored)| match entry.method {
                METHOD_STORED => stored.clone(),
                _ => {
                    let mut raw = Vec::new();
                    lz::decompress(stored, entry.raw_len as usize, &mut raw).unwrap();
                    raw
                }
            })
            .collect();
        let (mut ok, mut err, mut reached) = (0u32, 0u32, 0u32);
        for seed in 0..10_000u64 {
            let k = seed as usize % chunks.len();
            let records = chunks[k].0.records;
            let mutated = ev8_faults::fuzz::corrupt(&raws[k], seed);
            let same = |got: Result<FlatTrace, TraceError>, want: Result<FlatTrace, TraceError>| {
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}"),
                    // Kind, `what` and offset: the whole Debug rendering.
                    (Err(a), Err(b)) => {
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}")
                    }
                    (got, want) => panic!("seed {seed}: slice parser {got:?}, twin {want:?}"),
                }
            };
            let want = decode_chunk_twin(trace.name(), &mutated, records, 1_000);
            match &want {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
            same(decode_chunk(trace.name(), &mutated, records, 1_000), want);

            // The same bytes inside a corpus, re-stored with a fresh
            // chunk CRC (and so a fresh prologue CRC), reach the parser
            // through `next_block` unless the index refuses the new
            // length at open.
            let mut file = CorpusWriter::with_chunk_len(trace.name(), 256);
            file.record_count = trace.len() as u64;
            file.instruction_count = trace.instruction_count();
            file.chunks = chunks.clone();
            file.chunks[k] = store_chunk(&mutated, records);
            let mut bytes = Vec::new();
            file.finish(&mut bytes).unwrap();
            let Ok(mut reader) = CorpusReader::new(bytes.as_slice()) else {
                continue;
            };
            for _ in 0..k {
                reader.next_block().unwrap().unwrap();
            }
            let chunk_at = reader.r.offset();
            same(
                reader.next_block().map(Option::unwrap),
                decode_chunk_twin(trace.name(), &mutated, records, chunk_at),
            );
            reached += 1;
        }
        // Both outcomes occur, and all but the length-changing mutations
        // the index refuses reach the parser through `next_block`.
        assert_eq!((ok, err, reached), (1_570, 8_430, 8_792));
    }

    #[test]
    fn truncations_never_panic_and_carry_offsets() {
        let trace = sample(120);
        let bytes = encode(&trace, 32);
        for cut in 0..bytes.len() {
            let r = CorpusReader::new(&bytes[..cut]);
            let outcome = r.and_then(|r| r.read_trace());
            let err = outcome.expect_err("truncation decoded");
            // Every failure is displayable and typed.
            assert!(!err.to_string().is_empty(), "cut at {cut}");
        }
    }
}
