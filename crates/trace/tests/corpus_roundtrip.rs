//! Property suite for the on-disk corpus container: arbitrary traces —
//! empty, single-record, saturated gaps, wide-PC escapes, the top
//! address slot, names up to the 64 KiB limit, sizes straddling chunk
//! boundaries — must encode→decode bit-identically,
//! both as a whole [`Trace`] and block-by-block against the packed
//! [`FlatTrace`] the streaming path hands to simulation. (The
//! differential pin of streaming decode against the in-RAM `TraceCache`
//! simulation path for real spec95 benchmarks lives in the workspace
//! suite, `tests/corpus_pipeline.rs` — the trace crate cannot see the
//! workload generators.)

use ev8_trace::corpus::{
    write_corpus, write_corpus_chunked, CorpusReader, CorpusWriter, DEFAULT_CHUNK_RECORDS,
};
use ev8_trace::{
    BranchKind, BranchRecord, FlatTrace, Outcome, Pc, Trace, TraceBuilder, TraceError,
};
use ev8_util::prop::{check, Gen};
use ev8_util::prop_assert_eq;

const CASES: u64 = 128;

const KINDS: [BranchKind; 5] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::IndirectJump,
];

/// An arbitrary record; ~1-in-16 get a wide PC (beyond the u32-word
/// fast path) and ~1-in-16 a gap at or near the u32 limit, so the
/// escape side-channels are exercised constantly, not just in the
/// dedicated edge tests.
fn arb_record(g: &mut Gen) -> BranchRecord {
    let kind = *g.choose(&KINDS);
    let taken = g.bool() || kind.is_always_taken();
    let wide = |g: &mut Gen| {
        if g.range(0u32..16) == 0 {
            g.u64()
        } else {
            u64::from(g.u32()) * 4
        }
    };
    let gap = match g.range(0u32..16) {
        0 => u32::MAX - g.range(0u32..2),
        1 => 250 + g.range(0u32..10), // straddles the u8 gap escape at 255
        _ => g.range(0u32..200),
    };
    BranchRecord {
        pc: Pc::new(wide(g)),
        target: Pc::new(wide(g)),
        kind,
        outcome: Outcome::from(taken),
        gap,
    }
}

fn arb_trace(g: &mut Gen, max: usize) -> Trace {
    let records = g.vec(0..max, arb_record);
    let mut b = TraceBuilder::new("prop");
    for r in &records {
        b.branch(*r);
    }
    b.finish()
}

fn encode_chunked(trace: &Trace, chunk_len: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    write_corpus_chunked(&mut buf, trace, chunk_len).expect("encode");
    buf
}

fn decode(bytes: &[u8]) -> Trace {
    CorpusReader::new(bytes)
        .expect("header")
        .read_trace()
        .expect("decode")
}

#[test]
fn arbitrary_traces_roundtrip_across_chunk_sizes() {
    check(
        "arbitrary_traces_roundtrip_across_chunk_sizes",
        CASES,
        |g| {
            let trace = arb_trace(g, 400);
            // Chunk lengths bracketing the trace: sub-record, straddling,
            // and everything-in-one-chunk.
            for chunk_len in [1usize, 3, 64, trace.len().max(1), trace.len() + 1] {
                let bytes = encode_chunked(&trace, chunk_len);
                prop_assert_eq!(decode(&bytes), trace.clone());
            }
            Ok(())
        },
    );
}

#[test]
fn streaming_blocks_match_flat_packing() {
    // The streaming decode path never builds a Trace: its FlatTrace
    // blocks, concatenated record-by-record, must equal the flat packing
    // of the source — same records, same totals.
    check("streaming_blocks_match_flat_packing", CASES, |g| {
        let trace = arb_trace(g, 300);
        let chunk_len = g.range(1usize..80);
        let bytes = encode_chunked(&trace, chunk_len);
        let reader = CorpusReader::new(bytes.as_slice()).expect("header");
        let mut streamed: Vec<BranchRecord> = Vec::new();
        let mut instructions = 0u64;
        reader
            .for_each_block(|block| {
                instructions += block.instruction_count();
                block.for_each(|r| streamed.push(*r));
            })
            .expect("walk");
        let flat = FlatTrace::from_trace(&trace);
        prop_assert_eq!(streamed.len(), flat.len());
        prop_assert_eq!(instructions, flat.instruction_count());
        let direct: Vec<BranchRecord> = flat.iter().collect();
        prop_assert_eq!(streamed, direct);
        Ok(())
    });
}

#[test]
fn writer_and_convenience_paths_agree_byte_for_byte() {
    check("writer_and_convenience_paths_agree", CASES / 2, |g| {
        let trace = arb_trace(g, 200);
        let via_fn = {
            let mut buf = Vec::new();
            write_corpus(&mut buf, &trace).expect("encode");
            buf
        };
        let via_writer = {
            let mut w = CorpusWriter::new(trace.name());
            for r in trace.records() {
                w.push(r);
            }
            let mut buf = Vec::new();
            w.finish(&mut buf).expect("encode");
            buf
        };
        prop_assert_eq!(via_fn, via_writer);
        Ok(())
    });
}

#[test]
fn encoding_is_deterministic() {
    check("encoding_is_deterministic", CASES / 2, |g| {
        let trace = arb_trace(g, 250);
        let chunk_len = g.range(1usize..100);
        prop_assert_eq!(
            encode_chunked(&trace, chunk_len),
            encode_chunked(&trace, chunk_len)
        );
        Ok(())
    });
}

/// The reader's name limit (`wire::MAX_NAME_LEN`): 64 KiB.
const MAX_NAME_LEN: usize = 1 << 16;

#[test]
fn empty_trace_roundtrips_at_every_chunk_size() {
    // Names ride in the header: an empty one, a non-ASCII one and one of
    // exactly the 64 KiB the reader accepts round-trip like any other.
    for name in [
        "empty".to_string(),
        String::new(),
        "go-go-go — 囲碁 ♟".to_string(),
        "n".repeat(MAX_NAME_LEN),
    ] {
        let trace = TraceBuilder::new(name.clone()).finish();
        for chunk_len in [1, 7, DEFAULT_CHUNK_RECORDS] {
            let bytes = encode_chunked(&trace, chunk_len);
            let reader = CorpusReader::new(bytes.as_slice()).expect("header");
            assert_eq!(reader.name(), name);
            assert_eq!(reader.record_count(), 0);
            assert_eq!(reader.chunk_count(), 0);
            assert_eq!(decode(&bytes), trace);
        }
    }
}

#[test]
fn name_one_byte_over_the_limit_is_corrupt() {
    // The writer stores any name; the reader refuses one byte past
    // 64 KiB at the name-length varint (after 4 magic + 2 version
    // bytes), before it allocates the name.
    let trace = TraceBuilder::new("x".repeat(MAX_NAME_LEN + 1)).finish();
    let bytes = encode_chunked(&trace, 1);
    match CorpusReader::new(bytes.as_slice()) {
        Err(TraceError::Corrupt { what, offset }) => {
            assert_eq!(what, "unreasonable name length");
            assert_eq!(offset, 6);
        }
        Err(other) => panic!("oversized name must be Corrupt, got {other:?}"),
        Ok(_) => panic!("oversized name must be rejected"),
    }
}

#[test]
fn single_record_trace_roundtrips() {
    let mut b = TraceBuilder::new("one");
    b.branch(BranchRecord::conditional(Pc::new(0x4000), Pc::new(0x40), true).with_gap(7));
    let trace = b.finish();
    let bytes = encode_chunked(&trace, 1);
    let reader = CorpusReader::new(bytes.as_slice()).expect("header");
    assert_eq!(reader.record_count(), 1);
    assert_eq!(reader.chunk_count(), 1);
    assert_eq!(decode(&bytes), trace);
}

#[test]
fn saturated_gap_roundtrips() {
    // u32::MAX is the largest legal straight-line run between branches;
    // it travels through the wide-gap side channel of each FlatTrace
    // block and the varint wire gap.
    let mut b = TraceBuilder::new("max-gap");
    b.branch(BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2000), true).with_gap(u32::MAX));
    b.branch(BranchRecord::conditional(Pc::new(0x1008), Pc::new(0x2000), false).with_gap(u32::MAX));
    let trace = b.finish();
    for chunk_len in [1, 2] {
        let back = decode(&encode_chunked(&trace, chunk_len));
        assert_eq!(back, trace);
        assert_eq!(back.records()[0].gap, u32::MAX);
        assert_eq!(back.instruction_count(), 2 * (1 + u32::MAX as u64));
    }
}

#[test]
fn wide_pcs_roundtrip_through_the_escape_channel() {
    // PCs whose word index exceeds u32 take the wide-PC side channel in
    // FlatTrace blocks and large zigzag deltas on the wire. The last
    // record sits in the top instruction slot and falls through, so the
    // delta cursor wraps to address 0 on both encode and decode.
    let hi = 0xFFFF_FFFF_FFFF_FF00u64;
    let mut b = TraceBuilder::new("wide");
    b.branch(BranchRecord::conditional(Pc::new(hi), Pc::new(0x40), true));
    b.branch(BranchRecord::conditional(Pc::new(0x40), Pc::new(hi), false).with_gap(3));
    b.branch(BranchRecord::conditional(
        Pc::new(hi - 0x1000),
        Pc::new(hi),
        true,
    ));
    b.branch(BranchRecord::conditional(
        Pc::new(u64::MAX - 3),
        Pc::new(0x40),
        false,
    ));
    let trace = b.finish();
    for chunk_len in [1, 2, 3, 8] {
        assert_eq!(decode(&encode_chunked(&trace, chunk_len)), trace);
    }
}

#[test]
fn sizes_straddling_chunk_boundaries_roundtrip() {
    // len == k·chunk_len ± 1 are where a partial final chunk, an exactly
    // full final chunk, and an off-by-one index entry would show up.
    let chunk_len = 64;
    for len in [63usize, 64, 65, 127, 128, 129, 256] {
        let mut b = TraceBuilder::new("boundary");
        for i in 0..len {
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + i as u64 * 8),
                Pc::new(0x9000),
                i % 3 == 0,
            ));
        }
        let trace = b.finish();
        let bytes = encode_chunked(&trace, chunk_len);
        let reader = CorpusReader::new(bytes.as_slice()).expect("header");
        assert_eq!(reader.chunk_count(), len.div_ceil(chunk_len));
        assert_eq!(decode(&bytes), trace, "len {len}");
    }
}

#[test]
fn chunk_boundaries_never_leak_delta_state() {
    // The PC-delta cursor resets at every chunk boundary; a trace whose
    // PCs march monotonically would decode wrong at the first boundary
    // if the cursor leaked.
    let mut b = TraceBuilder::new("march");
    for i in 0..100u64 {
        b.branch(BranchRecord::conditional(
            Pc::new(0x10_0000 + i * 0x40),
            Pc::new(0x20_0000 + i * 0x40),
            i % 2 == 0,
        ));
    }
    let trace = b.finish();
    for chunk_len in 1..=10 {
        assert_eq!(decode(&encode_chunked(&trace, chunk_len)), trace);
    }
}

#[test]
fn prop_harness_scale_shrinks_trace_sizes() {
    // Meta-check: the shrinking knob the reproduce instructions rely on
    // actually shrinks the generated traces.
    let full = arb_trace(&mut Gen::new(42, 1.0), 300);
    let small = arb_trace(&mut Gen::new(42, 0.05), 300);
    assert!(small.len() <= full.len());
}
