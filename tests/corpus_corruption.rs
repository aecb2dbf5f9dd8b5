//! Corruption robustness for the corpus container: seeded mutations —
//! bit flips, truncation, splices, overwrites — over real corpus bytes
//! must always surface as a typed [`TraceError`] with a bounded byte
//! offset, never a panic, never a length-field-driven fabrication, and
//! never a silently wrong trace. A dense 10k-seed single-byte sweep over
//! the chunk payload region additionally proves the per-chunk CRC has no
//! blind spots: *every* body mutation is caught by checksum.

use ev8_faults::fuzz;
use ev8_trace::corpus::{write_corpus_chunked, CorpusReader};
use ev8_trace::{BranchRecord, Pc, Trace, TraceBuilder, TraceError};
use ev8_workloads::spec95;

/// First byte of the chunk payload region (everything past the header,
/// chunk index and prologue CRC), found empirically: the prologue CRC is
/// verified when the reader is opened, so the first position whose flip
/// surfaces as a *chunk* checksum mismatch is the first stored payload
/// byte. Every earlier flip fails at open time — either a parse bounds
/// error or the header checksum.
fn find_body_start(bytes: &[u8]) -> usize {
    for pos in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[pos] ^= 0x5a;
        if matches!(
            decode(&mutated),
            Err(TraceError::ChecksumMismatch {
                what: "corpus chunk",
                ..
            })
        ) {
            return pos;
        }
    }
    panic!("no chunk payload region found");
}

fn spec95_corpus() -> (Trace, Vec<u8>) {
    let trace = spec95::benchmark("compress")
        .expect("known benchmark")
        .generate_scaled(0.001);
    let mut bytes = Vec::new();
    // A small chunk length so mutations land across many chunk bodies,
    // not one giant payload.
    write_corpus_chunked(&mut bytes, &trace, 1024).expect("encode");
    (trace, bytes)
}

fn tiny_corpus() -> (Trace, Vec<u8>) {
    let mut b = TraceBuilder::new("tiny");
    for i in 0..24u64 {
        b.branch(
            BranchRecord::conditional(Pc::new(0x4000 + i * 8), Pc::new(0x9000), i % 2 == 0)
                .with_gap((i % 7) as u32),
        );
    }
    let trace = b.finish();
    let mut bytes = Vec::new();
    write_corpus_chunked(&mut bytes, &trace, 4).expect("encode");
    (trace, bytes)
}

fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
    CorpusReader::new(bytes)?.read_trace()
}

/// The robustness contract for one corrupted input: no panic (the call
/// itself), and on error a bounded offset for every offset-carrying
/// variant — an offset pointing far past the input would send someone
/// debugging a real corrupt file to the wrong place.
fn check_outcome(original: &Trace, mutated: &[u8], seed: u64) {
    match decode(mutated) {
        Ok(trace) => {
            // Corruption the format cannot distinguish from the original
            // (identity mutations, garbage appended after the last
            // chunk) must decode to exactly the original — anything else
            // is a silently wrong trace.
            assert_eq!(
                trace, *original,
                "seed {seed}: corrupted corpus decoded Ok but differs from source"
            );
        }
        Err(e) => {
            // Splices insert at most 64 bytes; allow that much slack on
            // top of the mutated length.
            let bound = mutated.len() as u64 + 64;
            match e {
                TraceError::Corrupt { offset, .. }
                | TraceError::UnexpectedEof { offset }
                | TraceError::FrameTooLarge { offset, .. }
                | TraceError::ChecksumMismatch { offset, .. } => {
                    assert!(
                        offset <= bound,
                        "seed {seed}: error offset {offset} beyond input of {} bytes ({e})",
                        mutated.len()
                    );
                }
                TraceError::BadMagic { .. }
                | TraceError::UnsupportedVersion { .. }
                | TraceError::Io(_) => {}
                // TraceError is non_exhaustive-ish across growth; any
                // typed variant satisfies the contract.
                _ => {}
            }
        }
    }
}

#[test]
fn seeded_mutations_never_panic_and_never_lie() {
    // The full fuzz::corrupt menu over both a real spec95 corpus and a
    // tiny multi-chunk synthetic one. Every seed must resolve to a typed
    // outcome; Ok outcomes must be bit-identical to the source.
    for (original, bytes) in [spec95_corpus(), tiny_corpus()] {
        for seed in 0..600u64 {
            let mutated = fuzz::corrupt(&bytes, seed);
            check_outcome(&original, &mutated, seed);
        }
    }
}

#[test]
fn truncation_at_every_prefix_is_typed() {
    // Exhaustive, not sampled: every prefix of the tiny corpus either
    // fails typed or (full length) decodes exactly.
    let (original, bytes) = tiny_corpus();
    for keep in 0..=bytes.len() {
        match decode(&bytes[..keep]) {
            Ok(trace) => {
                assert_eq!(
                    keep,
                    bytes.len(),
                    "proper prefix of {keep} bytes decoded Ok"
                );
                assert_eq!(trace, original);
            }
            Err(_) => assert_ne!(keep, bytes.len(), "the intact corpus must decode"),
        }
    }
}

#[test]
fn body_sweep_bounds_hold() {
    // The 10k sweep below starts where `find_body_start` says the
    // payload begins. Pin the other side of that boundary: mutating any
    // byte *before* it trips the prologue CRC or a parse bounds error —
    // the prologue is checksum-covered too, never silently accepted.
    let (_, bytes) = spec95_corpus();
    let body_start = find_body_start(&bytes);
    assert!(
        bytes.len() > body_start + 4096,
        "corpus too small for a meaningful body sweep ({} bytes, prologue {body_start})",
        bytes.len()
    );
    for pos in 0..body_start {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x5a;
        assert!(
            decode(&mutated).is_err(),
            "prologue byte {pos} flipped without detection"
        );
    }
}

#[test]
fn checksum_catches_every_body_mutation_in_a_10k_seed_sweep() {
    // 10_000 deterministic single-byte XORs over the chunk payload
    // region. The per-chunk CRC is computed over the *stored* bytes and
    // verified before any decompression or parsing, so every one of
    // these must surface as ChecksumMismatch — zero blind spots, and no
    // chance for a flipped payload byte to reach the LZ decoder or the
    // wire parser.
    let (_, bytes) = spec95_corpus();
    let body_start = find_body_start(&bytes);
    let body = bytes.len() - body_start;
    for seed in 0..10_000u64 {
        let pos = body_start + (seed.wrapping_mul(2_654_435_761) % body as u64) as usize;
        let xor = (seed % 255) as u8 + 1; // never the identity
        let mut mutated = bytes.clone();
        mutated[pos] ^= xor;
        match decode(&mutated) {
            Err(TraceError::ChecksumMismatch { what, offset, .. }) => {
                assert_eq!(what, "corpus chunk", "seed {seed}: wrong checksum region");
                assert!(
                    (offset as usize) <= bytes.len(),
                    "seed {seed}: checksum offset {offset} out of file"
                );
            }
            other => panic!(
                "seed {seed}: body byte {pos} ^ {xor:#04x} escaped the chunk CRC: {:?}",
                other.map(|t| t.len())
            ),
        }
    }
}

#[test]
fn mutated_counts_cannot_fabricate_records() {
    // A corrupted record-count field must not drive allocation or yield
    // more records than the input could possibly encode. Successful
    // decodes of mutated inputs are already pinned bit-identical above;
    // here we check the structural bound the faults crate defines holds
    // for every Ok outcome across another seed band.
    let (_, bytes) = tiny_corpus();
    for seed in 10_000..11_000u64 {
        let mutated = fuzz::corrupt(&bytes, seed);
        if let Ok(trace) = decode(&mutated) {
            assert!(
                trace.len() <= fuzz::max_plausible_records(mutated.len()),
                "seed {seed}: {} records from {} bytes",
                trace.len(),
                mutated.len()
            );
        }
    }
}
