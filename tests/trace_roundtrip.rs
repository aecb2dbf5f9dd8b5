//! Trace persistence integration: a generated suite benchmark survives
//! the on-disk corpus format byte-for-byte, through real files, and
//! simulations on the reloaded trace are identical.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use ev8_core::Ev8Predictor;
use ev8_sim::simulate;
use ev8_trace::corpus::{write_corpus, CorpusReader};
use ev8_trace::TraceStats;
use ev8_workloads::spec95;

#[test]
fn file_roundtrip_preserves_trace_and_results() {
    let trace = spec95::cached("ijpeg", 0.005).unwrap();
    let path = std::env::temp_dir().join(format!("ev8_test_roundtrip_{}.ev8c", std::process::id()));

    let mut file = BufWriter::new(File::create(&path).unwrap());
    write_corpus(&mut file, &trace).unwrap();
    file.flush().unwrap();
    drop(file);
    let reloaded = CorpusReader::new(BufReader::new(File::open(&path).unwrap()))
        .unwrap()
        .read_trace()
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded, *trace);
    let before = simulate(Ev8Predictor::ev8(), &trace);
    let after = simulate(Ev8Predictor::ev8(), &reloaded);
    assert_eq!(before.mispredictions, after.mispredictions);
}

#[test]
fn codec_is_compact_on_real_workloads() {
    let trace = spec95::cached("gcc", 0.005).unwrap();
    let mut buf = Vec::new();
    write_corpus(&mut buf, &trace).unwrap();
    let bytes_per_record = buf.len() as f64 / trace.len() as f64;
    // The delta/varint wire encoding needs at least 4 bytes per record
    // (tag + three 1-byte varints); the per-chunk LZ layer must take
    // the corpus below that floor, far under the 24-byte AoS record.
    assert!(
        bytes_per_record < 4.0,
        "expected < 4 bytes/record, got {bytes_per_record:.2}"
    );
}

#[test]
fn stats_survive_roundtrip() {
    let trace = spec95::cached("go", 0.002).unwrap();
    let mut buf = Vec::new();
    write_corpus(&mut buf, &trace).unwrap();
    let reloaded = CorpusReader::new(buf.as_slice())
        .unwrap()
        .read_trace()
        .unwrap();
    let a = TraceStats::from_trace(&trace);
    let b = TraceStats::from_trace(&reloaded);
    assert_eq!(a.dynamic_conditional, b.dynamic_conditional);
    assert_eq!(a.static_conditional, b.static_conditional);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.per_kind, b.per_kind);
}
