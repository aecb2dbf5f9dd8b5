//! Corpus pipeline acceptance: the streaming on-disk decode path is
//! bit-identical to the in-RAM `TraceCache` path for the full Table 2
//! suite, and `ev8-server` serves cataloged workloads by name with the
//! exact summary a local run would get.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::BranchPredictor;
use ev8_server::proto::{code, PredictorSpec};
use ev8_server::{Client, Server, ServerConfig, ServerError};
use ev8_sim::{drive, simulate_flat, Plain, SimResult};
use ev8_trace::corpus::{write_corpus_chunked, CorpusReader};
use ev8_trace::TraceError;
use ev8_workloads::corpus::CorpusStore;
use ev8_workloads::spec95;

/// Small enough to keep the 8-benchmark differential pass to seconds,
/// large enough for tens of thousands of dynamic branches each.
const SCALE: f64 = 0.002;

/// [`simulate_flat`] fed from a streaming corpus decode instead of RAM.
fn streamed_run<P: BranchPredictor>(
    predictor: P,
    reader: CorpusReader<&[u8]>,
) -> Result<SimResult, TraceError> {
    let (trace, instructions) = (reader.name().to_owned(), reader.instruction_count());
    let name = predictor.name();
    let tally = drive(predictor, reader, Plain)?;
    Ok(SimResult::new(&trace, instructions, name, tally))
}

fn tmp_store(tag: &str) -> CorpusStore {
    let dir =
        std::env::temp_dir().join(format!("ev8-corpus-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CorpusStore::open(&dir).unwrap()
}

#[test]
fn streaming_decode_simulation_is_bit_identical_for_all_benchmarks() {
    // The tentpole acceptance: for every Table 2 benchmark, feeding the
    // predictor from a chunked corpus decode (never materializing the
    // AoS trace) returns the exact SimResult of the in-RAM cached path.
    for spec in spec95::suite() {
        let name = &spec.name;
        let mut bytes = Vec::new();
        // A small chunk length forces many chunk boundaries per trace.
        write_corpus_chunked(&mut bytes, &spec.generate_scaled(SCALE), 4096).expect("encode");
        let trace = spec95::cached(name, SCALE).expect("known benchmark");
        let in_ram = simulate_flat(Gshare::new(14, 12), &trace);
        let reader = CorpusReader::new(bytes.as_slice()).expect("header");
        let streamed = streamed_run(Gshare::new(14, 12), reader).expect("streamed run");
        assert_eq!(streamed, in_ram, "{name}: corpus path diverged");
    }
}

#[test]
fn streaming_decode_matches_the_full_ev8_predictor() {
    // One benchmark through the full 352 Kbit EV8 front end, so the
    // equivalence covers the flagship predictor's stateful path too.
    let fresh = spec95::benchmark("gcc").unwrap().generate_scaled(SCALE);
    let mut bytes = Vec::new();
    write_corpus_chunked(&mut bytes, &fresh, 1 << 13).expect("encode");
    let reader = CorpusReader::new(bytes.as_slice()).expect("header");
    let trace = spec95::cached("gcc", SCALE).expect("known benchmark");
    assert_eq!(
        streamed_run(Ev8Predictor::ev8(), reader).expect("streamed run"),
        simulate_flat(Ev8Predictor::ev8(), &trace),
    );
}

#[test]
fn server_serves_named_workloads_from_the_catalog() {
    // End to end over TCP: BEGIN_WORKLOAD by name returns the exact
    // summary a fresh predictor simulating the cached trace would, and
    // unknown names get the typed UNKNOWN_WORKLOAD close.
    let mut store = tmp_store("server");
    let spec95_spec = spec95::benchmark("m88ksim").unwrap();
    store.build(&spec95_spec, SCALE).unwrap();
    let dir = store.dir().to_path_buf();
    let store = Arc::new(store);

    let mut server = Server::new(ServerConfig {
        workers: 2,
        stall_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    server.attach_corpus(Arc::clone(&store));
    let addr = server.bind_tcp("127.0.0.1:0").unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let predictor_spec = PredictorSpec::Gshare {
        index_bits: 12,
        history: 10,
    };
    let mut client = Client::connect_tcp(addr, predictor_spec, false).expect("handshake");
    let summary = client
        .run_workload("m88ksim", 2_000) // SCALE in parts per million
        .expect("named workload summary");
    let trace = spec95::cached("m88ksim", SCALE).unwrap();
    assert_eq!(
        summary.result,
        simulate_flat(predictor_spec.build(), &trace),
        "server-side corpus run diverged from local simulation"
    );

    // A name the catalog does not carry closes the session with the
    // typed code, not a hang or a protocol error.
    let mut other = Client::connect_tcp(addr, predictor_spec, false).expect("handshake");
    match other.run_workload("nonesuch", 2_000) {
        Err(ServerError::Remote { code: c, .. }) => assert_eq!(c, code::UNKNOWN_WORKLOAD),
        other => panic!("unknown workload must be refused, got {other:?}"),
    }
    // A known benchmark at an uncataloged scale is the same condition.
    let mut scaled = Client::connect_tcp(addr, predictor_spec, false).expect("handshake");
    match scaled.run_workload("m88ksim", 999) {
        Err(ServerError::Remote { code: c, .. }) => assert_eq!(c, code::UNKNOWN_WORKLOAD),
        other => panic!("uncataloged scale must be refused, got {other:?}"),
    }

    client.bye().expect("orderly close");
    handle.shutdown();
    let stats = join.join().expect("server thread must not panic");
    assert!(stats.traces_simulated >= 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn server_without_a_corpus_refuses_named_workloads() {
    let mut server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.bind_tcp("127.0.0.1:0").unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let spec = PredictorSpec::Bimodal { index_bits: 10 };
    let mut client = Client::connect_tcp(addr, spec, false).expect("handshake");
    match client.run_workload("compress", 2_000) {
        Err(ServerError::Remote { code: c, .. }) => assert_eq!(c, code::UNKNOWN_WORKLOAD),
        other => panic!("corpus-less server must refuse, got {other:?}"),
    }
    handle.shutdown();
    join.join().expect("server thread must not panic");
}
