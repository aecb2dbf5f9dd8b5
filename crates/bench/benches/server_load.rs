//! Load bench for the prediction service: N concurrent client sessions
//! stream a spec95 trace through a live server over Unix-domain and TCP
//! transports, recording aggregate throughput (branch records per
//! second across all sessions) and per-session latency percentiles into
//! the shared `BENCH_sim.json` under the `server` group.
//!
//! This measures the *service* overhead stack — framing, per-session
//! supervision, the work-stealing pool, summary encoding — on top of the
//! raw simulation rate `sim_hot_loop` records, so the gap between the
//! two groups is the price of the wire. The bench asserts every
//! session's summary is bit-identical to the serial simulator before
//! recording anything: a throughput number for a server that returns
//! wrong answers is worse than no number.
//!
//! Knobs: `EV8_BENCH_SAMPLES` (batches per transport, default 5; CI
//! smoke sets 1), `EV8_SERVER_SCALE` (trace scale, default 0.02 —
//! service overhead per record is scale-invariant, so the smoke-sized
//! trace measures the same thing the paper-sized one would),
//! `EV8_SERVER_SESSIONS` (concurrent clients per batch, default 8).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use ev8_server::proto::PredictorSpec;
use ev8_server::{Client, Server, ServerConfig, ServerHandle};
use ev8_sim::simulate;
use ev8_util::json::JsonObject;
use ev8_workloads::spec95;

const BENCHMARK: &str = "compress";
const DEFAULT_SCALE: f64 = 0.02;
const DEFAULT_SESSIONS: usize = 8;
const DEFAULT_SAMPLES: usize = 5;
const CHUNK: usize = 4096;

fn env_or<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// How each batch of sessions reaches the server.
#[derive(Clone)]
enum Transport {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

fn connect(transport: &Transport, spec: PredictorSpec) -> Client {
    match transport {
        // The retry loop matters under load: a batch larger than the
        // admission cap is part of what's being measured.
        Transport::Unix(path) => {
            Client::connect_unix_retry(path, spec, false, 400).expect("unix admission")
        }
        Transport::Tcp(addr) => Client::connect_tcp(*addr, spec, false).expect("tcp admission"),
    }
}

/// Runs one batch of concurrent sessions; returns (batch wall time,
/// per-session latencies).
fn run_batch(
    transport: &Transport,
    sessions: usize,
    trace: &ev8_trace::Trace,
    expect: &ev8_sim::SimResult,
) -> (Duration, Vec<Duration>) {
    let start = Instant::now();
    let latencies = thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                s.spawn(|| {
                    let t0 = Instant::now();
                    let mut client = connect(
                        transport,
                        PredictorSpec::Gshare {
                            index_bits: 14,
                            history: 12,
                        },
                    );
                    let summary = client.run_trace(trace, CHUNK).expect("summary");
                    client.bye().expect("orderly close");
                    assert_eq!(
                        &summary.result, expect,
                        "served session diverged from serial"
                    );
                    t0.elapsed()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (start.elapsed(), latencies)
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

fn main() {
    let samples: usize = env_or("EV8_BENCH_SAMPLES", DEFAULT_SAMPLES);
    let scale: f64 = env_or("EV8_SERVER_SCALE", DEFAULT_SCALE);
    let sessions: usize = env_or("EV8_SERVER_SESSIONS", DEFAULT_SESSIONS);
    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));

    // `Client::run_trace` streams an AoS trace.
    let trace = spec95::benchmark(BENCHMARK)
        .expect("known benchmark")
        .generate_scaled(scale);
    let expect = simulate(ev8_predictors::gshare::Gshare::new(14, 12), &trace);
    let records = trace.records().len() as u64;

    let sock = std::env::temp_dir().join(format!("ev8-load-{}.sock", std::process::id()));
    let mut server = Server::new(ServerConfig::default());
    server.bind_unix(&sock).expect("bind unix");
    let tcp = server.bind_tcp("127.0.0.1:0").expect("bind tcp");
    let handle: ServerHandle = server.handle();
    let join = thread::spawn(move || server.serve());

    let mut entries: Vec<(String, String)> = Vec::new();
    let transports = [
        ("unix", Transport::Unix(sock.clone())),
        ("tcp", Transport::Tcp(tcp)),
    ];
    for (label, transport) in &transports {
        if let Some(f) = &filter {
            if !format!("server_{label}").contains(f.as_str()) {
                continue;
            }
        }
        // Warm the path (predictor allocation, page faults, listener)
        // outside measurement.
        run_batch(transport, 1.min(sessions), &trace, &expect);

        let mut latencies: Vec<Duration> = Vec::new();
        let mut batch_walls: Vec<Duration> = Vec::new();
        for _ in 0..samples {
            let (wall, lats) = run_batch(transport, sessions, &trace, &expect);
            batch_walls.push(wall);
            latencies.extend(lats);
        }
        latencies.sort();
        batch_walls.sort();
        let median_wall = batch_walls[batch_walls.len() / 2];
        let total_records = records * sessions as u64;
        let records_per_sec = total_records as f64 / median_wall.as_secs_f64();
        let p50 = percentile_ms(&latencies, 0.50);
        let p99 = percentile_ms(&latencies, 0.99);
        println!(
            "server_{label}: {sessions} sessions x {records} records  \
             {:.2} Mrec/s aggregate  p50 {p50:.1} ms  p99 {p99:.1} ms  \
             (median of {samples} batches)",
            records_per_sec / 1e6,
        );

        let mut out = JsonObject::new();
        out.field("benchmark", &BENCHMARK)
            .field("scale", &scale)
            .field("transport", label)
            .field("sessions", &(sessions as u64))
            .field("records_per_session", &records)
            .field("samples", &(samples as u64))
            .field("batch_wall_ns", &(median_wall.as_nanos() as u64))
            .field("aggregate_records_per_sec", &records_per_sec)
            .field("session_p50_ms", &p50)
            .field("session_p99_ms", &p99);
        entries.push((format!("server/{label}"), out.finish()));
    }

    handle.shutdown();
    let stats = join.join().expect("server thread must not panic");
    assert_eq!(stats.sessions_active, 0, "drain left sessions active");
    println!(
        "server stats: accepted {} completed {} rejected {} stalled {} failed {}",
        stats.sessions_accepted,
        stats.sessions_completed,
        stats.sessions_rejected,
        stats.sessions_stalled,
        stats.sessions_failed,
    );

    match ev8_bench::merge_bench_json(&entries) {
        Ok(path) => println!("merged {} server entries into {path}", entries.len()),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
