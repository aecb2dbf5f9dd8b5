//! Chaos acceptance for the prediction service: concurrent well-behaved
//! clients interleaved with injected adversaries — corrupt frame
//! streams, truncated frames, mid-stream disconnects, slowloris writers
//! — against a live server. The contract under test:
//!
//! * the server never panics and never buffers unboundedly (the frame
//!   cap and session budgets bound every allocation),
//! * the stall watchdog reaps every slowloris session,
//! * healthy sessions sharing the server with adversaries produce
//!   summaries **bit-identical** to the serial [`ev8_sim::simulate`],
//! * shutdown drains cleanly and the supervision counters reconcile:
//!   every admitted session ends in exactly one terminal state.

#![cfg(unix)]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use ev8_faults::fuzz;
use ev8_server::proto::{self, kind, Hello, PredictorSpec};
use ev8_server::{Client, Server, ServerConfig, ServerError, ServerHandle, ServerStats};
use ev8_sim::simulate;
use ev8_trace::frame::{encode_records, write_frame};
use ev8_trace::{BranchRecord, Pc, Trace, TraceBuilder};
use ev8_util::bytebuf::ByteBuf;

/// A unique socket path per test (tests share one process).
fn sock_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ev8-chaos-{}-{tag}-{n}.sock", std::process::id()))
}

/// A server serving on a thread of its own.
struct Serving {
    thread: thread::JoinHandle<ServerStats>,
    /// Disconnects when `serve` returns or unwinds.
    done: mpsc::Receiver<()>,
}

impl Serving {
    fn start(server: Server) -> Serving {
        let (tx, done) = mpsc::channel::<()>();
        let thread = thread::spawn(move || {
            let _tx = tx;
            server.serve()
        });
        Serving { thread, done }
    }

    /// The final stats; fails the test if `serve` has not returned
    /// within ten seconds.
    fn join(self) -> ServerStats {
        if let Err(mpsc::RecvTimeoutError::Timeout) =
            self.done.recv_timeout(Duration::from_secs(10))
        {
            panic!("serve did not return after shutdown");
        }
        self.thread.join().expect("server thread must not panic")
    }
}

/// A small deterministic trace whose branch pattern varies with `salt`,
/// so concurrent sessions exercise distinct predictor trajectories.
fn patterned_trace(name: &str, salt: u64, branches: u64) -> Trace {
    let mut b = TraceBuilder::new(name);
    for i in 0..branches {
        b.run((i ^ salt) % 5);
        let pc = Pc::new(0x4000 + ((i * 68 + salt * 452) % 8192));
        let taken = ((i >> (salt % 3)) ^ (i * (salt | 1))) % 7 < 4;
        b.branch(BranchRecord::conditional(pc, Pc::new(0x9000), taken));
    }
    b.finish()
}

/// The spec rotation healthy clients draw from.
fn spec_for(i: usize) -> PredictorSpec {
    match i % 4 {
        0 => PredictorSpec::Bimodal { index_bits: 10 },
        1 => PredictorSpec::Gshare {
            index_bits: 11,
            history: 9,
        },
        2 => PredictorSpec::TwoBcGskewEqual {
            index_bits: 9,
            history: 8,
        },
        _ => PredictorSpec::Gshare {
            index_bits: 9,
            history: 5,
        },
    }
}

/// One valid HELLO frame as raw bytes, for adversaries that then
/// misbehave.
fn raw_hello(spec: PredictorSpec) -> Vec<u8> {
    let mut payload = Vec::new();
    proto::encode_hello(
        &Hello {
            spec,
            attribution: false,
        },
        &mut payload,
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, kind::HELLO, &payload).unwrap();
    frame
}

/// Slowloris: handshake correctly, then trickle a partial frame header
/// and go silent holding the socket open. Returns once the server has
/// reaped the session and closed the connection. Retries connections
/// that admission control refuses (`RETRY_AFTER`) so every slowloris in
/// the chaos mix is guaranteed to actually occupy — and be reaped from —
/// a session slot.
fn slowloris(path: PathBuf) {
    for attempt in 0..200 {
        let mut s = UnixStream::connect(&path).unwrap_or_else(|e| {
            panic!(
                "slowloris connect failed on attempt {attempt}: kind {:?}, raw OS error {:?}: {e}",
                e.kind(),
                e.raw_os_error()
            )
        });
        // A refused connection can already be closed by the time the
        // HELLO goes out; the read below still finds its RETRY_AFTER.
        let _ = s.write_all(&raw_hello(PredictorSpec::Bimodal { index_bits: 8 }));
        // A frame header is 5 bytes; send 3 and stall forever.
        let _ = s.write_all(&[kind::BEGIN, 0x10]);
        let _ = s.flush();
        // Block until the watchdog reaps us: the server sends
        // ERROR+CLOSED{STALLED} and drops the connection, so this read
        // drains to EOF. No sleep needed — reaping is the wakeup.
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
        match sink.first() {
            // Admission refused this connection; it never held a slot,
            // so back off and try again.
            Some(&k) if k == kind::RETRY_AFTER => {
                thread::sleep(Duration::from_millis(50));
            }
            Some(_) => return, // welcomed, stalled, reaped: mission done
            None => panic!("slowloris expected a CLOSED frame before EOF"),
        }
    }
    panic!("slowloris never got past admission control");
}

/// Corrupt-stream adversary: build a fully valid session byte stream,
/// mutate it with the seeded fuzzer, fire the whole blob at the server,
/// and read whatever comes back to EOF. The server must answer with a
/// structured close (or just drop us) — never panic, never hang.
fn corrupt_blob(seed: u64) -> Vec<u8> {
    let mut blob = raw_hello(PredictorSpec::Gshare {
        index_bits: 10,
        history: 8,
    });
    let trace = patterned_trace("fuzz", seed, 300);
    let mut payload = Vec::new();
    proto::encode_begin(
        &proto::Begin {
            name: trace.name().to_string(),
            instructions: trace.instruction_count(),
        },
        &mut payload,
    );
    write_frame(&mut blob, kind::BEGIN, &payload).unwrap();
    let mut records = ByteBuf::new();
    encode_records(&mut records, trace.records(), &mut Pc::default());
    write_frame(&mut blob, kind::RECORDS, &records).unwrap();
    write_frame(&mut blob, kind::END, &[]).unwrap();
    write_frame(&mut blob, kind::BYE, &[]).unwrap();
    fuzz::corrupt(&blob, seed)
}

fn corrupt_adversary(path: PathBuf, seed: u64) {
    let mut s = UnixStream::connect(&path).expect("adversary connect");
    // The server may close mid-write (e.g. the mutated HELLO is already
    // rejected); broken pipes are expected, not failures.
    let _ = s.write_all(&corrupt_blob(seed));
    let _ = s.flush();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink);
}

/// Mid-stream disconnect: valid handshake, valid BEGIN, then half a
/// RECORDS frame and a hard drop.
fn disconnect_adversary(path: PathBuf, salt: u64) {
    let mut s = UnixStream::connect(&path).expect("adversary connect");
    let _ = s.write_all(&raw_hello(spec_for(salt as usize)));
    let trace = patterned_trace("cutoff", salt, 200);
    let mut payload = Vec::new();
    proto::encode_begin(
        &proto::Begin {
            name: trace.name().to_string(),
            instructions: trace.instruction_count(),
        },
        &mut payload,
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, kind::BEGIN, &payload).unwrap();
    let _ = s.write_all(&frame);
    // Declare a 4096-byte RECORDS payload, deliver 40 bytes, vanish.
    let _ = s.write_all(&[kind::RECORDS, 0x00, 0x10, 0x00, 0x00]);
    let _ = s.write_all(&[0xAB; 40]);
    let _ = s.flush();
    drop(s);
}

/// The acceptance scenario from the issue: 16 healthy concurrent
/// clients, adversaries injected alongside, watchdog reaps, bit-exact
/// results, clean drain, reconciling counters.
#[test]
fn chaos_healthy_clients_survive_adversaries() {
    const HEALTHY: usize = 16;
    const CORRUPT: u64 = 12;
    const DISCONNECT: u64 = 4;
    const SLOWLORIS: usize = 2;

    let path = sock_path("main");
    let mut server = Server::new(ServerConfig {
        workers: 4,
        max_sessions: 8, // force RETRY_AFTER traffic under 16+ clients
        stall_timeout: Duration::from_millis(800),
        drain_timeout: Duration::from_secs(2),
        retry_backoff: Duration::from_millis(20),
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    thread::scope(|s| {
        for i in 0..HEALTHY {
            let path = path.clone();
            s.spawn(move || {
                let spec = spec_for(i);
                let trace = patterned_trace(&format!("healthy-{i}"), i as u64 + 1, 2500);
                let mut client =
                    Client::connect_unix_retry(&path, spec, i % 3 == 0, 400).expect("admission");
                let summary = client.run_trace(&trace, 512).expect("summary");
                // Bit-identity with the serial simulator, adversaries or
                // not: concurrency must never leak into predictions.
                assert_eq!(
                    summary.result,
                    simulate(spec.build(), &trace),
                    "client {i} diverged from serial simulation"
                );
                if i == 0 {
                    let stats = client.server_stats().expect("stats frame");
                    assert!(stats.sessions_accepted >= 1);
                }
                client.bye().expect("orderly close");
            });
        }
        for seed in 0..CORRUPT {
            let path = path.clone();
            s.spawn(move || corrupt_adversary(path, seed));
        }
        for salt in 0..DISCONNECT {
            let path = path.clone();
            s.spawn(move || disconnect_adversary(path, salt));
        }
        for _ in 0..SLOWLORIS {
            let path = path.clone();
            s.spawn(move || slowloris(path));
        }
    });

    handle.shutdown();
    let stats = join.join().expect("server thread must not panic");

    // Every healthy session completed; every slowloris was reaped.
    assert!(
        stats.sessions_completed >= HEALTHY as u64,
        "completed={} < healthy={HEALTHY}",
        stats.sessions_completed
    );
    assert!(
        stats.sessions_stalled >= SLOWLORIS as u64,
        "watchdog reaped {} sessions, expected >= {SLOWLORIS}",
        stats.sessions_stalled
    );
    // Supervision ledger: each admitted session ended exactly once.
    assert_eq!(
        stats.sessions_accepted,
        stats.sessions_completed
            + stats.sessions_stalled
            + stats.sessions_failed
            + stats.sessions_drained,
        "admitted sessions must reconcile with terminal states: {stats:?}"
    );
    assert_eq!(stats.sessions_active, 0, "drain left sessions active");
    assert_eq!(stats.sessions_queued, 0, "drain left sessions queued");
    assert!(stats.records_simulated >= HEALTHY as u64 * 2500);
}

/// Predictor state persists across traces within a session, and the
/// streamed pair is bit-identical to the same pair fed through a serial
/// [`ev8_sim::session::SessionSim`] oracle.
#[test]
fn session_state_persists_and_matches_serial_oracle() {
    let path = sock_path("pair");
    let mut server = Server::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let spec = PredictorSpec::TwoBcGskewEqual {
        index_bits: 10,
        history: 10,
    };
    let first = patterned_trace("warmup", 3, 2000);
    let second = patterned_trace("measured", 3, 2000);

    let mut oracle = ev8_sim::session::SessionSim::new(spec.build(), false);
    let mut expect = Vec::new();
    for t in [&first, &second] {
        oracle.begin(t.name(), t.instruction_count());
        oracle.feed_all(t.records());
        expect.push(oracle.finish());
    }

    let mut client = Client::connect_unix(&path, spec, false).unwrap();
    let got_first = client.run_trace(&first, 256).unwrap();
    let got_second = client.run_trace(&second, 256).unwrap();
    client.bye().unwrap();
    assert_eq!(got_first.result, expect[0].result);
    assert_eq!(got_second.result, expect[1].result);
    // Same trace, warmed predictor: the second pass must differ from a
    // cold serial run (proof the server kept state, not just totals).
    assert_ne!(
        got_second.result.mispredictions,
        simulate(spec.build(), &second).mispredictions
    );

    handle.shutdown();
    join.join().unwrap();
}

/// Admission control: a full server answers `RETRY_AFTER`, and the
/// polite retry loop gets in once capacity frees up.
#[test]
fn overload_rejects_with_retry_after() {
    let path = sock_path("overload");
    let mut server = Server::new(ServerConfig {
        workers: 1,
        max_sessions: 1,
        retry_backoff: Duration::from_millis(10),
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let spec = PredictorSpec::Bimodal { index_bits: 8 };
    let occupant = Client::connect_unix(&path, spec, false).unwrap();
    match Client::connect_unix(&path, spec, false) {
        Err(ServerError::Overloaded { retry_after }) => {
            assert!(retry_after > Duration::ZERO, "retry delay must be positive")
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an admitted session"),
    }
    // Occupant leaves; the retry loop must now be admitted.
    occupant.bye().unwrap();
    let late = Client::connect_unix_retry(&path, spec, false, 100).expect("admitted after free");
    late.bye().unwrap();

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats.sessions_rejected >= 1, "no rejection recorded");
    assert_eq!(stats.sessions_completed, 2);
}

/// Degraded mode sheds attribution (observability), never predictions.
#[test]
fn degraded_mode_sheds_attribution_not_predictions() {
    let path = sock_path("degrade");
    let mut server = Server::new(ServerConfig {
        workers: 1,
        degrade_sessions: 0, // any load at all is "overload"
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let spec = PredictorSpec::Gshare {
        index_bits: 10,
        history: 8,
    };
    let trace = patterned_trace("shed", 7, 1500);
    let mut client = Client::connect_unix(&path, spec, true).unwrap();
    assert!(
        !client.welcome().attribution,
        "degraded server must not grant attribution"
    );
    let summary = client.run_trace(&trace, 512).unwrap();
    assert!(summary.attribution.is_none());
    assert_eq!(summary.result, simulate(spec.build(), &trace));
    client.bye().unwrap();

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats.attribution_shed >= 1);
}

/// Session budgets terminate record-flooding sessions with a
/// machine-readable `BUDGET` close instead of unbounded buffering.
#[test]
fn record_budget_closes_flooding_session() {
    let path = sock_path("budget");
    let mut server = Server::new(ServerConfig {
        workers: 1,
        session_records: 500,
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let spec = PredictorSpec::Bimodal { index_bits: 8 };
    let trace = patterned_trace("flood", 1, 5000);
    let mut client = Client::connect_unix(&path, spec, false).unwrap();
    match client.run_trace(&trace, 256) {
        Err(ServerError::Remote { code, .. }) => {
            assert_eq!(code, proto::code::BUDGET, "expected BUDGET close")
        }
        other => panic!("expected remote BUDGET error, got {other:?}"),
    }

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_failed, 1);
}

/// Shutdown mid-session: an idle-but-connected client is drained with a
/// machine-readable `CLOSED{DRAINING}`, and `serve` returns.
#[test]
fn graceful_drain_closes_idle_session() {
    let path = sock_path("drain");
    let mut server = Server::new(ServerConfig {
        workers: 1,
        stall_timeout: Duration::from_millis(300),
        drain_timeout: Duration::from_millis(800),
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let spec = PredictorSpec::Bimodal { index_bits: 8 };
    let mut client = Client::connect_unix(&path, spec, false).unwrap();
    let trace = patterned_trace("pre-drain", 2, 800);
    client.run_trace(&trace, 256).unwrap();

    handle.shutdown();
    // Wait for the server to drain the idle session (the drain window
    // deliberately lets mid-trace work finish, so probing too early
    // could race a legitimate in-flight completion).
    let mut waited = Duration::ZERO;
    while handle.stats().sessions_drained == 0 {
        assert!(waited < Duration::from_secs(5), "session never drained");
        thread::sleep(Duration::from_millis(20));
        waited += Duration::from_millis(20);
    }
    // The drained session must refuse further traces with a
    // machine-readable DRAINING close (or a torn-down socket).
    match client.run_trace(&trace, 256) {
        Err(ServerError::Draining) => {}
        Ok(_) => panic!("server accepted a trace after draining the session"),
        Err(ServerError::Io(_)) | Err(ServerError::Trace(_)) => {}
        Err(e) => panic!("expected draining close, got {e:?}"),
    }
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_drained, 1);
    assert_eq!(stats.sessions_active, 0);
}

/// A HELLO asking for a zero-width table is refused at the handshake
/// with a `PROTOCOL` close; the one worker goes on serving, and `serve`
/// returns with the session counted failed.
#[test]
fn zero_width_hello_is_a_protocol_close() {
    let path = sock_path("zero-width");
    let mut server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let zero = PredictorSpec::TwoBcGskewEqual {
        index_bits: 0,
        history: 8,
    };
    match Client::connect_unix(&path, zero, false) {
        Err(ServerError::Remote { code, .. }) => {
            assert_eq!(code, proto::code::PROTOCOL, "expected PROTOCOL close")
        }
        Err(other) => panic!("expected a PROTOCOL close, got {other:?}"),
        Ok(_) => panic!("a zero-width predictor was admitted"),
    }

    let spec = PredictorSpec::TwoBcGskewEqual {
        index_bits: 9,
        history: 8,
    };
    let trace = patterned_trace("after-zero-width", 4, 1200);
    let mut client = Client::connect_unix(&path, spec, false).unwrap();
    let summary = client.run_trace(&trace, 256).unwrap();
    assert_eq!(summary.result, simulate(spec.build(), &trace));
    client.bye().unwrap();

    handle.shutdown();
    let stats = join.join().expect("serve must return its stats");
    assert_eq!(stats.sessions_failed, 1);
    assert_eq!(stats.sessions_active, 0);
    assert_eq!(stats.sessions_completed, 1);
}

/// A pure fuzz sweep against a live server: many seeds, one session
/// each, server stays up and every healthy probe afterwards still works.
#[test]
fn fuzz_sweep_leaves_server_healthy() {
    let path = sock_path("fuzz");
    let mut server = Server::new(ServerConfig {
        workers: 2,
        stall_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    for seed in 0..48 {
        corrupt_adversary(path.clone(), 1000 + seed);
    }
    // After the barrage, a well-behaved session still gets bit-exact
    // service.
    let spec = PredictorSpec::Gshare {
        index_bits: 11,
        history: 9,
    };
    let trace = patterned_trace("post-fuzz", 9, 1200);
    let mut client = Client::connect_unix_retry(&path, spec, false, 100).unwrap();
    let summary = client.run_trace(&trace, 256).unwrap();
    assert_eq!(summary.result, simulate(spec.build(), &trace));
    client.bye().unwrap();

    handle.shutdown();
    let stats = join.join().expect("server must survive the fuzz sweep");
    assert!(stats.sessions_completed >= 1);
    assert_eq!(stats.sessions_active, 0);
}

/// Type-level guard: the handle is Clone + Send, so supervisors on other
/// threads can watch and stop the server.
#[test]
fn handle_is_send_and_clone() {
    fn assert_send_clone<T: Send + Clone>() {}
    assert_send_clone::<ServerHandle>();
}

/// Shutdown wakes every blocked accept. A server that never got a
/// client, listening on loopback TCP, on the unspecified TCP address and
/// on a Unix path, returns from `serve` without counting the wake
/// connections, and removes its socket file.
#[test]
fn shutdown_wakes_every_idle_listener() {
    let path = sock_path("idle");
    let mut server = Server::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    server.bind_tcp("127.0.0.1:0").unwrap();
    server.bind_tcp("0.0.0.0:0").unwrap();
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let serving = Serving::start(server);
    // Give the accept threads time to block in `accept`; a shutdown that
    // comes first is caught by their check of the flag instead.
    thread::sleep(Duration::from_millis(50));

    handle.shutdown();
    let stats = serving.join();
    assert_eq!(stats.sessions_accepted, 0, "{stats:?}");
    assert_eq!(stats.sessions_failed, 0, "{stats:?}");
    assert!(!path.exists(), "socket file left behind");
}

/// A second server may rebind a Unix path: `bind_unix` replaces the
/// socket file. The first server's shutdown must still wake its own
/// accept (the path now names the second server's socket), the second
/// server must not see that wake connection, and the first server must
/// not remove the second server's socket file on its way out.
#[test]
fn shutdown_after_rebind_leaves_the_new_socket_alone() {
    let path = sock_path("rebind");
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut first = Server::new(config);
    first.bind_unix(&path).unwrap();
    let first_handle = first.handle();
    let first_serving = Serving::start(first);
    let mut second = Server::new(config);
    second.bind_unix(&path).unwrap();
    let second_handle = second.handle();
    let second_serving = Serving::start(second);
    thread::sleep(Duration::from_millis(50));

    first_handle.shutdown();
    let first_stats = first_serving.join();
    assert_eq!(first_stats.sessions_accepted, 0, "{first_stats:?}");

    // The path still reaches the second server, which has counted
    // nothing so far.
    let spec = PredictorSpec::Gshare {
        index_bits: 10,
        history: 8,
    };
    let trace = patterned_trace("after-rebind", 5, 800);
    let mut client = Client::connect_unix(&path, spec, false)
        .expect("second server unreachable after the first returned");
    let summary = client.run_trace(&trace, 256).unwrap();
    assert_eq!(summary.result, simulate(spec.build(), &trace));
    let during = client.server_stats().unwrap();
    assert_eq!(during.sessions_accepted, 1, "{during:?}");
    assert_eq!(during.sessions_failed, 0, "{during:?}");
    client.bye().unwrap();

    second_handle.shutdown();
    let second_stats = second_serving.join();
    assert_eq!(second_stats.sessions_accepted, 1, "{second_stats:?}");
    assert_eq!(second_stats.sessions_completed, 1, "{second_stats:?}");
    assert_eq!(second_stats.sessions_failed, 0, "{second_stats:?}");
    assert!(!path.exists(), "socket file left behind");
}

/// The admission cap is exact: with `max_sessions` sessions held open, the
/// next connect is refused, and STATS counts every held session active
/// and none queued.
#[test]
fn admission_cap_is_exact() {
    let path = sock_path("cap");
    let mut server = Server::new(ServerConfig {
        workers: 2,
        max_sessions: 2,
        retry_backoff: Duration::from_millis(10),
        ..ServerConfig::default()
    });
    server.bind_unix(&path).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());

    let spec = PredictorSpec::Bimodal { index_bits: 8 };
    let mut first = Client::connect_unix(&path, spec, false).unwrap();
    let second = Client::connect_unix(&path, spec, false).unwrap();
    match Client::connect_unix(&path, spec, false) {
        Err(ServerError::Overloaded { retry_after }) => {
            assert!(retry_after > Duration::ZERO, "retry delay must be positive")
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("a third session was admitted past max_sessions = 2"),
    }
    let stats = first.server_stats().unwrap();
    assert_eq!(stats.sessions_active, 2, "{stats:?}");
    assert_eq!(stats.sessions_queued, 0, "{stats:?}");
    assert_eq!(stats.sessions_rejected, 1, "{stats:?}");
    first.bye().unwrap();
    second.bye().unwrap();

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_completed, 2);
    assert_eq!(stats.sessions_rejected, 1);
}
