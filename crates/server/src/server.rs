//! The supervised, overload-tolerant simulation server.
//!
//! Architecture (all std, no async runtime):
//!
//! * **Accept loop** — the thread calling [`Server::serve`] polls every
//!   listener nonblockingly, applies admission control, and pushes
//!   admitted connections onto per-worker queues (shortest queue wins).
//!   Refused connections get a `RETRY_AFTER` frame whose delay is
//!   [`ServerConfig::retry_backoff`] plus fixed-seed jitter per refusal —
//!   a thundering herd of rejected clients restaggers deterministically.
//! * **Worker pool** — `config.workers` threads under `thread::scope`,
//!   each owning a queue; an idle worker steals from its siblings, so
//!   one slow session cannot strand queued work behind it.
//! * **Per-session supervision** — the socket read timeout is the stall
//!   watchdog (a slowloris client surfaces as a timed-out read and is
//!   reaped with a `CLOSED` frame), transient accept failures back off
//!   exponentially from [`ServerConfig::retry_backoff`], and every
//!   session runs under the cumulative [`SessionBudget`] from the trace
//!   layer.
//! * **Degraded mode** — above [`ServerConfig::degrade_sessions`]
//!   concurrent sessions the server sheds per-branch attribution
//!   (observability) before it sheds predictions.
//! * **Graceful drain** — [`ServerHandle::shutdown`] stops the accept
//!   loop; queued-but-unstarted sessions are closed immediately with
//!   `CLOSED{DRAINING}`, in-flight sessions run on until the drain
//!   deadline, then are time-boxed closed the same way. [`Server::serve`]
//!   returns only after every worker has exited.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use ev8_sim::session::SessionSim;
use ev8_sim::sweep;
use ev8_trace::frame::{write_frame, FrameReader};
use ev8_trace::{BranchRecord, Pc, SessionBudget, TraceError, DEFAULT_FRAME_CAP};
use ev8_util::rng::mix;
use ev8_workloads::corpus::{CorpusStore, StoreError};
use ev8_workloads::spec95;

use crate::conn::Conn;
use crate::error::ServerError;
use crate::proto::{self, code, kind, CloseInfo, ServerStats, Welcome};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads serving sessions.
    pub workers: usize,
    /// Admission cap: active + queued sessions beyond this are refused
    /// with `RETRY_AFTER`.
    pub max_sessions: usize,
    /// Per-frame payload cap (bytes), enforced before allocation.
    pub frame_cap: u64,
    /// Cumulative per-session byte budget.
    pub session_bytes: u64,
    /// Cumulative per-session record budget.
    pub session_records: u64,
    /// Stall watchdog: a session whose next frame does not arrive within
    /// this budget is reaped.
    pub stall_timeout: Duration,
    /// Drain window after [`ServerHandle::shutdown`]: in-flight sessions
    /// past this deadline are time-boxed closed.
    pub drain_timeout: Duration,
    /// Active-session threshold above which attribution is shed
    /// (degraded mode, observability before predictions).
    pub degrade_sessions: usize,
    /// Base delay of `RETRY_AFTER` answers and of transient-accept
    /// backoff: retry `k` waits `retry_backoff * 2^(k-1)` plus a
    /// fixed-seed jitter in `[0, retry_backoff)`.
    pub retry_backoff: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = sweep::default_workers();
        ServerConfig {
            workers,
            max_sessions: 64,
            frame_cap: DEFAULT_FRAME_CAP,
            session_bytes: 256 << 20,
            session_records: 1 << 24,
            stall_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
            degrade_sessions: workers * 2,
            retry_backoff: Duration::from_millis(100),
        }
    }
}

/// Atomic supervision counters shared by every thread of one server.
#[derive(Default)]
struct StatsInner {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    stalled: AtomicU64,
    failed: AtomicU64,
    drained: AtomicU64,
    active: AtomicU64,
    traces: AtomicU64,
    records: AtomicU64,
    shed: AtomicU64,
}

/// One worker's session queue plus its wakeup signal.
struct WorkerQueue {
    q: Mutex<VecDeque<Conn>>,
    cv: Condvar,
}

/// State shared between the accept loop, workers, and handles.
struct Shared {
    config: ServerConfig,
    stats: StatsInner,
    shutdown: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    queues: Vec<WorkerQueue>,
    /// On-disk corpus served to `BEGIN_WORKLOAD` sessions; absent unless
    /// [`Server::attach_corpus`] was called (the config struct is `Copy`,
    /// so the store lives here).
    corpus: OnceLock<Arc<CorpusStore>>,
}

impl Shared {
    fn queued(&self) -> u64 {
        self.queues
            .iter()
            .map(|w| w.q.lock().expect("queue lock").len() as u64)
            .sum()
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            sessions_accepted: self.stats.accepted.load(Ordering::Relaxed),
            sessions_rejected: self.stats.rejected.load(Ordering::Relaxed),
            sessions_completed: self.stats.completed.load(Ordering::Relaxed),
            sessions_stalled: self.stats.stalled.load(Ordering::Relaxed),
            sessions_failed: self.stats.failed.load(Ordering::Relaxed),
            sessions_drained: self.stats.drained.load(Ordering::Relaxed),
            sessions_active: self.stats.active.load(Ordering::Relaxed),
            sessions_queued: self.queued(),
            traces_simulated: self.stats.traces.load(Ordering::Relaxed),
            records_simulated: self.stats.records.load(Ordering::Relaxed),
            attribution_shed: self.stats.shed.load(Ordering::Relaxed),
        }
    }

    fn drain_deadline(&self) -> Option<Instant> {
        *self.drain_deadline.lock().expect("drain lock")
    }
}

/// A bound listener endpoint.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Control handle for a running server: shut it down or snapshot its
/// stats from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins graceful drain: stop accepting, close queued sessions,
    /// let in-flight sessions finish or hit the drain deadline.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }
}

/// The prediction service. Bind one or more listeners, then call
/// [`Server::serve`] (blocking); control it through a [`ServerHandle`]
/// taken beforehand.
pub struct Server {
    shared: Arc<Shared>,
    listeners: Vec<Listener>,
}

impl Server {
    /// Creates a server with the given configuration (no listeners yet).
    pub fn new(config: ServerConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let queues = (0..config.workers)
            .map(|_| WorkerQueue {
                q: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            })
            .collect();
        Server {
            shared: Arc::new(Shared {
                config,
                stats: StatsInner::default(),
                shutdown: AtomicBool::new(false),
                drain_deadline: Mutex::new(None),
                queues,
                corpus: OnceLock::new(),
            }),
            listeners: Vec::new(),
        }
    }

    /// Binds a TCP listener; returns the bound address (use port 0 to
    /// let the OS pick).
    pub fn bind_tcp(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let l = TcpListener::bind(addr)?;
        let local = l.local_addr()?;
        self.listeners.push(Listener::Tcp(l));
        Ok(local)
    }

    /// Binds a Unix-domain socket listener, replacing any stale socket
    /// file at `path`. The file is removed again when the server drops.
    #[cfg(unix)]
    pub fn bind_unix(&mut self, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path)?;
        self.listeners.push(Listener::Unix(l, path.to_path_buf()));
        Ok(())
    }

    /// Attaches an on-disk corpus store: sessions may then `BEGIN_WORKLOAD`
    /// by catalog name instead of streaming their own records. At most one
    /// store can be attached per server; later calls are ignored.
    pub fn attach_corpus(&mut self, store: Arc<CorpusStore>) {
        let _ = self.shared.corpus.set(store);
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop and worker pool until a handle calls
    /// [`ServerHandle::shutdown`] and the drain completes. Returns the
    /// final stats snapshot.
    ///
    /// # Panics
    ///
    /// Panics if no listener was bound.
    pub fn serve(self) -> ServerStats {
        assert!(!self.listeners.is_empty(), "bind a listener before serving");
        for l in &self.listeners {
            l.set_nonblocking().expect("listener nonblocking mode");
        }
        let shared = &self.shared;
        thread::scope(|s| {
            for me in 0..shared.config.workers {
                s.spawn(move || worker_loop(me, shared));
            }
            accept_loop(&self.listeners, shared);
        });
        shared.snapshot()
    }
}

/// Polls listeners, admits or refuses connections, and on shutdown arms
/// the drain deadline and wakes every worker.
fn accept_loop(listeners: &[Listener], shared: &Shared) {
    let cfg = &shared.config;
    let mut rejected_seq = 0usize;
    let mut accept_attempt = 1u32;
    while !shared.shutdown.load(Ordering::Acquire) {
        let mut progress = false;
        for l in listeners {
            match l.accept() {
                Ok(conn) => {
                    progress = true;
                    accept_attempt = 1;
                    admit(conn, shared, &mut rejected_seq);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => {
                    // Transient accept failure (fd exhaustion, aborted
                    // handshake): back off exponentially instead of
                    // spinning.
                    thread::sleep(backoff_delay(cfg.retry_backoff, 0, accept_attempt));
                    accept_attempt = accept_attempt.saturating_add(1).min(8);
                }
            }
        }
        if !progress {
            thread::sleep(Duration::from_millis(2));
        }
    }
    *shared.drain_deadline.lock().expect("drain lock") = Some(Instant::now() + cfg.drain_timeout);
    for w in &shared.queues {
        w.cv.notify_all();
    }
}

/// Admission control: refuse with `RETRY_AFTER` past the session cap,
/// otherwise enqueue on the shortest worker queue.
fn admit(conn: Conn, shared: &Shared, rejected_seq: &mut usize) {
    let cfg = &shared.config;
    let load = shared.stats.active.load(Ordering::Relaxed) + shared.queued();
    if load >= cfg.max_sessions as u64 {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        // Seeded-jitter delay: concurrent rejects spread out instead of
        // hammering back simultaneously.
        let delay = backoff_delay(cfg.retry_backoff, *rejected_seq, 1);
        *rejected_seq = rejected_seq.wrapping_add(1);
        let mut payload = Vec::new();
        proto::encode_retry_after(delay.as_millis() as u64, &mut payload);
        let mut w = conn;
        let _ = send_frame(&mut w, kind::RETRY_AFTER, &payload);
        return;
    }
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
    let shortest = shared
        .queues
        .iter()
        .min_by_key(|w| w.q.lock().expect("queue lock").len())
        .expect("at least one worker");
    shortest.q.lock().expect("queue lock").push_back(conn);
    shortest.cv.notify_one();
}

/// The delay before retry `attempt` (1-based) of caller `job` (a
/// refusal's sequence number, or 0 for the accept loop):
/// `base * 2^(attempt-1)` plus jitter in `[0, base)` drawn from
/// `(job, attempt)` by the SplitMix64 mixer. A herd of refused clients
/// staggers instead of coming back in lockstep, and every schedule is
/// reproducible.
fn backoff_delay(base: Duration, job: usize, attempt: u32) -> Duration {
    let attempt = attempt.max(1);
    // Cap the shift: past 2^20 the exponential term saturates anyway.
    let factor = 1u32 << (attempt - 1).min(20);
    let exp = base.saturating_mul(factor);
    let base_nanos = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    if base_nanos == 0 {
        return exp;
    }
    let jitter = mix(mix(job as u64).wrapping_add(u64::from(attempt))) % base_nanos;
    exp.saturating_add(Duration::from_nanos(jitter))
}

/// Pops the worker's own queue, stealing from siblings when empty.
fn pop_or_steal(me: usize, shared: &Shared) -> Option<Conn> {
    let own = &shared.queues[me];
    if let Some(c) = own.q.lock().expect("queue lock").pop_front() {
        return Some(c);
    }
    for (i, other) in shared.queues.iter().enumerate() {
        if i == me {
            continue;
        }
        // Steal from the back: the front entry is the one its owner
        // will reach first.
        if let Some(c) = other.q.lock().expect("queue lock").pop_back() {
            return Some(c);
        }
    }
    None
}

/// Worker body: serve sessions until shutdown has drained every queue.
fn worker_loop(me: usize, shared: &Shared) {
    loop {
        match pop_or_steal(me, shared) {
            Some(conn) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    // Queued but never started: close immediately.
                    refuse_draining(conn, shared);
                    continue;
                }
                shared.stats.active.fetch_add(1, Ordering::Relaxed);
                run_session(conn, shared);
                shared.stats.active.fetch_sub(1, Ordering::Relaxed);
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let own = &shared.queues[me];
                let guard = own.q.lock().expect("queue lock");
                // Re-check under the lock, then sleep until signalled
                // (bounded, so shutdown is never missed).
                if guard.is_empty() {
                    let _ = own
                        .cv
                        .wait_timeout(guard, Duration::from_millis(20))
                        .expect("queue lock");
                }
            }
        }
    }
}

/// Sends `CLOSED{DRAINING}` to a session that never started.
fn refuse_draining(conn: Conn, shared: &Shared) {
    shared.stats.drained.fetch_add(1, Ordering::Relaxed);
    let mut payload = Vec::new();
    proto::encode_close(
        &CloseInfo {
            code: code::DRAINING,
            offset: 0,
            message: "server draining".to_string(),
        },
        &mut payload,
    );
    let mut w = conn;
    let _ = send_frame(&mut w, kind::CLOSED, &payload);
}

/// How a session ended, for the supervision counters.
enum SessionEnd {
    /// Orderly `BYE`.
    Completed,
    /// Reaped by the stall watchdog.
    Stalled,
    /// Protocol/trace/transport error or abrupt disconnect.
    Failed,
    /// Closed by the drain deadline or shutdown between traces.
    Drained,
}

/// Serves one session end to end and records its outcome.
fn run_session(conn: Conn, shared: &Shared) {
    let end = session_inner(conn, shared);
    let counter = match end {
        SessionEnd::Completed => &shared.stats.completed,
        SessionEnd::Stalled => &shared.stats.stalled,
        SessionEnd::Failed => &shared.stats.failed,
        SessionEnd::Drained => &shared.stats.drained,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The session state machine. Every exit path sends a terminal frame on
/// a best-effort basis; transport failures while reporting are ignored
/// (the peer is gone).
fn session_inner(conn: Conn, shared: &Shared) -> SessionEnd {
    let cfg = &shared.config;
    let _ = conn.set_nodelay();
    if conn.set_read_timeout(Some(cfg.stall_timeout)).is_err() {
        return SessionEnd::Failed;
    }
    let mut write = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return SessionEnd::Failed,
    };
    let budget = SessionBudget::new(cfg.frame_cap, cfg.session_bytes, cfg.session_records);
    let mut reader = FrameReader::new(conn, budget);
    let mut payload: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();

    // --- Handshake ---
    let header = match reader.read_frame(&mut payload) {
        Ok(Some(h)) => h,
        Ok(None) => return SessionEnd::Failed,
        Err(e) => return close_on_trace_error(&mut write, e),
    };
    if header.kind != kind::HELLO {
        return close_with(
            &mut write,
            code::PROTOCOL,
            reader.offset(),
            "expected HELLO",
        );
    }
    let base = reader.offset() - payload.len() as u64;
    let hello = match proto::decode_hello(&payload, base) {
        Ok(h) => h,
        Err(e) => return close_on_server_error(&mut write, e),
    };
    let degraded = shared.stats.active.load(Ordering::Relaxed) > cfg.degrade_sessions as u64;
    let granted = hello.attribution && !degraded;
    if hello.attribution && !granted {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    }
    let mut sim = SessionSim::new(hello.spec.build(), granted);
    proto::encode_welcome(
        &Welcome {
            attribution: granted,
            predictor: sim.predictor_name().to_string(),
        },
        &mut out,
    );
    if !send_frame(&mut write, kind::WELCOME, &out) {
        return SessionEnd::Failed;
    }

    // --- Frame loop ---
    let mut in_trace = false;
    let mut cursor = Pc::default();
    let mut records: Vec<BranchRecord> = Vec::new();
    loop {
        // Drain discipline: between traces close immediately on
        // shutdown; mid-trace keep serving until the deadline.
        let shutting_down = shared.shutdown.load(Ordering::Acquire);
        if shutting_down && !in_trace {
            return close_draining(&mut write);
        }
        if let Some(deadline) = shared.drain_deadline() {
            if Instant::now() >= deadline {
                return close_draining(&mut write);
            }
        }
        // Degraded mode can begin mid-session: shed attribution, never
        // predictions.
        if sim.attribution_enabled()
            && shared.stats.active.load(Ordering::Relaxed) > cfg.degrade_sessions as u64
        {
            sim.shed_attribution();
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        }

        let header = match reader.read_frame(&mut payload) {
            Ok(Some(h)) => h,
            Ok(None) => {
                // Abrupt disconnect; mid-trace state is discarded.
                return SessionEnd::Failed;
            }
            Err(e) => {
                let stalled = matches!(&e, TraceError::Io(io) if is_stall_kind(io.kind()));
                if stalled && shared.shutdown.load(Ordering::Acquire) {
                    return close_draining(&mut write);
                }
                if stalled {
                    let _ = send_close(
                        &mut write,
                        code::STALLED,
                        reader.offset(),
                        &format!("no frame within {:?}", cfg.stall_timeout),
                    );
                    return SessionEnd::Stalled;
                }
                return close_on_trace_error(&mut write, e);
            }
        };
        let base = reader.offset() - payload.len() as u64;
        match header.kind {
            kind::BEGIN if !in_trace => {
                let begin = match proto::decode_begin(&payload, base) {
                    Ok(b) => b,
                    Err(e) => return close_on_server_error(&mut write, e),
                };
                sim.begin(&begin.name, begin.instructions);
                cursor = Pc::default();
                in_trace = true;
            }
            kind::BEGIN_WORKLOAD if !in_trace => {
                let begin = match proto::decode_begin_workload(&payload, base) {
                    Ok(b) => b,
                    Err(e) => return close_on_server_error(&mut write, e),
                };
                // Resolve the name against spec95 (for the generator
                // identity) and the catalog (for the file). Either miss is
                // the same client-visible condition: no such workload here.
                let entry = shared.corpus.get().and_then(|store| {
                    let spec = spec95::benchmark(&begin.name)?;
                    store
                        .find_by_ppm(&spec, u64::from(begin.scale_ppm))
                        .cloned()
                        .map(|entry| (Arc::clone(store), entry))
                });
                let (store, entry) = match entry {
                    Some(found) => found,
                    None => {
                        return close_with(
                            &mut write,
                            code::UNKNOWN_WORKLOAD,
                            base,
                            "no corpus entry for that workload",
                        )
                    }
                };
                let mut corpus_reader = match store.open_reader(&entry) {
                    Ok(r) => r,
                    Err(StoreError::Trace(e)) => return close_on_trace_error(&mut write, e),
                    Err(e) => return close_with(&mut write, code::INTERNAL, base, &e.to_string()),
                };
                // Stream the corpus chunk by chunk through the session
                // simulator — same per-record path as RECORDS frames, so
                // the summary is bit-identical to a client-streamed run of
                // the same trace on a fresh predictor.
                sim.begin(corpus_reader.name(), corpus_reader.instruction_count());
                loop {
                    match corpus_reader.next_block() {
                        Ok(Some(block)) => {
                            shared
                                .stats
                                .records
                                .fetch_add(block.len() as u64, Ordering::Relaxed);
                            block.for_each(|rec| sim.feed(rec));
                        }
                        Ok(None) => break,
                        Err(e) => return close_on_trace_error(&mut write, e),
                    }
                }
                let summary = sim.finish();
                shared.stats.traces.fetch_add(1, Ordering::Relaxed);
                proto::encode_summary(&summary, &mut out);
                if !send_frame(&mut write, kind::SUMMARY, &out) {
                    return SessionEnd::Failed;
                }
            }
            kind::RECORDS if in_trace => {
                records.clear();
                if let Err(e) = ev8_trace::frame::decode_records(
                    &payload,
                    &mut cursor,
                    reader.budget_mut(),
                    base,
                    &mut records,
                ) {
                    return close_on_trace_error(&mut write, e);
                }
                shared
                    .stats
                    .records
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                sim.feed_all(&records);
            }
            kind::END if in_trace => {
                let summary = sim.finish();
                in_trace = false;
                shared.stats.traces.fetch_add(1, Ordering::Relaxed);
                proto::encode_summary(&summary, &mut out);
                if !send_frame(&mut write, kind::SUMMARY, &out) {
                    return SessionEnd::Failed;
                }
            }
            kind::STATS_REQ => {
                proto::encode_stats(&shared.snapshot(), &mut out);
                if !send_frame(&mut write, kind::STATS, &out) {
                    return SessionEnd::Failed;
                }
            }
            kind::BYE => {
                let _ = send_close(&mut write, code::OK, reader.offset(), "goodbye");
                return SessionEnd::Completed;
            }
            _ => {
                return close_with(
                    &mut write,
                    code::PROTOCOL,
                    base,
                    "unknown or out-of-order frame",
                );
            }
        }
    }
}

fn is_stall_kind(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Maps a trace-layer error onto a close code and reports it.
fn close_on_trace_error(write: &mut Conn, e: TraceError) -> SessionEnd {
    let (close_code, offset) = match &e {
        TraceError::FrameTooLarge { offset, .. } => (code::FRAME_TOO_LARGE, *offset),
        TraceError::BudgetExceeded { offset, .. } => (code::BUDGET, *offset),
        TraceError::Corrupt { offset, .. } => (code::TRACE, *offset),
        TraceError::ChecksumMismatch { offset, .. } => (code::TRACE, *offset),
        TraceError::UnexpectedEof { offset } => (code::TRACE, *offset),
        TraceError::Io(_) => (code::INTERNAL, 0),
        _ => (code::TRACE, 0),
    };
    let _ = send_close(write, close_code, offset, &e.to_string());
    SessionEnd::Failed
}

/// Reports a protocol-layer error and fails the session.
fn close_on_server_error(write: &mut Conn, e: ServerError) -> SessionEnd {
    let (close_code, offset) = match e {
        ServerError::Protocol { offset, .. } => (code::PROTOCOL, offset),
        ServerError::Trace(t) => return close_on_trace_error(write, t),
        _ => (code::INTERNAL, 0),
    };
    let _ = send_close(write, close_code, offset, &e.to_string());
    SessionEnd::Failed
}

fn close_draining(write: &mut Conn) -> SessionEnd {
    let _ = send_close(write, code::DRAINING, 0, "server draining");
    SessionEnd::Drained
}

fn close_with(write: &mut Conn, c: u16, offset: u64, message: &str) -> SessionEnd {
    let _ = send_close(write, c, offset, message);
    SessionEnd::Failed
}

/// Sends an `ERROR` frame followed by `CLOSED` (or just `CLOSED` for
/// orderly/drain codes) — the machine-readable close.
fn send_close(write: &mut Conn, c: u16, offset: u64, message: &str) -> bool {
    let info = CloseInfo {
        code: c,
        offset,
        message: message.to_string(),
    };
    let mut payload = Vec::new();
    proto::encode_close(&info, &mut payload);
    if !matches!(c, code::OK | code::DRAINING) && !send_frame(write, kind::ERROR, &payload) {
        return false;
    }
    send_frame(write, kind::CLOSED, &payload)
}

/// Writes one frame as a single buffered write; returns success.
fn send_frame(write: &mut Conn, frame_kind: u8, payload: &[u8]) -> bool {
    let mut buf = Vec::with_capacity(ev8_trace::frame::FRAME_HEADER_LEN + payload.len());
    if write_frame(&mut buf, frame_kind, payload).is_err() {
        return false;
    }
    write.write_all(&buf).is_ok() && write.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.max_sessions >= c.workers);
        assert_eq!(c.frame_cap, DEFAULT_FRAME_CAP);
        assert!(c.degrade_sessions >= c.workers);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Server::new(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "bind a listener")]
    fn serve_without_listener_panics() {
        Server::new(ServerConfig::default()).serve();
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_exponential() {
        let base = Duration::from_millis(10);
        for attempt in 1..=4u32 {
            let d = backoff_delay(base, 0, attempt);
            // Same (job, attempt) → identical delay, forever.
            assert_eq!(d, backoff_delay(base, 0, attempt));
            // Exponential envelope with jitter in [0, base).
            let floor = base * (1 << (attempt - 1));
            assert!(d >= floor, "attempt {attempt}: {d:?} < {floor:?}");
            assert!(
                d < floor + base,
                "attempt {attempt}: {d:?} >= {:?}",
                floor + base
            );
        }
        // Different jobs jitter differently — the whole point of the
        // jitter.
        let spread: std::collections::HashSet<Duration> =
            (0..16).map(|job| backoff_delay(base, job, 1)).collect();
        assert!(spread.len() > 1, "jitter collapsed to a single delay");
        // Degenerate base: no jitter, no panic.
        assert_eq!(backoff_delay(Duration::ZERO, 0, 1), Duration::ZERO);
        // Huge attempt numbers saturate instead of overflowing.
        let huge = backoff_delay(base, 0, 4_000_000);
        assert!(huge >= base * (1 << 20));
    }

    #[test]
    fn backoff_delays_are_pinned() {
        // Literal delays in ns: a drift in the jitter derivation changes
        // every RETRY_AFTER a client sees.
        let nanos = |base_ms: u64, job: usize, attempt: u32| {
            backoff_delay(Duration::from_millis(base_ms), job, attempt).as_nanos()
        };
        let jobs: Vec<u128> = (0..4).map(|job| nanos(100, job, 1)).collect();
        assert_eq!(jobs, [140578789, 132428630, 139603566, 164920808]);
        let attempts: Vec<u128> = (1..=4).map(|attempt| nanos(100, 0, attempt)).collect();
        assert_eq!(attempts, [140578789, 282574730, 414831856, 865663252]);
        let short: Vec<u128> = (0..4).map(|job| nanos(20, job, 1)).collect();
        assert_eq!(short, [20578789, 32428630, 39603566, 24920808]);
    }

    #[test]
    fn stall_kind_classification() {
        assert!(is_stall_kind(io::ErrorKind::WouldBlock));
        assert!(is_stall_kind(io::ErrorKind::TimedOut));
        assert!(!is_stall_kind(io::ErrorKind::UnexpectedEof));
    }
}
