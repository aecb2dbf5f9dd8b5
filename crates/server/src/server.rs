//! The supervised, overload-tolerant simulation server.
//!
//! Architecture (all std, no async runtime):
//!
//! * **Accept threads** — one per listener under `thread::scope`, each
//!   blocked in `accept`. Admission control pushes an admitted
//!   connection onto the one shared session queue and wakes one idle
//!   worker. Refused connections get a `RETRY_AFTER` frame whose delay
//!   is [`ServerConfig::retry_backoff`] plus fixed-seed jitter per
//!   refusal — a thundering herd of rejected clients restaggers
//!   deterministically.
//! * **Worker pool** — `config.workers` threads under the same scope,
//!   popping the shared queue in arrival order, so a connection waits
//!   only while every worker is busy. A worker counts its session
//!   active under the queue lock, so admission's `active + queued`
//!   never misses a session between the two.
//! * **Per-session supervision** — the socket read timeout is the stall
//!   watchdog (a slowloris client surfaces as a timed-out read and is
//!   reaped with a `CLOSED` frame), transient accept failures back off
//!   exponentially from [`ServerConfig::retry_backoff`], and every
//!   session runs under the cumulative [`SessionBudget`] from the trace
//!   layer.
//! * **Degraded mode** — above [`ServerConfig::degrade_sessions`]
//!   concurrent sessions the server sheds per-branch attribution
//!   (observability) before it sheds predictions.
//! * **Graceful drain** — [`ServerHandle::shutdown`] arms the drain
//!   deadline, wakes every idle worker, and wakes each blocked accept by
//!   connecting to its listener; that connection is dropped uncounted.
//!   Queued-but-unstarted sessions are closed immediately with
//!   `CLOSED{DRAINING}`, in-flight sessions run on until the drain
//!   deadline, then are time-boxed closed the same way. [`Server::serve`]
//!   returns only after every worker and accept thread has exited.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::fs::MetadataExt;
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
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

/// State shared between the accept threads, workers, and handles.
struct Shared {
    config: ServerConfig,
    stats: StatsInner,
    /// Set (`AcqRel` swap) by the first [`ServerHandle::shutdown`], read
    /// with `Acquire`. Admission and workers read it under the queue
    /// lock, which orders it against every push and pop: once a worker
    /// has seen it with the queue empty, no connection is queued again.
    shutdown: AtomicBool,
    /// Set once, by the first [`ServerHandle::shutdown`].
    drain_deadline: OnceLock<Instant>,
    /// Admitted sessions no worker has started yet, in arrival order.
    queue: Mutex<VecDeque<Conn>>,
    /// Signals workers waiting on an empty `queue`.
    ready: Condvar,
    /// One entry per bound listener: where shutdown connects to wake it.
    wakes: Mutex<Vec<Wake>>,
    /// On-disk corpus served to `BEGIN_WORKLOAD` sessions; absent unless
    /// [`Server::attach_corpus`] was called (the config struct is `Copy`,
    /// so the store lives here).
    corpus: OnceLock<Arc<CorpusStore>>,
}

impl Shared {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            sessions_accepted: self.stats.accepted.load(Ordering::Relaxed),
            sessions_rejected: self.stats.rejected.load(Ordering::Relaxed),
            sessions_completed: self.stats.completed.load(Ordering::Relaxed),
            sessions_stalled: self.stats.stalled.load(Ordering::Relaxed),
            sessions_failed: self.stats.failed.load(Ordering::Relaxed),
            sessions_drained: self.stats.drained.load(Ordering::Relaxed),
            sessions_active: self.stats.active.load(Ordering::Relaxed),
            sessions_queued: self.queue.lock().expect("queue lock").len() as u64,
            traces_simulated: self.stats.traces.load(Ordering::Relaxed),
            records_simulated: self.stats.records.load(Ordering::Relaxed),
            attribution_shed: self.stats.shed.load(Ordering::Relaxed),
        }
    }
}

/// A bound listener endpoint.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix {
        listener: UnixListener,
        /// Held for its drop, which removes the socket's names.
        _file: SocketFile,
    },
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            Listener::Tcp(l) => Conn::Tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix { listener, .. } => Conn::Unix(listener.accept()?.0),
        })
    }
}

/// The two names of a Unix listener's socket file: the path it was bound
/// at, and a private hard link beside it. Shutdown's wake connection
/// goes through the link, so it reaches this listener even after another
/// server has rebound the path. Both go with the listener: the link
/// always, the path only while it is still the inode this listener bound.
#[cfg(unix)]
struct SocketFile {
    path: PathBuf,
    link: PathBuf,
    ino: u64,
}

#[cfg(unix)]
impl SocketFile {
    /// Links the socket file just bound at `path` as `.ev8-wake-<n>` in
    /// the same directory, taking the first free `n`.
    fn link(path: &Path) -> io::Result<SocketFile> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut file = SocketFile {
            path: path.to_path_buf(),
            link: PathBuf::new(),
            ino: std::fs::symlink_metadata(path)?.ino(),
        };
        // From here on an error drops `file`, which removes the path.
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let link = path.with_file_name(format!(".ev8-wake-{n}"));
            // The wake connection must be able to name the link.
            std::os::unix::net::SocketAddr::from_pathname(&link)?;
            match std::fs::hard_link(path, &link) {
                Ok(()) => {
                    file.link = link;
                    return Ok(file);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(unix)]
impl Drop for SocketFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.link);
        if std::fs::symlink_metadata(&self.path).is_ok_and(|m| m.ino() == self.ino) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Where [`ServerHandle::shutdown`] connects to wake a listener's
/// blocked accept.
enum Wake {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Wake {
    /// Connects and hangs up. A failed connect is ignored; the usual
    /// cause is a listener that has already closed.
    fn ring(&self) {
        match self {
            Wake::Tcp(addr) => drop(TcpStream::connect(addr)),
            #[cfg(unix)]
            Wake::Unix(link) => drop(UnixStream::connect(link)),
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
    /// let in-flight sessions finish or hit the drain deadline. Calls
    /// after the first do nothing.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        if shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = shared
            .drain_deadline
            .set(Instant::now() + shared.config.drain_timeout);
        {
            // Notify under the lock: no idle worker can then be between
            // its look at the flag and its wait.
            let _queue = shared.queue.lock().expect("queue lock");
            shared.ready.notify_all();
        }
        for wake in shared.wakes.lock().expect("wake lock").iter() {
            wake.ring();
        }
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
        Server {
            shared: Arc::new(Shared {
                config,
                stats: StatsInner::default(),
                shutdown: AtomicBool::new(false),
                drain_deadline: OnceLock::new(),
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                wakes: Mutex::new(Vec::new()),
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
        // An unspecified address (0.0.0.0, ::) is woken through loopback.
        let mut wake = local;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        self.shared
            .wakes
            .lock()
            .expect("wake lock")
            .push(Wake::Tcp(wake));
        self.listeners.push(Listener::Tcp(l));
        Ok(local)
    }

    /// Binds a Unix-domain socket listener, replacing any stale socket
    /// file at `path`. The file is removed again when the server drops,
    /// unless another server has rebound `path` since.
    ///
    /// The socket also gets a private hard link, `.ev8-wake-<n>` in the
    /// same directory, through which shutdown wakes the listener; it is
    /// removed with the file. Binding fails if that link cannot be made
    /// or its path is too long for a socket address.
    #[cfg(unix)]
    pub fn bind_unix(&mut self, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let file = SocketFile::link(path)?;
        self.shared
            .wakes
            .lock()
            .expect("wake lock")
            .push(Wake::Unix(file.link.clone()));
        self.listeners.push(Listener::Unix {
            listener,
            _file: file,
        });
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

    /// Runs the accept threads and worker pool until a handle calls
    /// [`ServerHandle::shutdown`] and the drain completes. Returns the
    /// final stats snapshot.
    ///
    /// # Panics
    ///
    /// Panics if no listener was bound.
    pub fn serve(self) -> ServerStats {
        assert!(!self.listeners.is_empty(), "bind a listener before serving");
        let shared = &self.shared;
        thread::scope(|s| {
            for _ in 0..shared.config.workers {
                s.spawn(|| worker_loop(shared));
            }
            for l in &self.listeners {
                s.spawn(|| accept_loop(l, shared));
            }
        });
        shared.snapshot()
    }
}

/// One listener's accept thread: blocks in `accept` and hands each
/// connection to admission control until shutdown.
fn accept_loop(listener: &Listener, shared: &Shared) {
    let mut attempt = 1u32;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(conn) => {
                attempt = 1;
                admit(conn, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (fd exhaustion, aborted
                // handshake): back off exponentially instead of
                // spinning.
                thread::sleep(backoff_delay(shared.config.retry_backoff, 0, attempt));
                attempt = attempt.saturating_add(1).min(8);
            }
        }
    }
}

/// Admission control: refuse with `RETRY_AFTER` past the session cap,
/// otherwise queue the connection and wake one idle worker. The load
/// (`active + queued`) is read and the connection pushed under the queue
/// lock. After shutdown the connection is dropped uncounted: it is the
/// wake connection, or a client too late for a worker to be left.
fn admit(conn: Conn, shared: &Shared) {
    let cfg = &shared.config;
    let mut queue = shared.queue.lock().expect("queue lock");
    if shared.shutdown.load(Ordering::Acquire) {
        return;
    }
    let load = shared.stats.active.load(Ordering::Relaxed) + queue.len() as u64;
    if load < cfg.max_sessions as u64 {
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        queue.push_back(conn);
        drop(queue);
        shared.ready.notify_one();
        return;
    }
    drop(queue);
    // Seeded-jitter delay: concurrent rejects spread out instead of
    // hammering back simultaneously. The refusal's sequence number is
    // the server's refusal count, whichever listener refused.
    let seq = shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    let delay = backoff_delay(cfg.retry_backoff, seq as usize, 1);
    let mut payload = Vec::new();
    proto::encode_retry_after(delay.as_millis() as u64, &mut payload);
    let mut w = conn;
    let _ = send_frame(&mut w, kind::RETRY_AFTER, &payload);
}

/// The delay before retry `attempt` (1-based) of caller `job` (a
/// refusal's sequence number, or 0 for an accept thread):
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

/// Worker body: serve sessions until shutdown has emptied the queue.
fn worker_loop(shared: &Shared) {
    while let Some((conn, draining)) = next_conn(shared) {
        if draining {
            // Queued but never started: close immediately.
            refuse_draining(conn, shared);
        } else {
            run_session(conn, shared);
            shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Waits for the next queued connection and pops it, with whether the
/// server is draining. A session popped to run is counted active before
/// the queue lock is released. `None` once shutdown has emptied the
/// queue.
fn next_conn(shared: &Shared) -> Option<(Conn, bool)> {
    let mut queue = shared.queue.lock().expect("queue lock");
    loop {
        let draining = shared.shutdown.load(Ordering::Acquire);
        match queue.pop_front() {
            Some(conn) => {
                if !draining {
                    shared.stats.active.fetch_add(1, Ordering::Relaxed);
                }
                return Some((conn, draining));
            }
            None if draining => return None,
            None => queue = shared.ready.wait(queue).expect("queue lock"),
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
        if let Some(&deadline) = shared.drain_deadline.get() {
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

    /// An idle worker takes a new session at once, whatever its sibling
    /// is doing: beside one session held open on a 2-worker server,
    /// twenty back-to-back HELLO → WELCOME → BYE sessions finish in
    /// under 20 ms in all. With nothing waiting on a timer each takes
    /// well under a millisecond; the bound leaves room for a slow host.
    #[cfg(unix)]
    #[test]
    fn sessions_beside_a_held_session_never_wait_on_a_timer() {
        use crate::client::Client;
        use crate::proto::PredictorSpec;

        let path = std::env::temp_dir().join(format!("ev8-unit-{}-held.sock", std::process::id()));
        let mut server = Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        server.bind_unix(&path).unwrap();
        let handle = server.handle();
        let join = thread::spawn(move || server.serve());

        let spec = PredictorSpec::Bimodal { index_bits: 8 };
        let held = Client::connect_unix(&path, spec, false).unwrap();
        let start = Instant::now();
        for _ in 0..20 {
            Client::connect_unix(&path, spec, false)
                .unwrap()
                .bye()
                .unwrap();
        }
        let took = start.elapsed();
        held.bye().unwrap();
        handle.shutdown();
        let stats = join.join().unwrap();
        assert_eq!(stats.sessions_completed, 21);
        assert!(
            took < Duration::from_millis(20),
            "20 sessions beside a held one took {took:?}"
        );
    }

    #[test]
    fn stall_kind_classification() {
        assert!(is_stall_kind(io::ErrorKind::WouldBlock));
        assert!(is_stall_kind(io::ErrorKind::TimedOut));
        assert!(!is_stall_kind(io::ErrorKind::UnexpectedEof));
    }
}
