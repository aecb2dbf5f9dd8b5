//! `server_gshare`: a closed loop of sessions against the prediction
//! server over a Unix socket. Two client threads each wait for one
//! session's summary before opening the next; gshare is cheap, so
//! framing, sessions and the worker pool carry the time. The only
//! workload for `ev8-server` and `SessionSim`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ev8_server::{
    Client, PredictorSpec, Server, ServerConfig, ServerError, ServerHandle, ServerStats,
};
use ev8_sim::session::SessionSummary;
use ev8_sim::simulate;
use ev8_trace::Trace;
use ev8_workloads::ProgramSpec;

use crate::harness::{Cell, Pass, Workload};
use crate::inputs::{self, RunConfig};
use crate::metrics::Outcome;
use crate::reference::{Counts, Expected};
use crate::spans::Ctx;

/// The served predictor, and the key its cells carry.
pub const SPEC: PredictorSpec = PredictorSpec::Gshare {
    index_bits: 14,
    history: 12,
};
pub const KEY: &str = "gshare_14_12";
/// Records per `RECORDS` frame.
pub const CHUNK: usize = 4096;
/// Closed-loop clients, each with one connection at a time.
const CLIENTS: usize = 2;
const SESSIONS_PER_PASS: usize = 400;
const SMOKE_SESSIONS: usize = 4;
/// Connection attempts before a refused session counts as failed.
const CONNECT_ATTEMPTS: u32 = 50;

/// A server running on its own thread; dropping it drains the server
/// and waits for the thread.
pub struct Running {
    pub socket: PathBuf,
    handle: ServerHandle,
    thread: Option<JoinHandle<ServerStats>>,
}

impl Running {
    /// Binds a Unix socket under the work directory and serves with one
    /// worker per core.
    pub fn start() -> Result<Running, String> {
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        let mut server = Server::new(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let socket = inputs::unique_path("server", ".sock");
        if let Some(dir) = socket.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        server
            .bind_unix(&socket)
            .map_err(|e| format!("binding {}: {e}", socket.display()))?;
        let handle = server.handle();
        let thread = Some(thread::spawn(move || server.serve()));
        Ok(Running {
            socket,
            handle,
            thread,
        })
    }

    /// Drains the server and returns its final counters.
    pub fn stop(mut self) -> Result<ServerStats, String> {
        self.handle.shutdown();
        let thread = self.thread.take().expect("a running server has its thread");
        thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Connects, retrying refusals; counts each refusal in `refused`.
pub fn connect(socket: &Path, refused: &AtomicU64) -> Result<Client, ServerError> {
    let mut attempt = 0;
    loop {
        match Client::connect_unix(socket, SPEC, false) {
            Err(ServerError::Overloaded { retry_after }) if attempt + 1 < CONNECT_ATTEMPTS => {
                refused.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                thread::sleep(retry_after.min(Duration::from_millis(50)));
            }
            other => return other,
        }
    }
}

/// One session: connect, stream the trace, close.
pub fn session(
    socket: &Path,
    trace: &Trace,
    refused: &AtomicU64,
    ctx: Ctx,
    request: u64,
) -> Result<SessionSummary, String> {
    let mut client = ctx
        .span("server.connect", request, |_| connect(socket, refused))
        .map_err(|e| format!("connect: {e}"))?;
    let summary = ctx
        .span("server.run_trace", request, |_| {
            client.run_trace(trace, CHUNK)
        })
        .map_err(|e| format!("run_trace: {e}"))?;
    ctx.span("server.bye", request, |_| client.bye())
        .map_err(|e| format!("bye: {e}"))?;
    Ok(summary)
}

pub struct ServerGshare {
    traces: Vec<Arc<Trace>>,
    sessions: usize,
    server: Option<Running>,
    refused: AtomicU64,
}

impl Workload for ServerGshare {
    const NAME: &'static str = "server_gshare";
    const PASS_THREADS: usize = CLIENTS;
    // 400 sessions a pass, ~4 passes a run.
    const TAIL_LEVEL: f64 = 99.0;

    fn scale(cfg: &RunConfig) -> f64 {
        cfg.server_scale()
    }

    fn setup(cfg: &RunConfig, specs: &[ProgramSpec], ctx: Ctx) -> Result<Self, String> {
        let scale = Self::scale(cfg);
        let traces = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| Arc::new(inputs::generate(ctx, spec, scale, i as u64)))
            .collect();
        Ok(ServerGshare {
            traces,
            sessions: if cfg.smoke {
                SMOKE_SESSIONS
            } else {
                SESSIONS_PER_PASS
            },
            server: None,
            refused: AtomicU64::new(0),
        })
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.server = Some(Running::start()?);
        Ok(())
    }

    fn pass(&mut self, ctx: Ctx, index: usize) -> Pass {
        let socket = &self.server.as_ref().expect("prepared").socket;
        let n = self.sessions;
        let next = AtomicUsize::new(0);
        let mut done: Vec<_> = thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            if j >= n {
                                return mine;
                            }
                            let trace = &self.traces[j % self.traces.len()];
                            let request = (index * n + j) as u64;
                            let t = Instant::now();
                            let result = ctx.span("session", request, |ctx| {
                                session(socket, trace, &self.refused, ctx, request)
                            });
                            mine.push((j, result, t.elapsed().as_secs_f64() * 1e3));
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        done.sort_by_key(|(j, _, _)| *j);
        let mut pass = Pass::default();
        for (j, result, ms) in done {
            match result {
                Ok(summary) => {
                    pass.requests_ms.push(ms);
                    pass.instructions += summary.result.instructions;
                    pass.cells.push(Cell {
                        bench: summary.result.trace.clone(),
                        predictor: KEY,
                        counts: (&summary.result).into(),
                    });
                }
                Err(e) => pass.errors.push(format!("session {j}: {e}")),
            }
        }
        pass
    }

    /// Every summary must equal the in-process serial simulation of the
    /// same trace.
    fn expected(&self, _cfg: &RunConfig, _specs: &[ProgramSpec]) -> Result<Expected, String> {
        Ok(self
            .traces
            .iter()
            .map(|t| {
                let r = simulate(SPEC.build(), t);
                ((t.name().to_owned(), KEY.to_owned()), Counts::from(&r))
            })
            .collect())
    }

    fn describe(&self, _first: &Pass, _expected: &Expected, out: &mut Outcome) {
        out.notes.push(format!(
            "{CLIENTS} closed-loop clients, {} sessions a pass, {} connects refused and retried",
            self.sessions,
            self.refused.load(Ordering::Relaxed)
        ));
    }

    fn finish(mut self) -> Vec<String> {
        let Some(server) = self.server.take() else {
            return Vec::new();
        };
        match server.stop() {
            Ok(stats) if stats.sessions_stalled == 0 && stats.sessions_failed == 0 => Vec::new(),
            Ok(stats) => vec![format!(
                "server counted {} stalled and {} failed sessions",
                stats.sessions_stalled, stats.sessions_failed
            )],
            Err(e) => vec![e],
        }
    }
}
