//! Blocking client for the prediction service, used by the integration
//! tests, the chaos suite, the load bench and the CI smoke script.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::thread;
use std::time::Duration;

use ev8_sim::session::SessionSummary;
use ev8_trace::frame::{encode_records, write_frame, FrameReader};
use ev8_trace::{Pc, SessionBudget, Trace};
use ev8_util::bytebuf::ByteBuf;

use crate::conn::Conn;
use crate::error::ServerError;
use crate::proto::{self, code, kind, Hello, PredictorSpec, ServerStats, Welcome};

/// Default number of records per `RECORDS` frame.
pub const DEFAULT_CHUNK: usize = 4096;

/// How long the client waits for a server response frame before giving
/// up (generous: the server may be time-slicing many sessions).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A connected, welcomed session.
pub struct Client {
    write: Conn,
    reader: FrameReader<Conn>,
    payload: Vec<u8>,
    welcome: Welcome,
}

impl Client {
    /// Connects over TCP and performs the handshake.
    ///
    /// # Errors
    ///
    /// [`ServerError::Overloaded`] when admission control refused the
    /// session (carrying the server-suggested retry delay),
    /// [`ServerError::Draining`]/[`ServerError::Remote`] when the server
    /// closed it, transport errors otherwise.
    pub fn connect_tcp(
        addr: SocketAddr,
        spec: PredictorSpec,
        attribution: bool,
    ) -> Result<Client, ServerError> {
        let stream = TcpStream::connect(addr)?;
        Client::handshake(Conn::Tcp(stream), spec, attribution)
    }

    /// Connects over a Unix-domain socket and performs the handshake.
    #[cfg(unix)]
    pub fn connect_unix(
        path: &Path,
        spec: PredictorSpec,
        attribution: bool,
    ) -> Result<Client, ServerError> {
        let stream = UnixStream::connect(path)?;
        Client::handshake(Conn::Unix(stream), spec, attribution)
    }

    /// Connects over a Unix socket, sleeping out `RETRY_AFTER` responses
    /// up to `attempts` times — the polite-client loop admission control
    /// expects.
    #[cfg(unix)]
    pub fn connect_unix_retry(
        path: &Path,
        spec: PredictorSpec,
        attribution: bool,
        attempts: u32,
    ) -> Result<Client, ServerError> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Client::connect_unix(path, spec, attribution) {
                Ok(c) => return Ok(c),
                Err(ServerError::Overloaded { retry_after }) => {
                    thread::sleep(retry_after.min(Duration::from_millis(500)));
                    last = Some(ServerError::Overloaded { retry_after });
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ServerError::Overloaded {
            retry_after: Duration::from_millis(100),
        }))
    }

    fn handshake(
        conn: Conn,
        spec: PredictorSpec,
        attribution: bool,
    ) -> Result<Client, ServerError> {
        let _ = conn.set_nodelay();
        conn.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let mut write = conn.try_clone()?;
        let mut reader = FrameReader::new(conn, SessionBudget::unlimited());
        let mut payload = Vec::new();
        let mut out = Vec::new();
        proto::encode_hello(&Hello { spec, attribution }, &mut out);
        // A server at its session cap answers RETRY_AFTER as it accepts
        // and closes without reading, so the HELLO can meet a closed
        // socket. The refusal is then already in our receive buffer, and
        // it, not the broken pipe, is the answer.
        let sent = send(&mut write, kind::HELLO, &out);
        let (header, base) = match read_frame(&mut reader, &mut payload) {
            Ok(frame) => frame,
            Err(e) => return Err(sent.err().unwrap_or(e)),
        };
        match header {
            kind::WELCOME => {
                let welcome = proto::decode_welcome(&payload, base)?;
                Ok(Client {
                    write,
                    reader,
                    payload,
                    welcome,
                })
            }
            kind::RETRY_AFTER => {
                let millis = proto::decode_retry_after(&payload, base)?;
                Err(ServerError::Overloaded {
                    retry_after: Duration::from_millis(millis),
                })
            }
            kind::CLOSED | kind::ERROR => Err(remote_error(&payload, base)),
            _ => Err(ServerError::Protocol {
                what: "unexpected handshake response",
                offset: base,
            }),
        }
    }

    /// The server's handshake response (granted attribution, predictor
    /// name).
    pub fn welcome(&self) -> &Welcome {
        &self.welcome
    }

    /// Streams one trace through the session and returns its summary.
    /// Records are sent in `chunk`-sized `RECORDS` frames.
    ///
    /// If the server terminates the session mid-stream (budget
    /// exhaustion, drain, reap), the pending `ERROR`/`CLOSED` frame is
    /// surfaced as the error rather than the raw transport failure the
    /// teardown caused.
    pub fn run_trace(
        &mut self,
        trace: &Trace,
        chunk: usize,
    ) -> Result<SessionSummary, ServerError> {
        let chunk = chunk.max(1);
        let mut out = Vec::new();
        proto::encode_begin(
            &proto::Begin {
                name: trace.name().to_string(),
                instructions: trace.instruction_count(),
            },
            &mut out,
        );
        self.send_or_explain(kind::BEGIN, &out)?;
        let mut cursor = Pc::default();
        for records in trace.records().chunks(chunk) {
            let mut buf = ByteBuf::new();
            encode_records(&mut buf, records, &mut cursor);
            self.send_or_explain(kind::RECORDS, buf.as_slice())?;
        }
        self.send_or_explain(kind::END, &[])?;
        let (header, base) = read_frame(&mut self.reader, &mut self.payload)?;
        match header {
            kind::SUMMARY => proto::decode_summary(&self.payload, base),
            kind::CLOSED | kind::ERROR => Err(remote_error(&self.payload, base)),
            _ => Err(ServerError::Protocol {
                what: "expected SUMMARY",
                offset: base,
            }),
        }
    }

    /// Simulates a server-side corpus workload by name: one
    /// `BEGIN_WORKLOAD` frame replaces the whole `BEGIN`/`RECORDS`/`END`
    /// exchange, the server streams its own catalog entry, and the
    /// summary comes back exactly as for [`Client::run_trace`].
    ///
    /// `scale_ppm` is the trace scale in parts per million of the
    /// benchmark's full length (1_000_000 = the full trace); it must
    /// match a catalog entry on the server.
    ///
    /// # Errors
    ///
    /// [`ServerError::Remote`] with
    /// [`code::UNKNOWN_WORKLOAD`]
    /// when the server has no matching catalog entry; the usual
    /// transport/protocol errors otherwise.
    pub fn run_workload(
        &mut self,
        name: &str,
        scale_ppm: u32,
    ) -> Result<SessionSummary, ServerError> {
        let mut out = Vec::new();
        proto::encode_begin_workload(
            &proto::BeginWorkload {
                name: name.to_string(),
                scale_ppm,
            },
            &mut out,
        );
        self.send_or_explain(kind::BEGIN_WORKLOAD, &out)?;
        let (header, base) = read_frame(&mut self.reader, &mut self.payload)?;
        match header {
            kind::SUMMARY => proto::decode_summary(&self.payload, base),
            kind::CLOSED | kind::ERROR => Err(remote_error(&self.payload, base)),
            _ => Err(ServerError::Protocol {
                what: "expected SUMMARY",
                offset: base,
            }),
        }
    }

    /// Sends one frame; when the transport is already dead, reads the
    /// terminal `ERROR`/`CLOSED` frame the server left behind (the
    /// machine-readable *reason* it tore the session down) and returns
    /// that instead of the broken-pipe symptom.
    fn send_or_explain(&mut self, frame_kind: u8, payload: &[u8]) -> Result<(), ServerError> {
        match send(&mut self.write, frame_kind, payload) {
            Ok(()) => Ok(()),
            Err(ServerError::Io(io)) => {
                // A closed peer means its close frames (or EOF) are
                // already in our receive buffer — this read cannot
                // stall.
                if let Ok(Some(h)) = self.reader.read_frame(&mut self.payload) {
                    if matches!(h.kind, kind::ERROR | kind::CLOSED) {
                        let base = self.reader.offset() - self.payload.len() as u64;
                        return Err(remote_error(&self.payload, base));
                    }
                }
                Err(ServerError::Io(io))
            }
            Err(e) => Err(e),
        }
    }

    /// Requests a server stats snapshot.
    pub fn server_stats(&mut self) -> Result<ServerStats, ServerError> {
        send(&mut self.write, kind::STATS_REQ, &[])?;
        let (header, base) = read_frame(&mut self.reader, &mut self.payload)?;
        match header {
            kind::STATS => proto::decode_stats(&self.payload, base),
            kind::CLOSED | kind::ERROR => Err(remote_error(&self.payload, base)),
            _ => Err(ServerError::Protocol {
                what: "expected STATS",
                offset: base,
            }),
        }
    }

    /// Ends the session with an orderly `BYE`, waiting for the server's
    /// `CLOSED{OK}`.
    pub fn bye(mut self) -> Result<(), ServerError> {
        send(&mut self.write, kind::BYE, &[])?;
        let (header, base) = read_frame(&mut self.reader, &mut self.payload)?;
        match header {
            kind::CLOSED => {
                let info = proto::decode_close(&self.payload, base)?;
                if info.code == code::OK {
                    Ok(())
                } else {
                    Err(close_to_error(info))
                }
            }
            _ => Err(ServerError::Protocol {
                what: "expected CLOSED",
                offset: base,
            }),
        }
    }
}

/// Reads one frame, mapping clean EOF to a protocol error (the server
/// must always send a terminal frame first) and timed-out reads to
/// [`ServerError::Stalled`].
fn read_frame(
    reader: &mut FrameReader<Conn>,
    payload: &mut Vec<u8>,
) -> Result<(u8, u64), ServerError> {
    match reader.read_frame(payload) {
        Ok(Some(h)) => Ok((h.kind, reader.offset() - payload.len() as u64)),
        Ok(None) => Err(ServerError::Protocol {
            what: "server closed without a terminal frame",
            offset: reader.offset(),
        }),
        Err(e) => {
            let err: ServerError = e.into();
            if err.is_stall() {
                Err(ServerError::Stalled {
                    after: RESPONSE_TIMEOUT,
                })
            } else {
                Err(err)
            }
        }
    }
}

/// Maps an `ERROR`/`CLOSED` payload to the matching client-side error.
fn remote_error(payload: &[u8], base: u64) -> ServerError {
    match proto::decode_close(payload, base) {
        Ok(info) => close_to_error(info),
        Err(e) => e,
    }
}

fn close_to_error(info: proto::CloseInfo) -> ServerError {
    if info.code == code::DRAINING {
        ServerError::Draining
    } else {
        ServerError::Remote {
            code: info.code,
            message: info.message,
        }
    }
}

fn send(write: &mut Conn, frame_kind: u8, payload: &[u8]) -> Result<(), ServerError> {
    let mut buf = Vec::with_capacity(ev8_trace::frame::FRAME_HEADER_LEN + payload.len());
    write_frame(&mut buf, frame_kind, payload)?;
    write.write_all(&buf)?;
    write.flush()?;
    Ok(())
}
