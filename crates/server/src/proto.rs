//! The session protocol: frame kinds, close codes, and payload codecs.
//!
//! Every session is a frame stream (see [`ev8_trace::frame`]); this
//! module assigns meanings to the frame kinds and defines the payload
//! encodings. All multi-byte integers are little-endian and fixed-width
//! (payloads are small control structures — varint compression buys
//! nothing here; the bulky record data reuses the trace wire encoding
//! via [`ev8_trace::frame::encode_records`]).
//!
//! ```text
//! client                                server
//!   | HELLO{spec, attribution}            |
//!   |------------------------------------>|
//!   |            WELCOME{granted, name}   |   (or RETRY_AFTER / CLOSED)
//!   |<------------------------------------|
//!   | BEGIN{name, instructions}           |
//!   |------------------------------------>|
//!   | RECORDS* (wire-encoded chunks)      |
//!   |------------------------------------>|
//!   | END                                 |
//!   |------------------------------------>|
//!   |            SUMMARY{result, attrib}  |
//!   |<------------------------------------|
//!   |     ... more BEGIN/RECORDS/END ...  |
//!   | BEGIN_WORKLOAD{name, scale_ppm}     |   (server-side corpus trace;
//!   |------------------------------------>|    no RECORDS/END follow)
//!   |            SUMMARY{result, attrib}  |
//!   |<------------------------------------|
//!   | BYE                                 |
//!   |------------------------------------>|
//!   |            CLOSED{code 0}           |
//!   |<------------------------------------|
//! ```
//!
//! Malformed input never panics: every decoder returns
//! [`ServerError::Protocol`] with the session byte offset.

use ev8_predictors::observe::ConditionalBranchPredictor;
use ev8_sim::session::{ProvenanceSummary, SessionSummary};
use ev8_sim::SimResult;

use crate::error::ServerError;

/// Frame kind tags. Client-originated kinds have the high bit clear,
/// server-originated kinds have it set.
pub mod kind {
    /// Client: session handshake ([`super::Hello`]).
    pub const HELLO: u8 = 0x01;
    /// Client: start a trace ([`super::Begin`]).
    pub const BEGIN: u8 = 0x02;
    /// Client: a chunk of wire-encoded branch records.
    pub const RECORDS: u8 = 0x03;
    /// Client: end of the current trace; request the summary.
    pub const END: u8 = 0x04;
    /// Client: request a server stats snapshot.
    pub const STATS_REQ: u8 = 0x05;
    /// Client: orderly goodbye.
    pub const BYE: u8 = 0x06;
    /// Client: simulate a named server-side corpus workload
    /// ([`super::BeginWorkload`]) — no `RECORDS`/`END` follow; the server
    /// streams the catalog entry itself and replies with `SUMMARY`.
    pub const BEGIN_WORKLOAD: u8 = 0x07;
    /// Server: handshake accepted ([`super::Welcome`]).
    pub const WELCOME: u8 = 0x81;
    /// Server: per-trace summary ([`super::encode_summary`]).
    pub const SUMMARY: u8 = 0x82;
    /// Server: structured error ([`super::CloseInfo`]); session continues
    /// only if the code says so (currently it never does).
    pub const ERROR: u8 = 0x83;
    /// Server: admission refused; payload is the suggested delay.
    pub const RETRY_AFTER: u8 = 0x84;
    /// Server: stats snapshot ([`super::ServerStats`]).
    pub const STATS: u8 = 0x85;
    /// Server: session closed ([`super::CloseInfo`]).
    pub const CLOSED: u8 = 0x86;
}

/// Machine-readable close codes carried by `ERROR`/`CLOSED` frames.
pub mod code {
    /// Orderly close after a client `BYE`.
    pub const OK: u16 = 0;
    /// Protocol violation (bad frame kind, out-of-order frame, malformed
    /// payload).
    pub const PROTOCOL: u16 = 1;
    /// The record stream was corrupt or truncated.
    pub const TRACE: u16 = 2;
    /// A cumulative session budget (bytes/records) was exhausted.
    pub const BUDGET: u16 = 3;
    /// A frame exceeded the per-frame payload cap.
    pub const FRAME_TOO_LARGE: u16 = 4;
    /// The stall watchdog reaped the session.
    pub const STALLED: u16 = 5;
    /// The server is draining for shutdown.
    pub const DRAINING: u16 = 6;
    /// Admission control rejected the session.
    pub const OVERLOADED: u16 = 7;
    /// Unexpected server-side failure.
    pub const INTERNAL: u16 = 8;
    /// A `BEGIN_WORKLOAD` named a workload the server's corpus catalog
    /// does not carry (or the server has no corpus attached).
    pub const UNKNOWN_WORKLOAD: u16 = 9;
}

/// Protocol version carried in `HELLO`/`WELCOME`. Version 2 dropped two
/// counters from the `STATS` payload, so a version-1 peer is refused at
/// the handshake rather than on its first stats frame.
pub const PROTOCOL_VERSION: u16 = 2;

/// Maximum predictor table index width a client may request. Caps the
/// server-side allocation a handshake can demand (2^24 two-bit counters
/// per table at most); larger requests are protocol errors, not OOMs.
pub const MAX_INDEX_BITS: u32 = 24;

/// Maximum global-history length a client may request.
pub const MAX_HISTORY: u32 = 64;

/// Which predictor a session wants on the other side of the wire.
///
/// A closed enum rather than free-form parameters: the server only
/// instantiates configurations whose resource footprint it can bound up
/// front ([`MAX_INDEX_BITS`], [`MAX_HISTORY`]), and decoding refuses a
/// table index width of zero, which no predictor can be built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PredictorSpec {
    /// A plain bimodal table.
    Bimodal {
        /// Table index width in bits.
        index_bits: u32,
    },
    /// A gshare predictor.
    Gshare {
        /// Table index width in bits.
        index_bits: u32,
        /// Global history length.
        history: u32,
    },
    /// 2Bc-gskew with four equal tables sharing one history length
    /// (the paper's §4.6 academic configuration).
    TwoBcGskewEqual {
        /// Per-table index width in bits.
        index_bits: u32,
        /// Shared global history length.
        history: u32,
    },
    /// 2Bc-gskew at the EV8's 352 Kbit budget (Table 1 geometry).
    TwoBcGskewEv8,
    /// The full EV8 predictor (lghist, banked arrays, Table 1 budget).
    Ev8,
    /// TAGE at the EV8's 352 Kbit budget (the cross-generation subject).
    TageEv8,
}

impl PredictorSpec {
    /// Instantiates the predictor this spec describes.
    pub fn build(self) -> Box<dyn ConditionalBranchPredictor> {
        use ev8_core::{Ev8Config, Ev8Predictor};
        use ev8_predictors::bimodal::Bimodal;
        use ev8_predictors::gshare::Gshare;
        use ev8_predictors::tage::{Tage, TageConfig};
        use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
        match self {
            PredictorSpec::Bimodal { index_bits } => Box::new(Bimodal::new(index_bits)),
            PredictorSpec::Gshare {
                index_bits,
                history,
            } => Box::new(Gshare::new(index_bits, history)),
            PredictorSpec::TwoBcGskewEqual {
                index_bits,
                history,
            } => Box::new(TwoBcGskew::new(TwoBcGskewConfig::equal(
                index_bits, history,
            ))),
            PredictorSpec::TwoBcGskewEv8 => Box::new(TwoBcGskew::new(TwoBcGskewConfig::ev8_size())),
            PredictorSpec::Ev8 => Box::new(Ev8Predictor::new(Ev8Config::default())),
            PredictorSpec::TageEv8 => Box::new(Tage::new(TageConfig::ev8_budget())),
        }
    }

    fn encode(self, out: &mut Vec<u8>) {
        match self {
            PredictorSpec::Bimodal { index_bits } => {
                out.push(0);
                put_u32(out, index_bits);
            }
            PredictorSpec::Gshare {
                index_bits,
                history,
            } => {
                out.push(1);
                put_u32(out, index_bits);
                put_u32(out, history);
            }
            PredictorSpec::TwoBcGskewEqual {
                index_bits,
                history,
            } => {
                out.push(2);
                put_u32(out, index_bits);
                put_u32(out, history);
            }
            PredictorSpec::TwoBcGskewEv8 => out.push(3),
            PredictorSpec::Ev8 => out.push(4),
            PredictorSpec::TageEv8 => out.push(5),
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, ServerError> {
        let spec = match r.u8("predictor spec tag")? {
            0 => PredictorSpec::Bimodal {
                index_bits: r.u32("bimodal index bits")?,
            },
            1 => PredictorSpec::Gshare {
                index_bits: r.u32("gshare index bits")?,
                history: r.u32("gshare history")?,
            },
            2 => PredictorSpec::TwoBcGskewEqual {
                index_bits: r.u32("2bc-gskew index bits")?,
                history: r.u32("2bc-gskew history")?,
            },
            3 => PredictorSpec::TwoBcGskewEv8,
            4 => PredictorSpec::Ev8,
            5 => PredictorSpec::TageEv8,
            _ => {
                return Err(ServerError::Protocol {
                    what: "unknown predictor spec tag",
                    offset: r.offset().saturating_sub(1),
                })
            }
        };
        let (bits, hist) = match spec {
            PredictorSpec::Bimodal { index_bits } => (index_bits, 0),
            PredictorSpec::Gshare {
                index_bits,
                history,
            }
            | PredictorSpec::TwoBcGskewEqual {
                index_bits,
                history,
            } => (index_bits, history),
            _ => return Ok(spec),
        };
        if bits == 0 {
            return Err(ServerError::Protocol {
                what: "predictor index width of zero",
                offset: r.offset(),
            });
        }
        if bits > MAX_INDEX_BITS {
            return Err(ServerError::Protocol {
                what: "predictor index width over server cap",
                offset: r.offset(),
            });
        }
        if hist > MAX_HISTORY {
            return Err(ServerError::Protocol {
                what: "predictor history length over server cap",
                offset: r.offset(),
            });
        }
        Ok(spec)
    }
}

/// Client handshake request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The predictor this session wants to drive.
    pub spec: PredictorSpec,
    /// Whether the session wants per-branch attribution in summaries
    /// (the server may shed it under load).
    pub attribution: bool,
}

/// Encodes a [`Hello`] payload.
pub fn encode_hello(h: &Hello, out: &mut Vec<u8>) {
    out.clear();
    put_u16(out, PROTOCOL_VERSION);
    out.push(u8::from(h.attribution));
    h.spec.encode(out);
}

/// Decodes a [`Hello`] payload. `base` is the payload's session offset.
pub fn decode_hello(payload: &[u8], base: u64) -> Result<Hello, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let version = r.u16("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(ServerError::Protocol {
            what: "unsupported protocol version",
            offset: base,
        });
    }
    let attribution = r.bool("attribution flag")?;
    let spec = PredictorSpec::decode(&mut r)?;
    r.finish("hello")?;
    Ok(Hello { spec, attribution })
}

/// Server handshake response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Welcome {
    /// Whether attribution was granted (`false` when the server is
    /// degraded and shed it at admission).
    pub attribution: bool,
    /// The instantiated predictor's display name.
    pub predictor: String,
}

/// Encodes a [`Welcome`] payload.
pub fn encode_welcome(w: &Welcome, out: &mut Vec<u8>) {
    out.clear();
    put_u16(out, PROTOCOL_VERSION);
    out.push(u8::from(w.attribution));
    put_str(out, &w.predictor);
}

/// Decodes a [`Welcome`] payload.
pub fn decode_welcome(payload: &[u8], base: u64) -> Result<Welcome, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let version = r.u16("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(ServerError::Protocol {
            what: "unsupported protocol version",
            offset: base,
        });
    }
    let attribution = r.bool("attribution flag")?;
    let predictor = r.string("predictor name")?;
    r.finish("welcome")?;
    Ok(Welcome {
        attribution,
        predictor,
    })
}

/// Client trace-start frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Begin {
    /// Trace (benchmark) name, echoed in the summary.
    pub name: String,
    /// Client-declared total instruction count (0 = let the server
    /// compute it from the records as Σ(1 + gap)).
    pub instructions: u64,
}

/// Encodes a [`Begin`] payload.
pub fn encode_begin(b: &Begin, out: &mut Vec<u8>) {
    out.clear();
    put_str(out, &b.name);
    put_u64(out, b.instructions);
}

/// Decodes a [`Begin`] payload.
pub fn decode_begin(payload: &[u8], base: u64) -> Result<Begin, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let name = r.string("trace name")?;
    let instructions = r.u64("instruction count")?;
    r.finish("begin")?;
    Ok(Begin { name, instructions })
}

/// Client named-workload frame: simulate a server-side corpus entry
/// instead of streaming records.
///
/// The scale rides the wire in parts per million so the protocol stays
/// float-free; the server resolves `(name, scale_ppm)` against its
/// corpus catalog's pinned generator identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BeginWorkload {
    /// Benchmark name (a `spec95` workload the server's catalog carries).
    pub name: String,
    /// Trace scale in parts per million of the benchmark's full length
    /// (1_000_000 = the full 100M-instruction trace).
    pub scale_ppm: u32,
}

/// Encodes a [`BeginWorkload`] payload.
pub fn encode_begin_workload(b: &BeginWorkload, out: &mut Vec<u8>) {
    out.clear();
    put_str(out, &b.name);
    put_u32(out, b.scale_ppm);
}

/// Decodes a [`BeginWorkload`] payload.
pub fn decode_begin_workload(payload: &[u8], base: u64) -> Result<BeginWorkload, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let name = r.string("workload name")?;
    let scale_ppm = r.u32("workload scale")?;
    r.finish("begin_workload")?;
    if scale_ppm == 0 {
        return Err(ServerError::Protocol {
            what: "workload scale must be positive",
            offset: base,
        });
    }
    Ok(BeginWorkload { name, scale_ppm })
}

/// Encodes a [`SessionSummary`] payload.
pub fn encode_summary(s: &SessionSummary, out: &mut Vec<u8>) {
    out.clear();
    put_str(out, &s.result.trace);
    put_str(out, &s.result.predictor);
    put_u64(out, s.result.instructions);
    put_u64(out, s.result.conditional_branches);
    put_u64(out, s.result.mispredictions);
    match &s.attribution {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            put_u64(out, a.provider_bimodal);
            put_u64(out, a.provider_majority);
            put_u64(out, a.wrong_by_bimodal);
            put_u64(out, a.wrong_by_majority);
            put_u64(out, a.meta_decisive);
            put_u64(out, a.meta_correct);
            for v in a.actions {
                put_u64(out, v);
            }
            match a.bank_collisions {
                None => out.push(0),
                Some(c) => {
                    out.push(1);
                    put_u64(out, c);
                }
            }
        }
    }
}

/// Decodes a [`SessionSummary`] payload.
pub fn decode_summary(payload: &[u8], base: u64) -> Result<SessionSummary, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let result = SimResult {
        trace: r.string("trace name")?,
        predictor: r.string("predictor name")?,
        instructions: r.u64("instructions")?,
        conditional_branches: r.u64("conditional branches")?,
        mispredictions: r.u64("mispredictions")?,
    };
    let attribution = if r.bool("attribution present flag")? {
        let mut a = ProvenanceSummary {
            provider_bimodal: r.u64("provider_bimodal")?,
            provider_majority: r.u64("provider_majority")?,
            wrong_by_bimodal: r.u64("wrong_by_bimodal")?,
            wrong_by_majority: r.u64("wrong_by_majority")?,
            meta_decisive: r.u64("meta_decisive")?,
            meta_correct: r.u64("meta_correct")?,
            ..ProvenanceSummary::default()
        };
        for slot in a.actions.iter_mut() {
            *slot = r.u64("action counter")?;
        }
        a.bank_collisions = if r.bool("bank collision flag")? {
            Some(r.u64("bank collisions")?)
        } else {
            None
        };
        Some(a)
    } else {
        None
    };
    r.finish("summary")?;
    Ok(SessionSummary {
        result,
        attribution,
    })
}

/// Structured close detail for `ERROR` and `CLOSED` frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CloseInfo {
    /// Machine-readable close code (see [`code`]).
    pub code: u16,
    /// Session byte offset relevant to the close (0 when meaningless).
    pub offset: u64,
    /// Human-readable detail.
    pub message: String,
}

/// Encodes a [`CloseInfo`] payload.
pub fn encode_close(c: &CloseInfo, out: &mut Vec<u8>) {
    out.clear();
    put_u16(out, c.code);
    put_u64(out, c.offset);
    put_str(out, &c.message);
}

/// Decodes a [`CloseInfo`] payload.
pub fn decode_close(payload: &[u8], base: u64) -> Result<CloseInfo, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let code = r.u16("close code")?;
    let offset = r.u64("close offset")?;
    let message = r.string("close message")?;
    r.finish("close")?;
    Ok(CloseInfo {
        code,
        offset,
        message,
    })
}

/// Encodes a `RETRY_AFTER` payload.
pub fn encode_retry_after(millis: u64, out: &mut Vec<u8>) {
    out.clear();
    put_u64(out, millis);
}

/// Decodes a `RETRY_AFTER` payload.
pub fn decode_retry_after(payload: &[u8], base: u64) -> Result<u64, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let millis = r.u64("retry delay")?;
    r.finish("retry_after")?;
    Ok(millis)
}

/// A point-in-time snapshot of the server's supervision counters.
///
/// All counters are monotonic over the server's lifetime except
/// `sessions_active` / `sessions_queued`, which are instantaneous.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Connections admitted past admission control.
    pub sessions_accepted: u64,
    /// Connections refused with `RETRY_AFTER`.
    pub sessions_rejected: u64,
    /// Sessions that ended with an orderly `BYE`.
    pub sessions_completed: u64,
    /// Sessions reaped by the stall watchdog.
    pub sessions_stalled: u64,
    /// Sessions ended by protocol/trace/transport errors or abrupt
    /// disconnects.
    pub sessions_failed: u64,
    /// Sessions closed because the server was draining.
    pub sessions_drained: u64,
    /// Sessions currently being served.
    pub sessions_active: u64,
    /// Accepted sessions waiting in worker queues.
    pub sessions_queued: u64,
    /// Traces summarized across all sessions.
    pub traces_simulated: u64,
    /// Branch records simulated across all sessions.
    pub records_simulated: u64,
    /// Times attribution was shed from a session (degraded mode).
    pub attribution_shed: u64,
}

/// Encodes a [`ServerStats`] payload.
pub fn encode_stats(s: &ServerStats, out: &mut Vec<u8>) {
    out.clear();
    for v in [
        s.sessions_accepted,
        s.sessions_rejected,
        s.sessions_completed,
        s.sessions_stalled,
        s.sessions_failed,
        s.sessions_drained,
        s.sessions_active,
        s.sessions_queued,
        s.traces_simulated,
        s.records_simulated,
        s.attribution_shed,
    ] {
        put_u64(out, v);
    }
}

/// Decodes a [`ServerStats`] payload.
pub fn decode_stats(payload: &[u8], base: u64) -> Result<ServerStats, ServerError> {
    let mut r = PayloadReader::new(payload, base);
    let stats = ServerStats {
        sessions_accepted: r.u64("sessions_accepted")?,
        sessions_rejected: r.u64("sessions_rejected")?,
        sessions_completed: r.u64("sessions_completed")?,
        sessions_stalled: r.u64("sessions_stalled")?,
        sessions_failed: r.u64("sessions_failed")?,
        sessions_drained: r.u64("sessions_drained")?,
        sessions_active: r.u64("sessions_active")?,
        sessions_queued: r.u64("sessions_queued")?,
        traces_simulated: r.u64("traces_simulated")?,
        records_simulated: r.u64("records_simulated")?,
        attribution_shed: r.u64("attribution_shed")?,
    };
    r.finish("stats")?;
    Ok(stats)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).unwrap_or(u16::MAX);
    let s = &s.as_bytes()[..len as usize];
    put_u16(out, len);
    out.extend_from_slice(s);
}

/// Bounds-checked payload cursor; every failure is a
/// [`ServerError::Protocol`] carrying the session byte offset.
struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8], base: u64) -> Self {
        PayloadReader { buf, pos: 0, base }
    }

    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ServerError> {
        if self.buf.len() - self.pos < n {
            return Err(ServerError::Protocol {
                what,
                offset: self.offset(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ServerError> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, ServerError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ServerError::Protocol {
                what,
                offset: self.offset() - 1,
            }),
        }
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ServerError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ServerError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ServerError> {
        let b = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn string(&mut self, what: &'static str) -> Result<String, ServerError> {
        let len = self.u16(what)? as usize;
        let at = self.offset();
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ServerError::Protocol { what, offset: at })
    }

    /// Rejects trailing garbage: a well-formed payload is consumed
    /// exactly.
    fn finish(self, what: &'static str) -> Result<(), ServerError> {
        if self.pos != self.buf.len() {
            return Err(ServerError::Protocol {
                what,
                offset: self.offset(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_predictors::provenance::UpdateAction;

    #[test]
    fn hello_roundtrips_every_spec() {
        let specs = [
            PredictorSpec::Bimodal { index_bits: 12 },
            PredictorSpec::Gshare {
                index_bits: 14,
                history: 12,
            },
            PredictorSpec::TwoBcGskewEqual {
                index_bits: 10,
                history: 9,
            },
            PredictorSpec::TwoBcGskewEv8,
            PredictorSpec::Ev8,
            PredictorSpec::TageEv8,
        ];
        let mut buf = Vec::new();
        for spec in specs {
            for attribution in [false, true] {
                let h = Hello { spec, attribution };
                encode_hello(&h, &mut buf);
                assert_eq!(decode_hello(&buf, 0).unwrap(), h);
            }
        }
    }

    #[test]
    fn oversized_spec_requests_are_protocol_errors() {
        let mut buf = Vec::new();
        encode_hello(
            &Hello {
                spec: PredictorSpec::Bimodal {
                    index_bits: MAX_INDEX_BITS + 1,
                },
                attribution: false,
            },
            &mut buf,
        );
        let err = decode_hello(&buf, 0).expect_err("index cap must hold");
        assert!(err.to_string().contains("index width"), "{err}");

        encode_hello(
            &Hello {
                spec: PredictorSpec::Gshare {
                    index_bits: 10,
                    history: MAX_HISTORY + 1,
                },
                attribution: false,
            },
            &mut buf,
        );
        let err = decode_hello(&buf, 0).expect_err("history cap must hold");
        assert!(err.to_string().contains("history length"), "{err}");
    }

    #[test]
    fn zero_width_spec_requests_are_protocol_errors() {
        let specs = [
            PredictorSpec::Bimodal { index_bits: 0 },
            PredictorSpec::Gshare {
                index_bits: 0,
                history: 8,
            },
            PredictorSpec::TwoBcGskewEqual {
                index_bits: 0,
                history: 8,
            },
        ];
        let mut buf = Vec::new();
        for spec in specs {
            encode_hello(
                &Hello {
                    spec,
                    attribution: false,
                },
                &mut buf,
            );
            match decode_hello(&buf, 100) {
                Err(ServerError::Protocol { what, offset }) => {
                    assert!(what.contains("width of zero"), "{spec:?}: {what}");
                    // Past the spec's last field (version, flag, tag, then
                    // one or two u32s), as for the caps.
                    let fields = if matches!(spec, PredictorSpec::Bimodal { .. }) {
                        1
                    } else {
                        2
                    };
                    assert_eq!(offset, 100 + 4 + 4 * fields, "{spec:?}");
                }
                other => panic!("{spec:?}: expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_spec_builds_a_working_predictor() {
        use ev8_trace::{BranchRecord, Pc};
        let specs = [
            PredictorSpec::Bimodal { index_bits: 10 },
            PredictorSpec::Gshare {
                index_bits: 10,
                history: 8,
            },
            PredictorSpec::TwoBcGskewEqual {
                index_bits: 9,
                history: 8,
            },
            PredictorSpec::TwoBcGskewEv8,
            PredictorSpec::Ev8,
            PredictorSpec::TageEv8,
        ];
        for spec in specs {
            let mut p = spec.build();
            assert!(!p.name().is_empty());
            let rec = BranchRecord::conditional(Pc::new(0x40), Pc::new(0x80), true);
            assert!(p.predict_and_update(&rec).is_some(), "{spec:?}");
        }
    }

    #[test]
    fn summary_roundtrips_with_and_without_attribution() {
        let mut s = SessionSummary {
            result: SimResult {
                trace: "gcc".to_string(),
                predictor: "test predictor".to_string(),
                instructions: 1_000_000,
                conditional_branches: 90_000,
                mispredictions: 4_321,
            },
            attribution: None,
        };
        let mut buf = Vec::new();
        encode_summary(&s, &mut buf);
        assert_eq!(decode_summary(&buf, 0).unwrap(), s);

        let mut a = ProvenanceSummary {
            provider_bimodal: 10,
            provider_majority: 89_990,
            wrong_by_bimodal: 1,
            wrong_by_majority: 4_320,
            meta_decisive: 500,
            meta_correct: 400,
            ..ProvenanceSummary::default()
        };
        a.actions = [1, 2, 3, 90_000 - 6];
        a.bank_collisions = Some(0);
        s.attribution = Some(a);
        encode_summary(&s, &mut buf);
        assert_eq!(decode_summary(&buf, 0).unwrap(), s);
    }

    #[test]
    fn action_array_width_matches_update_action_count() {
        // The wire format hard-codes the four-action histogram; if the
        // provenance enum grows, the codec must be revved with it.
        assert_eq!(UpdateAction::COUNT, 4);
    }

    #[test]
    fn truncated_payloads_error_with_session_offsets() {
        let b = Begin {
            name: "compress".to_string(),
            instructions: 42,
        };
        let mut buf = Vec::new();
        encode_begin(&b, &mut buf);
        for cut in 0..buf.len() {
            let err = decode_begin(&buf[..cut], 100).expect_err("truncation must fail");
            match err {
                ServerError::Protocol { offset, .. } => {
                    assert!(
                        (100..=100 + buf.len() as u64).contains(&offset),
                        "offset {offset} outside payload window"
                    );
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn begin_workload_roundtrips_and_rejects_zero_scale() {
        let b = BeginWorkload {
            name: "gcc".to_string(),
            scale_ppm: 2_000,
        };
        let mut buf = Vec::new();
        encode_begin_workload(&b, &mut buf);
        assert_eq!(decode_begin_workload(&buf, 0).unwrap(), b);
        for cut in 0..buf.len() {
            assert!(decode_begin_workload(&buf[..cut], 0).is_err());
        }
        encode_begin_workload(
            &BeginWorkload {
                name: "gcc".to_string(),
                scale_ppm: 0,
            },
            &mut buf,
        );
        let err = decode_begin_workload(&buf, 0).expect_err("zero scale must fail");
        assert!(err.to_string().contains("scale"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = Vec::new();
        encode_retry_after(5, &mut buf);
        buf.push(0xEE);
        assert!(decode_retry_after(&buf, 0).is_err());
    }

    #[test]
    fn close_info_and_stats_roundtrip() {
        let c = CloseInfo {
            code: code::BUDGET,
            offset: 987,
            message: "session bytes exhausted".to_string(),
        };
        let mut buf = Vec::new();
        encode_close(&c, &mut buf);
        assert_eq!(decode_close(&buf, 0).unwrap(), c);

        let s = ServerStats {
            sessions_accepted: 1,
            sessions_rejected: 2,
            sessions_completed: 3,
            sessions_stalled: 4,
            sessions_failed: 5,
            sessions_drained: 6,
            sessions_active: 7,
            sessions_queued: 8,
            traces_simulated: 9,
            records_simulated: 10,
            attribution_shed: 11,
        };
        encode_stats(&s, &mut buf);
        assert_eq!(buf.len(), 11 * 8);
        assert_eq!(decode_stats(&buf, 0).unwrap(), s);
        // A version-1 payload carried two more counters; it is refused,
        // not silently truncated.
        buf.extend_from_slice(&[0; 2 * 8]);
        assert!(matches!(
            decode_stats(&buf, 0),
            Err(ServerError::Protocol { what: "stats", .. })
        ));
    }

    #[test]
    fn version_1_handshakes_are_refused() {
        let mut buf = Vec::new();
        encode_hello(
            &Hello {
                spec: PredictorSpec::Bimodal { index_bits: 8 },
                attribution: false,
            },
            &mut buf,
        );
        buf[..2].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_hello(&buf, 0).expect_err("version 1 hello must be refused");
        assert!(
            err.to_string().contains("unsupported protocol version"),
            "{err}"
        );

        encode_welcome(
            &Welcome {
                attribution: false,
                predictor: "bimodal".to_string(),
            },
            &mut buf,
        );
        buf[..2].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_welcome(&buf, 0).expect_err("version 1 welcome must be refused");
        assert!(
            err.to_string().contains("unsupported protocol version"),
            "{err}"
        );
    }

    #[test]
    fn invalid_utf8_name_is_a_protocol_error() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        put_u64(&mut buf, 1); // instructions
        assert!(matches!(
            decode_begin(&buf, 0),
            Err(ServerError::Protocol { .. })
        ));
    }
}
