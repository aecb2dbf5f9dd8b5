//! Prediction-as-a-service: a supervised, overload-tolerant simulation
//! server for the EV8 branch-predictor reproduction.
//!
//! The batch entry points in `ev8-sim` answer "what is this predictor's
//! misprediction rate on this trace" for a caller that holds the whole
//! trace. This crate answers the *service* form of the question:
//! long-lived clients stream wire-format branch records over TCP or
//! Unix-domain sockets, each session drives its own predictor instance
//! (any [`proto::PredictorSpec`] — bimodal, gshare, 2Bc-gskew, the full
//! EV8, TAGE), and per-trace summaries (misp/KI plus bounded
//! attribution) stream back. Session results are bit-identical to the
//! serial [`ev8_sim::simulate`] — concurrency and supervision change
//! scheduling, never predictions.
//!
//! Robustness is the design center, not an afterthought:
//!
//! * **Hostile-input hardening** — framing rides on
//!   [`ev8_trace::frame`]: per-frame size caps checked before
//!   allocation, cumulative per-session byte/record budgets, and every
//!   error carries a session byte offset.
//! * **Admission control & backpressure** — past the session cap,
//!   connections get an explicit `RETRY_AFTER` frame (seeded-jitter
//!   delay) instead of unbounded queueing.
//! * **Supervision** — per-session stall watchdogs reap slowloris
//!   clients; transient accept failures and `RETRY_AFTER` answers back
//!   off exponentially from [`ServerConfig::retry_backoff`] with
//!   fixed-seed jitter; the stats frame reports the session counters.
//! * **Degraded mode** — under load the server sheds attribution
//!   (observability) before predictions.
//! * **Graceful drain** — shutdown stops accepting, closes queued
//!   sessions, time-boxes in-flight ones, and every close is a
//!   machine-readable `CLOSED{code, offset, message}` frame.
//!
//! # Example
//!
//! ```
//! use std::thread;
//! use ev8_predictors::gshare::Gshare;
//! use ev8_server::proto::PredictorSpec;
//! use ev8_server::{Client, Server, ServerConfig};
//! use ev8_sim::simulate;
//! use ev8_workloads::spec95;
//!
//! let sock = std::env::temp_dir().join(format!("ev8-doc-{}.sock", std::process::id()));
//! let mut server = Server::new(ServerConfig::default());
//! server.bind_unix(&sock).unwrap();
//! let handle = server.handle();
//! let join = thread::spawn(move || server.serve());
//!
//! let trace = spec95::benchmark("compress").unwrap().generate_scaled(0.001);
//! let spec = PredictorSpec::Gshare { index_bits: 12, history: 10 };
//! let mut client = Client::connect_unix(&sock, spec, false).unwrap();
//! let summary = client.run_trace(&trace, 1024).unwrap();
//! client.bye().unwrap();
//!
//! // Bit-identical to serial simulation.
//! assert_eq!(summary.result, simulate(Gshare::new(12, 10), &trace));
//!
//! handle.shutdown();
//! let stats = join.join().unwrap();
//! assert_eq!(stats.sessions_completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod error;
pub mod proto;
pub mod server;

pub use client::Client;
pub use error::ServerError;
pub use proto::{PredictorSpec, ServerStats};
pub use server::{Server, ServerConfig, ServerHandle};
