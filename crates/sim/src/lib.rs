//! Trace-driven simulation harness and the paper's experiments.
//!
//! The paper's methodology (§8.1.1): "Trace driven branch simulations with
//! immediate update were used to explore the design space ... The metric
//! used to report the results is mispredictions per 1000 instructions
//! (misp/KI)."
//!
//! * [`simulator`] — the one simulation loop, [`drive`]`(predictor,
//!   source, hook)`: any record [`Source`] (packed flat trace, a range of
//!   one, AoS trace, a streaming corpus decode, a record chunk) with any
//!   per-record [`Hook`] ([`Plain`] immediate update, a fault injector,
//!   an [`observe::Observer`], [`StaleCommit`] delayed update). It
//!   returns the run's [`Tally`]; [`simulate_flat`] is `drive` with the
//!   plain hook over the packed trace the trace cache holds, and
//!   [`simulate`] the same over an AoS trace (the serial slow twin the
//!   golden and equivalence tests pin the fast paths against). Every
//!   scoreboard in this crate counts through it, except
//!   [`simulate_many`]'s K-way loop, which takes the same plain step per
//!   configuration.
//! * [`batch`] — the sweep engine: [`simulate_many`] steps K predictor
//!   configurations per record in one pass over a packed
//!   [`ev8_trace::FlatTrace`], bit-identical to K serial [`simulate`]
//!   calls; [`simulate_flat`] is `drive` over the flat trace;
//!   [`simulate_gshare_sweep`] runs a gshare history sweep on the
//!   transposed engine.
//! * [`observe`] — the opt-in observability layer: every
//!   [`observe::Observer`] is a hook, fed per-branch provenance for
//!   attribution counters, runtime invariant checks (§6 bank
//!   collisions, exact count reconciliation) and an optional JSONL event
//!   stream.
//! * [`sampling`] — SimPoint-style weighted phase sampling:
//!   [`simulate_sampled`] profiles per-interval branch-behaviour
//!   vectors in one streaming pass, clusters them with a deterministic
//!   in-tree k-means, drives one warm representative per phase and
//!   returns a population-weighted estimate with the |sampled − full|
//!   misp/KI delta recorded next to every number.
//! * [`session`] — [`SessionSim`], the streaming per-session driver the
//!   prediction server feeds record by record.
//! * [`metrics`] — [`Tally`] and [`SimResult`] with misp/KI,
//!   accuracy and counts.
//! * [`sweep`] — the one job runner, [`sweep::run_parallel`]: jobs fan
//!   out over `std::thread::scope` worker threads, results come back in
//!   job order, and a panicking job re-raises its own payload after the
//!   queue drains.
//! * [`report`] — aligned text tables for experiment output.
//! * [`experiments`] — one module per table/figure of the paper's
//!   evaluation (Tables 1-3, Figures 5-10), each regenerating the paper's
//!   rows/series on the synthetic SPECINT95 suite, every one over the
//!   cached packed traces.
//!
//! # Example
//!
//! ```
//! use ev8_predictors::gshare::Gshare;
//! use ev8_sim::simulator::simulate;
//! use ev8_workloads::spec95;
//!
//! let trace = spec95::benchmark("compress").unwrap().generate_scaled(0.001);
//! let result = simulate(Gshare::new(14, 14), &trace);
//! assert!(result.misp_per_ki() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod experiments;
pub mod metrics;
pub mod observe;
pub mod report;
pub mod sampling;
pub mod session;
pub mod simulator;
pub mod sweep;

pub use batch::{simulate_flat, simulate_gshare_sweep, simulate_many};
pub use metrics::{SimResult, Tally};
pub use sampling::{
    cluster_intervals, profile_intervals, simulate_sampled, validate_sampled, AgeCurve, Interval,
    Phase, SampledRun, SampledVsFull, SamplingConfig, TailSample,
};
pub use session::{ProvenanceSummary, SessionSim, SessionSummary};
pub use simulator::{drive, simulate, Hook, Plain, Source, StaleCommit};
