//! Synthetic branch workload generation for the Alpha EV8 reproduction.
//!
//! The paper evaluates on Atom-collected SPECINT95 traces (100M
//! instructions per benchmark, Table 2). Those traces are unobtainable;
//! this crate builds the closest synthetic equivalent:
//!
//! * [`behavior`] — per-branch behaviour archetypes (biased, loop,
//!   local-pattern, globally correlated, random) that span the axes branch
//!   predictors are sensitive to.
//! * [`zipf`] — a Zipf-like hotness distribution so a few static branches
//!   dominate the dynamic stream, as in real programs.
//! * [`program`] — [`ProgramSpec`] /
//!   `generate`: composes archetypes into a static
//!   branch population with realistic PC layout, call/return structure and
//!   a seeded, reproducible dynamic walk.
//! * [`spec95`] — one calibrated spec per SPECINT95 benchmark of Table 2
//!   (compress, gcc, go, ijpeg, li, m88ksim, perl, vortex), reproducing
//!   each benchmark's static footprint, branch density and predictability
//!   class.
//! * [`cache`] — a process-wide memoized trace provider
//!   ([`cache::TraceCache`]): generation is deterministic, so tests and
//!   experiments fetch one shared packed `Arc<FlatTrace>` per
//!   (benchmark, scale) via [`spec95::cached`] / [`h2p::cached`] instead
//!   of regenerating the same trace at every call site. Code that needs
//!   the AoS `Trace` calls [`ProgramSpec::generate_scaled`].
//! * [`h2p`] — hard-to-predict workload analogues built from the H2P
//!   archetypes (data-dependent, input-entropy, timing-jitter branches)
//!   of the Constantinou/Perais/Sazeides taxonomy, plus ground-truth
//!   site classification helpers for misprediction attribution.
//! * [`corpus`] — a [`corpus::CorpusStore`] catalogs compressed on-disk
//!   corpus files (the `ev8_trace::corpus` container) keyed by the full
//!   generator identity; the `corpus` CLI builds stores, and the
//!   prediction server streams cataloged workloads from them by name.
//!
//! What the substitution preserves (and what it does not): the experiments
//! in the paper measure *relative* predictor quality driven by aliasing
//! pressure (static footprint), history correlation depth, and bias skew.
//! The generators expose exactly those axes, so predictor *orderings* and
//! *trends* are reproducible; absolute misp/KI values are not expected to
//! match the original traces.
//!
//! # Example
//!
//! ```
//! use ev8_workloads::spec95;
//!
//! // A 1-million-instruction version of the `compress` analogue.
//! let trace = spec95::benchmark("compress").unwrap().generate_scaled(0.01);
//! assert!(trace.conditional_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod cache;
pub mod corpus;
pub mod h2p;
pub mod program;
pub mod spec95;
pub mod zipf;

pub use program::{BehaviorMix, H2pMix, ProgramSpec};
