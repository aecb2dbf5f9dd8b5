//! # EV8 branch predictor reproduction — umbrella crate
//!
//! A full reproduction of *"Design Tradeoffs for the Alpha EV8
//! Conditional Branch Predictor"* (Seznec, Felix, Krishnan, Sazeides —
//! ISCA 2002) as a Rust workspace. This crate re-exports the workspace
//! members and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! | Crate | Contents |
//! |---|---|
//! | [`trace`] | branch records, traces, statistics, the on-disk corpus format, session framing |
//! | [`workloads`] | synthetic SPECINT95 suite and workload generators |
//! | [`predictors`] | the predictor framework and every baseline scheme |
//! | [`core`] | the EV8 predictor with all hardware constraints |
//! | [`sim`] | trace-driven simulators, sweeps, and the paper's experiments |
//!
//! # Quickstart
//!
//! ```
//! use ev8_repro::core::Ev8Predictor;
//! use ev8_repro::predictors::BranchPredictor;
//! use ev8_repro::sim::simulate;
//! use ev8_repro::workloads::spec95;
//!
//! let trace = spec95::benchmark("compress").unwrap().generate_scaled(0.001);
//! let result = simulate(Ev8Predictor::ev8(), &trace);
//! println!("{result}");
//! assert!(result.accuracy() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ev8_core as core;
pub use ev8_predictors as predictors;
pub use ev8_sim as sim;
pub use ev8_trace as trace;
pub use ev8_workloads as workloads;
