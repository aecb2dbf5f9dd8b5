//! Deterministic fault injection for the EV8 reproduction.
//!
//! The EV8's conditional branch predictor is 352 Kbit of single-ported
//! RAM — exactly the structure soft errors hit in silicon. Predictor
//! state is purely speculative, so a corrupted cell can never produce
//! incorrect execution, only extra mispredictions: the right robustness
//! metric is *misprediction rate under fault rate*, and the paper's own
//! mechanisms (2-bit hysteresis, shared half-size hysteresis arrays in
//! §4.3-4.4, partial update in §4.2) should make that curve degrade
//! gracefully. This crate provides the machinery to demonstrate it:
//!
//! * [`plan`] — the fault taxonomy: [`FaultKind`] (SEU bit flip,
//!   stuck-at-0/1, 64-bit word burst), [`ArraySelector`] (which named
//!   arrays a plan targets), and [`FaultPlan`] (kind + target + per-branch
//!   rate + seed).
//! * [`inject`] — [`FaultInjector`], which walks any
//!   [`FaultTarget`](ev8_predictors::introspect::FaultTarget) and injects
//!   faults deterministically from the in-tree xoshiro256\*\* stream,
//!   keeping a per-array [`FaultLog`].
//! * [`fuzz`] — a seeded byte-corruption fuzzer ([`fuzz::corrupt`]) and
//!   a decode harness ([`fuzz::decode_check`]) asserting the session
//!   `RECORDS` decoder, the one record parser with no CRC in front of
//!   it, turns arbitrary mutations into structured `TraceError`s — never
//!   panics, never count-field-driven allocations.
//!
//! Everything is a pure function of its seed: a failing fault sweep or
//! fuzz case replays from one `u64`.
//!
//! # Example
//!
//! ```
//! use ev8_faults::{FaultInjector, FaultPlan};
//! use ev8_predictors::bitvec::Counter2Table;
//!
//! let mut table = Counter2Table::new(10);
//! let plan = FaultPlan::seu(1.0).with_seed(42); // one SEU per step
//! let mut injector = FaultInjector::new(plan, &table);
//! for _ in 0..100 {
//!     injector.step(&mut table);
//! }
//! assert_eq!(injector.log().injected(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod inject;
pub mod plan;

pub use inject::{FaultInjector, FaultLog};
pub use plan::{ArraySelector, FaultKind, FaultPlan};
