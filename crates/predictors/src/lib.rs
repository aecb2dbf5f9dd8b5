//! Conditional branch predictor framework and baseline predictors for the
//! Alpha EV8 reproduction.
//!
//! This crate implements the prediction *schemes* the paper evaluates and
//! compares (Figures 5-6), free of the EV8's physical implementation
//! constraints (those live in `ev8-core`):
//!
//! | Module | Scheme | Paper role |
//! |---|---|---|
//! | [`bimodal`] | Smith's PC-indexed 2-bit counters | component / baseline |
//! | [`gshare`] | McFarling's gshare | Fig 5 competitor (2 Mbit, 1M entries) |
//! | [`egskew`] | enhanced skewed predictor (3 banks, majority) | 2Bc-gskew component, `aliasing` study |
//! | [`twobcgskew`] | the full 2Bc-gskew design space of §4 | the EV8 scheme |
//! | [`bimode`] | Lee/Chen/Mudge bi-mode | Fig 5 competitor (544 Kbit) |
//! | [`yags`] | Eden/Mudge YAGS | Fig 5 competitor (288/576 Kbit) |
//! | [`perceptron`] | Jiménez/Lin perceptron | §9 future-work pointer |
//! | [`tage`] | Seznec/Michaud TAGE at the EV8 budget | next-generation shootout |
//!
//! Shared infrastructure: [`SaturatingCounter`](counter::SaturatingCounter),
//! [`GlobalHistory`](history::GlobalHistory), the Seznec-Bodin skewing
//! function family ([`skew`]), the bit-packed table storage ([`bitvec`],
//! [`table`]), and the [`BranchPredictor`] trait all predictors implement.
//!
//! # Example
//!
//! ```
//! use ev8_predictors::{BranchPredictor, gshare::Gshare};
//! use ev8_trace::{Outcome, Pc};
//!
//! let mut p = Gshare::new(12, 12); // 4K entries, 12 bits of history
//! let pc = Pc::new(0x1000);
//! for _ in 0..32 {
//!     let predicted = p.predict(pc);
//!     p.update(pc, Outcome::Taken);
//!     let _ = predicted;
//! }
//! assert_eq!(p.predict(pc), Outcome::Taken); // learned the bias
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bimodal;
pub mod bimode;
pub mod bitvec;
pub mod counter;
pub mod egskew;
pub mod gshare;
pub mod history;
pub mod introspect;
pub mod linear;
pub mod observe;
pub mod perceptron;
mod predictor;
pub mod provenance;
pub mod skew;
pub mod table;
pub mod tage;
pub mod twobcgskew;
pub mod yags;

pub use observe::{ConditionalBranchPredictor, ObservedPredictor};
pub use predictor::{AlwaysNotTaken, AlwaysTaken, BranchPredictor};
