//! Branch trace representation and I/O for the Alpha EV8 branch predictor
//! reproduction.
//!
//! The paper ("Design Tradeoffs for the Alpha EV8 Conditional Branch
//! Predictor", ISCA 2002) evaluates predictors with *trace-driven simulation
//! with immediate update* over SPECINT95 traces. This crate provides the
//! trace substrate:
//!
//! * [`Pc`], [`BranchKind`], [`Outcome`] and [`BranchRecord`] — the
//!   vocabulary types describing one dynamic branch.
//! * [`Trace`] — an in-memory dynamic branch stream together with the total
//!   instruction count (needed for the paper's misp/KI metric).
//! * [`FlatTrace`] — a packed structure-of-arrays view of a [`Trace`] for
//!   cache-dense simulation sweeps (see the [`flat`](FlatTrace) module).
//! * [`stats`] — trace statistics (static/dynamic branch counts, bias
//!   profiles) used to regenerate Table 2 of the paper.
//! * [`frame`] — length-prefixed session framing with per-frame size
//!   caps and cumulative per-session [`SessionBudget`]s, the hardened
//!   substrate of the prediction-as-a-service protocol.
//! * [`corpus`] — the on-disk trace format: a chunked, compressed,
//!   checksummed container whose [`corpus::CorpusReader`] streams
//!   chunk-by-chunk into packed [`FlatTrace`] blocks, never
//!   materializing the AoS representation.
//!
//! Corpus chunks and session `RECORDS` payloads carry records in one
//! delta/varint wire encoding, so a trace has one file format and one
//! record parser.
//!
//! # Example
//!
//! ```
//! use ev8_trace::{BranchKind, BranchRecord, Pc, Trace, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("tiny");
//! b.run(3); // three non-branch instructions
//! b.branch(BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2000), true));
//! let trace: Trace = b.finish();
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.instruction_count(), 4); // 3 + the branch itself
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod corpus;
mod error;
mod flat;
pub mod frame;
mod lz;
pub mod stats;
mod trace;
mod types;
mod wire;

pub use builder::TraceBuilder;
pub use error::TraceError;
pub use flat::{FlatIter, FlatTrace, FlatTraceBuilder};
pub use stats::TraceStats;
pub use trace::{Iter, Trace};
pub use types::{BranchKind, BranchRecord, Outcome, Pc};
pub use wire::{SessionBudget, DEFAULT_FRAME_CAP};
