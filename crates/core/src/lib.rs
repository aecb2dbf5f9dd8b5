//! The Alpha EV8 conditional branch predictor, with all of the paper's
//! implementation constraints.
//!
//! While `ev8-predictors` implements the abstract prediction *schemes*,
//! this crate implements the **EV8 predictor as it would have shipped**
//! (and the constrained variants the paper ablates in §8):
//!
//! * [`fetch`] — the EV8 front end's fetch-block formation: a block is up
//!   to 8 instructions, ending at an aligned 8-instruction boundary or a
//!   taken control transfer (§2).
//! * [`lghist`] — block-compressed history: one bit per fetch block, the
//!   outcome of the block's last conditional branch XORed with PC bit 4 of
//!   that branch, delivered **three fetch blocks late** (§5.1).
//! * [`banks`] — the conflict-free 4-way bank interleaving: a two-block-
//!   ahead bank number computation guarantees two dynamically successive
//!   fetch blocks never touch the same single-ported bank (§6).
//! * [`index`] — the engineered index functions: 8 shared unhashed bits
//!   (bank + wordline), single-XOR column bits, and the wide-XOR
//!   "unshuffle" permutation, exactly as §7 specifies (the predictor
//!   evaluates all four as one tabulated XOR map of those equations),
//!   plus the address-only / no-path / complete-hash variants of Fig 9.
//! * [`predictor`] — the assembled [`Ev8Predictor`]: Table 1 geometry
//!   (BIM 16K/16K h4, G0 64K/32K h13, G1 64K/64K h21, Meta 64K/32K h15 —
//!   352 Kbits), the §4.2 partial update policy, and configurable
//!   information-vector/indexing modes for the Fig 7-9 experiments. The
//!   tables, their read and the §4.2 update are
//!   `ev8_predictors::twobcgskew::Tables`, the same body the scheme-level
//!   2Bc-gskew runs; this crate adds the per-thread front end that
//!   indexes them. `Tables` is the one model of the predictor's storage
//!   (its split arrays sum to 352 Kbit; the §7.1 word-line layout is not
//!   modelled apart from it), and [`Ev8Predictor::bank_collisions`]
//!   checks the §6 single-port guarantee on every run.
//! * [`line_predictor`] — the simple line predictor that feeds the PC
//!   address generator (§2), as a front-end substrate.
//! * [`ras`] — the return-address stack of the §2 PC address generator.
//! * [`smt`] — simultaneous multithreading support: one shared table set
//!   and one [`Ev8Predictor`] front end per thread context (§3).
//! * [`observe`] — the EV8 predictor's side of the opt-in
//!   [`observe::ObservedPredictor`] hook (the trait itself and the
//!   unified `ConditionalBranchPredictor` capability bundle live in
//!   `ev8_predictors::observe`): a state-identical observed step
//!   returning per-branch [`Provenance`] (votes, chooser decision, §4.2
//!   update action, serving bank) plus the §6 bank-collision invariant
//!   counter.
//!
//! [`Provenance`]: ev8_predictors::provenance::Provenance
//! * [`backup`] — the §9 future-work proposal: a late, confidence-gated
//!   perceptron backing up the EV8 predictor.
//!
//! # Example
//!
//! ```
//! use ev8_core::predictor::Ev8Predictor;
//! use ev8_predictors::BranchPredictor;
//! use ev8_trace::{BranchRecord, Pc};
//!
//! let mut p = Ev8Predictor::ev8();
//! assert_eq!(p.storage_bits(), 352 * 1024);
//! let rec = BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2000), true);
//! let _prediction = p.predict(rec.pc);
//! p.update_record(&rec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod banks;
pub mod config;
pub mod fetch;
pub mod index;
pub mod lghist;
pub mod line_predictor;
pub mod observe;
pub mod predictor;
pub mod ras;
pub mod smt;

pub use config::{Ev8Config, HistoryMode, IndexScheme, WordlineMode};
pub use predictor::Ev8Predictor;
