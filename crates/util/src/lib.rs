//! Zero-dependency support library for the EV8 reproduction workspace.
//!
//! Branch-predictor evaluation lives and dies on bit-exact, reproducible
//! simulation, and the workspace must build and test **hermetically** —
//! no network, no registry cache, no external crates. This crate provides
//! the small, purpose-built replacements for what external crates used to
//! supply:
//!
//! * [`rng`] — a seeded SplitMix64 / xoshiro256\*\* random number
//!   generator with a minimal [`rng::Rng`] trait (replaces `rand`).
//! * [`bytebuf`] — a growable little-endian byte writer (replaces
//!   `bytes`).
//! * [`json`] — a minimal write-only JSON writer and [`json::ToJson`]
//!   trait (replaces `serde` for the workspace's export needs).
//! * [`prop`] — a deterministic property-testing mini-harness with seeded
//!   case generation, shrinking-lite and failure-seed reporting (replaces
//!   `proptest`).
//! * [`crc`] — table-driven CRC-32 (IEEE) checksums for the on-disk
//!   corpus format (replaces `crc32fast`).
//!
//! Everything here is plain `std`; the crate forbids `unsafe` and has no
//! dependencies, so `cargo build`/`test`/`bench` succeed with the network
//! disabled and an empty cargo registry. (`criterion`'s replacement, the
//! benches' timing and recording, is `ev8_bench::measure`.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytebuf;
pub mod crc;
pub mod json;
pub mod prop;
pub mod rng;
