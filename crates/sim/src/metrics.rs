//! Simulation result metrics.

use std::fmt;
use std::ops::AddAssign;

use ev8_trace::Outcome;
use ev8_util::json::{JsonObject, ToJson};

/// A run's scoreboard: conditional branches predicted and how many of
/// those predictions were wrong. Every simulation loop counts through
/// [`Tally::score`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Dynamic conditional branches predicted.
    pub conditional_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
}

impl Tally {
    /// Counts one conditional branch, and a misprediction when
    /// `prediction` differs from the resolved `outcome` (branchless).
    #[inline(always)]
    pub fn score(&mut self, prediction: Outcome, outcome: Outcome) {
        self.conditional_branches += 1;
        self.mispredictions += u64::from(prediction != outcome);
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.conditional_branches += other.conditional_branches;
        self.mispredictions += other.mispredictions;
    }
}

/// The outcome of one predictor-over-trace simulation run.
///
/// The paper's headline metric is [`SimResult::misp_per_ki`]:
/// mispredictions per 1000 instructions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Trace (benchmark) name.
    pub trace: String,
    /// Predictor name (including configuration).
    pub predictor: String,
    /// Total dynamic instructions in the run.
    pub instructions: u64,
    /// Dynamic conditional branches predicted.
    pub conditional_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
}

impl SimResult {
    /// The result of one whole-trace run: the source's name and
    /// instruction count, the predictor's name, and the run's [`Tally`].
    pub fn new(trace: &str, instructions: u64, predictor: String, tally: Tally) -> Self {
        SimResult {
            trace: trace.to_owned(),
            predictor,
            instructions,
            conditional_branches: tally.conditional_branches,
            mispredictions: tally.mispredictions,
        }
    }

    /// Mispredictions per 1000 instructions — the paper's metric.
    ///
    /// An empty run (zero instructions) has no meaningful rate; asking for
    /// one almost always means a trace failed to generate or a scale
    /// rounded to nothing, so debug builds panic to surface the bug.
    /// Release builds return 0.0 (the historical behavior). Callers that
    /// can legitimately see empty runs should use
    /// [`SimResult::checked_misp_per_ki`].
    pub fn misp_per_ki(&self) -> f64 {
        debug_assert!(
            self.instructions > 0,
            "misp_per_ki on an empty run (no instructions) — \
             was the trace empty or the scale rounded to zero?"
        );
        self.checked_misp_per_ki().unwrap_or(0.0)
    }

    /// Mispredictions per 1000 instructions, or `None` for an empty run
    /// (zero instructions) where the rate is undefined.
    pub fn checked_misp_per_ki(&self) -> Option<f64> {
        if self.instructions == 0 {
            None
        } else {
            Some(self.mispredictions as f64 * 1000.0 / self.instructions as f64)
        }
    }

    /// Fraction of conditional branches predicted correctly.
    pub fn accuracy(&self) -> f64 {
        if self.conditional_branches == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.conditional_branches as f64
        }
    }

    /// Misprediction rate over conditional branches.
    pub fn misprediction_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }
}

impl ToJson for SimResult {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::new();
        o.field("trace", &self.trace)
            .field("predictor", &self.predictor)
            .field("instructions", &self.instructions)
            .field("conditional_branches", &self.conditional_branches)
            .field("mispredictions", &self.mispredictions)
            .field("misp_per_ki", &self.checked_misp_per_ki());
        o.finish_into(out);
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display must never panic, so it reports an empty run honestly
        // instead of going through the asserting accessor.
        let mispki = match self.checked_misp_per_ki() {
            Some(v) => format!("{v:.3}"),
            None => "n/a (empty run)".to_owned(),
        };
        write!(
            f,
            "{} / {}: {} misp/KI ({:.2}% accuracy, {} mispredictions / {} branches)",
            self.trace,
            self.predictor,
            mispki,
            self.accuracy() * 100.0,
            self.mispredictions,
            self.conditional_branches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_arithmetic() {
        let r = SimResult {
            trace: "t".into(),
            predictor: "p".into(),
            instructions: 100_000,
            conditional_branches: 12_000,
            mispredictions: 600,
        };
        assert!((r.misp_per_ki() - 6.0).abs() < 1e-12);
        assert!((r.accuracy() - 0.95).abs() < 1e-12);
        assert!((r.misprediction_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn json_includes_derived_metric() {
        let r = SimResult {
            trace: "t".into(),
            predictor: "p".into(),
            instructions: 100_000,
            conditional_branches: 12_000,
            mispredictions: 600,
        };
        assert_eq!(
            r.to_json(),
            r#"{"trace":"t","predictor":"p","instructions":100000,"conditional_branches":12000,"mispredictions":600,"misp_per_ki":6}"#
        );
    }

    #[test]
    fn empty_run_is_detectable() {
        let r = SimResult::default();
        assert_eq!(r.checked_misp_per_ki(), None);
        assert_eq!(r.accuracy(), 1.0);
        // Display and JSON stay total: no panic, explicit markers.
        assert!(r.to_string().contains("n/a (empty run)"));
        assert!(r.to_json().contains(r#""misp_per_ki":null"#));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty run")]
    fn empty_run_misp_per_ki_panics_in_debug() {
        let _ = SimResult::default().misp_per_ki();
    }
}
