//! Trace statistics, used to regenerate Table 2 of the paper
//! (benchmark characteristics: dynamic and static conditional branches).

use std::collections::HashMap;
use std::fmt;

use crate::flat::FlatTrace;
use crate::types::{BranchKind, Pc};

/// Per-static-branch dynamic behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticBranchStats {
    /// Dynamic executions of this static branch.
    pub executions: u64,
    /// How many of those executions were taken.
    pub taken: u64,
}

impl StaticBranchStats {
    /// Fraction of executions that were taken, in `[0, 1]`.
    /// Returns 0 for a branch that never executed.
    pub fn taken_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.taken as f64 / self.executions as f64
        }
    }

    /// Bias strength: distance of the taken rate from 0.5, doubled, in
    /// `[0, 1]`. 1.0 means perfectly biased (always or never taken).
    pub fn bias(&self) -> f64 {
        (self.taken_rate() - 0.5).abs() * 2.0
    }
}

/// Aggregate statistics over a [`FlatTrace`].
///
/// # Example
///
/// ```
/// use ev8_trace::{BranchRecord, FlatTrace, Pc, TraceBuilder, TraceStats};
///
/// let mut b = TraceBuilder::new("t");
/// b.branch(BranchRecord::conditional(Pc::new(0x10), Pc::new(0x40), true));
/// b.branch(BranchRecord::conditional(Pc::new(0x10), Pc::new(0x40), false));
/// let stats = TraceStats::from_trace(&FlatTrace::from_trace(&b.finish()));
/// assert_eq!(stats.static_conditional, 1);
/// assert_eq!(stats.dynamic_conditional, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Dynamic conditional branches.
    pub dynamic_conditional: u64,
    /// Distinct static conditional branch sites.
    pub static_conditional: u64,
    /// Dynamic taken conditional branches.
    pub dynamic_taken: u64,
    /// Dynamic counts per branch kind.
    pub per_kind: HashMap<BranchKind, u64>,
    /// Per-static-conditional-branch behaviour, keyed by PC.
    pub per_branch: HashMap<Pc, StaticBranchStats>,
}

impl TraceStats {
    /// Computes statistics over a trace in one pass.
    pub fn from_trace(trace: &FlatTrace) -> Self {
        let mut stats = TraceStats {
            name: trace.name().to_owned(),
            instructions: trace.instruction_count(),
            ..TraceStats::default()
        };
        trace.for_each(|rec| {
            *stats.per_kind.entry(rec.kind).or_insert(0) += 1;
            if rec.kind.is_conditional() {
                stats.dynamic_conditional += 1;
                if rec.is_taken() {
                    stats.dynamic_taken += 1;
                }
                let entry = stats.per_branch.entry(rec.pc).or_default();
                entry.executions += 1;
                if rec.is_taken() {
                    entry.taken += 1;
                }
            }
        });
        stats.static_conditional = stats.per_branch.len() as u64;
        stats
    }

    /// Dynamic taken rate over all conditional branches.
    pub fn taken_rate(&self) -> f64 {
        if self.dynamic_conditional == 0 {
            0.0
        } else {
            self.dynamic_taken as f64 / self.dynamic_conditional as f64
        }
    }

    /// Fraction of static conditional branches whose bias exceeds
    /// `threshold` (e.g. 0.9 for "strongly biased").
    pub fn strongly_biased_fraction(&self, threshold: f64) -> f64 {
        if self.per_branch.is_empty() {
            return 0.0;
        }
        let biased = self
            .per_branch
            .values()
            .filter(|s| s.bias() >= threshold)
            .count();
        biased as f64 / self.per_branch.len() as f64
    }

    /// Conditional branches per 1000 instructions.
    pub fn branch_density(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.dynamic_conditional as f64 * 1000.0 / self.instructions as f64
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} instr, {} dyn cond ({} static), taken rate {:.3}",
            self.name,
            self.instructions,
            self.dynamic_conditional,
            self.static_conditional,
            self.taken_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::types::BranchRecord;

    fn trace_with_pattern() -> FlatTrace {
        let mut b = TraceBuilder::new("stats");
        // Branch A at 0x100: taken 8 of 10 (bias 0.6).
        for i in 0..10 {
            b.run(9);
            b.branch(BranchRecord::conditional(
                Pc::new(0x100),
                Pc::new(0x80),
                i < 8,
            ));
        }
        // Branch B at 0x200: always taken (bias 1.0).
        for _ in 0..5 {
            b.branch(BranchRecord::conditional(
                Pc::new(0x200),
                Pc::new(0x180),
                true,
            ));
        }
        // A call, which is not a conditional branch.
        b.branch(BranchRecord::always_taken(
            Pc::new(0x300),
            Pc::new(0x400),
            BranchKind::Call,
        ));
        FlatTrace::from_trace(&b.finish())
    }

    #[test]
    fn aggregate_counts() {
        let s = TraceStats::from_trace(&trace_with_pattern());
        assert_eq!(s.dynamic_conditional, 15);
        assert_eq!(s.static_conditional, 2);
        assert_eq!(s.dynamic_taken, 13);
        assert_eq!(s.per_kind[&BranchKind::Call], 1);
        assert_eq!(s.instructions, 10 * 10 + 5 + 1);
        assert!((s.taken_rate() - 13.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn per_branch_bias() {
        let s = TraceStats::from_trace(&trace_with_pattern());
        let a = &s.per_branch[&Pc::new(0x100)];
        assert_eq!(a.executions, 10);
        assert_eq!(a.taken, 8);
        assert!((a.taken_rate() - 0.8).abs() < 1e-12);
        assert!((a.bias() - 0.6).abs() < 1e-12);
        let b = &s.per_branch[&Pc::new(0x200)];
        assert!((b.bias() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strongly_biased_fraction_thresholds() {
        let s = TraceStats::from_trace(&trace_with_pattern());
        // Only branch B (bias 1.0) clears a 0.9 threshold.
        assert!((s.strongly_biased_fraction(0.9) - 0.5).abs() < 1e-12);
        // Both clear 0.5.
        assert!((s.strongly_biased_fraction(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branch_density() {
        let s = TraceStats::from_trace(&trace_with_pattern());
        let expected = 15.0 * 1000.0 / 106.0;
        assert!((s.branch_density() - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let s = TraceStats::from_trace(&FlatTrace::default());
        assert_eq!(s.dynamic_conditional, 0);
        assert_eq!(s.static_conditional, 0);
        assert_eq!(s.taken_rate(), 0.0);
        assert_eq!(s.branch_density(), 0.0);
        assert_eq!(s.strongly_biased_fraction(0.9), 0.0);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn default_static_branch_stats() {
        let s = StaticBranchStats::default();
        assert_eq!(s.taken_rate(), 0.0);
        assert_eq!(s.bias(), 1.0); // rate 0 is perfectly biased not-taken
    }
}
