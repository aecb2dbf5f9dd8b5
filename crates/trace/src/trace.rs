//! The in-memory dynamic branch trace.

use std::fmt;
use std::slice;

use ev8_util::json::{JsonObject, ToJson};

use crate::types::{BranchKind, BranchRecord};

/// An in-memory dynamic branch trace.
///
/// A trace is the sequence of control-transfer instructions a program
/// executed, in order, together with the number of ordinary instructions
/// between them (each record's `gap`). The total instruction count — needed
/// for the paper's *mispredictions per 1000 instructions* metric — is the
/// number of records plus the sum of all gaps.
///
/// Traces are usually produced by [`crate::TraceBuilder`] or by the
/// generators in the `ev8-workloads` crate, and consumed by the simulators
/// in `ev8-sim`.
///
/// # Example
///
/// ```
/// use ev8_trace::{BranchRecord, Pc, Trace, TraceBuilder};
///
/// let mut b = TraceBuilder::new("demo");
/// b.run(9);
/// b.branch(BranchRecord::conditional(Pc::new(0x1024), Pc::new(0x1000), true));
/// let t = b.finish();
/// assert_eq!(t.instruction_count(), 10);
/// assert_eq!(t.conditional_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    name: String,
    records: Vec<BranchRecord>,
    instruction_count: u64,
}

impl Trace {
    /// Creates a trace from parts.
    ///
    /// `instruction_count` must equal the number of records plus the sum of
    /// their gaps; [`crate::TraceBuilder`] maintains this automatically.
    ///
    /// # Panics
    ///
    /// Panics if `instruction_count` is inconsistent with the records.
    pub fn from_parts(
        name: impl Into<String>,
        records: Vec<BranchRecord>,
        instruction_count: u64,
    ) -> Self {
        let expected = records.len() as u64 + records.iter().map(|r| r.gap as u64).sum::<u64>();
        assert_eq!(
            instruction_count, expected,
            "instruction_count must equal records + gaps"
        );
        Trace {
            name: name.into(),
            records,
            instruction_count,
        }
    }

    /// The trace's name (benchmark identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dynamic control-transfer records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of dynamic instructions (branches + gaps).
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }

    /// Number of dynamic conditional branches.
    pub fn conditional_count(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind.is_conditional())
            .count() as u64
    }

    /// Number of dynamic records of a particular kind.
    pub fn count_of_kind(&self, kind: BranchKind) -> u64 {
        self.records.iter().filter(|r| r.kind == kind).count() as u64
    }

    /// The records as a slice.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Iterates over the records.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: self.records.iter(),
        }
    }

    /// Returns a new trace containing only the first `n` records (instruction
    /// count adjusted accordingly). Useful for fast test runs.
    pub fn truncated(&self, n: usize) -> Trace {
        let records: Vec<BranchRecord> = self.records.iter().take(n).copied().collect();
        let instruction_count =
            records.len() as u64 + records.iter().map(|r| r.gap as u64).sum::<u64>();
        Trace {
            name: self.name.clone(),
            records,
            instruction_count,
        }
    }
}

impl ToJson for Trace {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::new();
        o.field("name", &self.name)
            .field("instruction_count", &self.instruction_count)
            .field("records", &self.records);
        o.finish_into(out);
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace {:?}: {} branches, {} instructions",
            self.name,
            self.records.len(),
            self.instruction_count
        )
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the records of a [`Trace`], created by [`Trace::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    inner: slice::Iter<'a, BranchRecord>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a BranchRecord;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BranchKind, Pc};

    fn sample() -> Trace {
        let records = vec![
            BranchRecord::conditional(Pc::new(0x100), Pc::new(0x200), true).with_gap(3),
            BranchRecord::conditional(Pc::new(0x200), Pc::new(0x100), false).with_gap(2),
            BranchRecord::always_taken(Pc::new(0x210), Pc::new(0x400), BranchKind::Call)
                .with_gap(3),
        ];
        Trace::from_parts("sample", records, 11)
    }

    #[test]
    fn json_form_is_stable() {
        let t = Trace::from_parts(
            "j",
            vec![BranchRecord::conditional(Pc::new(0x10), Pc::new(0x20), true).with_gap(1)],
            2,
        );
        assert_eq!(
            t.to_json(),
            r#"{"name":"j","instruction_count":2,"records":[{"pc":16,"target":32,"kind":"cond","taken":true,"gap":1}]}"#
        );
        let empty = Trace::default();
        assert_eq!(
            empty.to_json(),
            r#"{"name":"","instruction_count":0,"records":[]}"#
        );
    }

    #[test]
    fn counts_are_consistent() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.instruction_count(), 11);
        assert_eq!(t.conditional_count(), 2);
        assert_eq!(t.count_of_kind(BranchKind::Call), 1);
        assert_eq!(t.count_of_kind(BranchKind::Return), 0);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "instruction_count must equal")]
    fn inconsistent_count_rejected() {
        let records = vec![BranchRecord::conditional(Pc::new(0), Pc::new(8), true)];
        Trace::from_parts("bad", records, 42);
    }

    #[test]
    fn iteration_matches_slice() {
        let t = sample();
        let via_iter: Vec<_> = t.iter().copied().collect();
        assert_eq!(via_iter.as_slice(), t.records());
        let via_into: Vec<_> = (&t).into_iter().copied().collect();
        assert_eq!(via_into.as_slice(), t.records());
        assert_eq!(t.iter().len(), 3);
    }

    #[test]
    fn truncation_adjusts_instruction_count() {
        let t = sample();
        let t2 = t.truncated(2);
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.instruction_count(), 2 + 3 + 2);
        assert_eq!(t2.name(), "sample");
        // Truncating beyond the end is a no-op copy.
        let t3 = t.truncated(10);
        assert_eq!(t3.len(), 3);
        assert_eq!(t3.instruction_count(), t.instruction_count());
    }

    #[test]
    fn empty_trace_default() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.instruction_count(), 0);
        assert_eq!(t.conditional_count(), 0);
        assert!(!format!("{t}").is_empty());
    }
}
