//! A cache-dense structure-of-arrays form of a [`Trace`].
//!
//! The paper's evaluation is a *grid*: every figure sweeps many predictor
//! configurations over the same traces, so the simulation harness walks
//! each trace dozens of times. The array-of-structs [`Trace`] layout pays
//! 24 bytes of memory traffic per [`BranchRecord`] per walk — mostly
//! padding and wide fields the hot loop never looks at. [`FlatTrace`]
//! stores the same information column-wise and packed:
//!
//! | column | layout | bytes/record |
//! |---|---|---|
//! | outcome | 1 bit, 64 per `u64` word | 0.125 |
//! | pc      | `u32` instruction-word index (`pc >> 2`) | 4 |
//! | target  | `u32` instruction-word index | 4 |
//! | kind    | `u8` discriminant | 1 |
//! | gap     | `u8`, escaping to a side table when ≥ 255 | 1 |
//!
//! ~10 bytes per record instead of 24, in separate sequential streams —
//! a single simulation pass reads ~2.4× fewer cache lines, and a batched
//! K-configuration pass ([`simulate_many` in
//! `ev8-sim`](../../ev8_sim/batch/index.html)) reads them once instead of
//! K times.
//!
//! Addresses whose instruction-word index does not fit in a `u32`
//! (PCs ≥ 16 GiB) are exact too: such records park their full `(pc,
//! target)` pair in a sorted side list consulted by position during
//! iteration. Synthetic SPECINT95 traces never take this path, so the
//! hot loop's only cost for full generality is one predictable compare
//! per record.
//!
//! Reconstruction is lossless: [`FlatTrace::iter`] yields
//! [`BranchRecord`] values bit-identical to the source trace's records,
//! in order, which is what makes batched simulation results provably
//! equal to serial ones (`tests/batched_equivalence.rs` at the workspace
//! root pins this over arbitrary generated traces).
//!
//! It is the one in-memory form the `ev8-workloads` trace cache holds
//! and every experiment walks; the AoS [`Trace`] is what generators and
//! corpus writers produce. Both ways of building one pack records by the
//! same rules: [`FlatTrace::from_trace`] is [`FlatTraceBuilder::push`]
//! over a whole trace, and the corpus decoder pushes as it decodes.
//!
//! # Example
//!
//! ```
//! use ev8_trace::{BranchRecord, FlatTrace, Pc, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("demo");
//! b.run(9);
//! b.branch(BranchRecord::conditional(Pc::new(0x1024), Pc::new(0x1000), true));
//! let trace = b.finish();
//! let flat = FlatTrace::from_trace(&trace);
//! assert_eq!(flat.len(), 1);
//! assert_eq!(flat.iter().collect::<Vec<_>>(), trace.records());
//! ```

use crate::trace::Trace;
use crate::types::{BranchKind, BranchRecord, Outcome, Pc};

/// Sentinel in the packed gap column: the record's real gap lives in the
/// `wide_gaps` side table.
const GAP_ESCAPE: u8 = u8::MAX;

/// Encodes a [`BranchKind`] as its index in [`BranchKind::ALL`].
#[inline]
fn kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::IndirectJump => 4,
    }
}

/// Decodes a [`kind_code`] back to the [`BranchKind`].
///
/// Codes only ever come from [`kind_code`] (the column is private), so
/// this is a total match rather than an `ALL[code]` lookup: no bounds
/// check, no panic path, no memory access in the hot decode loop.
#[inline]
fn kind_from_code(code: u8) -> BranchKind {
    match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        _ => BranchKind::IndirectJump,
    }
}

/// A packed structure-of-arrays view of a [`Trace`]; see the module docs
/// for the layout and the equivalence guarantee.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FlatTrace {
    name: String,
    instruction_count: u64,
    conditional_count: u64,
    /// One bit per record: 1 = taken.
    outcomes: Vec<u64>,
    /// Instruction-word index (`pc >> 2`) per record, low 32 bits.
    pc_words: Vec<u32>,
    /// Instruction-word index of the target per record, low 32 bits.
    target_words: Vec<u32>,
    /// Kind discriminant per record ([`kind_code`]).
    kinds: Vec<u8>,
    /// Gap per record; [`GAP_ESCAPE`] defers to `wide_gaps`.
    gaps: Vec<u8>,
    /// `(record index, full pc, full target)` for records whose pc or
    /// target word index overflows `u32`; sorted by index.
    wide_pcs: Vec<(u32, u64, u64)>,
    /// `(record index, gap)` for records with gap ≥ 255; sorted by index.
    wide_gaps: Vec<(u32, u32)>,
}

impl FlatTrace {
    /// Builds the flat view of `trace`: [`FlatTraceBuilder::push`] over
    /// every record, with each column reserved to the exact record count
    /// first. The result is immutable and intended to be built once per
    /// (benchmark, scale) and shared via `Arc` (the `ev8-workloads` trace
    /// cache does this).
    ///
    /// # Panics
    ///
    /// Panics if the trace has more than `u32::MAX` records (the wide
    /// side tables index records with `u32`; a 4-billion-record trace is
    /// two orders of magnitude past full-scale SPECINT95).
    pub fn from_trace(trace: &Trace) -> Self {
        let n = trace.len();
        let mut builder = FlatTraceBuilder::new(trace.name());
        let f = &mut builder.flat;
        f.outcomes.reserve_exact(n.div_ceil(64));
        f.pc_words.reserve_exact(n);
        f.target_words.reserve_exact(n);
        f.kinds.reserve_exact(n);
        f.gaps.reserve_exact(n);
        for r in trace.records() {
            builder.push(r);
        }
        builder.finish()
    }

    /// The trace's name (benchmark identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dynamic control-transfer records.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Total number of dynamic instructions (branches + gaps), as in
    /// [`Trace::instruction_count`].
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }

    /// Number of dynamic conditional branches (precomputed at build).
    pub fn conditional_count(&self) -> u64 {
        self.conditional_count
    }

    /// Resident bytes of the packed columns (excluding the struct header
    /// and side-table spare capacity) — what a simulation pass streams.
    pub fn packed_bytes(&self) -> usize {
        self.outcomes.len() * 8
            + self.pc_words.len() * 4
            + self.target_words.len() * 4
            + self.kinds.len()
            + self.gaps.len()
            + self.wide_pcs.len() * 24
            + self.wide_gaps.len() * 8
    }

    /// Reconstructs record `i`.
    ///
    /// For sequential walks prefer [`FlatTrace::iter`], which carries
    /// cursors into the side tables instead of binary-searching them.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn record(&self, i: usize) -> BranchRecord {
        assert!(i < self.len(), "record index out of bounds");
        let (pc, target) = match self.wide_pcs.binary_search_by_key(&(i as u32), |w| w.0) {
            Ok(w) => (self.wide_pcs[w].1, self.wide_pcs[w].2),
            Err(_) => (
                (self.pc_words[i] as u64) << 2,
                (self.target_words[i] as u64) << 2,
            ),
        };
        let gap = if self.gaps[i] == GAP_ESCAPE {
            let w = self
                .wide_gaps
                .binary_search_by_key(&(i as u32), |w| w.0)
                .expect("escaped gap has a side entry");
            self.wide_gaps[w].1
        } else {
            self.gaps[i] as u32
        };
        BranchRecord {
            pc: Pc::new(pc),
            target: Pc::new(target),
            kind: kind_from_code(self.kinds[i]),
            outcome: Outcome::from(self.outcomes[i >> 6] >> (i & 63) & 1 == 1),
            gap,
        }
    }

    /// Iterates over the records, reconstructing each [`BranchRecord`]
    /// from the packed columns. Yields values (not references): a record
    /// is materialized in registers from ~10 bytes of sequential reads.
    pub fn iter(&self) -> FlatIter<'_> {
        FlatIter {
            flat: self,
            i: 0,
            wide_pc_cursor: 0,
            wide_gap_cursor: 0,
        }
    }

    /// Walks every record in order, invoking `f` on each — the hot-path
    /// form of [`FlatTrace::iter`] used by the simulators.
    ///
    /// Traces without wide escapes (every synthetic SPECINT95 trace) take
    /// a chunked loop: the columns are consumed one outcome word (64
    /// records) at a time, with the chunk slices pre-trimmed to a common
    /// length so the per-record body compiles to four sequential column
    /// reads, one register shift, and zero bounds checks. Traces with
    /// wide entries fall back to the escape-aware iterator. Both walks
    /// yield exactly the records [`FlatTrace::iter`] yields (pinned by a
    /// unit test).
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(&BranchRecord)) {
        if !self.wide_pcs.is_empty() || !self.wide_gaps.is_empty() {
            for record in self.iter() {
                f(&record);
            }
            return;
        }
        let mut rows = self
            .pc_words
            .chunks(64)
            .zip(self.target_words.chunks(64))
            .zip(self.kinds.chunks(64))
            .zip(self.gaps.chunks(64));
        for &outcome_word in &self.outcomes {
            let Some((((pcs, tgs), kinds), gaps)) = rows.next() else {
                break;
            };
            let n = pcs.len();
            let (tgs, kinds, gaps) = (&tgs[..n], &kinds[..n], &gaps[..n]);
            let mut word = outcome_word;
            for j in 0..n {
                let record = BranchRecord {
                    pc: Pc::new((pcs[j] as u64) << 2),
                    target: Pc::new((tgs[j] as u64) << 2),
                    kind: kind_from_code(kinds[j]),
                    outcome: Outcome::from(word & 1 == 1),
                    gap: gaps[j] as u32,
                };
                word >>= 1;
                f(&record);
            }
        }
    }

    /// Walks the records in `range` (clamped to `0..len()`), invoking
    /// `f` on each — the ranged form of [`FlatTrace::for_each`] that
    /// phase sampling uses to warm up and measure one interval without
    /// touching the rest of the trace.
    ///
    /// Escape-free traces take the same chunked walk as `for_each`, with
    /// the leading outcome word pre-shifted by `start & 63` so ranges
    /// that begin mid-word read the right bits. Traces with wide entries
    /// fall back to per-record reconstruction. Yields exactly the records
    /// `iter().skip(range.start).take(range.len())` yields (pinned by a
    /// unit test).
    #[inline]
    pub fn for_each_in(&self, range: std::ops::Range<usize>, mut f: impl FnMut(&BranchRecord)) {
        let start = range.start.min(self.len());
        let end = range.end.min(self.len()).max(start);
        if start == end {
            return;
        }
        if !self.wide_pcs.is_empty() || !self.wide_gaps.is_empty() {
            for i in start..end {
                f(&self.record(i));
            }
            return;
        }
        let mut i = start;
        while i < end {
            // Consume up to the next outcome-word boundary (or `end`).
            let upto = (((i >> 6) + 1) << 6).min(end);
            let mut word = self.outcomes[i >> 6] >> (i & 63);
            let pcs = &self.pc_words[i..upto];
            let tgs = &self.target_words[i..upto];
            let kinds = &self.kinds[i..upto];
            let gaps = &self.gaps[i..upto];
            let n = pcs.len();
            let (tgs, kinds, gaps) = (&tgs[..n], &kinds[..n], &gaps[..n]);
            for j in 0..n {
                let record = BranchRecord {
                    pc: Pc::new((pcs[j] as u64) << 2),
                    target: Pc::new((tgs[j] as u64) << 2),
                    kind: kind_from_code(kinds[j]),
                    outcome: Outcome::from(word & 1 == 1),
                    gap: gaps[j] as u32,
                };
                word >>= 1;
                f(&record);
            }
            i = upto;
        }
    }

    /// Calls `f(pc_word, outcome)` for each *conditional* record, in
    /// order, where `pc_word` is the instruction-word index (`pc >> 2`).
    ///
    /// This is the narrowest possible walk for conditional-only
    /// predictors (bimodal, gshare, and every sweep over them): the
    /// target and gap columns are never touched, so a pass streams
    /// ~5 bytes per record instead of the full ~10, and callers skip
    /// their own kind checks. The `ev8-sim` sweep engine's specialized
    /// paths are the intended consumer.
    ///
    /// Equivalent to filtering [`iter`](FlatTrace::iter) down to records
    /// with a conditional kind and projecting `(pc >> 2, outcome)` —
    /// pinned by a unit test, and exact for wide PCs too (the escape
    /// path reconstructs the full address before projecting).
    #[inline]
    pub fn for_each_conditional(&self, mut f: impl FnMut(u64, Outcome)) {
        if !self.wide_pcs.is_empty() {
            for record in self.iter() {
                if record.kind.is_conditional() {
                    f(record.pc.as_u64() >> 2, record.outcome);
                }
            }
            return;
        }
        let mut rows = self.pc_words.chunks(64).zip(self.kinds.chunks(64));
        for &outcome_word in &self.outcomes {
            let Some((pcs, kinds)) = rows.next() else {
                break;
            };
            let kinds = &kinds[..pcs.len()];
            let mut word = outcome_word;
            for j in 0..pcs.len() {
                if kind_from_code(kinds[j]).is_conditional() {
                    f(pcs[j] as u64, Outcome::from(word & 1 == 1));
                }
                word >>= 1;
            }
        }
    }
}

/// Incrementally builds a [`FlatTrace`] one record at a time; its
/// [`push`](FlatTraceBuilder::push) is the one place the packing rules
/// (u32 words, wide-PC and wide-gap escapes, outcome bits) are written.
///
/// The corpus streaming decoder ([`crate::corpus::CorpusReader`]) packs
/// each record into the flat columns as it is decoded, so a corpus
/// replay never materializes the 24 B/record representation, and
/// [`FlatTrace::from_trace`] is this builder run over a whole AoS trace.
///
/// # Example
///
/// ```
/// use ev8_trace::{BranchRecord, FlatTrace, FlatTraceBuilder, Pc, TraceBuilder};
///
/// let mut b = TraceBuilder::new("demo");
/// b.branch(BranchRecord::conditional(Pc::new(0x40), Pc::new(0x80), true));
/// let trace = b.finish();
///
/// let mut fb = FlatTraceBuilder::new("demo");
/// for r in trace.records() {
///     fb.push(r);
/// }
/// assert_eq!(fb.finish(), FlatTrace::from_trace(&trace));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlatTraceBuilder {
    flat: FlatTrace,
}

impl FlatTraceBuilder {
    /// Starts an empty builder for a trace called `name`.
    pub fn new(name: &str) -> Self {
        FlatTraceBuilder {
            flat: FlatTrace {
                name: name.to_owned(),
                ..FlatTrace::default()
            },
        }
    }

    /// Appends one record to the packed columns.
    ///
    /// # Panics
    ///
    /// Panics when the record count would exceed `u32::MAX` (the wide
    /// side tables index records with `u32`).
    #[inline]
    pub fn push(&mut self, r: &BranchRecord) {
        let f = &mut self.flat;
        let i = f.kinds.len();
        assert!(
            i < u32::MAX as usize,
            "trace too long for the flat view's u32 record indices"
        );
        let pc_word = r.pc.as_u64() >> 2;
        let target_word = r.target.as_u64() >> 2;
        if pc_word > u32::MAX as u64 || target_word > u32::MAX as u64 {
            f.wide_pcs
                .push((i as u32, r.pc.as_u64(), r.target.as_u64()));
        }
        f.pc_words.push(pc_word as u32);
        f.target_words.push(target_word as u32);
        f.kinds.push(kind_code(r.kind));
        if r.gap >= GAP_ESCAPE as u32 {
            f.wide_gaps.push((i as u32, r.gap));
            f.gaps.push(GAP_ESCAPE);
        } else {
            f.gaps.push(r.gap as u8);
        }
        if i & 63 == 0 {
            f.outcomes.push(0);
        }
        // Branchless: outcomes are data, and a taken/not-taken branch here
        // would mispredict on every hard-to-predict record.
        f.outcomes[i >> 6] |= u64::from(r.outcome.is_taken()) << (i & 63);
        f.conditional_count += u64::from(r.kind.is_conditional());
        f.instruction_count += 1 + r.gap as u64;
    }

    /// Instructions accounted so far: one per record plus its gap, the
    /// same accounting [`crate::TraceBuilder`] performs.
    pub fn instruction_count(&self) -> u64 {
        self.flat.instruction_count
    }

    /// Finishes the build and returns the packed trace.
    pub fn finish(self) -> FlatTrace {
        self.flat
    }
}

impl From<&Trace> for FlatTrace {
    fn from(trace: &Trace) -> Self {
        FlatTrace::from_trace(trace)
    }
}

impl std::fmt::Display for FlatTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flat trace {:?}: {} branches, {} instructions, {} packed bytes",
            self.name,
            self.len(),
            self.instruction_count,
            self.packed_bytes()
        )
    }
}

/// Iterator over a [`FlatTrace`], created by [`FlatTrace::iter`].
///
/// The side-table cursors advance monotonically with the record index,
/// so a full walk costs one compare per record regardless of how many
/// wide entries exist.
#[derive(Clone, Debug)]
pub struct FlatIter<'a> {
    flat: &'a FlatTrace,
    i: usize,
    wide_pc_cursor: usize,
    wide_gap_cursor: usize,
}

impl Iterator for FlatIter<'_> {
    type Item = BranchRecord;

    #[inline]
    fn next(&mut self) -> Option<BranchRecord> {
        let f = self.flat;
        let i = self.i;
        if i >= f.kinds.len() {
            return None;
        }
        self.i += 1;
        let (pc, target) = if self.wide_pc_cursor < f.wide_pcs.len()
            && f.wide_pcs[self.wide_pc_cursor].0 == i as u32
        {
            let (_, pc, target) = f.wide_pcs[self.wide_pc_cursor];
            self.wide_pc_cursor += 1;
            (pc, target)
        } else {
            ((f.pc_words[i] as u64) << 2, (f.target_words[i] as u64) << 2)
        };
        let gap = if f.gaps[i] == GAP_ESCAPE {
            let (_, gap) = f.wide_gaps[self.wide_gap_cursor];
            self.wide_gap_cursor += 1;
            gap
        } else {
            f.gaps[i] as u32
        };
        Some(BranchRecord {
            pc: Pc::new(pc),
            target: Pc::new(target),
            kind: kind_from_code(f.kinds[i]),
            outcome: Outcome::from(f.outcomes[i >> 6] >> (i & 63) & 1 == 1),
            gap,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.flat.kinds.len() - self.i;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for FlatIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("sample");
        b.run(3);
        b.branch(BranchRecord::conditional(
            Pc::new(0x100),
            Pc::new(0x200),
            true,
        ));
        b.run(2);
        b.branch(BranchRecord::conditional(
            Pc::new(0x200),
            Pc::new(0x100),
            false,
        ));
        b.branch(BranchRecord::always_taken(
            Pc::new(0x210),
            Pc::new(0x400),
            BranchKind::Call,
        ));
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let t = sample();
        let flat = FlatTrace::from_trace(&t);
        assert_eq!(flat.name(), t.name());
        assert_eq!(flat.len(), t.len());
        assert_eq!(flat.instruction_count(), t.instruction_count());
        assert_eq!(flat.conditional_count(), t.conditional_count());
        assert_eq!(flat.iter().collect::<Vec<_>>(), t.records());
        for (i, r) in t.records().iter().enumerate() {
            assert_eq!(flat.record(i), *r);
        }
    }

    #[test]
    fn wide_pcs_and_gaps_take_the_escape_path() {
        let hi = 0xFFFF_FFFF_FFFF_FF00u64;
        let mut b = TraceBuilder::new("extremes");
        b.branch(BranchRecord::conditional(Pc::new(4), Pc::new(hi), true));
        b.branch(BranchRecord::conditional(Pc::new(hi), Pc::new(8), false).with_gap(u32::MAX));
        b.branch(BranchRecord::conditional(Pc::new(8), Pc::new(16), true).with_gap(254));
        b.branch(BranchRecord::conditional(Pc::new(16), Pc::new(24), false).with_gap(255));
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        assert_eq!(flat.wide_pcs.len(), 2);
        assert_eq!(flat.wide_gaps.len(), 2); // u32::MAX and 255
        assert_eq!(flat.iter().collect::<Vec<_>>(), t.records());
        for (i, r) in t.records().iter().enumerate() {
            assert_eq!(flat.record(i), *r, "record {i}");
        }
        assert_eq!(flat.instruction_count(), t.instruction_count());
    }

    #[test]
    fn empty_trace_flattens() {
        let flat = FlatTrace::from_trace(&Trace::default());
        assert!(flat.is_empty());
        assert_eq!(flat.len(), 0);
        assert_eq!(flat.iter().count(), 0);
        assert_eq!(flat.conditional_count(), 0);
        assert!(!format!("{flat}").is_empty());
    }

    #[test]
    fn packed_bytes_beat_aos_layout() {
        // Long enough that the fixed outcome-word granularity amortizes.
        let mut b = TraceBuilder::new("dense");
        for i in 0..1000u64 {
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + i * 4),
                Pc::new(0x2000),
                i % 2 == 0,
            ));
        }
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        let aos = t.len() * std::mem::size_of::<BranchRecord>();
        assert!(
            flat.packed_bytes() * 2 < aos,
            "packed {} vs AoS {aos}",
            flat.packed_bytes()
        );
    }

    #[test]
    fn every_kind_roundtrips() {
        for kind in BranchKind::ALL {
            assert_eq!(kind_from_code(kind_code(kind)), kind);
        }
    }

    #[test]
    fn outcome_bits_cross_word_boundaries() {
        // 130 records straddle three outcome words; alternate outcomes so
        // any off-by-one in the bit addressing flips a reconstruction.
        let mut b = TraceBuilder::new("bits");
        for i in 0..130u64 {
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + i * 4),
                Pc::new(0x2000),
                i % 3 == 0,
            ));
        }
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        assert_eq!(flat.iter().collect::<Vec<_>>(), t.records());
        assert_eq!(flat.iter().len(), 130);
    }

    #[test]
    #[should_panic(expected = "record index out of bounds")]
    fn record_out_of_bounds_panics() {
        FlatTrace::from_trace(&sample()).record(3);
    }

    #[test]
    fn for_each_yields_exactly_what_iter_yields() {
        // Chunked fast path: >64 records so the walk crosses outcome
        // words, with a mix of kinds and gaps.
        let mut b = TraceBuilder::new("chunked");
        for i in 0..150u64 {
            b.run(i % 9);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + i * 4),
                Pc::new(0x2000),
                i % 3 == 0,
            ));
            if i % 11 == 0 {
                b.branch(BranchRecord::always_taken(
                    Pc::new(0x3000),
                    Pc::new(0x4000),
                    BranchKind::Return,
                ));
            }
        }
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        assert!(flat.wide_pcs.is_empty() && flat.wide_gaps.is_empty());
        let mut walked = Vec::new();
        flat.for_each(|r| walked.push(*r));
        assert_eq!(walked, flat.iter().collect::<Vec<_>>());
        assert_eq!(walked, t.records());

        // Escape fallback path: wide PCs and gaps present.
        let hi = 0xFFFF_FFFF_FFFF_FF00u64;
        let mut b = TraceBuilder::new("escapes");
        b.branch(BranchRecord::conditional(Pc::new(4), Pc::new(hi), true));
        b.branch(BranchRecord::conditional(Pc::new(hi), Pc::new(8), false).with_gap(u32::MAX));
        b.branch(BranchRecord::conditional(Pc::new(8), Pc::new(16), true).with_gap(255));
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        let mut walked = Vec::new();
        flat.for_each(|r| walked.push(*r));
        assert_eq!(walked, t.records());

        let mut none = 0u32;
        FlatTrace::from_trace(&Trace::default()).for_each(|_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn for_each_in_matches_skip_take_across_word_boundaries() {
        let mut b = TraceBuilder::new("ranged");
        for i in 0..200u64 {
            b.run(i % 7);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + i * 4),
                Pc::new(0x2000),
                i % 3 == 0,
            ));
            if i % 13 == 0 {
                b.branch(BranchRecord::always_taken(
                    Pc::new(0x3000),
                    Pc::new(0x4000),
                    BranchKind::Call,
                ));
            }
        }
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        assert!(flat.wide_pcs.is_empty() && flat.wide_gaps.is_empty());
        let n = flat.len();
        // Ranges starting/ending mid-word, on word boundaries, empty,
        // full, inverted, and past the end (clamped).
        #[allow(clippy::reversed_empty_ranges)] // inverted range is the point
        let ranges = [
            0..n,
            0..0,
            5..5,
            0..1,
            0..63,
            0..64,
            0..65,
            1..64,
            63..64,
            63..65,
            64..128,
            37..101,
            100..n,
            n..n,
            n - 1..n + 10,
            10..3,
        ];
        for range in ranges {
            let mut walked = Vec::new();
            flat.for_each_in(range.clone(), |r| walked.push(*r));
            let expected: Vec<_> = flat
                .iter()
                .skip(range.start)
                .take(range.end.saturating_sub(range.start))
                .collect();
            assert_eq!(walked, expected, "range {range:?}");
        }

        // Escape fallback: wide PCs and gaps force per-record rebuild.
        let hi = 0xFFFF_FFFF_FFFF_FF00u64;
        let mut b = TraceBuilder::new("escapes");
        b.branch(BranchRecord::conditional(Pc::new(4), Pc::new(hi), true));
        b.branch(BranchRecord::conditional(Pc::new(hi), Pc::new(8), false).with_gap(u32::MAX));
        b.branch(BranchRecord::conditional(Pc::new(8), Pc::new(16), true).with_gap(255));
        let flat = FlatTrace::from_trace(&b.finish());
        let mut walked = Vec::new();
        flat.for_each_in(1..3, |r| walked.push(*r));
        assert_eq!(walked, flat.iter().skip(1).take(2).collect::<Vec<_>>());
    }

    #[test]
    fn every_shape_packs_and_reconstructs_exactly() {
        // The interesting shapes for the one packer: empty, boundary
        // lengths around the 64-record outcome words, escapes. Both the
        // sequential walk and random access must give back the source.
        let hi = 0xFFFF_FFFF_FFFF_FF00u64;
        let mut traces = vec![Trace::default(), sample()];
        for n in [1u64, 63, 64, 65, 130] {
            let mut b = TraceBuilder::new("sizes");
            for i in 0..n {
                b.run(i % 9);
                b.branch(BranchRecord::conditional(
                    Pc::new(0x1000 + i * 4),
                    Pc::new(0x2000),
                    i % 3 == 0,
                ));
            }
            traces.push(b.finish());
        }
        let mut b = TraceBuilder::new("escapes");
        b.branch(BranchRecord::conditional(Pc::new(4), Pc::new(hi), true));
        b.branch(BranchRecord::conditional(Pc::new(hi), Pc::new(8), false).with_gap(u32::MAX));
        b.branch(BranchRecord::conditional(Pc::new(8), Pc::new(16), true).with_gap(255));
        traces.push(b.finish());

        for t in traces {
            let flat = FlatTrace::from_trace(&t);
            assert_eq!(flat.len(), t.len(), "{}", t.name());
            assert_eq!(flat.instruction_count(), t.instruction_count());
            assert_eq!(flat.conditional_count(), t.conditional_count());
            assert_eq!(flat.iter().collect::<Vec<_>>(), t.records(), "{}", t.name());
            for (i, r) in t.records().iter().enumerate() {
                assert_eq!(flat.record(i), *r, "{} record {i}", t.name());
            }
        }
    }

    #[test]
    fn for_each_conditional_matches_filtered_iter() {
        let expected = |t: &Trace| -> Vec<(u64, Outcome)> {
            t.records()
                .iter()
                .filter(|r| r.kind.is_conditional())
                .map(|r| (r.pc.as_u64() >> 2, r.outcome))
                .collect()
        };

        // Chunked fast path crossing outcome words, with non-conditional
        // records interleaved (which must be skipped without consuming a
        // history slot).
        let mut b = TraceBuilder::new("chunked");
        for i in 0..150u64 {
            b.run(i % 9);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + i * 4),
                Pc::new(0x2000),
                i % 3 == 0,
            ));
            if i % 11 == 0 {
                b.branch(BranchRecord::always_taken(
                    Pc::new(0x3000),
                    Pc::new(0x4000),
                    BranchKind::Call,
                ));
            }
        }
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        assert!(flat.wide_pcs.is_empty());
        let mut walked = Vec::new();
        flat.for_each_conditional(|pc_word, o| walked.push((pc_word, o)));
        assert_eq!(walked, expected(&t));
        assert_eq!(walked.len() as u64, flat.conditional_count());

        // Escape fallback: a wide PC must come back exact.
        let hi = 0xFFFF_FFFF_FFFF_FF00u64;
        let mut b = TraceBuilder::new("escapes");
        b.branch(BranchRecord::conditional(Pc::new(hi), Pc::new(8), false));
        b.branch(BranchRecord::always_taken(
            Pc::new(4),
            Pc::new(hi),
            BranchKind::Return,
        ));
        b.branch(BranchRecord::conditional(Pc::new(8), Pc::new(16), true));
        let t = b.finish();
        let mut walked = Vec::new();
        FlatTrace::from_trace(&t).for_each_conditional(|pc_word, o| walked.push((pc_word, o)));
        assert_eq!(walked, expected(&t));
    }
}
