//! Fetch-block formation (§2 of the paper).
//!
//! "An instruction fetch block consists of all consecutive valid
//! instructions fetched from the I-cache: an instruction fetch block ends
//! either at the end of an aligned 8-instruction block or on a taken
//! control flow instruction. Not taken conditional branches do not end a
//! fetch block."
//!
//! [`FetchState`] reconstructs this stream of fetch blocks from a branch
//! trace: each record implies a straight-line run of `gap` instructions
//! ending at the branch, starting at `record.pc - 4·gap`. Runs that
//! continue exactly where the previous record left off extend the current
//! block; discontinuities (trace imperfections or pipeline redirects)
//! start a fresh block.
//!
//! Addresses are circular, as in [`Pc::next`] and the wire encoding's
//! wrapping deltas: a run may wrap below 0, and the region after the last
//! aligned 32-byte region of the 64-bit space is the one at 0.

use ev8_trace::{BranchRecord, FlatTrace, Outcome, Pc};

use crate::lghist::BlockSummary;

/// Why a fetch block ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockEnd {
    /// A taken control transfer (conditional or not).
    TakenBranch,
    /// The end of the aligned 8-instruction region was reached.
    AlignedBoundary,
    /// The instruction stream jumped without a recorded transfer (trace
    /// discontinuity; treated like a redirect).
    Discontinuity,
    /// End of simulation.
    Flush,
}

/// One reconstructed fetch block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchBlock {
    /// Address of the first instruction in the block.
    pub start: Pc,
    /// Number of instructions in the block (1..=8).
    pub instructions: u32,
    /// Number of conditional branches in the block.
    pub conditional_count: u32,
    /// PC and outcome of the last conditional branch in the block.
    pub last_conditional: Option<(Pc, Outcome)>,
    /// Why the block ended.
    pub ended_by: BlockEnd,
}

impl FetchBlock {
    /// The history-formation summary of this block (for
    /// [`crate::lghist::DelayedLghist`]).
    pub fn summary(&self) -> BlockSummary {
        BlockSummary {
            address: self.start,
            last_conditional: self.last_conditional,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct CurrentBlock {
    start: Pc,
    conditional_count: u32,
    last_conditional: Option<(Pc, Outcome)>,
}

impl CurrentBlock {
    /// The first address of the next aligned region.
    fn region_end(&self) -> Pc {
        Pc::new(self.start.fetch_block_base().as_u64().wrapping_add(32))
    }

    fn finish(self, last_pc: Pc, ended_by: BlockEnd) -> FetchBlock {
        let instructions = (last_pc.as_u64().wrapping_sub(self.start.as_u64()) / 4 + 1) as u32;
        debug_assert!((1..=8).contains(&instructions));
        FetchBlock {
            start: self.start,
            instructions,
            conditional_count: self.conditional_count,
            last_conditional: self.last_conditional,
            ended_by,
        }
    }
}

/// Streaming fetch-block reconstruction.
///
/// Feed every trace record (conditional or not) through
/// [`FetchState::feed`]; completed blocks are delivered to the callback in
/// program order. Call [`FetchState::flush`] at end of trace.
///
/// # Example
///
/// ```
/// use ev8_core::fetch::FetchState;
/// use ev8_trace::{BranchRecord, Pc};
///
/// let mut fs = FetchState::new();
/// let mut blocks = Vec::new();
/// // A taken branch at 0x1008 after two straight-line instructions.
/// let rec = BranchRecord::conditional(Pc::new(0x1008), Pc::new(0x2000), true).with_gap(2);
/// fs.feed(&rec, |b| blocks.push(b));
/// assert_eq!(blocks.len(), 1);
/// assert_eq!(blocks[0].instructions, 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FetchState {
    current: Option<CurrentBlock>,
    expected_ip: Option<Pc>,
}

impl FetchState {
    /// Creates an empty fetch state.
    pub fn new() -> Self {
        Self::default()
    }

    fn start_block(&mut self, start: Pc) {
        self.current = Some(CurrentBlock {
            start,
            conditional_count: 0,
            last_conditional: None,
        });
    }

    /// The start address of the in-progress block, if any.
    pub fn current_start(&self) -> Option<Pc> {
        self.current.map(|c| c.start)
    }

    /// Advances the fetch state up to (but not including) a record's
    /// branch instruction: resolves discontinuities and crosses aligned-
    /// region boundaries inside the straight-line run. After this call
    /// the in-progress block is the one that will contain the branch —
    /// i.e. the context in which the EV8 pipeline predicts it.
    pub fn feed_run<F: FnMut(FetchBlock)>(&mut self, record: &BranchRecord, mut on_block: F) {
        let run_start = Pc::new(record.pc.as_u64().wrapping_sub(4 * record.gap as u64));

        // Discontinuity: the run does not continue where we expected.
        if self.expected_ip != Some(run_start) || self.current.is_none() {
            if let Some(cur) = self.current.take() {
                // The block ended at the last instruction we actually saw
                // (expected_ip - 4, i.e. right before the jump-away), or at
                // its start if it saw none.
                let next = self.expected_ip.unwrap_or(cur.start);
                let last = if next == cur.start {
                    cur.start
                } else {
                    Pc::new(next.as_u64().wrapping_sub(4))
                };
                on_block(cur.finish(last, BlockEnd::Discontinuity));
            }
            self.start_block(run_start);
        }

        // Cross aligned-region boundaries inside the run: each crossing
        // completes a block (possibly branch-free) and starts the next at
        // the region boundary.
        loop {
            let cur = self.current.as_ref().expect("block in progress");
            if cur.start.fetch_block_base() == record.pc.fetch_block_base() {
                break;
            }
            let region_end = cur.region_end();
            let cur = self.current.take().expect("block in progress");
            let last = Pc::new(region_end.as_u64().wrapping_sub(4));
            on_block(cur.finish(last, BlockEnd::AlignedBoundary));
            self.start_block(region_end);
        }
    }

    /// Applies a record's branch instruction to the in-progress block.
    /// Must be preceded by [`FetchState::feed_run`] for the same record.
    pub fn feed_branch<F: FnMut(FetchBlock)>(&mut self, record: &BranchRecord, mut on_block: F) {
        let cur = self
            .current
            .as_mut()
            .expect("feed_run must precede feed_branch");
        if record.kind.is_conditional() {
            cur.conditional_count += 1;
            cur.last_conditional = Some((record.pc, record.outcome));
        }

        if record.is_taken() {
            let cur = self.current.take().expect("block in progress");
            on_block(cur.finish(record.pc, BlockEnd::TakenBranch));
            self.start_block(record.target);
            self.expected_ip = Some(record.target);
        } else {
            let fallthrough = Pc::new(record.pc.as_u64().wrapping_add(4));
            self.expected_ip = Some(fallthrough);
            // A not-taken branch in the last slot still ends the block at
            // the aligned boundary.
            if record.pc.is_last_in_fetch_block() {
                let cur = self.current.take().expect("block in progress");
                on_block(cur.finish(record.pc, BlockEnd::AlignedBoundary));
                self.start_block(fallthrough);
            }
        }
    }

    /// Feeds one trace record; completed fetch blocks are passed to
    /// `on_block` in order. Equivalent to [`FetchState::feed_run`]
    /// followed by [`FetchState::feed_branch`].
    pub fn feed<F: FnMut(FetchBlock)>(&mut self, record: &BranchRecord, mut on_block: F) {
        self.feed_run(record, &mut on_block);
        self.feed_branch(record, &mut on_block);
    }

    /// Flushes the in-progress block at end of trace.
    pub fn flush<F: FnMut(FetchBlock)>(&mut self, mut on_block: F) {
        if let Some(cur) = self.current.take() {
            // Only emit if the block saw at least one instruction worth of
            // progress (a just-started empty block is not a real block).
            if let Some(ip) = self.expected_ip {
                if ip != cur.start {
                    on_block(cur.finish(Pc::new(ip.as_u64().wrapping_sub(4)), BlockEnd::Flush));
                }
            }
        }
        self.expected_ip = None;
    }
}

/// Reconstructs all fetch blocks of a trace (convenience wrapper over
/// [`FetchState`]).
pub fn blocks_of(trace: &FlatTrace) -> Vec<FetchBlock> {
    let mut fs = FetchState::new();
    let mut out = Vec::new();
    trace.for_each(|rec| fs.feed(rec, |b| out.push(b)));
    fs.flush(|b| out.push(b));
    out
}

/// Aggregate fetch-block statistics; the source of Table 3's
/// "conditional branches per lghist bit" ratio.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockStats {
    /// Total fetch blocks.
    pub blocks: u64,
    /// Blocks containing at least one conditional branch (each inserts
    /// exactly one lghist bit).
    pub blocks_with_conditionals: u64,
    /// Total conditional branches.
    pub conditional_branches: u64,
    /// Total instructions across blocks.
    pub instructions: u64,
}

impl BlockStats {
    /// Computes block statistics for a trace.
    pub fn from_trace(trace: &FlatTrace) -> Self {
        let mut s = BlockStats::default();
        let mut fs = FetchState::new();
        let mut add = |b: FetchBlock| {
            s.blocks += 1;
            s.instructions += b.instructions as u64;
            if b.conditional_count > 0 {
                s.blocks_with_conditionals += 1;
            }
            s.conditional_branches += b.conditional_count as u64;
        };
        trace.for_each(|rec| fs.feed(rec, &mut add));
        fs.flush(&mut add);
        s
    }

    /// Table 3's ratio: conditional branches represented per lghist bit
    /// (ghist inserts one bit per branch; lghist one per block with a
    /// conditional branch).
    pub fn lghist_compression_ratio(&self) -> f64 {
        if self.blocks_with_conditionals == 0 {
            0.0
        } else {
            self.conditional_branches as f64 / self.blocks_with_conditionals as f64
        }
    }

    /// Mean instructions per fetch block.
    pub fn mean_block_size(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.instructions as f64 / self.blocks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_trace::{BranchKind, TraceBuilder};

    fn feed_all(records: &[BranchRecord]) -> Vec<FetchBlock> {
        let mut fs = FetchState::new();
        let mut out = Vec::new();
        for r in records {
            fs.feed(r, |b| out.push(b));
        }
        fs.flush(|b| out.push(b));
        out
    }

    #[test]
    fn taken_branch_ends_block() {
        let blocks = feed_all(&[
            BranchRecord::conditional(Pc::new(0x1008), Pc::new(0x2000), true).with_gap(2),
        ]);
        assert_eq!(blocks.len(), 1);
        let b = blocks[0];
        assert_eq!(b.start, Pc::new(0x1000));
        assert_eq!(b.instructions, 3);
        assert_eq!(b.conditional_count, 1);
        assert_eq!(b.ended_by, BlockEnd::TakenBranch);
        assert_eq!(b.last_conditional, Some((Pc::new(0x1008), Outcome::Taken)));
    }

    #[test]
    fn not_taken_branches_share_a_block() {
        // Two not-taken branches then a taken one, all within one aligned
        // region starting at 0x1000.
        let blocks = feed_all(&[
            BranchRecord::conditional(Pc::new(0x1004), Pc::new(0x3000), false).with_gap(1),
            BranchRecord::conditional(Pc::new(0x1008), Pc::new(0x3000), false),
            BranchRecord::conditional(Pc::new(0x1010), Pc::new(0x2000), true).with_gap(1),
        ]);
        assert_eq!(blocks.len(), 1);
        let b = blocks[0];
        assert_eq!(b.conditional_count, 3);
        assert_eq!(b.instructions, 5); // 0x1000..=0x1010
        assert_eq!(b.last_conditional, Some((Pc::new(0x1010), Outcome::Taken)));
    }

    #[test]
    fn aligned_boundary_ends_block() {
        // A long straight-line run crosses a 32-byte boundary.
        let blocks = feed_all(&[
            BranchRecord::conditional(Pc::new(0x1024), Pc::new(0x2000), true).with_gap(9),
        ]);
        // Run covers 0x1000..=0x1024: block 1 = 0x1000..0x1020 (8 instr,
        // boundary), block 2 = 0x1020..=0x1024 (taken).
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].start, Pc::new(0x1000));
        assert_eq!(blocks[0].instructions, 8);
        assert_eq!(blocks[0].ended_by, BlockEnd::AlignedBoundary);
        assert_eq!(blocks[0].conditional_count, 0);
        assert_eq!(blocks[1].start, Pc::new(0x1020));
        assert_eq!(blocks[1].instructions, 2);
        assert_eq!(blocks[1].ended_by, BlockEnd::TakenBranch);
    }

    #[test]
    fn not_taken_in_last_slot_ends_block_at_boundary() {
        let blocks = feed_all(&[
            BranchRecord::conditional(Pc::new(0x101c), Pc::new(0x2000), false).with_gap(7),
            BranchRecord::conditional(Pc::new(0x1024), Pc::new(0x2000), true).with_gap(1),
        ]);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].instructions, 8);
        assert_eq!(blocks[0].ended_by, BlockEnd::AlignedBoundary);
        assert_eq!(blocks[1].start, Pc::new(0x1020));
    }

    #[test]
    fn taken_target_starts_next_block_mid_region() {
        let blocks = feed_all(&[
            BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2010), true),
            // Two straight-line instructions (0x2010, 0x2014) then the
            // branch at 0x2018.
            BranchRecord::conditional(Pc::new(0x2018), Pc::new(0x1000), true).with_gap(2),
        ]);
        assert_eq!(blocks.len(), 2);
        // The second block starts at the branch target, not at an aligned
        // base; its capacity shrinks accordingly.
        assert_eq!(blocks[1].start, Pc::new(0x2010));
        assert_eq!(blocks[1].instructions, 3);
    }

    #[test]
    fn discontinuity_flushes_block() {
        let blocks = feed_all(&[
            BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2000), false),
            // Next run starts at 0x5000 with no recorded transfer.
            BranchRecord::conditional(Pc::new(0x5004), Pc::new(0x2000), true).with_gap(1),
        ]);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].ended_by, BlockEnd::Discontinuity);
        assert_eq!(blocks[0].instructions, 1);
        assert_eq!(blocks[1].start, Pc::new(0x5000));
    }

    #[test]
    fn blocks_form_across_the_top_of_the_address_space() {
        // The last aligned 32-byte region of the 64-bit space.
        const TOP: u64 = 0xFFFF_FFFF_FFFF_FFE0;
        let blocks = feed_all(&[
            // Not taken mid-region, then not taken in the last slot: the
            // block ends at the boundary and the fall-through wraps to 0.
            BranchRecord::conditional(Pc::new(TOP + 0x10), Pc::new(0x1000), false).with_gap(4),
            BranchRecord::conditional(Pc::new(TOP + 0x1c), Pc::new(0x1000), false).with_gap(2),
            // The run continues at 0; taken back into the last region.
            BranchRecord::conditional(Pc::new(0x8), Pc::new(TOP + 0x4), true).with_gap(2),
            // Taken in the last region.
            BranchRecord::conditional(Pc::new(TOP + 0xc), Pc::new(0x2000), true).with_gap(2),
            // A run that wraps below 0: it starts at TOP + 0x10.
            BranchRecord::conditional(Pc::new(0x8), Pc::new(0x3000), true).with_gap(6),
        ]);
        let got: Vec<(u64, u32, u32, BlockEnd)> = blocks
            .iter()
            .map(|b| {
                (
                    b.start.as_u64(),
                    b.instructions,
                    b.conditional_count,
                    b.ended_by,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (TOP, 8, 2, BlockEnd::AlignedBoundary),
                (0x0, 3, 1, BlockEnd::TakenBranch),
                (TOP + 0x4, 3, 1, BlockEnd::TakenBranch),
                (0x2000, 1, 0, BlockEnd::Discontinuity),
                (TOP + 0x10, 4, 0, BlockEnd::AlignedBoundary),
                (0x0, 3, 1, BlockEnd::TakenBranch),
            ]
        );
        assert_eq!(
            blocks[0].last_conditional,
            Some((Pc::new(TOP + 0x1c), Outcome::NotTaken))
        );
    }

    #[test]
    fn unconditional_transfers_end_blocks_without_history() {
        let blocks = feed_all(&[
            BranchRecord::always_taken(Pc::new(0x1004), Pc::new(0x2000), BranchKind::Call)
                .with_gap(1),
            BranchRecord::conditional(Pc::new(0x2008), Pc::new(0x1000), true).with_gap(2),
        ]);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].conditional_count, 0);
        assert_eq!(blocks[0].last_conditional, None);
        assert_eq!(blocks[0].ended_by, BlockEnd::TakenBranch);
    }

    #[test]
    fn flush_emits_partial_block() {
        let mut fs = FetchState::new();
        let mut out = Vec::new();
        fs.feed(
            &BranchRecord::conditional(Pc::new(0x1004), Pc::new(0x2000), false).with_gap(1),
            |b| out.push(b),
        );
        assert!(out.is_empty());
        fs.flush(|b| out.push(b));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ended_by, BlockEnd::Flush);
        assert_eq!(out[0].instructions, 2);
    }

    #[test]
    fn block_sizes_never_exceed_eight() {
        // Random-ish stream through the builder.
        let mut b = TraceBuilder::new("t");
        let mut pc = 0x1_0000u64;
        for i in 0..2000u64 {
            let gap = (i * 7) % 13;
            pc += 4 * gap;
            let taken = i % 3 != 0;
            let target = 0x1_0000 + ((i * 613) % 4096) * 4;
            b.branch(
                BranchRecord::conditional(Pc::new(pc), Pc::new(target), taken).with_gap(gap as u32),
            );
            pc = if taken { target } else { pc + 4 };
        }
        let t = FlatTrace::from_trace(&b.finish());
        for blk in blocks_of(&t) {
            assert!(blk.instructions >= 1 && blk.instructions <= 8, "{blk:?}");
            // Blocks never span an aligned boundary.
            let last = blk.start.as_u64() + 4 * (blk.instructions as u64 - 1);
            assert_eq!(
                blk.start.fetch_block_base(),
                Pc::new(last).fetch_block_base(),
                "block spans regions: {blk:?}"
            );
        }
    }

    #[test]
    fn block_stats_and_table3_ratio() {
        // One block with 3 conditionals + one block with 1: ratio = 4/2.
        let mut b = TraceBuilder::new("t");
        b.branch(BranchRecord::conditional(
            Pc::new(0x1000),
            Pc::new(0x40),
            false,
        ));
        b.branch(BranchRecord::conditional(
            Pc::new(0x1004),
            Pc::new(0x40),
            false,
        ));
        b.branch(BranchRecord::conditional(
            Pc::new(0x1008),
            Pc::new(0x2000),
            true,
        ));
        b.branch(BranchRecord::conditional(
            Pc::new(0x2000),
            Pc::new(0x1000),
            true,
        ));
        let t = FlatTrace::from_trace(&b.finish());
        let s = BlockStats::from_trace(&t);
        assert_eq!(s.blocks, 2);
        assert_eq!(s.blocks_with_conditionals, 2);
        assert_eq!(s.conditional_branches, 4);
        assert!((s.lghist_compression_ratio() - 2.0).abs() < 1e-12);
        assert!(s.mean_block_size() > 0.0);
    }

    #[test]
    fn empty_trace_stats() {
        let s = BlockStats::from_trace(&FlatTrace::default());
        assert_eq!(s.blocks, 0);
        assert_eq!(s.lghist_compression_ratio(), 0.0);
        assert_eq!(s.mean_block_size(), 0.0);
    }
}
