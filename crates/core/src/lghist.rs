//! Block-compressed branch history — *lghist* (§5.1 of the paper).
//!
//! Predicting up to 16 branches per cycle would require shifting up to 16
//! bits into a conventional history register every cycle. The EV8 instead
//! inserts **one bit per fetch block**: whenever the block contains at
//! least one conditional branch, the outcome of the *last* conditional
//! branch in the block (1 = taken) is XORed with **bit 4 of that branch's
//! PC** (path information, giving a more uniform distribution of history
//! patterns in optimized code where not-taken branches dominate).
//!
//! Because of the two-cycle predictor pipeline, the history used to
//! predict branches in block D excludes blocks A, B, C — it is **three
//! fetch blocks old**. [`DelayedLghist`] models both the compression and
//! the delay, and additionally tracks the addresses of the last three
//! fetch blocks, whose *path information* the EV8 mixes into the index to
//! recover most of the delayed-history loss (§5.2).
//!
//! Neither window ever holds more than [`HISTORY_DELAY_BLOCKS`] entries,
//! so both are fixed arrays shifted one position per block.

use ev8_trace::{Outcome, Pc};

use crate::config::HISTORY_DELAY_BLOCKS;

/// A summary of one completed fetch block, as far as history formation is
/// concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSummary {
    /// Address of the first instruction of the block.
    pub address: Pc,
    /// PC and outcome of the last conditional branch in the block, if the
    /// block contained any conditional branch.
    pub last_conditional: Option<(Pc, Outcome)>,
}

/// The lghist register with its three-block delivery delay.
///
/// # Example
///
/// ```
/// use ev8_core::lghist::{BlockSummary, DelayedLghist};
/// use ev8_trace::{Outcome, Pc};
///
/// let mut h = DelayedLghist::new(21, true, true);
/// h.push_block(BlockSummary {
///     address: Pc::new(0x1000),
///     last_conditional: Some((Pc::new(0x1010), Outcome::Taken)),
/// });
/// // The new bit is still in the delay pipe: visible history is empty.
/// assert_eq!(h.visible_bits(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct DelayedLghist {
    /// Committed (visible) history; bit 0 = most recent *visible* block.
    committed: u64,
    length: u32,
    /// The delay pipe, one position per in-flight fetch block, newest
    /// first: the bit the block inserts, or `None` when it had no
    /// conditional branch (or no block is there yet). The bit leaving the
    /// last position commits.
    pending: [Option<u64>; HISTORY_DELAY_BLOCKS],
    /// Addresses of the most recent fetch blocks, newest first; the first
    /// `recent_live` are real blocks.
    recent_addresses: [Pc; HISTORY_DELAY_BLOCKS],
    recent_live: usize,
    path_bit: bool,
    delayed: bool,
}

impl DelayedLghist {
    /// Creates an lghist register.
    ///
    /// * `length` — visible history length in bits (≤ 64),
    /// * `path_bit` — XOR the branch outcome with PC bit 4,
    /// * `delayed` — deliver bits three fetch blocks late (the EV8
    ///   pipeline constraint); `false` models an idealized immediate
    ///   lghist (the Fig 7 "lghist" configurations).
    ///
    /// # Panics
    ///
    /// Panics if `length > 64`.
    pub fn new(length: u32, path_bit: bool, delayed: bool) -> Self {
        assert!(length <= 64, "history limited to 64 bits");
        DelayedLghist {
            committed: 0,
            length,
            pending: [None; HISTORY_DELAY_BLOCKS],
            recent_addresses: [Pc::new(0); HISTORY_DELAY_BLOCKS],
            recent_live: 0,
            path_bit,
            delayed,
        }
    }

    /// The history bit a block inserts: the last conditional outcome,
    /// XORed with PC bit 4 of that branch when path information is
    /// enabled.
    fn bit_for(&self, summary: &BlockSummary) -> Option<u64> {
        summary.last_conditional.map(|(pc, outcome)| {
            if self.path_bit {
                outcome.as_bit() ^ pc.bit(4)
            } else {
                outcome.as_bit()
            }
        })
    }

    /// Records a completed fetch block.
    pub fn push_block(&mut self, summary: BlockSummary) {
        let bit = self.bit_for(&summary);
        self.recent_addresses
            .copy_within(..HISTORY_DELAY_BLOCKS - 1, 1);
        self.recent_addresses[0] = summary.address;
        self.recent_live = (self.recent_live + 1).min(HISTORY_DELAY_BLOCKS);
        if self.delayed {
            if let Some(b) = self.pending[HISTORY_DELAY_BLOCKS - 1] {
                self.commit_bit(b);
            }
            self.pending.copy_within(..HISTORY_DELAY_BLOCKS - 1, 1);
            self.pending[0] = bit;
        } else if let Some(b) = bit {
            self.commit_bit(b);
        }
    }

    fn commit_bit(&mut self, bit: u64) {
        self.committed = (self.committed << 1) | bit;
        if self.length < 64 {
            self.committed &= (1u64 << self.length) - 1;
        }
    }

    /// The history visible to the predictor right now (`h_i` bits of §7's
    /// notation; bit 0 most recent visible block).
    pub fn visible_bits(&self) -> u64 {
        self.committed
    }

    /// A specific visible history bit (`h_i`).
    pub fn bit(&self, i: u32) -> u64 {
        (self.committed >> i) & 1
    }

    /// Configured visible length.
    pub fn length(&self) -> u32 {
        self.length
    }

    /// The address of the previous fetch block (`Z` in §7's notation), if
    /// any block has completed yet.
    pub fn z_address(&self) -> Option<Pc> {
        (self.recent_live > 0).then_some(self.recent_addresses[0])
    }

    /// Addresses of the last three fetch blocks, newest first (`Z`, `Y`,
    /// and the one before); fewer until three blocks have completed.
    pub fn recent_addresses(&self) -> impl Iterator<Item = Pc> + '_ {
        self.recent_addresses[..self.recent_live].iter().copied()
    }

    /// Resets all state (pipeline flush / thread start).
    pub fn clear(&mut self) {
        self.committed = 0;
        self.pending = [None; HISTORY_DELAY_BLOCKS];
        self.recent_live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(addr: u64, last: Option<(u64, bool)>) -> BlockSummary {
        BlockSummary {
            address: Pc::new(addr),
            last_conditional: last.map(|(pc, t)| (Pc::new(pc), Outcome::from(t))),
        }
    }

    #[test]
    fn immediate_mode_commits_at_once() {
        let mut h = DelayedLghist::new(8, false, false);
        h.push_block(block(0x1000, Some((0x1010, true))));
        assert_eq!(h.visible_bits(), 0b1);
        h.push_block(block(0x1020, Some((0x1024, false))));
        assert_eq!(h.visible_bits(), 0b10);
    }

    #[test]
    fn delayed_mode_hides_three_blocks() {
        let mut h = DelayedLghist::new(8, false, true);
        h.push_block(block(0x1000, Some((0x1010, true))));
        h.push_block(block(0x1020, Some((0x1030, true))));
        h.push_block(block(0x1040, Some((0x1050, true))));
        // Three blocks in flight: nothing visible yet.
        assert_eq!(h.visible_bits(), 0);
        h.push_block(block(0x1060, Some((0x1070, false))));
        // The first block's bit is now visible.
        assert_eq!(h.visible_bits(), 0b1);
        h.push_block(block(0x1080, Some((0x1090, true))));
        assert_eq!(h.visible_bits(), 0b11);
    }

    #[test]
    fn path_bit_xors_pc_bit_4() {
        let mut with_path = DelayedLghist::new(8, true, false);
        // Branch at 0x1010: bit 4 = 1; taken -> inserted bit = 1 ^ 1 = 0.
        with_path.push_block(block(0x1000, Some((0x1010, true))));
        assert_eq!(with_path.visible_bits(), 0);
        // Branch at 0x1020: bit 4 = 0; taken -> bit = 1.
        with_path.push_block(block(0x1020, Some((0x1020, true))));
        assert_eq!(with_path.visible_bits(), 0b01);
        // Not taken at pc with bit4=1 -> 0 ^ 1 = 1.
        with_path.push_block(block(0x1040, Some((0x1050, false))));
        assert_eq!(with_path.visible_bits(), 0b011);
    }

    #[test]
    fn blocks_without_conditionals_insert_nothing() {
        let mut h = DelayedLghist::new(8, false, false);
        h.push_block(block(0x1000, None));
        h.push_block(block(0x1020, None));
        assert_eq!(h.visible_bits(), 0);
        h.push_block(block(0x1040, Some((0x1044, true))));
        assert_eq!(h.visible_bits(), 0b1);
        // But their addresses still enter the path window.
    }

    #[test]
    fn delayed_mode_skips_empty_blocks_in_flight() {
        let mut h = DelayedLghist::new(8, false, true);
        h.push_block(block(0x1000, Some((0x1010, true))));
        h.push_block(block(0x1020, None));
        h.push_block(block(0x1040, None));
        assert_eq!(h.visible_bits(), 0);
        h.push_block(block(0x1060, None));
        // The taken bit from block 0 commits after three more blocks.
        assert_eq!(h.visible_bits(), 0b1);
        h.push_block(block(0x1080, None));
        // Empty blocks commit nothing further.
        assert_eq!(h.visible_bits(), 0b1);
    }

    #[test]
    fn recent_addresses_track_last_three() {
        let mut h = DelayedLghist::new(8, true, true);
        for (i, addr) in [0x1000u64, 0x1020, 0x1040, 0x1060].iter().enumerate() {
            h.push_block(block(*addr, None));
            let got: Vec<Pc> = h.recent_addresses().collect();
            assert_eq!(got.len(), (i + 1).min(3));
        }
        let got: Vec<Pc> = h.recent_addresses().collect();
        assert_eq!(got, vec![Pc::new(0x1060), Pc::new(0x1040), Pc::new(0x1020)]);
        assert_eq!(h.z_address(), Some(Pc::new(0x1060)));
    }

    #[test]
    fn length_masking() {
        let mut h = DelayedLghist::new(3, false, false);
        for _ in 0..5 {
            h.push_block(block(0x1000, Some((0x1000, true))));
        }
        assert_eq!(h.visible_bits(), 0b111);
        assert_eq!(h.bit(0), 1);
        assert_eq!(h.length(), 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = DelayedLghist::new(8, true, true);
        for i in 0..6 {
            h.push_block(block(0x1000 + i * 32, Some((0x1000 + i * 32, true))));
        }
        assert_ne!(h.visible_bits(), 0);
        h.clear();
        assert_eq!(h.visible_bits(), 0);
        assert_eq!(h.z_address(), None);
    }

    #[test]
    fn zero_length_stays_zero() {
        let mut h = DelayedLghist::new(0, true, false);
        h.push_block(block(0x1000, Some((0x1000, true))));
        assert_eq!(h.visible_bits(), 0);
    }
}
