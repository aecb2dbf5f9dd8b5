//! The EV8 index functions (§7 of the paper).
//!
//! The four logical tables live in eight physical arrays (four banks ×
//! prediction/hysteresis), which constrains the indices:
//!
//! * **8 shared, unhashed bits**: the bank number `(i1,i0)` (§6) and the
//!   wordline number `(i10..i5) = (h3,h2,h1,h0,a8,a7)` — wordline decode
//!   is on the critical path, so these bits cannot be hashed.
//! * **Column bits** `(i15..i11)` (`(i13..i11)` for the 16K-entry BIM):
//!   only a single 2-input XOR gate is allowed per bit.
//! * **Unshuffle bits** `(i4,i3,i2)`: select the prediction inside the
//!   8-bit word read from the array; computed a cycle earlier, so
//!   arbitrarily wide XOR trees are allowed ("11 bits are XORed in the
//!   unshuffling function on table G1").
//!
//! The concrete equations below follow §7.4-7.5 of the paper. The
//! available text of the paper has a few typographically lost terms
//! (noted `reconstructed` in comments); the reconstructions obey the
//! paper's stated design rules: single-XOR column bits preferring history
//! bits, distinct XOR pairs across tables, per-slot bits `a4..a2` present
//! in the unshuffle, and path bits `z5`/`z6` from the previous fetch
//! block mixed into BIM and the unshuffles.
//!
//! Notation (§7.3): `H = (h20..h0)` is the three-blocks-old lghist,
//! `A = (a52..a2)` the fetch-block/branch address, `Z` the previous fetch
//! block's address, `I = (i15..i0)` the table index with `(i1,i0)` the
//! bank, `(i4,i3,i2)` the offset in the 8-bit word, `(i10..i5)` the
//! wordline and the highest bits the column.
//!
//! [`IndexInputs`] is the one place the equations are written, and the
//! reference. The predictor evaluates all four at once through
//! [`IndexInputs::indices`], a table of their images derived from the
//! equations themselves.

use std::sync::OnceLock;

use ev8_predictors::twobcgskew::Indices;
use ev8_trace::Pc;

use crate::banks::BankId;
use crate::config::WordlineMode;

/// All inputs the EV8 index functions consume for one branch.
#[derive(Clone, Copy, Debug)]
pub struct IndexInputs {
    /// The branch's PC (bits ≥ 5 equal the fetch block address bits).
    pub pc: Pc,
    /// The visible (three-blocks-old) lghist value; bit 0 = `h0`.
    pub history: u64,
    /// Address of the previous fetch block (`Z`), zero at stream start.
    pub z: Pc,
    /// The bank selected for this fetch block.
    pub bank: BankId,
    /// Wordline selection variant (Fig 9 axis).
    pub wordline: WordlineMode,
}

impl IndexInputs {
    #[inline]
    fn a(&self, i: u32) -> u64 {
        self.pc.bit(i)
    }

    #[inline]
    fn h(&self, i: u32) -> u64 {
        (self.history >> i) & 1
    }

    #[inline]
    fn z(&self, i: u32) -> u64 {
        self.z.bit(i)
    }

    /// The shared 6-bit wordline number `(i10..i5)`.
    ///
    /// EV8 mode: `(h3,h2,h1,h0,a8,a7)` — four history bits make wordline
    /// use far more uniform than pure address bits (§7.3). Address-only
    /// mode: `(a12..a7)`.
    pub fn wordline_bits(&self) -> u64 {
        match self.wordline {
            WordlineMode::HistoryAndAddress => {
                (self.h(3) << 5)
                    | (self.h(2) << 4)
                    | (self.h(1) << 3)
                    | (self.h(0) << 2)
                    | (self.a(8) << 1)
                    | self.a(7)
            }
            WordlineMode::AddressOnly => {
                (self.a(12) << 5)
                    | (self.a(11) << 4)
                    | (self.a(10) << 3)
                    | (self.a(9) << 2)
                    | (self.a(8) << 1)
                    | self.a(7)
            }
        }
    }

    fn assemble(&self, column: u64, offset: u64, column_bits: u32) -> usize {
        debug_assert!(offset < 8);
        debug_assert!(column < (1 << column_bits));
        let wl = self.wordline_bits();
        ((column << 11) | (wl << 5) | (offset << 2) | self.bank as u64) as usize
    }

    /// BIM index (14 bits: 3 column, 6 wordline, 3 offset, 2 bank).
    ///
    /// §7.4: BIM's extra bits use path information from the last fetch
    /// block `Z`: `(i13,i12,i11,i4,i3,i2) = (a11, a10⊕z5, a9⊕z6, a4,
    /// a3⊕z5, a2⊕z6)` (the `z`-XORed terms are reconstructed).
    pub fn bim(&self) -> usize {
        let column = (self.a(11) << 2) | ((self.a(10) ^ self.z(5)) << 1) | (self.a(9) ^ self.z(6));
        let offset = (self.a(4) << 2) | ((self.a(3) ^ self.z(5)) << 1) | (self.a(2) ^ self.z(6));
        self.assemble(column, offset, 3)
    }

    /// G0 index (16 bits).
    ///
    /// §7.5: G0 and Meta share `i15` and `i14`. Column
    /// `(i15..i11) = (h7⊕h11, h8⊕h12, h5⊕h10, h3⊕h12, a10⊕h6)` (the three
    /// low column bits are reconstructed; the two shared ones come from
    /// the Meta equations). Unshuffle:
    /// `i4 = a4⊕a12⊕h5⊕h8⊕h11⊕z5` (reconstructed),
    /// `i3 = a3⊕a11⊕h9⊕h10⊕h12⊕z6⊕a5`,
    /// `i2 = a2⊕a14⊕a10⊕h6⊕h4⊕h7⊕a6`.
    pub fn g0(&self) -> usize {
        let column = ((self.h(7) ^ self.h(11)) << 4)
            | ((self.h(8) ^ self.h(12)) << 3)
            | ((self.h(5) ^ self.h(10)) << 2)
            | ((self.h(3) ^ self.h(12)) << 1)
            | (self.a(10) ^ self.h(6));
        let i4 = self.a(4) ^ self.a(12) ^ self.h(5) ^ self.h(8) ^ self.h(11) ^ self.z(5);
        let i3 =
            self.a(3) ^ self.a(11) ^ self.h(9) ^ self.h(10) ^ self.h(12) ^ self.z(6) ^ self.a(5);
        let i2 =
            self.a(2) ^ self.a(14) ^ self.a(10) ^ self.h(6) ^ self.h(4) ^ self.h(7) ^ self.a(6);
        self.assemble(column, (i4 << 2) | (i3 << 1) | i2, 5)
    }

    /// G1 index (16 bits).
    ///
    /// §7.5 (verbatim): column `(i15..i11) = (h19⊕h12, h18⊕h11, h17⊕h10,
    /// h16⊕h4, h15⊕h20)`. Unshuffle:
    /// `i4 = a4⊕h9⊕h14⊕h15⊕h16⊕z6` (slot bit restored),
    /// `i3 = a3⊕a4⊕a11⊕a14⊕a6⊕h4⊕h6⊕a10⊕a13⊕h5⊕h11⊕h13⊕h18⊕h19⊕h20⊕z5`
    /// (the 11-plus-bit XOR tree the paper highlights),
    /// `i2 = a2⊕a5⊕a9⊕h4⊕h8⊕h7⊕h10⊕h12⊕h13⊕h14⊕h17`.
    pub fn g1(&self) -> usize {
        let column = ((self.h(19) ^ self.h(12)) << 4)
            | ((self.h(18) ^ self.h(11)) << 3)
            | ((self.h(17) ^ self.h(10)) << 2)
            | ((self.h(16) ^ self.h(4)) << 1)
            | (self.h(15) ^ self.h(20));
        let i4 = self.a(4) ^ self.h(9) ^ self.h(14) ^ self.h(15) ^ self.h(16) ^ self.z(6);
        let i3 = self.a(3)
            ^ self.a(4)
            ^ self.a(11)
            ^ self.a(14)
            ^ self.a(6)
            ^ self.h(4)
            ^ self.h(6)
            ^ self.a(10)
            ^ self.a(13)
            ^ self.h(5)
            ^ self.h(11)
            ^ self.h(13)
            ^ self.h(18)
            ^ self.h(19)
            ^ self.h(20)
            ^ self.z(5);
        let i2 = self.a(2)
            ^ self.a(5)
            ^ self.a(9)
            ^ self.h(4)
            ^ self.h(8)
            ^ self.h(7)
            ^ self.h(10)
            ^ self.h(12)
            ^ self.h(13)
            ^ self.h(14)
            ^ self.h(17);
        self.assemble(column, (i4 << 2) | (i3 << 1) | i2, 5)
    }

    /// Meta index (16 bits).
    ///
    /// §7.5 (verbatim): column `(i15..i11) = (h7⊕h11, h8⊕h12, h5⊕h13,
    /// h4⊕h9, a9⊕h6)`. Unshuffle:
    /// `i4 = a4⊕a10⊕a5⊕h7⊕h10⊕h14⊕h13⊕z5`,
    /// `i3 = a3⊕a12⊕a14⊕a6⊕h4⊕h6⊕h8⊕h14`,
    /// `i2 = a2⊕a9⊕a11⊕a13⊕h5⊕h9⊕h11⊕h12⊕z6`.
    pub fn meta(&self) -> usize {
        let column = ((self.h(7) ^ self.h(11)) << 4)
            | ((self.h(8) ^ self.h(12)) << 3)
            | ((self.h(5) ^ self.h(13)) << 2)
            | ((self.h(4) ^ self.h(9)) << 1)
            | (self.a(9) ^ self.h(6));
        let i4 = self.a(4)
            ^ self.a(10)
            ^ self.a(5)
            ^ self.h(7)
            ^ self.h(10)
            ^ self.h(14)
            ^ self.h(13)
            ^ self.z(5);
        let i3 = self.a(3)
            ^ self.a(12)
            ^ self.a(14)
            ^ self.a(6)
            ^ self.h(4)
            ^ self.h(6)
            ^ self.h(8)
            ^ self.h(14);
        let i2 = self.a(2)
            ^ self.a(9)
            ^ self.a(11)
            ^ self.a(13)
            ^ self.h(5)
            ^ self.h(9)
            ^ self.h(11)
            ^ self.h(12)
            ^ self.z(6);
        self.assemble(column, (i4 << 2) | (i3 << 1) | i2, 5)
    }

    /// All four indices at once: exactly `bim()`, `g0()`, `g1()` and
    /// `meta()`, evaluated as one tabulated linear map of these same
    /// equations (six table lookups XORed together). The predictor
    /// indexes through this; the four methods above are the reference it
    /// is pinned against.
    #[inline]
    pub fn indices(&self) -> Indices {
        let packed = LinearIndex::shared(self.wordline).packed(self);
        Indices {
            bim: (packed & 0xFFFF) as usize,
            g0: (packed >> 16 & 0xFFFF) as usize,
            g1: (packed >> 32 & 0xFFFF) as usize,
            meta: (packed >> 48) as usize,
        }
    }
}

/// Lowest PC bit of the slot table's input (`a2..a4`).
const SLOT_LO: u32 = 2;
/// Lowest PC bit of the address table's input (`a5..a14`).
const ADDRESS_LO: u32 = 5;
/// Width of the address table's input.
const ADDRESS_BITS: u32 = 10;
/// Lowest `Z` bit the equations read (`z5, z6`).
const Z_LO: u32 = 5;

/// The four §7 indices as one tabulated GF(2)-linear map.
///
/// Every index bit of [`IndexInputs`] is an XOR of PC, history and `Z`
/// bits, and `assemble` ORs disjoint fields with the bank alone in bits
/// 1..0. So the four indices, packed as 16-bit lanes of one `u64` (BIM,
/// G0, G1, Meta from the low lane up), are the XOR of the packed images
/// of the input bits that are set. The equations read no input bits but
/// `h0..h20`, `a2..a14`, `z5, z6` and the bank, so six tables hold every
/// image: three history bytes, the block-address bits `a5..a14`, the
/// path bits with the bank, and the 8-entry slot table `a2..a4`. Each
/// entry is [`IndexInputs`] evaluated on unit vectors, so the equations
/// stay written once.
struct LinearIndex {
    /// Images of `h0..h7`, `h8..h15` and `h16..h23`, one table per byte.
    history: [[u64; 256]; 3],
    /// Images of `a5..a14`.
    address: [u64; 1 << ADDRESS_BITS],
    /// Images of `(z6, z5, bank)`, indexed `z6 z5 b1 b0`.
    path_bank: [u64; 16],
    /// Images of the slot bits `a2..a4`.
    slot: [u64; 8],
}

impl LinearIndex {
    /// Tabulates the equations of [`IndexInputs`] under `wordline`.
    fn new(wordline: WordlineMode) -> Self {
        let image = |pc: u64, history: u64, z: u64, bank: BankId| {
            let inputs = IndexInputs {
                pc: Pc::new(pc),
                history,
                z: Pc::new(z),
                bank,
                wordline,
            };
            inputs.bim() as u64
                | (inputs.g0() as u64) << 16
                | (inputs.g1() as u64) << 32
                | (inputs.meta() as u64) << 48
        };
        LinearIndex {
            history: std::array::from_fn(|byte| {
                span(|bit| image(0, 1 << (8 * byte as u32 + bit), 0, 0))
            }),
            address: span(|bit| image(1 << (ADDRESS_LO + bit), 0, 0, 0)),
            path_bank: span(|bit| match bit {
                0 | 1 => image(0, 0, 0, 1 << bit),
                _ => image(0, 0, 1 << (Z_LO + bit - 2), 0),
            }),
            slot: span(|bit| image(1 << (SLOT_LO + bit), 0, 0, 0)),
        }
    }

    /// The tables for `wordline`, built on first use and shared by every
    /// front end in the process (about 14.5 KB each).
    fn shared(wordline: WordlineMode) -> &'static LinearIndex {
        static HISTORY_AND_ADDRESS: OnceLock<LinearIndex> = OnceLock::new();
        static ADDRESS_ONLY: OnceLock<LinearIndex> = OnceLock::new();
        let cell = match wordline {
            WordlineMode::HistoryAndAddress => &HISTORY_AND_ADDRESS,
            WordlineMode::AddressOnly => &ADDRESS_ONLY,
        };
        cell.get_or_init(|| LinearIndex::new(wordline))
    }

    /// The packed indices of `inputs`: six lookups XORed together.
    #[inline]
    fn packed(&self, inputs: &IndexInputs) -> u64 {
        let (pc, history, z) = (inputs.pc.as_u64(), inputs.history, inputs.z.as_u64());
        self.history[0][(history & 0xFF) as usize]
            ^ self.history[1][(history >> 8 & 0xFF) as usize]
            ^ self.history[2][(history >> 16 & 0xFF) as usize]
            ^ self.address[(pc >> ADDRESS_LO) as usize & ((1 << ADDRESS_BITS) - 1)]
            ^ self.path_bank[((z >> Z_LO & 0b11) << 2 | u64::from(inputs.bank & 0b11)) as usize]
            ^ self.slot[(pc >> SLOT_LO & 0b111) as usize]
    }
}

/// The table over `log2(N)` input bits whose entry `v` XORs the images
/// `unit(i)` of the bits `i` set in `v`. Entry 0 is the image of zero,
/// which is zero: the equations have no constant term.
fn span<const N: usize>(unit: impl Fn(u32) -> u64) -> [u64; N] {
    let mut table = [0; N];
    for v in 1..N {
        table[v] = table[v & (v - 1)] ^ unit(v.trailing_zeros());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(pc: u64, history: u64, z: u64, bank: BankId) -> IndexInputs {
        IndexInputs {
            pc: Pc::new(pc),
            history,
            z: Pc::new(z),
            bank,
            wordline: WordlineMode::HistoryAndAddress,
        }
    }

    #[test]
    fn indices_fit_table_sizes() {
        for seed in 0..200u64 {
            let pc = seed.wrapping_mul(0x9E37_79B9) & 0xF_FFFF;
            let h = seed.wrapping_mul(0x85EB_CA6B);
            let z = seed.wrapping_mul(0xC2B2_AE35) & 0xF_FFFF;
            let iv = inputs(pc, h, z, (seed % 4) as BankId);
            assert!(iv.bim() < 1 << 14);
            assert!(iv.g0() < 1 << 16);
            assert!(iv.g1() < 1 << 16);
            assert!(iv.meta() < 1 << 16);
        }
    }

    #[test]
    fn bank_bits_are_the_low_two() {
        for bank in 0..4u8 {
            let iv = inputs(0x1234_5678, 0xABCDEF, 0x8765_4320, bank);
            assert_eq!((iv.bim() & 0b11) as u8, bank);
            assert_eq!((iv.g0() & 0b11) as u8, bank);
            assert_eq!((iv.g1() & 0b11) as u8, bank);
            assert_eq!((iv.meta() & 0b11) as u8, bank);
        }
    }

    #[test]
    fn wordline_is_shared_across_tables() {
        let iv = inputs(0xDEAD_BEE0, 0x13579B, 0x2468_ACE0, 2);
        let wl = iv.wordline_bits();
        for idx in [iv.bim(), iv.g0(), iv.g1(), iv.meta()] {
            assert_eq!(((idx >> 5) & 0x3F) as u64, wl);
        }
    }

    #[test]
    fn wordline_equation_matches_paper() {
        // (i10..i5) = (h3,h2,h1,h0,a8,a7)
        let iv = inputs(0b1_1000_0000, 0b1010, 0, 0);
        // h3=1,h2=0,h1=1,h0=0, a8=1, a7=1
        assert_eq!(iv.wordline_bits(), 0b10_1011);
    }

    #[test]
    fn address_only_wordline_uses_high_pc_bits() {
        let mut iv = inputs(0b1_1111_1000_0000, u64::MAX, 0, 0);
        iv.wordline = WordlineMode::AddressOnly;
        // a12..a7 = 0b111111
        assert_eq!(iv.wordline_bits(), 0b11_1111);
        // History must not affect the address-only wordline.
        let mut iv2 = iv;
        iv2.history = 0;
        assert_eq!(iv.wordline_bits(), iv2.wordline_bits());
    }

    #[test]
    fn slots_within_a_block_map_to_distinct_offsets() {
        // The 8 instructions of a fetch block share everything except
        // pc bits 4..2; the unshuffle must keep their 8 predictions
        // distinct within the 8-bit word (a bijection on slots).
        let base = 0x4_0120u64 & !0b11111;
        for (h, z) in [(0u64, 0u64), (0x155555, 0x3220), (0xFFFFF, 0x1040)] {
            for table in 0..4 {
                let mut seen = [false; 8];
                for slot in 0..8u64 {
                    let iv = inputs(base + 4 * slot, h, z, 1);
                    let idx = match table {
                        0 => iv.bim(),
                        1 => iv.g0(),
                        2 => iv.g1(),
                        _ => iv.meta(),
                    };
                    let offset = (idx >> 2) & 0b111;
                    assert!(!seen[offset], "slot collision in table {table}");
                    seen[offset] = true;
                }
            }
        }
    }

    #[test]
    fn eight_predictions_lie_in_one_word() {
        // All slots of a block share bank, wordline and column — i.e. the
        // index differs only in bits 4..2 (§6.1: "eight predictions lie in
        // a single 8-bit word").
        let base = 0x7_8900u64 & !0b11111;
        let word_of = |idx: usize| idx & !0b11100;
        let r0 = inputs(base, 0x3_1415, 0x9260, 3);
        for table in 0..4 {
            let f = |iv: &IndexInputs| match table {
                0 => iv.bim(),
                1 => iv.g0(),
                2 => iv.g1(),
                _ => iv.meta(),
            };
            let w = word_of(f(&r0));
            for slot in 1..8u64 {
                let iv = inputs(base + 4 * slot, 0x3_1415, 0x9260, 3);
                assert_eq!(word_of(f(&iv)), w, "table {table} slot {slot}");
            }
        }
    }

    #[test]
    fn g0_and_meta_share_top_column_bits() {
        for seed in 0..100u64 {
            let iv = inputs(
                seed.wrapping_mul(0x9E37_79B9) & 0xFFFFF,
                seed.wrapping_mul(0x85EB_CA6B),
                seed.wrapping_mul(0xC2B2_AE35) & 0xFFFFF,
                0,
            );
            assert_eq!(iv.g0() >> 14, iv.meta() >> 14, "i15/i14 must be shared");
        }
    }

    #[test]
    fn history_length_budgets_respected() {
        // G0 may only see h0..h12 (13 bits), Meta h0..h14, G1 h0..h20,
        // BIM h0..h3: flipping history bits beyond each budget must not
        // change that table's index.
        let base_h = 0x0u64;
        let probe = |table: usize, h: u64| {
            let iv = inputs(0x5_4321 & !0b11, h, 0x1_0000, 2);
            match table {
                0 => iv.bim(),
                1 => iv.g0(),
                2 => iv.g1(),
                _ => iv.meta(),
            }
        };
        for (table, budget) in [(0usize, 4u32), (1, 13), (2, 21), (3, 15)] {
            let base_idx = probe(table, base_h);
            for bit in budget..40 {
                assert_eq!(
                    probe(table, base_h | (1 << bit)),
                    base_idx,
                    "table {table} leaked history bit {bit}"
                );
            }
            // And at least one in-budget bit does matter.
            let mut influenced = false;
            for bit in 0..budget {
                if probe(table, base_h | (1 << bit)) != base_idx {
                    influenced = true;
                    break;
                }
            }
            assert!(influenced, "table {table} ignores its history entirely");
        }
    }

    #[test]
    fn z_path_bits_influence_bim_and_unshuffles() {
        let a = inputs(0x5_4320, 0x12345, 0b00_00000, 1);
        let b = inputs(0x5_4320, 0x12345, 0b11_00000, 1); // z6,z5 flipped
        assert_ne!(a.bim(), b.bim(), "BIM must use Z path bits");
        assert_ne!(a.g0(), b.g0(), "G0 unshuffle must use Z path bits");
        assert_ne!(a.g1(), b.g1(), "G1 unshuffle must use Z path bits");
        assert_ne!(a.meta(), b.meta(), "Meta unshuffle must use Z path bits");
    }

    #[test]
    fn tables_decorrelate_on_history() {
        // Two histories that collide in one table's column should rarely
        // collide in the others (§7.5 principle 3). Spot-check: find a G0
        // column collision and verify G1/Meta disperse.
        let mk = |h: u64| inputs(0x9_8760, h, 0x4_0000, 0);
        let base = mk(0x00155);
        let mut dispersed = 0;
        let mut collisions = 0;
        for h in 0..4096u64 {
            let other = mk(h);
            if h != 0x00155 && other.g0() == base.g0() {
                collisions += 1;
                if other.g1() != base.g1() || other.meta() != base.meta() {
                    dispersed += 1;
                }
            }
        }
        if collisions > 0 {
            assert!(
                dispersed * 10 >= collisions * 9,
                "G0 collisions should disperse elsewhere: {dispersed}/{collisions}"
            );
        }
    }
}
