//! Vocabulary types: program counters, branch kinds, outcomes and records.

use std::fmt;

use ev8_util::json::{JsonObject, ToJson};

/// A program counter (instruction address).
///
/// Alpha instructions are 4 bytes, so the two least significant bits of a
/// valid `Pc` are always zero. The EV8 index functions of the paper refer to
/// PC bits by absolute position (`a2` is the lowest meaningful bit, `a4` the
/// bit XORed into lghist, `a7`/`a8` the wordline bits, ...); [`Pc::bit`]
/// exposes exactly that numbering.
///
/// # Example
///
/// ```
/// use ev8_trace::Pc;
///
/// let pc = Pc::new(0x1234_5670);
/// assert_eq!(pc.bit(4), (0x1234_5670u64 >> 4) & 1);
/// assert_eq!(pc.next().as_u64(), 0x1234_5674);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Size of one instruction in bytes (Alpha: fixed 4-byte encoding).
    pub const INSTRUCTION_BYTES: u64 = 4;

    /// Creates a program counter, aligning it down to an instruction
    /// boundary (the two low bits are forced to zero, as on Alpha).
    #[inline]
    pub const fn new(addr: u64) -> Self {
        Pc(addr & !0b11)
    }

    /// The raw address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Bit `i` of the address (0 or 1), using the paper's absolute bit
    /// numbering: bit 2 is the lowest bit that can differ between
    /// instructions.
    #[inline]
    pub const fn bit(self, i: u32) -> u64 {
        (self.0 >> i) & 1
    }

    /// A contiguous bit field `[lo, lo+len)` of the address.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or `lo + len > 64`.
    #[inline]
    pub fn bits(self, lo: u32, len: u32) -> u64 {
        assert!(len > 0 && lo + len <= 64, "bit range out of bounds");
        if len == 64 {
            self.0 >> lo
        } else {
            (self.0 >> lo) & ((1u64 << len) - 1)
        }
    }

    /// The address of the sequentially following instruction. Addresses
    /// are circular: the slot after the top one is address 0.
    #[inline]
    pub const fn next(self) -> Self {
        Pc(self.0.wrapping_add(Self::INSTRUCTION_BYTES))
    }

    /// The address `n` instructions later in sequential order, wrapping
    /// like [`Pc::next`].
    #[inline]
    pub const fn advance(self, n: u64) -> Self {
        Pc(self.0.wrapping_add(n.wrapping_mul(Self::INSTRUCTION_BYTES)))
    }

    /// Index of this instruction within its aligned 8-instruction fetch
    /// block (0..=7). EV8 fetch blocks are 32-byte aligned.
    #[inline]
    pub const fn slot_in_fetch_block(self) -> u64 {
        (self.0 >> 2) & 0b111
    }

    /// The address of the aligned 8-instruction block containing this
    /// instruction (32-byte aligned).
    #[inline]
    pub const fn fetch_block_base(self) -> Self {
        Pc(self.0 & !0b1_1111)
    }

    /// True when this instruction is the last slot of its aligned
    /// 8-instruction block.
    #[inline]
    pub const fn is_last_in_fetch_block(self) -> bool {
        self.slot_in_fetch_block() == 7
    }
}

impl From<u64> for Pc {
    fn from(addr: u64) -> Self {
        Pc::new(addr)
    }
}

impl From<Pc> for u64 {
    fn from(pc: Pc) -> Self {
        pc.0
    }
}

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pc({:#x})", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// The dynamic outcome of a conditional branch.
///
/// A dedicated type (rather than `bool`) keeps call sites readable and
/// provides the taken/not-taken vocabulary of the paper.
///
/// # Example
///
/// ```
/// use ev8_trace::Outcome;
///
/// assert!(Outcome::Taken.is_taken());
/// assert_eq!(Outcome::from(false), Outcome::NotTaken);
/// assert_eq!(Outcome::Taken.as_bit(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Outcome {
    /// The branch was not taken (fell through).
    NotTaken,
    /// The branch was taken.
    Taken,
}

impl Outcome {
    /// True if the branch was taken.
    #[inline]
    pub const fn is_taken(self) -> bool {
        matches!(self, Outcome::Taken)
    }

    /// The outcome as a history bit: 1 for taken, 0 for not taken.
    #[inline]
    pub const fn as_bit(self) -> u64 {
        match self {
            Outcome::Taken => 1,
            Outcome::NotTaken => 0,
        }
    }

    /// The opposite outcome.
    #[inline]
    pub const fn flipped(self) -> Self {
        match self {
            Outcome::Taken => Outcome::NotTaken,
            Outcome::NotTaken => Outcome::Taken,
        }
    }
}

impl From<bool> for Outcome {
    #[inline]
    fn from(taken: bool) -> Self {
        if taken {
            Outcome::Taken
        } else {
            Outcome::NotTaken
        }
    }
}

impl From<Outcome> for bool {
    #[inline]
    fn from(o: Outcome) -> bool {
        o.is_taken()
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Taken => f.write_str("taken"),
            Outcome::NotTaken => f.write_str("not-taken"),
        }
    }
}

/// Classification of a control transfer instruction.
///
/// The EV8 front end treats these differently: conditional branches go to
/// the conditional branch predictor, calls push the return address stack,
/// returns pop it, indirect jumps use the jump predictor. Only
/// [`BranchKind::Conditional`] records are predicted by the predictors in
/// this workspace; the rest shape fetch-block formation and path history.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// A conditional direct branch.
    Conditional,
    /// An unconditional direct branch (always taken).
    Unconditional,
    /// A subroutine call (always taken, pushes return address).
    Call,
    /// A subroutine return (always taken, indirect via return stack).
    Return,
    /// An indirect jump through a register.
    IndirectJump,
}

impl BranchKind {
    /// True for [`BranchKind::Conditional`].
    #[inline]
    pub const fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }

    /// True for kinds that are always taken when executed
    /// (everything except conditional branches).
    #[inline]
    pub const fn is_always_taken(self) -> bool {
        !self.is_conditional()
    }

    /// All branch kinds, in a stable order (the packed kind index of
    /// [`FlatTrace`](crate::FlatTrace) is a position in it).
    pub const ALL: [BranchKind; 5] = [
        BranchKind::Conditional,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::IndirectJump,
    ];
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Conditional => "cond",
            BranchKind::Unconditional => "uncond",
            BranchKind::Call => "call",
            BranchKind::Return => "ret",
            BranchKind::IndirectJump => "ijmp",
        };
        f.write_str(s)
    }
}

/// One dynamic control-transfer instruction in a trace.
///
/// `gap` records how many non-control-transfer instructions executed
/// sequentially immediately before this branch; it lets a [`crate::Trace`]
/// carry exact instruction counts (for the paper's misp/KI metric) and lets
/// the EV8 front-end model reconstruct fetch blocks without storing every
/// instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BranchRecord {
    /// Address of the branch instruction itself.
    pub pc: Pc,
    /// Branch target address (meaningful when taken).
    pub target: Pc,
    /// Kind of control transfer.
    pub kind: BranchKind,
    /// Dynamic outcome. Always [`Outcome::Taken`] for non-conditional kinds.
    pub outcome: Outcome,
    /// Number of non-branch instructions that executed sequentially just
    /// before this branch.
    pub gap: u32,
}

impl BranchRecord {
    /// Creates a conditional branch record with no preceding gap.
    #[inline]
    pub fn conditional(pc: Pc, target: Pc, taken: bool) -> Self {
        BranchRecord {
            pc,
            target,
            kind: BranchKind::Conditional,
            outcome: Outcome::from(taken),
            gap: 0,
        }
    }

    /// Creates an always-taken record of the given non-conditional kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`BranchKind::Conditional`]; use
    /// [`BranchRecord::conditional`] for those.
    #[inline]
    pub fn always_taken(pc: Pc, target: Pc, kind: BranchKind) -> Self {
        assert!(
            !kind.is_conditional(),
            "use BranchRecord::conditional for conditional branches"
        );
        BranchRecord {
            pc,
            target,
            kind,
            outcome: Outcome::Taken,
            gap: 0,
        }
    }

    /// Returns a copy with the preceding instruction gap set.
    #[inline]
    pub fn with_gap(mut self, gap: u32) -> Self {
        self.gap = gap;
        self
    }

    /// True if the dynamic outcome is taken.
    #[inline]
    pub fn is_taken(&self) -> bool {
        self.outcome.is_taken()
    }

    /// The address of the instruction that executes after this branch:
    /// the target when taken, the fall-through otherwise.
    #[inline]
    pub fn next_pc(&self) -> Pc {
        if self.is_taken() {
            self.target
        } else {
            self.pc.next()
        }
    }
}

impl ToJson for Pc {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl ToJson for Outcome {
    fn write_json(&self, out: &mut String) {
        self.is_taken().write_json(out);
    }
}

impl ToJson for BranchKind {
    fn write_json(&self, out: &mut String) {
        self.to_string().write_json(out);
    }
}

impl ToJson for BranchRecord {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::new();
        o.field("pc", &self.pc)
            .field("target", &self.target)
            .field("kind", &self.kind)
            .field("taken", &self.outcome)
            .field("gap", &self.gap);
        o.finish_into(out);
    }
}

impl fmt::Display for BranchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} -> {} ({})",
            self.kind, self.pc, self.target, self.outcome
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_alignment_forced() {
        assert_eq!(Pc::new(0x1003).as_u64(), 0x1000);
        assert_eq!(Pc::new(0x1004).as_u64(), 0x1004);
    }

    #[test]
    fn pc_bit_extraction() {
        let pc = Pc::new(0b1011_0100);
        assert_eq!(pc.bit(2), 1);
        assert_eq!(pc.bit(3), 0);
        assert_eq!(pc.bit(4), 1);
        assert_eq!(pc.bit(5), 1);
        assert_eq!(pc.bit(6), 0);
        assert_eq!(pc.bit(7), 1);
    }

    #[test]
    fn pc_bits_field() {
        let pc = Pc::new(0xdead_beec);
        assert_eq!(pc.bits(2, 8), (0xdead_beecu64 >> 2) & 0xff);
        assert_eq!(pc.bits(0, 64), 0xdead_beec);
    }

    #[test]
    #[should_panic(expected = "bit range out of bounds")]
    fn pc_bits_out_of_range_panics() {
        Pc::new(0).bits(60, 8);
    }

    #[test]
    fn pc_sequencing() {
        let pc = Pc::new(0x1000);
        assert_eq!(pc.next().as_u64(), 0x1004);
        assert_eq!(pc.advance(7).as_u64(), 0x101c);
    }

    #[test]
    fn pc_fetch_block_geometry() {
        // Block base 0x1000 holds slots 0x1000..0x101c.
        let base = Pc::new(0x1000);
        assert_eq!(base.slot_in_fetch_block(), 0);
        assert_eq!(base.fetch_block_base(), base);
        let last = Pc::new(0x101c);
        assert_eq!(last.slot_in_fetch_block(), 7);
        assert!(last.is_last_in_fetch_block());
        assert_eq!(last.fetch_block_base(), base);
        let mid = Pc::new(0x1010);
        assert_eq!(mid.slot_in_fetch_block(), 4);
        assert!(!mid.is_last_in_fetch_block());
    }

    #[test]
    fn outcome_conversions() {
        assert_eq!(Outcome::from(true), Outcome::Taken);
        assert_eq!(Outcome::from(false), Outcome::NotTaken);
        assert!(bool::from(Outcome::Taken));
        assert!(!bool::from(Outcome::NotTaken));
        assert_eq!(Outcome::Taken.as_bit(), 1);
        assert_eq!(Outcome::NotTaken.as_bit(), 0);
        assert_eq!(Outcome::Taken.flipped(), Outcome::NotTaken);
        assert_eq!(Outcome::NotTaken.flipped(), Outcome::Taken);
    }

    #[test]
    fn branch_kind_classification() {
        assert!(BranchKind::Conditional.is_conditional());
        for k in [
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::IndirectJump,
        ] {
            assert!(!k.is_conditional());
            assert!(k.is_always_taken());
        }
        assert!(!BranchKind::Conditional.is_always_taken());
        assert_eq!(BranchKind::ALL.len(), 5);
    }

    #[test]
    fn record_next_pc_taken_and_fallthrough() {
        let taken = BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2000), true);
        assert_eq!(taken.next_pc(), Pc::new(0x2000));
        let nt = BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2000), false);
        assert_eq!(nt.next_pc(), Pc::new(0x1004));
    }

    #[test]
    #[should_panic(expected = "use BranchRecord::conditional")]
    fn always_taken_rejects_conditional() {
        BranchRecord::always_taken(Pc::new(0), Pc::new(4), BranchKind::Conditional);
    }

    #[test]
    fn record_with_gap() {
        let r = BranchRecord::conditional(Pc::new(0x40), Pc::new(0x80), true).with_gap(5);
        assert_eq!(r.gap, 5);
    }

    #[test]
    fn display_formats_are_nonempty() {
        let r = BranchRecord::conditional(Pc::new(0x40), Pc::new(0x80), true);
        assert!(!format!("{r}").is_empty());
        assert!(!format!("{:?}", Pc::new(0x40)).is_empty());
        assert_eq!(format!("{}", Outcome::Taken), "taken");
        assert_eq!(format!("{}", BranchKind::Return), "ret");
    }
}
