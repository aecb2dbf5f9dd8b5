//! The global branch-history register.

use std::fmt;

use ev8_trace::Outcome;

/// A global branch-history shift register of up to 64 bits.
///
/// Bit 0 is the most recent outcome (`h0` in the paper's index-function
/// notation), matching "the EV8 predictor uses 21 bits of lghist history
/// to index table G1": those are bits `h20..h0`.
///
/// # Example
///
/// ```
/// use ev8_predictors::history::GlobalHistory;
/// use ev8_trace::Outcome;
///
/// let mut h = GlobalHistory::new(8);
/// h.push(Outcome::Taken);
/// h.push(Outcome::NotTaken);
/// assert_eq!(h.bits(), 0b10); // most recent outcome in bit 0
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalHistory {
    bits: u64,
    length: u32,
    /// `length` low bits set — precomputed so the per-branch
    /// [`push_bit`](GlobalHistory::push_bit) is a branchless
    /// shift-or-mask (the push sits on every predictor's per-record
    /// critical path).
    mask: u64,
}

impl GlobalHistory {
    /// Creates an all-zero history of `length` bits.
    ///
    /// # Panics
    ///
    /// Panics if `length > 64`.
    pub fn new(length: u32) -> Self {
        assert!(length <= 64, "global history limited to 64 bits");
        GlobalHistory {
            bits: 0,
            length,
            mask: if length == 64 {
                u64::MAX
            } else {
                (1u64 << length) - 1
            },
        }
    }

    /// The configured history length in bits.
    #[inline]
    pub fn length(&self) -> u32 {
        self.length
    }

    /// The history register value; bit 0 is the most recent event.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Shifts in an outcome (1 for taken) as the new most-recent bit.
    #[inline]
    pub fn push(&mut self, outcome: Outcome) {
        self.push_bit(outcome.as_bit());
    }

    /// Shifts in a raw bit (used by lghist, whose inserted bit is outcome
    /// XOR path, not a pure outcome).
    #[inline]
    pub fn push_bit(&mut self, bit: u64) {
        debug_assert!(bit <= 1);
        self.bits = ((self.bits << 1) | bit) & self.mask;
    }

    /// The `i`-th most recent bit (`h_i` in the paper's notation; `h0` is
    /// the newest).
    #[inline]
    pub fn bit(&self, i: u32) -> u64 {
        debug_assert!(i < self.length, "history bit index out of range");
        (self.bits >> i) & 1
    }

    /// The `n` most recent bits as an integer.
    #[inline]
    pub fn low_bits(&self, n: u32) -> u64 {
        debug_assert!(n <= self.length);
        if n == 0 {
            0
        } else if n >= 64 {
            self.bits
        } else {
            self.bits & ((1u64 << n) - 1)
        }
    }

    /// Clears the register.
    pub fn clear(&mut self) {
        self.bits = 0;
    }
}

impl fmt::Debug for GlobalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GlobalHistory({:0width$b})",
            self.bits,
            width = self.length as usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_history_shifts_and_masks() {
        let mut h = GlobalHistory::new(4);
        for _ in 0..3 {
            h.push(Outcome::Taken);
        }
        assert_eq!(h.bits(), 0b111);
        h.push(Outcome::NotTaken);
        assert_eq!(h.bits(), 0b1110);
        h.push(Outcome::Taken);
        // Oldest bit fell off the 4-bit register.
        assert_eq!(h.bits(), 0b1101);
        assert_eq!(h.bit(0), 1);
        assert_eq!(h.bit(1), 0);
        assert_eq!(h.low_bits(2), 0b01);
        h.clear();
        assert_eq!(h.bits(), 0);
    }

    #[test]
    fn global_history_full_width() {
        let mut h = GlobalHistory::new(64);
        for _ in 0..100 {
            h.push(Outcome::Taken);
        }
        assert_eq!(h.bits(), u64::MAX);
        assert_eq!(h.low_bits(64), u64::MAX);
        assert_eq!(h.length(), 64);
    }

    #[test]
    fn zero_length_history_stays_zero() {
        let mut h = GlobalHistory::new(0);
        h.push(Outcome::Taken);
        assert_eq!(h.bits(), 0);
        assert_eq!(h.low_bits(0), 0);
    }

    #[test]
    #[should_panic(expected = "global history limited")]
    fn oversized_history_rejected() {
        GlobalHistory::new(65);
    }
}
