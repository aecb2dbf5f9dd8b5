//! Bit-packed storage for predictor tables.
//!
//! The paper's tables are *bit* arrays — one prediction bit and one
//! hysteresis bit per entry (§4.3), or one 2-bit counter per entry for
//! the classic schemes. Storing each bit in a `u8` inflates the EV8's
//! 352 Kbit predictor to ~90 KB of table bytes, which spills the L1/L2
//! cache in the simulate hot loop. These containers pack the same state
//! into `u64` words (64 bits or 32 counters per word) so a full EV8
//! predictor fits in ~11 KB and stays cache-resident.
//!
//! Both containers reproduce the byte-array semantics **bit for bit**:
//! reads reassemble exactly the stored bits, and writes change exactly
//! the addressed bit(s). `tests/property_invariants.rs` checks them
//! step-for-step against byte-array reference models under random
//! operation sequences.

use ev8_trace::Outcome;

use crate::counter::Counter2;

/// A fixed-length bit vector packed into `u64` words.
///
/// # Example
///
/// ```
/// use ev8_predictors::bitvec::BitVec;
///
/// let mut v = BitVec::filled(100, 1);
/// assert_eq!(v.get(99), 1);
/// v.set(99, 0);
/// assert_eq!(v.get(99), 0);
/// assert_eq!(v.len(), 100);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a vector of `len` bits, each initialized to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not 0 or 1.
    pub fn filled(len: usize, bit: u8) -> Self {
        assert!(bit <= 1, "bit must be 0 or 1");
        let fill = if bit == 1 { u64::MAX } else { 0 };
        BitVec {
            words: vec![fill; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `index` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> u8 {
        assert!(index < self.len, "bit index {index} out of bounds");
        ((self.words[index >> 6] >> (index & 63)) & 1) as u8
    }

    /// Sets the bit at `index` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or `bit` is not 0 or 1.
    #[inline]
    pub fn set(&mut self, index: usize, bit: u8) {
        assert!(index < self.len, "bit index {index} out of bounds");
        debug_assert!(bit <= 1, "bit must be 0 or 1");
        let mask = 1u64 << (index & 63);
        let word = &mut self.words[index >> 6];
        *word = (*word & !mask) | ((bit as u64) << (index & 63));
    }

    /// Inverts the bit at `index` — the single-event-upset (SEU) fault
    /// primitive. A soft error in an SRAM cell is exactly one inverted
    /// bit; predictor state is speculative, so a flip can only cost extra
    /// mispredictions, never correctness.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn flip(&mut self, index: usize) {
        assert!(index < self.len, "bit index {index} out of bounds");
        self.words[index >> 6] ^= 1u64 << (index & 63);
    }

    /// Number of backing `u64` words.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Reads backing word `word` with the index masked to the
    /// (power-of-two) word count, so the compiler can prove the access in
    /// bounds and drop the slice check (crate-internal: split-table hot
    /// path; see [`BitVec::rmw_bit`] for the power-of-two contract).
    #[inline]
    pub(crate) fn word_masked(&self, word: usize) -> u64 {
        debug_assert!(self.words.len().is_power_of_two());
        self.words[word & (self.words.len() - 1)]
    }

    /// Mutable masked companion of [`BitVec::word_masked`]: one
    /// bounds-free borrow serving both the load and the store of a hot
    /// read-modify-write (callers must only change live bits).
    #[inline]
    pub(crate) fn word_masked_mut(&mut self, word: usize) -> &mut u64 {
        debug_assert!(self.words.len().is_power_of_two());
        let mask = self.words.len() - 1;
        &mut self.words[word & mask]
    }

    /// Single-load/single-store read-modify-write of the bit at `index`:
    /// returns the previous bit and stores `bit` (crate-internal: the
    /// split-table hot RMW). The caller asserts `index < len()`; the word
    /// index is masked to the (power-of-two) word count so the compiler
    /// can prove the slice access in bounds and drop the per-call check —
    /// every [`BitVec`] a counter table builds has `2^k` bits, hence a
    /// power-of-two word count.
    #[inline]
    pub(crate) fn rmw_bit(&mut self, index: usize, bit: u64) -> u64 {
        debug_assert!(index < self.len, "bit index {index} out of bounds");
        debug_assert!(self.words.len().is_power_of_two());
        let w = (index >> 6) & (self.words.len() - 1);
        let b = (index & 63) as u32;
        let word = &mut self.words[w];
        let old = (*word >> b) & 1;
        *word = (*word & !(1u64 << b)) | (bit << b);
        old
    }

    /// Mutable access to a backing word (for multi-bit burst faults).
    /// Bits of the final word beyond `len()` are unused padding; writers
    /// may scribble on them, readers never observe them.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of bounds.
    pub fn word_mut(&mut self, word: usize) -> &mut u64 {
        &mut self.words[word]
    }

    /// Inverts every *live* bit of backing word `word` — the whole-row
    /// burst fault model (a particle strike taking out a full 64-bit RAM
    /// row). Padding bits past `len()` are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of bounds.
    pub fn flip_word(&mut self, word: usize) {
        let live = self.len - (word << 6).min(self.len);
        let mask = if live >= 64 {
            u64::MAX
        } else {
            (1u64 << live) - 1
        };
        self.words[word] ^= mask;
    }
}

/// A table of 2-bit saturating counters packed 32 per `u64` word — the
/// storage behind the classic single-table schemes (bimodal, gshare,
/// e-gskew banks).
///
/// Semantics are identical to a `Vec<Counter2>` with every counter
/// initialized weakly not taken; only the memory layout differs (2 bits
/// per counter instead of a byte).
///
/// # Example
///
/// ```
/// use ev8_predictors::bitvec::Counter2Table;
/// use ev8_trace::Outcome;
///
/// let mut t = Counter2Table::new(10);
/// t.train(3, Outcome::Taken);
/// assert_eq!(t.get(3).value(), 2);
/// assert_eq!(t.entries(), 1024);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counter2Table {
    words: Vec<u64>,
    entries: usize,
}

/// Every 2-bit lane holding `0b01` — the weakly-not-taken initial state.
/// Public so callers that drive raw words through
/// [`Counter2Table::step_packed`] can start from the same state as
/// [`Counter2Table::new`].
pub const WEAKLY_NOT_TAKEN_FILL: u64 = 0x5555_5555_5555_5555;

impl Counter2Table {
    /// Creates a table of `2^index_bits` counters, all weakly not taken.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=30`.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=30).contains(&index_bits), "index_bits must be 1..=30");
        let entries = 1usize << index_bits;
        Counter2Table {
            words: vec![WEAKLY_NOT_TAKEN_FILL; entries.div_ceil(32)],
            entries,
        }
    }

    /// Word index for counter `index`, masked to the (always power-of-two)
    /// word count. After the public bounds assert the mask is a no-op, but
    /// it lets the compiler prove the slice access in bounds and drop the
    /// bounds check from the hot RMW — the get-then-recheck formulation
    /// paid an assert *and* a slice check per access, which is what showed
    /// up as `table_layout_speedup < 1` in `BENCH_sim.json`.
    #[inline]
    fn word_index(&self, index: usize) -> usize {
        debug_assert!(self.words.len().is_power_of_two());
        (index >> 5) & (self.words.len() - 1)
    }

    /// Number of counters.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The counter at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Counter2 {
        assert!(index < self.entries, "counter index {index} out of bounds");
        Counter2::new(((self.words[self.word_index(index)] >> ((index & 31) * 2)) & 0b11) as u8)
    }

    /// Overwrites the counter at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set(&mut self, index: usize, counter: Counter2) {
        assert!(index < self.entries, "counter index {index} out of bounds");
        let wi = self.word_index(index);
        let shift = (index & 31) * 2;
        let word = &mut self.words[wi];
        *word = (*word & !(0b11u64 << shift)) | ((counter.value() as u64) << shift);
    }

    /// Trains the counter at `index` toward `outcome` (saturating).
    ///
    /// Single read-modify-write of the backing word: the lane shift is
    /// computed once and the word access compiles without a bounds check
    /// (see [`word_index`](Self::word_index) — the get-then-set
    /// formulation paid the shift and two checked accesses, which showed
    /// up in the table-layout bench).
    #[inline]
    pub fn train(&mut self, index: usize, outcome: Outcome) {
        assert!(index < self.entries, "counter index {index} out of bounds");
        let wi = self.word_index(index);
        let shift = (index & 31) * 2;
        let word = &mut self.words[wi];
        let cur = (*word >> shift) & 0b11;
        // Branchless saturating step: +1 when taken, -1 when not.
        // (cur + 2t - 1 clamped to 0..=3; outcome bits are data-dependent
        // in the hot loop, so a conditional here mispredicts constantly.)
        let t = u64::from(outcome.is_taken());
        let next = (cur + (t << 1)).saturating_sub(1).min(3);
        *word ^= (cur ^ next) << shift;
    }

    /// Reads the prediction at `index` and trains the counter toward
    /// `outcome`, in one read-modify-write of the backing word.
    ///
    /// Exactly equivalent to [`get`](Counter2Table::get)`.prediction()`
    /// followed by [`train`](Counter2Table::train) — the fused form
    /// exists for predict-then-immediately-update hot loops (bimodal,
    /// gshare), which would otherwise compute the lane shift and
    /// bounds-check the word twice per branch.
    #[inline]
    pub fn predict_and_train(&mut self, index: usize, outcome: Outcome) -> Outcome {
        assert!(index < self.entries, "counter index {index} out of bounds");
        let wi = self.word_index(index);
        Self::step_packed(&mut self.words[wi], (index & 31) as u32, outcome)
    }

    /// Advances the 2-bit counter in `lane` (0..32) of a packed word
    /// toward `outcome` and returns the *pre*-update prediction — the
    /// single-word core of [`predict_and_train`](Self::predict_and_train)
    /// exposed for callers that manage word storage themselves, so the
    /// counter semantics stay defined here, in one place.
    ///
    /// Lanes above 31 wrap (only the low 5 bits of `lane` are used),
    /// matching the `index & 31` selection the table methods perform.
    #[inline]
    pub fn step_packed(word: &mut u64, lane: u32, outcome: Outcome) -> Outcome {
        let shift = (lane & 31) * 2;
        let cur = (*word >> shift) & 0b11;
        // Branchless saturating step: +1 when taken, -1 when not
        // (cur + 2t - 1 clamped to 0..=3; outcome bits are
        // data-dependent in the hot loop, so a conditional here would
        // mispredict constantly).
        let t = u64::from(outcome.is_taken());
        let next = (cur + (t << 1)).saturating_sub(1).min(3);
        *word = (*word & !(0b11u64 << shift)) | (next << shift);
        Outcome::from(cur >= 2)
    }

    /// Strengthens the counter at `index` in its current direction
    /// (same single-word RMW as [`Counter2Table::train`]).
    #[inline]
    pub fn strengthen(&mut self, index: usize) {
        assert!(index < self.entries, "counter index {index} out of bounds");
        let wi = self.word_index(index);
        let shift = (index & 31) * 2;
        let word = &mut self.words[wi];
        let cur = (*word >> shift) & 0b11;
        let next = if cur >= 2 { 0b11 } else { 0b00 };
        *word = (*word & !(0b11u64 << shift)) | (next << shift);
    }

    /// Iterates the counters in index order (for tests and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = Counter2> + '_ {
        (0..self.entries).map(|i| self.get(i))
    }

    /// Number of storage bits (2 per counter) — the fault-injection
    /// address space of this table.
    pub fn bit_len(&self) -> usize {
        self.entries * 2
    }

    /// Inverts storage bit `bit` (counter `bit / 2`, low hysteresis-like
    /// bit when `bit` is even, high prediction-like bit when odd) — the
    /// SEU fault primitive over the packed counter array.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= bit_len()`.
    #[inline]
    pub fn flip_bit(&mut self, bit: usize) {
        assert!(bit < self.bit_len(), "storage bit {bit} out of bounds");
        self.words[bit >> 6] ^= 1u64 << (bit & 63);
    }

    /// Forces storage bit `bit` to `value` (the stuck-at fault model,
    /// evaluated once at injection time).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= bit_len()` or `value` is not 0 or 1.
    #[inline]
    pub fn set_bit(&mut self, bit: usize, value: u8) {
        assert!(bit < self.bit_len(), "storage bit {bit} out of bounds");
        assert!(value <= 1, "bit value must be 0 or 1");
        let mask = 1u64 << (bit & 63);
        let word = &mut self.words[bit >> 6];
        *word = (*word & !mask) | ((value as u64) << (bit & 63));
    }

    /// Number of backing `u64` words (32 counters each).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Inverts every live bit of backing word `word` — the 64-bit burst
    /// fault model (32 adjacent counters scrambled at once).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of bounds.
    pub fn flip_word(&mut self, word: usize) {
        let live = self.bit_len() - (word << 6).min(self.bit_len());
        let mask = if live >= 64 {
            u64::MAX
        } else {
            (1u64 << live) - 1
        };
        self.words[word] ^= mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_fill_and_flip() {
        let mut v = BitVec::filled(130, 1);
        assert_eq!(v.len(), 130);
        assert!(!v.is_empty());
        for i in 0..130 {
            assert_eq!(v.get(i), 1);
        }
        v.set(0, 0);
        v.set(63, 0);
        v.set(64, 0);
        v.set(129, 0);
        assert_eq!(v.get(0), 0);
        assert_eq!(v.get(63), 0);
        assert_eq!(v.get(64), 0);
        assert_eq!(v.get(129), 0);
        // Neighbours untouched.
        assert_eq!(v.get(1), 1);
        assert_eq!(v.get(62), 1);
        assert_eq!(v.get(65), 1);
        assert_eq!(v.get(128), 1);
    }

    #[test]
    fn bitvec_zero_filled() {
        let v = BitVec::filled(64, 0);
        for i in 0..64 {
            assert_eq!(v.get(i), 0);
        }
        assert!(BitVec::filled(0, 0).is_empty());
    }

    #[test]
    fn bitvec_set_is_idempotent_across_words() {
        let mut v = BitVec::filled(200, 0);
        for i in (0..200).step_by(7) {
            v.set(i, 1);
            v.set(i, 1);
        }
        for i in 0..200 {
            assert_eq!(v.get(i), u8::from(i % 7 == 0));
        }
    }

    #[test]
    fn bitvec_flip_is_involutive_and_isolated() {
        let mut v = BitVec::filled(130, 0);
        v.flip(77);
        assert_eq!(v.get(77), 1);
        assert_eq!(v.get(76), 0);
        assert_eq!(v.get(78), 0);
        v.flip(77);
        assert_eq!(v.get(77), 0);
    }

    #[test]
    fn bitvec_flip_word_masks_padding() {
        // 70 bits: word 1 holds only 6 live bits; flipping it must not
        // disturb word 0 and must leave padding bits alone (observable
        // only through get(), which masks them anyway — check live bits).
        let mut v = BitVec::filled(70, 0);
        assert_eq!(v.word_count(), 2);
        v.flip_word(1);
        for i in 0..64 {
            assert_eq!(v.get(i), 0);
        }
        for i in 64..70 {
            assert_eq!(v.get(i), 1);
        }
        v.flip_word(0);
        for i in 0..64 {
            assert_eq!(v.get(i), 1);
        }
        // word_mut gives raw burst access.
        *v.word_mut(0) = 0;
        assert_eq!(v.get(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitvec_flip_bounds_checked() {
        BitVec::filled(10, 0).flip(10);
    }

    #[test]
    fn predict_and_train_fuses_get_then_train() {
        // The fused RMW must be indistinguishable from get().prediction()
        // followed by train(), from every counter state, for both
        // outcomes — 33 counters so lanes cross a word boundary.
        let mut fused = Counter2Table::new(6);
        let mut reference = Counter2Table::new(6);
        let mut x = 0x1234_5678u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (x >> 32) as usize % 33;
            let outcome = Outcome::from(x >> 63 != 0);
            let expected = reference.get(idx).prediction();
            reference.train(idx, outcome);
            assert_eq!(fused.predict_and_train(idx, outcome), expected);
        }
        for i in 0..64 {
            assert_eq!(fused.get(i), reference.get(i), "counter {i}");
        }
    }

    #[test]
    fn step_packed_is_the_single_word_core_of_the_table_rmw() {
        // Driving a raw word with step_packed must track a real table
        // exactly, from the same weakly-not-taken start, across every
        // lane and both outcomes.
        let mut word = WEAKLY_NOT_TAKEN_FILL;
        let mut reference = Counter2Table::new(5); // exactly one word
        let mut x = 0xFEED_F00Du64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lane = ((x >> 32) & 31) as u32;
            let outcome = Outcome::from(x >> 63 != 0);
            let got = Counter2Table::step_packed(&mut word, lane, outcome);
            assert_eq!(got, reference.predict_and_train(lane as usize, outcome));
        }
        for i in 0..32 {
            assert_eq!((word >> (i * 2)) & 0b11, reference.get(i).value() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitvec_get_bounds_checked() {
        BitVec::filled(10, 0).get(10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitvec_set_bounds_checked() {
        BitVec::filled(10, 0).set(10, 1);
    }

    #[test]
    fn counter_table_initial_state() {
        let t = Counter2Table::new(6);
        assert_eq!(t.entries(), 64);
        for c in t.iter() {
            assert_eq!(c.value(), 1);
        }
    }

    #[test]
    fn counter_table_matches_vec_of_counters() {
        let mut packed = Counter2Table::new(5);
        let mut dense = vec![Counter2::default(); 32];
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (x >> 33) as usize % 32;
            let o = Outcome::from(x >> 63 != 0);
            match (x >> 60) & 0b11 {
                0 => {
                    packed.strengthen(i);
                    dense[i].strengthen();
                }
                1 => {
                    let c = Counter2::new(((x >> 10) & 0b11) as u8);
                    packed.set(i, c);
                    dense[i] = c;
                }
                _ => {
                    packed.train(i, o);
                    dense[i].train(o);
                }
            }
            assert_eq!(packed.get(i), dense[i]);
        }
        for (i, d) in dense.iter().enumerate() {
            assert_eq!(packed.get(i), *d);
        }
    }

    #[test]
    fn counter_table_lane_isolation() {
        // Saturating one counter must not disturb its word neighbours.
        let mut t = Counter2Table::new(6);
        for _ in 0..4 {
            t.train(17, Outcome::Taken);
        }
        assert_eq!(t.get(17).value(), 3);
        assert_eq!(t.get(16).value(), 1);
        assert_eq!(t.get(18).value(), 1);
    }

    #[test]
    fn counter_table_bit_faults_map_to_counter_lanes() {
        let mut t = Counter2Table::new(6); // 64 counters, all 0b01
        assert_eq!(t.bit_len(), 128);
        assert_eq!(t.word_count(), 2);
        // Counter 17 occupies bits 34 (low) and 35 (high).
        t.flip_bit(35);
        assert_eq!(t.get(17).value(), 0b11);
        assert_eq!(t.get(16).value(), 0b01);
        assert_eq!(t.get(18).value(), 0b01);
        t.flip_bit(34);
        assert_eq!(t.get(17).value(), 0b10);
        // Stuck-at writes are idempotent.
        t.set_bit(34, 0);
        t.set_bit(34, 0);
        assert_eq!(t.get(17).value(), 0b10);
        t.set_bit(34, 1);
        assert_eq!(t.get(17).value(), 0b11);
    }

    #[test]
    fn counter_table_word_burst_inverts_32_counters() {
        let mut t = Counter2Table::new(6); // weakly-NT fill 0b01 everywhere
        t.flip_word(1);
        for i in 0..32 {
            assert_eq!(t.get(i).value(), 0b01, "word 0 untouched");
        }
        for i in 32..64 {
            assert_eq!(t.get(i).value(), 0b10, "word 1 inverted");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn counter_table_flip_bit_bounds_checked() {
        Counter2Table::new(4).flip_bit(32);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn counter_table_bounds_checked() {
        Counter2Table::new(4).get(16);
    }

    #[test]
    #[should_panic(expected = "index_bits must be 1..=30")]
    fn counter_table_zero_bits_rejected() {
        Counter2Table::new(0);
    }
}
