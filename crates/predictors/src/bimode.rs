//! The bi-mode predictor (Lee, Chen, Mudge \[13\]) — one of the
//! "de-aliased" global history predictors the paper compares against
//! (Fig 5: two 128K-entry direction tables + a 16K-entry choice table,
//! 544 Kbits total).

use ev8_trace::{BranchRecord, Outcome, Pc};

use crate::counter::Counter2;
use crate::history::GlobalHistory;
use crate::predictor::BranchPredictor;
use crate::skew::xor_fold64;

/// The bi-mode predictor: a PC-indexed *choice* table steers each branch
/// to one of two gshare-indexed *direction* tables (one biased toward
/// taken branches, one toward not-taken), so branches of opposite bias
/// never destructively alias in the same direction table.
///
/// Update policy (from \[13\]): the selected direction table always trains;
/// the choice table trains toward the outcome **except** when it pointed
/// away from the outcome but the selected direction table predicted
/// correctly.
///
/// # Example
///
/// ```
/// use ev8_predictors::{bimode::Bimode, BranchPredictor};
/// use ev8_trace::{Outcome, Pc};
///
/// let mut p = Bimode::paper_544k();
/// p.update(Pc::new(0x1000), Outcome::Taken);
/// assert_eq!(p.storage_bits(), 544 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct Bimode {
    choice: Vec<Counter2>,
    taken: Vec<Counter2>,
    not_taken: Vec<Counter2>,
    choice_bits: u32,
    direction_bits: u32,
    history: GlobalHistory,
}

impl Bimode {
    /// Creates a bi-mode predictor with `2^choice_bits` choice counters,
    /// two `2^direction_bits`-entry direction tables and `history_length`
    /// bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if either size is not in `1..=30` or `history_length > 64`.
    pub fn new(choice_bits: u32, direction_bits: u32, history_length: u32) -> Self {
        assert!((1..=30).contains(&choice_bits));
        assert!((1..=30).contains(&direction_bits));
        Bimode {
            choice: vec![Counter2::default(); 1 << choice_bits],
            taken: vec![Counter2::weakly_taken(); 1 << direction_bits],
            not_taken: vec![Counter2::default(); 1 << direction_bits],
            choice_bits,
            direction_bits,
            history: GlobalHistory::new(history_length),
        }
    }

    /// The paper's Fig 5 configuration: two 128K-entry direction tables, a
    /// 16K-entry choice table (544 Kbits), history length 20.
    pub fn paper_544k() -> Self {
        Bimode::new(14, 17, 20)
    }

    fn choice_index(&self, pc: Pc) -> usize {
        pc.bits(2, self.choice_bits) as usize
    }

    fn direction_index(&self, pc: Pc) -> usize {
        let folded = xor_fold64(self.history.bits(), self.direction_bits);
        (pc.bits(2, self.direction_bits) ^ folded) as usize
    }

    /// The one lookup per branch, `(choice, direction, choice index,
    /// direction index)`: `predict`, `update` and the fused step all
    /// start here.
    #[inline]
    fn lookup(&self, pc: Pc) -> (Outcome, Outcome, usize, usize) {
        let ci = self.choice_index(pc);
        let di = self.direction_index(pc);
        let choice = self.choice[ci].prediction();
        let direction = if choice.is_taken() {
            self.taken[di].prediction()
        } else {
            self.not_taken[di].prediction()
        };
        (choice, direction, ci, di)
    }

    /// The bi-mode update of a branch whose lookup was `(choice,
    /// direction, ci, di)`, then the history shift.
    #[inline]
    fn step(
        &mut self,
        (choice, direction, ci, di): (Outcome, Outcome, usize, usize),
        outcome: Outcome,
    ) {
        // Train the selected direction table.
        if choice.is_taken() {
            self.taken[di].train(outcome);
        } else {
            self.not_taken[di].train(outcome);
        }
        // Train the choice table, except when it disagreed with the
        // outcome but the direction prediction was nevertheless correct.
        let spare_choice = choice != outcome && direction == outcome;
        if !spare_choice {
            self.choice[ci].train(outcome);
        }
        self.history.push(outcome);
    }
}

impl BranchPredictor for Bimode {
    fn predict(&self, pc: Pc) -> Outcome {
        self.lookup(pc).1
    }

    fn update(&mut self, pc: Pc, outcome: Outcome) {
        let l = self.lookup(pc);
        self.step(l, outcome);
    }

    /// One lookup per branch, bit-identical to `predict` +
    /// `update_record`: both would look up under the same history.
    #[inline]
    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        if !record.kind.is_conditional() {
            return None;
        }
        let l = self.lookup(record.pc);
        self.step(l, record.outcome);
        Some(l.1)
    }

    fn name(&self) -> String {
        format!(
            "bimode choice 2^{} + 2x2^{}, h={}",
            self.choice_bits,
            self.direction_bits,
            self.history.length()
        )
    }

    fn storage_bits(&self) -> u64 {
        (self.choice.len() + self.taken.len() + self.not_taken.len()) as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_is_544_kbits() {
        let p = Bimode::paper_544k();
        assert_eq!(p.storage_bits(), 544 * 1024);
    }

    #[test]
    fn learns_biased_branches_of_both_polarities() {
        let mut p = Bimode::new(8, 10, 6);
        let t = Pc::new(0x100);
        let nt = Pc::new(0x200);
        for _ in 0..8 {
            p.update(t, Outcome::Taken);
            p.update(nt, Outcome::NotTaken);
        }
        assert_eq!(p.predict(t), Outcome::Taken);
        assert_eq!(p.predict(nt), Outcome::NotTaken);
    }

    #[test]
    fn learns_history_pattern() {
        let mut p = Bimode::new(10, 12, 10);
        let pc = Pc::new(0x1000);
        let mut correct = 0;
        let total = 500;
        for i in 0..total {
            let o = Outcome::from(i % 2 == 0);
            if p.predict(pc) == o {
                correct += 1;
            }
            p.update(pc, o);
        }
        assert!(correct > total * 9 / 10, "got {correct}/{total}");
    }

    #[test]
    fn choice_spared_when_direction_covers_exception() {
        let mut p = Bimode::new(6, 8, 0);
        let pc = Pc::new(0x100);
        let ci = p.choice_index(pc);
        let di = p.direction_index(pc);
        // Hand-set state: choice strongly taken, but the taken-side
        // direction entry has learned this (history) context is an
        // exception and predicts not-taken.
        p.choice[ci] = Counter2::new(3);
        p.taken[di] = Counter2::new(0);
        assert_eq!(p.predict(pc), Outcome::NotTaken);
        // Outcome not-taken: choice disagreed with the outcome but the
        // direction table was right, so the choice is spared.
        p.update(pc, Outcome::NotTaken);
        assert_eq!(p.choice[ci].value(), 3, "choice must be spared");
        assert_eq!(p.taken[di].value(), 0, "direction entry reinforced");
        // If instead the direction table is also wrong, the choice trains.
        p.taken[di] = Counter2::new(3);
        p.update(pc, Outcome::NotTaken);
        assert_eq!(
            p.choice[ci].value(),
            2,
            "choice trains when direction wrong"
        );
    }

    #[test]
    fn direction_tables_initialized_by_polarity() {
        let p = Bimode::new(4, 4, 0);
        assert_eq!(p.taken[0].prediction(), Outcome::Taken);
        assert_eq!(p.not_taken[0].prediction(), Outcome::NotTaken);
    }

    #[test]
    fn name_and_history() {
        let p = Bimode::paper_544k();
        assert!(p.name().contains("bimode"));
        assert_eq!(p.history.length(), 20);
    }
}
