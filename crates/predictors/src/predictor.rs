//! The [`BranchPredictor`] trait and trivial reference predictors.

use ev8_trace::{BranchRecord, Outcome, Pc};

/// A dynamic conditional branch predictor.
///
/// The contract mirrors the paper's trace-driven *immediate update*
/// methodology (§8.1.1): for every dynamic conditional branch the simulator
/// calls [`predict`](BranchPredictor::predict) and then immediately
/// [`update`](BranchPredictor::update) with the resolved outcome. Predictors
/// that consume path information (like the EV8 predictor's lghist) also see
/// non-conditional control transfers through
/// [`note_noncond`](BranchPredictor::note_noncond).
///
/// `predict` takes `&self`: it corresponds to the read of the prediction
/// array and must not change predictor state. All state changes (counter
/// updates *and* history shifts) happen in `update`, which internally
/// re-reads whatever it needs — exact under immediate update, and matching
/// the paper's observation that commit-time update changes results only
/// insignificantly.
pub trait BranchPredictor {
    /// Predicts the outcome of the conditional branch at `pc` under the
    /// current (speculative) history.
    fn predict(&self, pc: Pc) -> Outcome;

    /// Informs the predictor of the resolved outcome of the conditional
    /// branch at `pc`. Updates tables and shifts history.
    fn update(&mut self, pc: Pc, outcome: Outcome);

    /// Observes a non-conditional control transfer (call, return, jump).
    ///
    /// Most schemes ignore these; predictors that maintain path history or
    /// fetch-block-compressed history (lghist) need them. The default does
    /// nothing.
    fn note_noncond(&mut self, record: &BranchRecord) {
        let _ = record;
    }

    /// Updates the predictor from a full trace record.
    ///
    /// The default routes conditional records to
    /// [`update`](BranchPredictor::update) and everything else to
    /// [`note_noncond`](BranchPredictor::note_noncond). Predictors that
    /// need the branch *target* (the EV8 predictor reconstructs fetch
    /// blocks, so it must know where taken branches go) override this.
    fn update_record(&mut self, record: &BranchRecord) {
        if record.kind.is_conditional() {
            self.update(record.pc, record.outcome);
        } else {
            self.note_noncond(record);
        }
    }

    /// Processes one trace record end to end: returns the prediction that
    /// was made for it (conditional records only), and applies the update.
    ///
    /// This is the method trace-driven simulators call. The default is
    /// the reference composition, `predict` then `update_record`, and it
    /// stays that. Two kinds of predictor override it:
    ///
    /// * **One lookup per branch.** Bimodal, gshare, 2Bc-gskew, bi-mode,
    ///   YAGS and TAGE compute their indices and read their tables once,
    ///   then update from that read. Such an override must equal the
    ///   default exactly: the same prediction, and the same state after
    ///   it (counters, history, write accounting) on every record. The
    ///   equivalence tests check it against `predict` then
    ///   `update_record`, stepped by the stale-commit hook at window 0.
    /// * **Context from the record.** The EV8 predictor must advance its
    ///   fetch-block state through the record's straight-line gap before
    ///   the prediction is made, so for it this method is the exact one
    ///   and `predict` alone is best effort.
    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        if record.kind.is_conditional() {
            let prediction = self.predict(record.pc);
            self.update_record(record);
            Some(prediction)
        } else {
            self.update_record(record);
            None
        }
    }

    /// A human-readable name including the configuration,
    /// e.g. `"gshare 1M entries, h=20"`.
    fn name(&self) -> String;

    /// Total memorization budget in bits (the paper compares predictors at
    /// equivalent sizes, e.g. the EV8's 352 Kbits).
    fn storage_bits(&self) -> u64;
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for &mut P {
    fn predict(&self, pc: Pc) -> Outcome {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: Pc, outcome: Outcome) {
        (**self).update(pc, outcome)
    }

    fn note_noncond(&mut self, record: &BranchRecord) {
        (**self).note_noncond(record)
    }

    fn update_record(&mut self, record: &BranchRecord) {
        (**self).update_record(record)
    }

    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        (**self).predict_and_update(record)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn predict(&self, pc: Pc) -> Outcome {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: Pc, outcome: Outcome) {
        (**self).update(pc, outcome)
    }

    fn note_noncond(&mut self, record: &BranchRecord) {
        (**self).note_noncond(record)
    }

    fn update_record(&mut self, record: &BranchRecord) {
        (**self).update_record(record)
    }

    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        (**self).predict_and_update(record)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }
}

/// A static predictor that always predicts taken. Useful as a floor
/// baseline and in tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlwaysTaken;

impl BranchPredictor for AlwaysTaken {
    fn predict(&self, _pc: Pc) -> Outcome {
        Outcome::Taken
    }

    fn update(&mut self, _pc: Pc, _outcome: Outcome) {}

    fn name(&self) -> String {
        "always-taken".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

/// A static predictor that always predicts not-taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlwaysNotTaken;

impl BranchPredictor for AlwaysNotTaken {
    fn predict(&self, _pc: Pc) -> Outcome {
        Outcome::NotTaken
    }

    fn update(&mut self, _pc: Pc, _outcome: Outcome) {}

    fn name(&self) -> String {
        "always-not-taken".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_predictors() {
        let mut t = AlwaysTaken;
        let mut nt = AlwaysNotTaken;
        let pc = Pc::new(0x100);
        assert_eq!(t.predict(pc), Outcome::Taken);
        assert_eq!(nt.predict(pc), Outcome::NotTaken);
        t.update(pc, Outcome::NotTaken);
        nt.update(pc, Outcome::Taken);
        // Static predictors never learn.
        assert_eq!(t.predict(pc), Outcome::Taken);
        assert_eq!(nt.predict(pc), Outcome::NotTaken);
        assert_eq!(t.storage_bits(), 0);
        assert!(!t.name().is_empty());
        assert!(!nt.name().is_empty());
    }

    #[test]
    fn boxed_predictor_dispatches() {
        let mut boxed: Box<dyn BranchPredictor> = Box::new(AlwaysTaken);
        let pc = Pc::new(0x40);
        assert_eq!(boxed.predict(pc), Outcome::Taken);
        boxed.update(pc, Outcome::Taken);
        boxed.note_noncond(&BranchRecord::always_taken(
            pc,
            Pc::new(0x80),
            ev8_trace::BranchKind::Call,
        ));
        assert_eq!(boxed.name(), "always-taken");
        assert_eq!(boxed.storage_bits(), 0);
    }
}
