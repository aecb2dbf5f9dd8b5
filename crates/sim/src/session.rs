//! Incremental per-session simulation for the prediction service.
//!
//! [`crate::drive`] consumes a whole record source in one call. A server
//! session cannot: records arrive in frames, the predictor's state must
//! persist *across* traces within the session (the paper's §3 SMT
//! per-thread history argument — one tenant, one predictor), and
//! observability must be sheddable under load without touching
//! prediction accuracy.
//!
//! [`SessionSim`] is the streaming equivalent: feed records as they
//! decode, take a [`SessionSummary`] per trace. Each fed record is one
//! step of the driver's own hook — [`Plain`], or [`ProvenanceSummary`]
//! as an observer — into the session's [`Tally`]. Its results are
//! **bit-identical** to [`crate::simulate`] over the same records — the
//! chaos acceptance suite pins concurrent server sessions against serial
//! simulation with exact counter equality.
//!
//! Attribution here is deliberately *bounded*: unlike
//! [`crate::observe::Attribution`], no per-PC histogram is kept — a
//! hostile client could inflate one without limit by streaming fresh
//! PCs. Everything in [`ProvenanceSummary`] is O(1) counters.

use ev8_predictors::observe::ConditionalBranchPredictor;
use ev8_predictors::provenance::{Provenance, UpdateAction};
use ev8_predictors::twobcgskew::ChosenComponent;
use ev8_trace::BranchRecord;

use crate::metrics::{SimResult, Tally};
use crate::observe::Observer;
use crate::simulator::{drive, Hook, Plain};

/// Bounded, O(1)-memory attribution counters for one streamed trace.
///
/// An [`Observer`]: a session with attribution on drives it as its hook,
/// and [`crate::observe::Attribution`] embeds it, so both count through
/// one routine. Degenerate single-component predictors (bimodal, gshare,
/// TAGE) report everything on the side their provenance maps to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProvenanceSummary {
    /// Predictions served by the bimodal side of the chooser.
    pub provider_bimodal: u64,
    /// Predictions served by the e-gskew majority side.
    pub provider_majority: u64,
    /// Mispredictions delivered by the bimodal side.
    pub wrong_by_bimodal: u64,
    /// Mispredictions delivered by the majority side.
    pub wrong_by_majority: u64,
    /// Branches where the two sides disagreed.
    pub meta_decisive: u64,
    /// Decisive branches where the chooser picked the correct side.
    pub meta_correct: u64,
    /// §4.2 update-action histogram, indexed by [`UpdateAction::index`].
    pub actions: [u64; UpdateAction::COUNT],
    /// §6 bank-collision counter (`Some(0)` for a healthy EV8 session).
    pub bank_collisions: Option<u64>,
}

impl Observer for ProvenanceSummary {
    fn on_prediction(&mut self, p: &Provenance) {
        let correct = p.correct();
        let wrong = u64::from(!correct);
        match p.chosen {
            ChosenComponent::Bimodal => {
                self.provider_bimodal += 1;
                self.wrong_by_bimodal += wrong;
            }
            ChosenComponent::Majority => {
                self.provider_majority += 1;
                self.wrong_by_majority += wrong;
            }
        }
        if p.meta_decisive() {
            self.meta_decisive += 1;
            self.meta_correct += u64::from(correct);
        }
        self.actions[p.action.index()] += 1;
    }

    fn on_finish(&mut self, bank_collisions: Option<u64>) {
        self.bank_collisions = bank_collisions;
    }
}

/// The result of one streamed trace within a session: the exact
/// [`SimResult`] a serial [`crate::simulate`] run would produce, plus
/// bounded attribution when it was not shed.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSummary {
    /// Scoreboard counters, bit-identical to serial simulation.
    pub result: SimResult,
    /// Attribution counters; `None` when shed (degraded mode) or never
    /// requested.
    pub attribution: Option<ProvenanceSummary>,
}

/// Streaming simulation state for one client session.
///
/// # Example
///
/// ```
/// use ev8_predictors::gshare::Gshare;
/// use ev8_sim::session::SessionSim;
/// use ev8_trace::{BranchRecord, Pc};
///
/// let mut s = SessionSim::new(Box::new(Gshare::new(10, 8)), true);
/// s.begin("demo", 0);
/// s.feed(&BranchRecord::conditional(Pc::new(0x40), Pc::new(0x80), true).with_gap(4));
/// let summary = s.finish();
/// assert_eq!(summary.result.conditional_branches, 1);
/// assert_eq!(summary.result.instructions, 5); // gap + the branch
/// assert!(summary.attribution.is_some());
/// ```
pub struct SessionSim {
    predictor: Box<dyn ConditionalBranchPredictor>,
    predictor_name: String,
    attribution: bool,
    trace_name: String,
    declared_instructions: u64,
    computed_instructions: u64,
    tally: Tally,
    summary: ProvenanceSummary,
}

impl SessionSim {
    /// Wraps a predictor for streaming simulation. With `attribution`
    /// set, every conditional branch goes through the observed step and
    /// [`SessionSummary::attribution`] is populated (sheddable later via
    /// [`SessionSim::shed_attribution`]).
    pub fn new(predictor: Box<dyn ConditionalBranchPredictor>, attribution: bool) -> Self {
        let predictor_name = predictor.name();
        SessionSim {
            predictor,
            predictor_name,
            attribution,
            trace_name: String::new(),
            declared_instructions: 0,
            computed_instructions: 0,
            tally: Tally::default(),
            summary: ProvenanceSummary::default(),
        }
    }

    /// The wrapped predictor's display name.
    pub fn predictor_name(&self) -> &str {
        &self.predictor_name
    }

    /// Whether attribution is currently being collected.
    pub fn attribution_enabled(&self) -> bool {
        self.attribution
    }

    /// Sheds attribution work (degraded mode): subsequent records take
    /// the plain prediction path and the next summary carries `None`.
    /// Prediction results are unaffected — the observed and plain steps
    /// are state-identical by contract. Returns whether attribution was
    /// actually on.
    pub fn shed_attribution(&mut self) -> bool {
        std::mem::replace(&mut self.attribution, false)
    }

    /// Starts a new trace, resetting the per-trace counters. Predictor
    /// state (tables, history) deliberately persists — a session models
    /// one hardware context running successive program phases.
    ///
    /// `declared_instructions` is the client-declared total instruction
    /// count (the wire-header field); pass 0 when unknown and the count
    /// is computed from the records (each record contributes
    /// `1 + gap`).
    pub fn begin(&mut self, name: &str, declared_instructions: u64) {
        self.trace_name.clear();
        self.trace_name.push_str(name);
        self.declared_instructions = declared_instructions;
        self.computed_instructions = 0;
        self.tally = Tally::default();
        self.summary = ProvenanceSummary::default();
    }

    /// Feeds one record through the predictor, updating the scoreboard:
    /// one hook step into the session's tally.
    pub fn feed(&mut self, record: &BranchRecord) {
        self.computed_instructions += 1 + u64::from(record.gap);
        if self.attribution {
            self.summary
                .step(&mut self.predictor, record, &mut self.tally);
        } else {
            Plain.step(&mut self.predictor, record, &mut self.tally);
        }
    }

    /// Feeds a decoded chunk of records: one [`drive`] over the chunk
    /// with the same hook [`SessionSim::feed`] steps.
    pub fn feed_all(&mut self, records: &[BranchRecord]) {
        self.computed_instructions += records.iter().map(|r| 1 + u64::from(r.gap)).sum::<u64>();
        let predictor = &mut self.predictor;
        self.tally += if self.attribution {
            drive(predictor, records, &mut self.summary)
        } else {
            drive(predictor, records, Plain)
        };
    }

    /// Closes the current trace and returns its summary. The predictor
    /// keeps its state for the session's next trace.
    pub fn finish(&mut self) -> SessionSummary {
        let instructions = if self.declared_instructions > 0 {
            self.declared_instructions
        } else {
            self.computed_instructions
        };
        let result = SimResult::new(
            &self.trace_name,
            instructions,
            self.predictor_name.clone(),
            self.tally,
        );
        let attribution = self.attribution.then(|| {
            let mut s = self.summary;
            s.on_finish(self.predictor.bank_collisions());
            s
        });
        SessionSummary {
            result,
            attribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::simulate;
    use ev8_predictors::bimodal::Bimodal;
    use ev8_predictors::gshare::Gshare;
    use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
    use ev8_trace::{Pc, Trace, TraceBuilder};

    fn patterned_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("patterned");
        for i in 0..n {
            b.run(3 + (i % 4));
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + (i % 13) * 8),
                Pc::new(0x2000),
                (i / 3) % 2 == 0,
            ));
        }
        b.finish()
    }

    #[test]
    fn session_matches_serial_simulate_exactly() {
        let t = patterned_trace(3000);
        for attribution in [false, true] {
            let serial = simulate(TwoBcGskew::new(TwoBcGskewConfig::equal(10, 10)), &t);
            let mut s = SessionSim::new(
                Box::new(TwoBcGskew::new(TwoBcGskewConfig::equal(10, 10))),
                attribution,
            );
            s.begin(t.name(), t.instruction_count());
            s.feed_all(t.records());
            let summary = s.finish();
            assert_eq!(summary.result, serial, "attribution={attribution}");
            assert_eq!(summary.attribution.is_some(), attribution);
        }
    }

    #[test]
    fn attribution_counters_reconcile_with_scoreboard() {
        let t = patterned_trace(2000);
        let mut s = SessionSim::new(
            Box::new(TwoBcGskew::new(TwoBcGskewConfig::equal(9, 9))),
            true,
        );
        s.begin(t.name(), 0);
        s.feed_all(t.records());
        let summary = s.finish();
        let a = summary.attribution.expect("attribution requested");
        assert_eq!(
            a.provider_bimodal + a.provider_majority,
            summary.result.conditional_branches
        );
        assert_eq!(
            a.wrong_by_bimodal + a.wrong_by_majority,
            summary.result.mispredictions
        );
        assert_eq!(
            a.actions.iter().sum::<u64>(),
            summary.result.conditional_branches
        );
        assert!(a.meta_correct <= a.meta_decisive);
    }

    #[test]
    fn computed_instruction_count_matches_builder() {
        let t = patterned_trace(500);
        let mut s = SessionSim::new(Box::new(Bimodal::new(10)), false);
        s.begin(t.name(), 0);
        s.feed_all(t.records());
        // No trailing straight-line run in this builder pattern, so the
        // computed Σ(1 + gap) equals the builder's count.
        assert_eq!(s.finish().result.instructions, t.instruction_count());
    }

    #[test]
    fn predictor_state_persists_across_traces() {
        // A session that has already seen the pattern mispredicts less on
        // the second pass — the tables were not reset by begin().
        let t = patterned_trace(1500);
        let mut s = SessionSim::new(Box::new(Gshare::new(12, 10)), false);
        s.begin("first", 0);
        s.feed_all(t.records());
        let first = s.finish();
        s.begin("second", 0);
        s.feed_all(t.records());
        let second = s.finish();
        assert!(
            second.result.mispredictions < first.result.mispredictions,
            "second pass {} should beat cold first pass {}",
            second.result.mispredictions,
            first.result.mispredictions
        );
    }

    #[test]
    fn shed_attribution_keeps_predictions_identical() {
        let t = patterned_trace(2000);
        let (head, tail) = t.split_at(1000);

        let mut with = SessionSim::new(Box::new(Gshare::new(11, 9)), true);
        with.begin("full", 0);
        with.feed_all(head.records());
        with.feed_all(tail.records());
        let full = with.finish();

        let mut shed = SessionSim::new(Box::new(Gshare::new(11, 9)), true);
        shed.begin("shed", 0);
        shed.feed_all(head.records());
        assert!(shed.shed_attribution());
        assert!(!shed.attribution_enabled());
        shed.feed_all(tail.records());
        let degraded = shed.finish();

        // Shedding mid-stream changes observability, never predictions.
        assert_eq!(full.result.mispredictions, degraded.result.mispredictions);
        assert!(degraded.attribution.is_none());
    }

    #[test]
    fn declared_instruction_count_wins_when_present() {
        let t = patterned_trace(100);
        let mut s = SessionSim::new(Box::new(Bimodal::new(8)), false);
        s.begin("declared", 12345);
        s.feed_all(t.records());
        assert_eq!(s.finish().result.instructions, 12345);
    }
}
