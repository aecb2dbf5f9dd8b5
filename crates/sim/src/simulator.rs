//! The simulation driver: one loop, [`drive`], over any record
//! [`Source`] with any per-record [`Hook`].
//!
//! The paper's methodology (§8.1.1) is trace-driven simulation with
//! immediate update. Every whole-trace run in this crate is that loop
//! with a different record source (the packed [`FlatTrace`] the trace
//! cache holds, a range of one, an AoS [`Trace`], a streaming
//! [`CorpusReader`] decode, a record chunk)
//! or a different per-record hook ([`Plain`] immediate update, a fault
//! injector, an [`Observer`](crate::observe::Observer), [`StaleCommit`]).
//! `drive` is generic over both, so each pairing compiles to its own
//! loop: the [`Plain`] hook is a zero-sized type whose step is exactly
//! `predict_and_update` plus the scoreboard, and carries no disabled-hook
//! test at all.

use std::collections::VecDeque;
use std::io::Read;
use std::ops::Range;

use ev8_faults::FaultInjector;
use ev8_predictors::introspect::FaultTarget;
use ev8_predictors::BranchPredictor;
use ev8_trace::corpus::CorpusReader;
use ev8_trace::{BranchRecord, FlatTrace, Outcome, Trace, TraceError};

use crate::metrics::{SimResult, Tally};

/// A stream of trace records [`drive`] can walk, in trace order.
///
/// In-memory sources cannot fail, so a drive over one returns the
/// [`Tally`] itself; a [`CorpusReader`] decode returns
/// `Result<Tally, TraceError>`.
pub trait Source {
    /// `T` for in-memory sources, `Result<T, TraceError>` for a corpus.
    type Output<T>;

    /// Calls `visit` on every record in trace order.
    fn walk(self, visit: impl FnMut(&BranchRecord)) -> Self::Output<()>;

    /// Runs `then` after a walk that succeeded and wraps its value; a
    /// failed walk propagates its error without running `then`.
    fn then<T>(walked: Self::Output<()>, then: impl FnOnce() -> T) -> Self::Output<T>;
}

/// In-memory sources: the walk cannot fail, so the output is the value
/// itself. Each entry binds the source and the visitor, then walks.
macro_rules! in_memory_sources {
    ($($source:ty => |$this:pat_param, $visit:ident| $walk:expr;)*) => {$(
        impl Source for $source {
            type Output<T> = T;

            #[inline]
            fn walk(self, $visit: impl FnMut(&BranchRecord)) {
                let $this = self;
                $walk
            }

            #[inline]
            fn then<T>((): (), then: impl FnOnce() -> T) -> T {
                then()
            }
        }
    )*};
}

in_memory_sources! {
    &[BranchRecord] => |records, visit| records.iter().for_each(visit);
    &Trace => |trace, visit| trace.records().iter().for_each(visit);
    &FlatTrace => |trace, visit| trace.for_each(visit);
    // A record-index range of a flat trace: the source sampled runs
    // chain over one predictor.
    (&FlatTrace, Range<usize>) => |(trace, range), visit| trace.for_each_in(range, visit);
}

/// A streaming corpus decode: chunks decode one at a time into packed
/// blocks, so resident memory is one chunk regardless of trace length,
/// and the corpus totals are validated during the walk. The first decode
/// error (checksum mismatch, structural corruption, truncation) is
/// returned without any partial result.
impl<R: Read> Source for CorpusReader<R> {
    type Output<T> = Result<T, TraceError>;

    #[inline]
    fn walk(self, visit: impl FnMut(&BranchRecord)) -> Result<(), TraceError> {
        self.for_each(visit)
    }

    #[inline]
    fn then<T>(walked: Result<(), TraceError>, then: impl FnOnce() -> T) -> Result<T, TraceError> {
        walked.map(|()| then())
    }
}

/// What [`drive`] does at each record: step the predictor and score the
/// conditional branches.
///
/// The hooks are [`Plain`], `&mut FaultInjector`, any
/// [`Observer`](crate::observe::Observer) and [`StaleCommit`].
pub trait Hook<P> {
    /// Steps `predictor` over `record`, scoring a conditional branch's
    /// prediction into `tally`.
    fn step(&mut self, predictor: &mut P, record: &BranchRecord, tally: &mut Tally);

    /// Runs once after the last record. The default does nothing.
    #[inline]
    fn finish(&mut self, predictor: &mut P) {
        let _ = predictor;
    }
}

/// The plain hook: immediate update through
/// [`BranchPredictor::predict_and_update`] and nothing else — the
/// paper's methodology (§8.1.1). Path-sensitive predictors see every
/// record, so they see the full control flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct Plain;

impl<P: BranchPredictor> Hook<P> for Plain {
    #[inline(always)]
    fn step(&mut self, predictor: &mut P, record: &BranchRecord, tally: &mut Tally) {
        if let Some(prediction) = predictor.predict_and_update(record) {
            tally.score(prediction, record.outcome);
        }
    }
}

/// The fault hook: one injector [step](FaultInjector::step) per
/// conditional branch, *before* the branch is predicted, so a strike can
/// corrupt the very next lookup; then the plain step.
///
/// Faults are *soft errors*, not logical writes: they go straight to the
/// storage arrays via [`FaultTarget`] and bypass the predictor's
/// write-enable accounting, so its write counters still count only its
/// own update traffic. At `plan.rate == 0.0` the injector draws from its
/// RNG but never touches the tables, and the tally equals [`Plain`]'s.
impl<P: BranchPredictor + FaultTarget> Hook<P> for &mut FaultInjector {
    #[inline]
    fn step(&mut self, predictor: &mut P, record: &BranchRecord, tally: &mut Tally) {
        if record.kind.is_conditional() {
            FaultInjector::step(self, predictor);
        }
        Plain.step(predictor, record, tally);
    }
}

/// The stale-commit hook: **fully stale updates**. Each conditional is
/// predicted now, but *both* its table write and its history shift
/// happen only `window` conditionals later — i.e. without any
/// speculative history update. The in-flight queue drains at the end.
///
/// This is deliberately the *wrong* way to build a deep-pipeline
/// predictor: Hao, Chang and Patt (the paper's reference \[8\], recalled
/// in §3) showed that speculative history update is essential, and this
/// hook demonstrates why — history-correlated patterns become invisible
/// when the register lags the fetch stream. The faithful commit-time
/// model (speculative history, delayed counter writes) is
/// `TwoBcGskewConfig::with_commit_window`, validated by the
/// [`crate::experiments::delayed_update`] experiment, which labels this
/// model's result `"<predictor> [stale, window W]"`.
pub struct StaleCommit<'q> {
    window: usize,
    inflight: &'q mut VecDeque<BranchRecord>,
}

impl<'q> StaleCommit<'q> {
    /// Delays every update by `window` conditionals, queueing in-flight
    /// records in the caller's `inflight`. The queue is cleared here;
    /// its capacity is what carries over, so a sweep of stale runs
    /// reuses one allocation.
    pub fn new(window: usize, inflight: &'q mut VecDeque<BranchRecord>) -> Self {
        inflight.clear();
        inflight.reserve(window + 1);
        StaleCommit { window, inflight }
    }
}

impl<P: BranchPredictor> Hook<P> for StaleCommit<'_> {
    #[inline]
    fn step(&mut self, predictor: &mut P, record: &BranchRecord, tally: &mut Tally) {
        if record.kind.is_conditional() {
            tally.score(predictor.predict(record.pc), record.outcome);
            self.inflight.push_back(*record);
            if self.inflight.len() > self.window {
                let commit = self.inflight.pop_front().expect("non-empty");
                predictor.update_record(&commit);
            }
        } else {
            predictor.note_noncond(record);
        }
    }

    fn finish(&mut self, predictor: &mut P) {
        while let Some(commit) = self.inflight.pop_front() {
            predictor.update_record(&commit);
        }
    }
}

/// Runs `predictor` over every record of `source`, calling `hook` at each
/// one, then [`Hook::finish`]; returns the run's [`Tally`] (wrapped in a
/// `Result` for a corpus source, whose decode can fail).
///
/// Pass `&mut predictor` (or `&mut hook`) to keep its state after the
/// run, e.g. to chain ranges of one trace on one predictor or to read a
/// fault log.
#[inline]
pub fn drive<P, S: Source, H: Hook<P>>(
    mut predictor: P,
    source: S,
    mut hook: H,
) -> S::Output<Tally> {
    let mut tally = Tally::default();
    let walked = source.walk(|record| hook.step(&mut predictor, record, &mut tally));
    S::then(walked, || {
        hook.finish(&mut predictor);
        tally
    })
}

/// Runs a predictor over an AoS trace with **immediate update** — the
/// paper's methodology (§8.1.1): [`drive`] with the [`Plain`] hook.
///
/// Experiments walk the cached packed trace through
/// [`simulate_flat`](crate::simulate_flat) instead; this is the serial
/// slow twin the golden and equivalence tests pin the fast paths
/// against, over a freshly generated trace.
pub fn simulate<P: BranchPredictor>(predictor: P, trace: &Trace) -> SimResult {
    let name = predictor.name();
    let tally = drive(predictor, trace, Plain);
    SimResult::new(trace.name(), trace.instruction_count(), name, tally)
}

/// A perfect predictor (always right) — gives the misp/KI floor of zero
/// and is useful for harness self-checks.
///
/// The oracle is stateless: it answers from the [`BranchRecord`] handed
/// to [`BranchPredictor::predict_and_update`], which is how [`simulate`]
/// drives it. The PC-only [`BranchPredictor::predict`] entry point has no
/// record to consult and statically answers not-taken.
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Creates an oracle.
    pub fn new() -> Self {
        Oracle
    }
}

impl BranchPredictor for Oracle {
    fn predict(&self, _pc: ev8_trace::Pc) -> Outcome {
        Outcome::NotTaken
    }

    fn update(&mut self, _pc: ev8_trace::Pc, _outcome: Outcome) {}

    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        record.kind.is_conditional().then_some(record.outcome)
    }

    fn name(&self) -> String {
        "oracle".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_predictors::bimodal::Bimodal;
    use ev8_predictors::gshare::Gshare;
    use ev8_predictors::{AlwaysNotTaken, AlwaysTaken};
    use ev8_trace::{Pc, TraceBuilder};

    fn faulted<P: BranchPredictor + FaultTarget>(
        mut predictor: P,
        trace: &Trace,
        plan: ev8_faults::FaultPlan,
    ) -> (Tally, ev8_faults::FaultLog) {
        let mut injector = FaultInjector::new(plan, &predictor);
        let tally = drive(&mut predictor, trace, &mut injector);
        (tally, injector.into_log())
    }

    fn stale<P: BranchPredictor>(predictor: P, trace: &Trace, window: usize) -> Tally {
        drive(
            predictor,
            trace,
            StaleCommit::new(window, &mut VecDeque::new()),
        )
    }

    fn biased_trace(n: u64, taken_period: u64) -> Trace {
        let mut b = TraceBuilder::new("biased");
        for i in 0..n {
            b.run(5);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000),
                Pc::new(0x2000),
                i % taken_period != 0,
            ));
        }
        b.finish()
    }

    #[test]
    fn oracle_never_mispredicts() {
        let t = biased_trace(500, 3);
        let r = simulate(Oracle::new(), &t);
        assert_eq!(r.mispredictions, 0);
        assert_eq!(r.misp_per_ki(), 0.0);
        assert_eq!(r.conditional_branches, 500);
    }

    #[test]
    fn static_predictors_bound_the_range() {
        let t = biased_trace(300, 3);
        let taken = simulate(AlwaysTaken, &t);
        let not_taken = simulate(AlwaysNotTaken, &t);
        // The branch is taken 2/3 of the time.
        assert_eq!(taken.mispredictions, 100);
        assert_eq!(not_taken.mispredictions, 200);
        assert!(taken.accuracy() > not_taken.accuracy());
    }

    #[test]
    fn learning_predictor_beats_static() {
        let t = biased_trace(300, 4);
        let bimodal = simulate(Bimodal::new(10), &t);
        let taken = simulate(AlwaysTaken, &t);
        assert!(bimodal.mispredictions <= taken.mispredictions + 2);
    }

    #[test]
    fn result_counts_are_consistent() {
        let t = biased_trace(100, 2);
        let r = simulate(Bimodal::new(8), &t);
        assert_eq!(r.instructions, t.instruction_count());
        assert_eq!(r.conditional_branches, t.conditional_count());
        assert!(r.mispredictions <= r.conditional_branches);
        assert_eq!(r.trace, "biased");
    }

    #[test]
    fn stale_history_destroys_correlation() {
        // The [8] effect: a period-5 pattern is trivial for gshare with
        // up-to-date history, and unlearnable when the history register
        // lags 32 branches behind.
        let t = biased_trace(4000, 5);
        let imm = simulate(Gshare::new(12, 10), &t);
        let stale = stale(Gshare::new(12, 10), &t, 32);
        assert!(
            stale.mispredictions > imm.mispredictions * 5,
            "stale {} should be far worse than immediate {}",
            stale.mispredictions,
            imm.mispredictions
        );
    }

    #[test]
    fn stale_update_spares_history_free_predictors() {
        // Bimodal has no history register, so staleness costs only the
        // slower counter warmup.
        let t = biased_trace(2000, 50);
        let imm = simulate(Bimodal::new(10), &t);
        let stale = stale(Bimodal::new(10), &t, 32);
        // Staleness costs at most the warmup window (the first `window`
        // predictions come from untrained counters); in steady state the
        // bimodal predictor is unaffected.
        assert!(
            stale.mispredictions <= imm.mispredictions + 32 + 5,
            "stale {} vs immediate {}",
            stale.mispredictions,
            imm.mispredictions
        );
    }

    #[test]
    fn stale_drains_inflight_at_end() {
        // A window larger than the trace still trains everything by the
        // end (drain loop), in trace order: the predictor ends where an
        // immediate-update run leaves it, so a second pass improves.
        let t = biased_trace(50, 1000);
        let mut p = Gshare::new(10, 0);
        let first = stale(&mut p, &t, 1000);
        assert!(first.conditional_branches == 50);
        let mut immediate = Gshare::new(10, 0);
        simulate(&mut immediate, &t);
        assert_eq!(p, immediate);
        let second = simulate(&mut p, &t);
        assert!(second.mispredictions <= first.mispredictions);
    }

    #[test]
    fn heavy_seu_rate_costs_accuracy() {
        use ev8_faults::FaultPlan;
        use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
        let t = biased_trace(4000, 5);
        let clean = simulate(TwoBcGskew::new(TwoBcGskewConfig::equal(8, 8)), &t);
        // One SEU per branch into a small predictor is a blizzard; the
        // curve must move the right way, and nothing may panic.
        let (hit, log) = faulted(
            TwoBcGskew::new(TwoBcGskewConfig::equal(8, 8)),
            &t,
            FaultPlan::seu(1.0).with_seed(3),
        );
        assert_eq!(log.injected(), hit.conditional_branches);
        assert!(
            hit.mispredictions > clean.mispredictions,
            "SEU storm {} should beat clean {}",
            hit.mispredictions,
            clean.mispredictions
        );
    }

    #[test]
    fn faulted_sim_is_deterministic() {
        use ev8_faults::FaultPlan;
        use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
        let t = biased_trace(1500, 4);
        let run = || {
            faulted(
                TwoBcGskew::new(TwoBcGskewConfig::equal(9, 9)),
                &t,
                FaultPlan::seu(0.05).with_seed(11),
            )
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a.mispredictions, b.mispredictions);
        assert_eq!(la.injected(), lb.injected());
        assert_eq!(la.by_array(), lb.by_array());
    }

    #[test]
    fn commit_window_predictor_tracks_immediate() {
        // §8.1.1 in miniature: speculative history + delayed counter
        // writes stays close to immediate update.
        use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
        let t = biased_trace(4000, 5);
        let imm = simulate(TwoBcGskew::new(TwoBcGskewConfig::equal(10, 10)), &t);
        let del = simulate(
            TwoBcGskew::new(TwoBcGskewConfig::equal(10, 10).with_commit_window(64)),
            &t,
        );
        // Measure the gap against the branch count: in steady state the
        // two agree, so the difference is bounded by the warmup window.
        let gap = (imm.mispredictions as f64 - del.mispredictions as f64).abs()
            / imm.conditional_branches as f64;
        assert!(
            gap < 0.03,
            "immediate {} vs commit-window {} over {} branches",
            imm.mispredictions,
            del.mispredictions,
            imm.conditional_branches
        );
    }
}
