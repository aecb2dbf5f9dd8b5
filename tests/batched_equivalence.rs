//! Equivalence guarantees for the simulation driver and the batched
//! sweep engine: every record source and identity hook `drive` accepts,
//! and `simulate_many` over a packed `FlatTrace`, must be
//! *bit-identical* to serial `simulate` calls over the source `Trace` —
//! same `SimResult` fields and same post-run predictor state (checked
//! through the 2Bc-gskew write-accounting counters, the most fragile
//! observable). The stale-commit hook at window 0 steps `predict` then
//! `update_record`, so the same checks pin every fused
//! `predict_and_update` against the composition it replaces.
//!
//! Property cases are driven by the in-tree deterministic harness
//! (`ev8_util::prop`); a failure panics with an
//! `EV8_PROP_CASE_SEED`/`EV8_PROP_SCALE` pair reproducing the minimal
//! counterexample. The suite-level check (also run by the CI sweep
//! smoke, see `scripts/ci.sh`) covers the real generated benchmarks.

use std::collections::VecDeque;
use std::fmt::Debug;

use ev8_util::prop::{check, Gen};
use ev8_util::prop_assert_eq;

use ev8_core::Ev8Predictor;
use ev8_faults::{FaultInjector, FaultPlan};
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::bimode::Bimode;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::observe::ConditionalBranchPredictor;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::twobcgskew::{TableConfig, TwoBcGskew, TwoBcGskewConfig, UpdatePolicy};
use ev8_predictors::yags::Yags;
use ev8_predictors::BranchPredictor;
use ev8_sim::observe::NullObserver;
use ev8_sim::session::SessionSim;
use ev8_sim::{
    drive, simulate, simulate_flat, simulate_gshare_sweep, simulate_many, Plain, SimResult,
    StaleCommit, Tally,
};
use ev8_trace::corpus::{write_corpus_chunked, CorpusReader};
use ev8_trace::{BranchKind, BranchRecord, FlatTrace, Outcome, Pc, Trace, TraceBuilder};
use ev8_workloads::spec95;

const CASES: u64 = 64;

const KINDS: [BranchKind; 5] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::IndirectJump,
];

/// Arbitrary record, including wide-PC and wide-gap extremes so the
/// flat view's escape side tables are exercised, not just the packed
/// fast path.
fn arb_record(g: &mut Gen) -> BranchRecord {
    let kind = *g.choose(&KINDS);
    let taken = g.bool() || kind.is_always_taken();
    let pc = if g.range(0u32..16) == 0 {
        // Past the u32 instruction-word range: forces the escape list.
        0xFFFF_FFFF_0000_0000u64 | (g.u32() as u64 * 4)
    } else {
        g.u32() as u64 * 4
    };
    let gap = if g.range(0u32..16) == 0 {
        g.range(255u32..100_000)
    } else {
        g.range(0u32..255)
    };
    BranchRecord {
        pc: Pc::new(pc),
        target: Pc::new(g.u32() as u64 * 4),
        kind,
        outcome: Outcome::from(taken),
        gap,
    }
}

fn arb_trace(g: &mut Gen) -> Trace {
    let records = g.vec(0..400, arb_record);
    let mut b = TraceBuilder::new("prop");
    for r in &records {
        b.branch(*r);
    }
    b.finish()
}

#[test]
fn flat_view_reconstructs_arbitrary_traces_exactly() {
    check(
        "flat_view_reconstructs_arbitrary_traces_exactly",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            prop_assert_eq!(flat.iter().collect::<Vec<_>>(), trace.records());
            prop_assert_eq!(flat.len(), trace.len());
            prop_assert_eq!(flat.instruction_count(), trace.instruction_count());
            prop_assert_eq!(flat.conditional_count(), trace.conditional_count());
            Ok(())
        },
    );
}

#[test]
fn simulate_many_is_bit_identical_to_serial_simulate() {
    check(
        "simulate_many_is_bit_identical_to_serial_simulate",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            // A heterogeneous roster with varied index/history geometry so
            // different state-machine families interleave in one pass;
            // parameters are drawn once and used to build both rosters.
            let bim_bits = g.range(4u32..12);
            let gshare_bits = g.range(4u32..12);
            let gshare_hist = g.range(0u32..16);
            let gskew_bits = g.range(4u32..10);
            let gskew_hist = g.range(0u32..12);
            let tage_config = TageConfig::geometric(
                g.range(4u32..9),
                g.range(1u32..6) as usize,
                g.range(4u32..8),
                g.range(5u32..11),
                g.range(2u32..5),
                g.range(8u32..40),
            );
            let mut batch: Vec<Box<dyn BranchPredictor>> = vec![
                Box::new(Bimodal::new(bim_bits)),
                Box::new(Gshare::new(gshare_bits, gshare_hist)),
                Box::new(TwoBcGskew::new(TwoBcGskewConfig::equal(
                    gskew_bits, gskew_hist,
                ))),
                Box::new(Ev8Predictor::ev8()),
                Box::new(Tage::new(tage_config.clone())),
            ];
            let serial = vec![
                simulate(Bimodal::new(bim_bits), &trace),
                simulate(Gshare::new(gshare_bits, gshare_hist), &trace),
                simulate(
                    TwoBcGskew::new(TwoBcGskewConfig::equal(gskew_bits, gskew_hist)),
                    &trace,
                ),
                simulate(Ev8Predictor::ev8(), &trace),
                simulate(Tage::new(tage_config), &trace),
            ];
            let batched = simulate_many(&mut batch, &flat);
            prop_assert_eq!(batched, serial);
            Ok(())
        },
    );
}

#[test]
fn simulate_many_matches_serial_write_accounting() {
    // Exact SimResult equality plus exact predictor *state* equality:
    // the write-enable counters record every table write the predictor
    // performed, so equal traffic pins the full update sequence.
    check(
        "simulate_many_matches_serial_write_accounting",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            let config = TwoBcGskewConfig::equal(g.range(4u32..10), g.range(0u32..12));
            let mut batched_predictor = TwoBcGskew::new(config);
            let mut serial_predictor = TwoBcGskew::new(config);
            let batched = simulate_many(std::slice::from_mut(&mut batched_predictor), &flat);
            let serial = simulate(&mut serial_predictor, &trace);
            prop_assert_eq!(&batched[0], &serial);
            prop_assert_eq!(
                batched_predictor.write_traffic(),
                serial_predictor.write_traffic()
            );
            Ok(())
        },
    );
}

#[test]
fn simulate_many_matches_serial_tage_full_state() {
    // TAGE derives structural equality, so the batched-vs-serial pin is
    // the *entire* predictor: every tagged entry, useful counter, the
    // use_alt chooser, the allocation LFSR and the reset phase.
    check("simulate_many_matches_serial_tage_full_state", CASES, |g| {
        let trace = arb_trace(g);
        let flat = FlatTrace::from_trace(&trace);
        let config = TageConfig::geometric(
            g.range(4u32..8),
            g.range(1u32..5) as usize,
            g.range(4u32..7),
            g.range(5u32..10),
            g.range(2u32..5),
            g.range(8u32..24),
        );
        let mut batched_predictor = Tage::new(config.clone());
        let mut serial_predictor = Tage::new(config);
        let batched = simulate_many(std::slice::from_mut(&mut batched_predictor), &flat);
        let serial = simulate(&mut serial_predictor, &trace);
        prop_assert_eq!(&batched[0], &serial);
        prop_assert_eq!(batched_predictor, serial_predictor);
        Ok(())
    });
}

/// Runs `trace` through every record source and every identity hook
/// `drive` accepts, each on a fresh predictor from `make`, and checks
/// that every run returns plain `simulate`'s `SimResult` and leaves the
/// predictor in the same `state`.
fn every_path_matches_simulate<P, S>(
    g: &mut Gen,
    trace: &Trace,
    make: impl Fn() -> P,
    state: impl Fn(&P) -> S,
) -> Result<(), String>
where
    P: ConditionalBranchPredictor + 'static,
    S: PartialEq + Debug,
{
    let mut reference = make();
    let want = simulate(&mut reference, trace);
    let want_state = state(&reference);
    let result = |p: &P, tally: Tally| {
        SimResult::new(trace.name(), trace.instruction_count(), p.name(), tally)
    };
    let flat = FlatTrace::from_trace(trace);

    // Sources: the flat view; flat ranges cut at random points and
    // chained on one predictor; an in-memory corpus with a random chunk
    // length.
    let mut p = make();
    prop_assert_eq!(simulate_flat(&mut p, &flat), want);
    prop_assert_eq!(state(&p), want_state);

    let mut cuts: Vec<usize> = (0..g.range(0u32..5))
        .map(|_| g.range(0..=flat.len()))
        .chain([0, flat.len()])
        .collect();
    cuts.sort_unstable();
    let mut p = make();
    let mut tally = Tally::default();
    for span in cuts.windows(2) {
        tally += drive(&mut p, (&flat, span[0]..span[1]), Plain);
    }
    prop_assert_eq!(result(&p, tally), want);
    prop_assert_eq!(state(&p), want_state);

    let mut bytes = Vec::new();
    write_corpus_chunked(&mut bytes, trace, g.range(1usize..64)).expect("encode");
    let reader = CorpusReader::new(bytes.as_slice()).expect("corpus header");
    let mut p = make();
    let tally = drive(&mut p, reader, Plain).expect("corpus decode");
    prop_assert_eq!(result(&p, tally), want);
    prop_assert_eq!(state(&p), want_state);

    // The session driver, fed in random chunk sizes, attribution on or off.
    let mut session = SessionSim::new(Box::new(make()), g.bool());
    session.begin(trace.name(), trace.instruction_count());
    let mut rest = trace.records();
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(g.range(1..=rest.len().min(40)));
        session.feed_all(chunk);
        rest = tail;
    }
    prop_assert_eq!(session.finish().result, want);

    // Identity hooks: a rate-0 injector, the no-op observer, and stale
    // commit with a zero window.
    let mut p = make();
    let mut injector = FaultInjector::new(FaultPlan::seu(0.0).with_seed(g.u64()), &p);
    let tally = drive(&mut p, trace, &mut injector);
    prop_assert_eq!(injector.log().injected(), 0);
    prop_assert_eq!(result(&p, tally), want);
    prop_assert_eq!(state(&p), want_state);

    let mut p = make();
    let tally = drive(&mut p, trace, NullObserver);
    prop_assert_eq!(result(&p, tally), want);
    prop_assert_eq!(state(&p), want_state);

    let mut p = make();
    let tally = drive(&mut p, trace, StaleCommit::new(0, &mut VecDeque::new()));
    prop_assert_eq!(result(&p, tally), want);
    prop_assert_eq!(state(&p), want_state);
    Ok(())
}

/// One 2Bc-gskew table of arbitrary geometry. Histories longer than
/// twice the index width take more than one chunk of the fold.
fn arb_table(g: &mut Gen) -> TableConfig {
    let (index_bits, history_length) = (g.range(4u32..12), g.range(0u32..=64));
    if g.bool() {
        TableConfig::new(index_bits, history_length)
    } else {
        TableConfig::with_half_hysteresis(index_bits, history_length)
    }
}

fn arb_gskew_config(g: &mut Gen) -> TwoBcGskewConfig {
    TwoBcGskewConfig {
        bim: arb_table(g),
        g0: arb_table(g),
        g1: arb_table(g),
        meta: arb_table(g),
        update_policy: *g.choose(&[UpdatePolicy::Partial, UpdatePolicy::Total]),
        commit_window: 0,
    }
}

/// For the families outside `ConditionalBranchPredictor`: the fused
/// `simulate` against `predict` + `update_record` (stale commit at window
/// 0) and against `simulate_many`, then every finished predictor's
/// `predict` at every PC of the trace.
fn fused_step_matches_composed<P: BranchPredictor>(
    trace: &Trace,
    make: impl Fn() -> P,
) -> Result<(), String> {
    let mut fused = make();
    let want = simulate(&mut fused, trace);
    let mut composed = make();
    let tally = drive(
        &mut composed,
        trace,
        StaleCommit::new(0, &mut VecDeque::new()),
    );
    let name = composed.name();
    prop_assert_eq!(
        SimResult::new(trace.name(), trace.instruction_count(), name, tally),
        want.clone()
    );
    let mut batched = [make()];
    prop_assert_eq!(
        simulate_many(&mut batched, &FlatTrace::from_trace(trace)),
        vec![want]
    );
    for record in trace.records() {
        let prediction = fused.predict(record.pc);
        prop_assert_eq!(composed.predict(record.pc), prediction);
        prop_assert_eq!(batched[0].predict(record.pc), prediction);
    }
    Ok(())
}

#[test]
fn simulate_flat_equals_simulate_on_arbitrary_traces() {
    check(
        "simulate_flat_equals_simulate_on_arbitrary_traces",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let bits = g.range(4u32..12);
            every_path_matches_simulate(g, &trace, || Gshare::new(bits, bits), |_| ())?;
            // The whole predictor is the state: counters, write
            // accounting and history.
            let config = arb_gskew_config(g);
            every_path_matches_simulate(g, &trace, || TwoBcGskew::new(config), Clone::clone)?;
            let (choice, cache, tag, history) = (
                g.range(4u32..12),
                g.range(4u32..12),
                g.range(1u32..=8),
                g.range(0u32..=64),
            );
            fused_step_matches_composed(&trace, || Yags::new(choice, cache, tag, history))?;
            let (choice, direction, history) =
                (g.range(4u32..12), g.range(4u32..12), g.range(0u32..=64));
            fused_step_matches_composed(&trace, || Bimode::new(choice, direction, history))
        },
    );
}

#[test]
fn gshare_sweep_matches_serial_on_arbitrary_traces() {
    // The specialized gshare sweep (the transposed-stream engine behind
    // `simulate_gshare_sweep`) against K serial runs, over arbitrary
    // traces including escape-table extremes, with geometry drawn per
    // case — including history lengths that force the long-history
    // fallback.
    check(
        "gshare_sweep_matches_serial_on_arbitrary_traces",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            let index_bits = g.range(4u32..14);
            let histories: Vec<u32> = (0..g.range(1u32..8)).map(|_| g.range(0u32..40)).collect();
            let serial: Vec<_> = histories
                .iter()
                .map(|&h| simulate(Gshare::new(index_bits, h), &trace))
                .collect();
            prop_assert_eq!(simulate_gshare_sweep(index_bits, &histories, &flat), serial);
            Ok(())
        },
    );
}

/// The CI sweep smoke (`scripts/ci.sh`, `EV8_SWEEP_BUDGET`): one batched
/// 8-config sweep over real generated benchmarks, asserted equal to the
/// serial results field-for-field.
#[test]
fn batched_suite_sweep_matches_serial_on_real_benchmarks() {
    let histories = [0u32, 2, 4, 6, 8, 10, 12, 14];
    for name in ["compress", "m88ksim", "go"] {
        let trace = spec95::cached(name, 0.002).unwrap();
        let flat = spec95::cached_flat(name, 0.002).unwrap();
        let mut batch: Vec<Gshare> = histories.iter().map(|&h| Gshare::new(12, h)).collect();
        let batched = simulate_many(&mut batch, &flat);
        for (&h, b) in histories.iter().zip(&batched) {
            let serial = simulate(Gshare::new(12, h), &trace);
            assert_eq!(*b, serial, "{name} gshare h={h}");
        }
    }
}
