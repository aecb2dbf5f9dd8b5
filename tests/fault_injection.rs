//! End-to-end robustness: the session `RECORDS` decoder survives ten
//! thousand seeded corruptions, and the SEU campaign degrades the
//! predictor smoothly with zero panics.
//!
//! Everything here replays from literal seeds — a failure message names
//! the one `u64` needed to reproduce it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use ev8_faults::fuzz::{corrupt, decode_check, max_plausible_records};
use ev8_faults::{ArraySelector, FaultInjector, FaultLog, FaultPlan};
use ev8_predictors::introspect::ArrayClass;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::BranchPredictor;
use ev8_sim::{drive, simulate_flat, SimResult};
use ev8_trace::frame::encode_records;
use ev8_trace::{BranchRecord, FlatTrace, Pc};
use ev8_util::bytebuf::ByteBuf;
use ev8_workloads::spec95;

/// [`simulate_flat`] with a fault injector stepped before every conditional.
fn faulted_run(
    mut predictor: TwoBcGskew,
    trace: &FlatTrace,
    plan: FaultPlan,
) -> (SimResult, FaultLog) {
    let mut injector = FaultInjector::new(plan, &predictor);
    let tally = drive(&mut predictor, trace, &mut injector);
    let result = SimResult::new(
        trace.name(),
        trace.instruction_count(),
        predictor.name(),
        tally,
    );
    (result, injector.into_log())
}

/// One `RECORDS` payload of 2,000 branches, as a client sends it.
fn encoded_base() -> Vec<u8> {
    let records: Vec<BranchRecord> = (0..2_000u64)
        .map(|i| {
            BranchRecord::conditional(
                Pc::new(0x40_0000 + (i % 97) * 4),
                Pc::new(0x41_0000 + (i % 31) * 4),
                (i * 2654435761) % 5 != 0,
            )
            .with_gap((i % 7) as u32)
        })
        .collect();
    let mut buf = ByteBuf::new();
    encode_records(&mut buf, &records, &mut Pc::default());
    buf.into_vec()
}

#[test]
fn ten_thousand_seeded_mutations_never_panic_or_overallocate() {
    let base = encoded_base();
    let mut ok = 0u32;
    let mut rejected = 0u32;
    for seed in 0..10_000u64 {
        let mutated = corrupt(&base, seed);
        // `decode_check` runs `frame::decode_records` and asserts the
        // structural allocation bound (records <= bytes/4) internally; a
        // panic anywhere in the decode path is the finding.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| decode_check(&mutated)));
        match outcome {
            Ok(Ok(n)) => {
                assert!(n <= max_plausible_records(mutated.len()));
                ok += 1;
            }
            Ok(Err(e)) => {
                // Structured error: must render and expose a cause chain
                // without panicking.
                let _ = e.to_string();
                let _ = std::error::Error::source(&e);
                rejected += 1;
            }
            Err(_) => panic!("decoder panicked on corruption seed {seed}"),
        }
    }
    assert_eq!(ok + rejected, 10_000);
    assert!(rejected > 0, "no corruption was ever detected");
    assert!(ok > 0, "even benign mutations failed to decode");
}

#[test]
fn seu_campaign_degrades_monotonically_with_zero_panics() {
    // Three benchmarks, rising per-branch SEU rates: every point must
    // simulate cleanly, and the endpoints of each curve must separate.
    const RATES: [f64; 4] = [0.0, 1e-3, 1e-2, 5e-2];
    let config = TwoBcGskewConfig::equal(9, 9);
    for bench in ["compress", "gcc", "go"] {
        let trace: Arc<FlatTrace> = spec95::cached(bench, 0.002).expect("known benchmark");
        let baseline = simulate_flat(TwoBcGskew::new(config), &trace);
        let mut curve = Vec::new();
        for (i, &rate) in RATES.iter().enumerate() {
            let plan = FaultPlan::seu(rate).with_seed(0xCA_FE + i as u64);
            let (result, log) = faulted_run(TwoBcGskew::new(config), &trace, plan);
            if rate == 0.0 {
                assert_eq!(result.mispredictions, baseline.mispredictions);
                assert_eq!(log.injected(), 0);
            } else {
                assert!(log.injected() > 0, "{bench}: rate {rate} never fired");
            }
            curve.push(result.misp_per_ki());
        }
        assert!(
            curve[RATES.len() - 1] > curve[0],
            "{bench}: SEU storm should cost accuracy, got {curve:?}"
        );
        for w in curve.windows(2) {
            assert!(
                w[1] >= w[0] * 0.9 - 0.25,
                "{bench}: non-monotone step {w:?} in {curve:?}"
            );
        }
    }
}

#[test]
fn targeted_faults_respect_the_selector_end_to_end() {
    let trace: Arc<FlatTrace> = spec95::cached("compress", 0.001).expect("known benchmark");
    let config = TwoBcGskewConfig::equal(9, 9);
    for (selector, expect) in [
        (ArraySelector::Class(ArrayClass::Prediction), "prediction"),
        (ArraySelector::Class(ArrayClass::Hysteresis), "hysteresis"),
    ] {
        let plan = FaultPlan::seu(0.05).targeting(selector).with_seed(1);
        let (_, log) = faulted_run(TwoBcGskew::new(config), &trace, plan);
        assert!(log.injected() > 0);
        for (name, hits) in log.by_array() {
            assert!(
                name.ends_with(expect) || *hits == 0,
                "selector {expect}: fault landed in {name}"
            );
        }
    }
}
