//! End-to-end integration: workload generation → trace → predictors →
//! metrics, across all workspace crates.

use ev8_core::Ev8Predictor;
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::{AlwaysNotTaken, AlwaysTaken, BranchPredictor};
use ev8_sim::simulate_flat;
use ev8_sim::sweep::{default_workers, run_parallel};
use ev8_trace::TraceStats;
use ev8_workloads::spec95;

const SCALE: f64 = 0.005;

#[test]
fn full_pipeline_produces_sane_results() {
    let jobs: Vec<Box<dyn FnOnce() + Send>> = spec95::NAMES
        .into_iter()
        .map(|name| {
            Box::new(move || {
                let trace = spec95::cached(name, SCALE).unwrap();
                let r = simulate_flat(Ev8Predictor::ev8(), &trace);
                assert_eq!(r.trace, name);
                assert!(r.conditional_branches > 0, "{name}: no branches predicted");
                assert!(
                    r.mispredictions < r.conditional_branches / 2,
                    "{name}: worse than a coin flip ({r})"
                );
                assert!(r.misp_per_ki() < 60.0, "{name}: {r}");
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    run_parallel(jobs, default_workers());
}

#[test]
fn simulation_is_deterministic() {
    let trace = spec95::cached("li", SCALE).unwrap();
    let a = simulate_flat(Ev8Predictor::ev8(), &trace);
    let b = simulate_flat(Ev8Predictor::ev8(), &trace);
    assert_eq!(a.mispredictions, b.mispredictions);
    assert_eq!(a.conditional_branches, b.conditional_branches);
    // And the cached trace is exactly what fresh generation produces.
    let again = spec95::benchmark("li").unwrap().generate_scaled(SCALE);
    assert_eq!(trace.instruction_count(), again.instruction_count());
    assert_eq!(trace.iter().collect::<Vec<_>>(), again.records());
}

#[test]
fn static_predictors_bound_learning_predictors() {
    let trace = spec95::cached("m88ksim", SCALE).unwrap();
    let taken = simulate_flat(AlwaysTaken, &trace);
    let not_taken = simulate_flat(AlwaysNotTaken, &trace);
    let learned = simulate_flat(TwoBcGskew::new(TwoBcGskewConfig::size_512k()), &trace);
    let best_static = taken.mispredictions.min(not_taken.mispredictions);
    assert!(
        learned.mispredictions < best_static,
        "2Bc-gskew ({}) must beat the best static predictor ({best_static})",
        learned.mispredictions
    );
    // Static predictors complement each other exactly.
    assert_eq!(
        taken.mispredictions + not_taken.mispredictions,
        trace.conditional_count()
    );
}

#[test]
fn predictor_quality_ordering_holds() {
    // On a correlation-rich benchmark: bimodal < gshare < 2Bc-gskew in
    // accuracy (the motivation chain of the paper's §4).
    let trace = spec95::cached("li", 0.01).unwrap();
    let bimodal = simulate_flat(Bimodal::new(14), &trace);
    let gshare = simulate_flat(Gshare::new(16, 16), &trace);
    let gskew = simulate_flat(TwoBcGskew::new(TwoBcGskewConfig::size_512k()), &trace);
    assert!(
        gshare.mispredictions < bimodal.mispredictions,
        "gshare {} vs bimodal {}",
        gshare.mispredictions,
        bimodal.mispredictions
    );
    assert!(
        gskew.mispredictions <= gshare.mispredictions,
        "2Bc-gskew {} vs gshare {}",
        gskew.mispredictions,
        gshare.mispredictions
    );
}

#[test]
fn workload_statistics_feed_metrics_consistently() {
    let trace = spec95::cached("compress", SCALE).unwrap();
    let stats = TraceStats::from_trace(&trace);
    let r = simulate_flat(Bimodal::new(12), &trace);
    assert_eq!(r.conditional_branches, stats.dynamic_conditional);
    assert_eq!(r.instructions, stats.instructions);
    // misp/KI and misprediction rate are consistent transformations.
    let from_rate = r.misprediction_rate() * stats.dynamic_conditional as f64 * 1000.0
        / stats.instructions as f64;
    assert!((from_rate - r.misp_per_ki()).abs() < 1e-9);
}

#[test]
fn boxed_and_plain_predictors_agree() {
    let trace = spec95::cached("perl", SCALE).unwrap();
    let plain = simulate_flat(Gshare::new(14, 12), &trace);
    let boxed: Box<dyn BranchPredictor> = Box::new(Gshare::new(14, 12));
    let via_box = simulate_flat(boxed, &trace);
    assert_eq!(plain.mispredictions, via_box.mispredictions);
}
