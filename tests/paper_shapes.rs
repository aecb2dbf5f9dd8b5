//! Shape assertions from the paper's evaluation, checked end-to-end at
//! reduced scale. Full-scale numbers live in EXPERIMENTS.md; these tests
//! pin the *directions* that must not regress.
//!
//! Traces come from the process-wide cache as packed flat views
//! ([`spec95::cached`]); multi-benchmark loops fan out over
//! [`run_parallel`] and multi-config comparisons batch over
//! [`simulate_many`], so each trace streams through the cache once per
//! benchmark job no matter how many configurations compare on it.

use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig, UpdatePolicy};
use ev8_predictors::BranchPredictor;
use ev8_sim::sweep::{default_workers, run_parallel};
use ev8_sim::{simulate_flat, simulate_many};
use ev8_workloads::spec95;

#[test]
fn ev8_constraints_cost_little() {
    // §8.5 headline: "the 352 Kbits Alpha EV8 branch predictor stands the
    // comparison against a 512 Kbits 2Bc-gskew predictor using
    // conventional branch history."
    let jobs: Vec<Box<dyn FnOnce() -> (f64, f64) + Send>> = ["compress", "li", "m88ksim", "vortex"]
        .into_iter()
        .map(|name| {
            Box::new(move || {
                let trace = spec95::cached(name, 0.01).unwrap();
                let mut configs: Vec<Box<dyn BranchPredictor>> = vec![
                    Box::new(Ev8Predictor::ev8()),
                    Box::new(Ev8Predictor::new(Ev8Config::unconstrained_512k())),
                ];
                let results = simulate_many(&mut configs, &trace);
                (results[0].misp_per_ki(), results[1].misp_per_ki())
            }) as Box<dyn FnOnce() -> (f64, f64) + Send>
        })
        .collect();
    let (ev8_total, unconstrained_total) = run_parallel(jobs, default_workers())
        .into_iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    assert!(
        ev8_total <= unconstrained_total * 1.25 + 1.0,
        "EV8 (sum {ev8_total:.2}) should stand comparison with the \
         unconstrained 512Kb predictor (sum {unconstrained_total:.2})"
    );
}

#[test]
fn partial_update_beats_total_update() {
    // §4.2: "Partial update policy was shown to result in higher
    // prediction accuracy than total update policy."
    // Partial update's benefit is a steady-state effect (better space
    // utilization under aliasing); short cold runs favour total update,
    // so this test runs at a fifth of the paper's trace length. One job
    // per benchmark, both policies batched over one trace pass: these
    // are the suite's longest simulations, and batching halves their
    // trace traffic.
    let jobs: Vec<Box<dyn FnOnce() -> (u64, u64) + Send>> = ["gcc", "vortex", "li"]
        .into_iter()
        .map(|name| {
            Box::new(move || {
                let trace = spec95::cached(name, 0.2).unwrap();
                let mut configs: Vec<Box<dyn BranchPredictor>> = vec![
                    Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
                    Box::new(TwoBcGskew::new(
                        TwoBcGskewConfig::size_512k().with_update_policy(UpdatePolicy::Total),
                    )),
                ];
                let results = simulate_many(&mut configs, &trace);
                (results[0].mispredictions, results[1].mispredictions)
            }) as Box<dyn FnOnce() -> (u64, u64) + Send>
        })
        .collect();
    let mut partial_total = 0u64;
    let mut total_total = 0u64;
    for (partial, total) in run_parallel(jobs, default_workers()) {
        partial_total += partial;
        total_total += total;
    }
    assert!(
        partial_total < total_total,
        "partial update ({partial_total}) should beat total update ({total_total})"
    );
}

#[test]
fn half_hysteresis_is_nearly_free() {
    // Fig 8: "the effect of using half size hysteresis tables for G0 and
    // Meta is barely noticeable" (except on go).
    let trace = spec95::cached("vortex", 0.2).unwrap();
    let mut configs: Vec<Box<dyn BranchPredictor>> = vec![
        Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k_small_bim())),
        Box::new(TwoBcGskew::new(TwoBcGskewConfig::ev8_size())),
    ];
    let results = simulate_many(&mut configs, &trace);
    let (full, half) = (&results[0], &results[1]);
    let delta = half.misp_per_ki() - full.misp_per_ki();
    assert!(
        delta < 2.0,
        "half hysteresis should be nearly free: {} vs {} (delta {delta:.3})",
        half.misp_per_ki(),
        full.misp_per_ki()
    );
}

#[test]
fn long_history_beats_log2_history() {
    // §5.3 / Fig 6: history longer than log2(entries) pays off. Checked
    // on the correlation-heavy li analogue.
    let trace = spec95::cached("li", 0.2).unwrap();
    let mut configs: Vec<Box<dyn BranchPredictor>> = vec![
        Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
        Box::new(TwoBcGskew::new(
            TwoBcGskewConfig::size_512k().with_history_lengths(0, 16, 16, 16),
        )),
    ];
    let results = simulate_many(&mut configs, &trace);
    let (best, log2) = (&results[0], &results[1]);
    assert!(
        best.mispredictions <= log2.mispredictions,
        "long history ({}) should not lose to log2 history ({})",
        best.mispredictions,
        log2.mispredictions
    );
}

#[test]
fn lghist_is_competitive_with_ghist() {
    // Fig 7: "quite surprisingly, lghist has same performance as
    // conventional branch history."
    let jobs: Vec<Box<dyn FnOnce() -> (f64, f64) + Send>> = ["compress", "m88ksim", "vortex"]
        .into_iter()
        .map(|name| {
            Box::new(move || {
                let trace = spec95::cached(name, 0.01).unwrap();
                let mut configs: Vec<Box<dyn BranchPredictor>> = vec![
                    Box::new(Ev8Predictor::new(Ev8Config::lghist_512k(
                        HistoryMode::lghist_path(),
                    ))),
                    Box::new(Ev8Predictor::new(Ev8Config::unconstrained_512k())),
                ];
                let results = simulate_many(&mut configs, &trace);
                (results[0].misp_per_ki(), results[1].misp_per_ki())
            }) as Box<dyn FnOnce() -> (f64, f64) + Send>
        })
        .collect();
    let (lghist_total, ghist_total) = run_parallel(jobs, default_workers())
        .into_iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    assert!(
        lghist_total <= ghist_total * 1.2 + 0.5,
        "lghist ({lghist_total:.2}) should be competitive with ghist ({ghist_total:.2})"
    );
}

#[test]
fn three_old_history_loss_is_limited() {
    // Fig 7: "using three fetch blocks old history slightly degrades the
    // accuracy of the predictor, but the impact is limited."
    let trace = spec95::cached("m88ksim", 0.02).unwrap();
    let mut configs: Vec<Box<dyn BranchPredictor>> = vec![
        Box::new(Ev8Predictor::new(Ev8Config::lghist_512k(
            HistoryMode::lghist_path(),
        ))),
        Box::new(Ev8Predictor::new(Ev8Config::lghist_512k(
            HistoryMode::lghist_3old(),
        ))),
    ];
    let results = simulate_many(&mut configs, &trace);
    let (immediate, three_old) = (&results[0], &results[1]);
    let ratio = three_old.misp_per_ki() / immediate.misp_per_ki().max(0.01);
    assert!(
        ratio < 2.0,
        "3-old history loss should be bounded: {} vs {} ({ratio:.2}x)",
        three_old.misp_per_ki(),
        immediate.misp_per_ki()
    );
}

#[test]
fn go_is_the_hardest_benchmark() {
    // Table 2 / Fig 5: go has the largest footprint and weakest biases;
    // it must be the worst-predicted benchmark, as in the paper.
    let jobs: Vec<Box<dyn FnOnce() -> (&'static str, f64) + Send>> = spec95::NAMES
        .into_iter()
        .map(|name| {
            Box::new(move || {
                let trace = spec95::cached(name, 0.005).unwrap();
                let m = simulate_flat(TwoBcGskew::new(TwoBcGskewConfig::size_512k()), &trace)
                    .misp_per_ki();
                (name, m)
            }) as Box<dyn FnOnce() -> (&'static str, f64) + Send>
        })
        .collect();
    let mut worst = ("", 0.0f64);
    for (name, m) in run_parallel(jobs, default_workers()) {
        if m > worst.1 {
            worst = (name, m);
        }
    }
    assert!(
        worst.0 == "go" || worst.0 == "gcc",
        "go (or the aliasing-bound gcc) should be hardest, got {} ({:.2})",
        worst.0,
        worst.1
    );
}
