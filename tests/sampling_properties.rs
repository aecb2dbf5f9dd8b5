//! Integration-level properties of the phase-sampling estimator: the
//! invariants the golden fixture's stability rests on, checked from
//! outside the crate on real (scaled) benchmark traces.

use std::sync::Arc;
use std::thread;

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_sim::experiments::factory;
use ev8_sim::{
    cluster_intervals, profile_intervals, simulate_flat, simulate_sampled, validate_sampled,
    SamplingConfig,
};
use ev8_workloads::spec95;

const SCALE: f64 = 0.002;

#[test]
fn kmeans_is_deterministic_across_runs_and_threads() {
    let flat = spec95::cached("gcc", SCALE).unwrap();
    let config = SamplingConfig::auto(flat.len());
    let intervals = profile_intervals(&flat, &config);
    let baseline = cluster_intervals(&intervals, &config);

    // Same inputs, same seed → identical phases, serially repeated ...
    let again = cluster_intervals(&intervals, &config);
    assert_eq!(baseline.len(), again.len());
    for (a, b) in baseline.iter().zip(&again) {
        assert_eq!(a.representative, b.representative);
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.members, b.members);
    }

    // ... and from concurrent threads (no platform-variant float paths,
    // no iteration-order dependence).
    let flat = Arc::new(flat);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let flat = Arc::clone(&flat);
            thread::spawn(move || {
                let config = SamplingConfig::auto(flat.len());
                let intervals = profile_intervals(&flat, &config);
                cluster_intervals(&intervals, &config)
            })
        })
        .collect();
    for handle in handles {
        let phases = handle.join().expect("clustering thread panicked");
        for (a, b) in baseline.iter().zip(&phases) {
            assert_eq!(a.representative, b.representative);
            assert_eq!(a.members, b.members);
        }
    }
}

#[test]
fn phase_weights_sum_to_the_interval_count() {
    for name in ["compress", "li", "vortex"] {
        let flat = spec95::cached(name, SCALE).unwrap();
        let config = SamplingConfig::auto(flat.len());
        let intervals = profile_intervals(&flat, &config);
        let phases = cluster_intervals(&intervals, &config);
        let total: usize = phases.iter().map(|p| p.weight).sum();
        assert_eq!(total, intervals.len(), "{name}: weights must partition");
        for phase in &phases {
            assert_eq!(phase.weight, phase.members.len(), "{name}");
            assert!(
                phase.members.contains(&phase.representative),
                "{name}: representative outside its own phase"
            );
        }
    }
}

#[test]
fn degenerate_full_coverage_config_is_bit_exact() {
    // Sampling every interval with full warmup must reproduce the
    // serial simulator's integers exactly — the estimator's error is
    // entirely in what it *skips*.
    let flat = spec95::cached("compress", SCALE).unwrap();
    let mut config = SamplingConfig::auto(flat.len());
    config.anchor_intervals = 0;
    config.tail_samples = usize::MAX;
    config.warmup_len = flat.len();
    let fac = factory(|| Gshare::new(14, 14));
    let run = simulate_sampled(&fac, &flat, &config);
    let serial = simulate_flat(Gshare::new(14, 14), &flat);
    assert_eq!(run.estimate.mispredictions, serial.mispredictions);
    assert_eq!(run.estimate.instructions, serial.instructions);
}

#[test]
fn auto_budget_meets_the_reduction_floor_with_sane_error() {
    // The acceptance bar at full scale is ≥5× at ≤2% relative error;
    // at this test scale the budget must still deliver ≥4.5× and stay
    // within a loose error band (accuracy at scale is pinned by the
    // sampling bench, regression by the golden fixture).
    let flat = spec95::cached("li", SCALE).unwrap();
    let config = SamplingConfig::auto(flat.len());
    let cmp = validate_sampled(&factory(Ev8Predictor::ev8), &flat, &config);
    assert!(
        cmp.sampled.reduction() >= 4.5,
        "reduction {:.2} below floor",
        cmp.sampled.reduction()
    );
    assert!(
        cmp.relative_error() < 0.10,
        "relative error {:.3} out of band",
        cmp.relative_error()
    );
    // The error accounting itself must reconcile: the recorded delta is
    // exactly estimate − full.
    let delta = cmp.sampled.estimate.misp_per_ki() - cmp.full.misp_per_ki();
    assert!((cmp.misp_ki_delta() - delta).abs() < 1e-12);
}
