//! Phase-sampling accuracy benches: the estimator's cost/accuracy
//! envelope, recorded per (benchmark, predictor) cell into the shared
//! `BENCH_sim.json` under the `sampling` group.
//!
//! Each cell runs [`ev8_sim::validate_sampled`] — the full serial truth
//! *and* the sampled estimate — so every recorded number carries its
//! own |sampled − full| misp/KI delta and relative error next to it.
//! The suite is the paper's Table 2 grid (8 benchmarks) × the sampling
//! roster {EV8, gshare, TAGE}.
//!
//! Acceptance, asserted before anything is merged (unfiltered runs at
//! scale ≥ 0.5 only — smoke runs at tiny scales record without
//! asserting accuracy):
//!
//! * every cell reduces simulated branches by ≥ 5×,
//! * every EV8 (Table 2) cell lands within 2% relative error,
//! * the median cell across the whole roster lands within 2%.
//!
//! `EV8_SCALE` overrides the trace scale (default 1.0 — the paper's
//! full 100M-instruction traces; the recorded envelope is only
//! meaningful at full scale).

use std::sync::Arc;

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_sim::experiments::{factory, Factory};
use ev8_sim::sweep::{default_workers, run_parallel};
use ev8_sim::{validate_sampled, SampledVsFull, SamplingConfig};
use ev8_trace::FlatTrace;
use ev8_util::json::JsonObject;
use ev8_workloads::spec95;

const DEFAULT_SCALE: f64 = 1.0;

const BENCHMARKS: [&str; 8] = [
    "go", "ijpeg", "gcc", "m88ksim", "compress", "li", "perl", "vortex",
];

/// The sampling roster, fixture-stable keys.
const FAMILIES: [&str; 3] = ["ev8", "gshare", "tage"];

fn build(key: &str) -> Factory {
    match key {
        "ev8" => factory(Ev8Predictor::ev8),
        "gshare" => factory(|| Gshare::new(17, 17)),
        "tage" => factory(|| Tage::new(TageConfig::ev8_budget())),
        _ => unreachable!("unknown family key {key}"),
    }
}

fn main() {
    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
    let scale = ev8_bench::scale_from_env(DEFAULT_SCALE);
    let mut entries: Vec<(String, String)> = Vec::new();

    // One job per (benchmark, family) cell; the serial full-trace truth
    // dominates each job's cost, so cells parallelize cleanly.
    let mut cells: Vec<(&str, &str)> = Vec::new();
    for name in BENCHMARKS {
        for family in FAMILIES {
            if let Some(f) = &filter {
                if !format!("sampling_{name}_{family}").contains(f.as_str()) {
                    continue;
                }
            }
            cells.push((name, family));
        }
    }
    let jobs: Vec<Box<dyn FnOnce() -> SampledVsFull + Send>> = cells
        .iter()
        .map(|&(name, family)| {
            Box::new(move || {
                let flat: Arc<FlatTrace> = spec95::cached(name, scale).expect("known benchmark");
                let config = SamplingConfig::auto(flat.len());
                validate_sampled(&build(family), &flat, &config)
            }) as Box<dyn FnOnce() -> SampledVsFull + Send>
        })
        .collect();
    let results = run_parallel(jobs, default_workers());

    let mut worst_ev8 = 0.0f64;
    let mut min_reduction = f64::INFINITY;
    let mut errors: Vec<f64> = Vec::new();
    for (&(name, family), cmp) in cells.iter().zip(&results) {
        let run = &cmp.sampled;
        let relerr = cmp.relative_error();
        let reduction = run.reduction();
        min_reduction = min_reduction.min(reduction);
        errors.push(relerr);
        if family == "ev8" {
            worst_ev8 = worst_ev8.max(relerr);
        }
        println!(
            "sampling_{name:<9} {family:<7} full={:.3} est={:.3} delta={:+.4} relerr={:.4} red={:.2}x",
            cmp.full.misp_per_ki(),
            run.estimate.misp_per_ki(),
            cmp.misp_ki_delta(),
            relerr,
            reduction,
        );

        let mut out = JsonObject::new();
        out.field("benchmark", &name)
            .field("family", &family)
            .field("scale", &scale)
            .field("records", &(run.total_records as u64))
            .field("full_misp_per_ki", &cmp.full.misp_per_ki())
            .field("estimated_misp_per_ki", &run.estimate.misp_per_ki())
            .field("misp_per_ki_delta", &cmp.misp_ki_delta())
            .field("relative_error", &relerr)
            .field("full_mispredictions", &cmp.full.mispredictions)
            .field("estimated_mispredictions", &run.estimated_mispredictions)
            .field("simulated_records", &(run.simulated_records as u64))
            .field("reduction", &reduction)
            .field("phases", &(run.phases.len() as u64))
            .field("anchor_intervals", &(run.anchor_intervals as u64))
            .field("tail_samples", &(run.samples.len() as u64));
        entries.push((format!("sampling/{name}_{family}"), out.finish()));
    }

    // The acceptance envelope only means something on (near-)full
    // traces with the whole grid present.
    if filter.is_none() && scale >= 0.5 && !errors.is_empty() {
        errors.sort_by(|a, b| a.total_cmp(b));
        let median = errors[errors.len() / 2];
        println!(
            "sampling envelope: min reduction {min_reduction:.2}x, worst EV8 relerr {worst_ev8:.4}, \
             median relerr {median:.4}"
        );
        assert!(
            min_reduction >= 5.0,
            "simulated-branch reduction fell below 5x ({min_reduction:.2}x)"
        );
        assert!(
            worst_ev8 <= 0.02,
            "an EV8 (Table 2) cell exceeded 2% relative error ({worst_ev8:.4})"
        );
        assert!(
            median <= 0.02,
            "median cell exceeded 2% relative error ({median:.4})"
        );
    }

    match ev8_bench::merge_bench_json(&entries) {
        Ok(path) => println!("merged {} sampling entries into {path}", entries.len()),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
