//! Per-branch cost of the Fig 5 roster, fused step against the composed
//! reference, recorded into the shared `BENCH_sim.json` under the
//! `predictor_throughput` group.
//!
//! Every family in `fig5::configs()` — the roster Figs 5, 6 and 10 and
//! the shootout run through `run_grid` — runs over the `gcc` trace at the
//! sweep scale, boxed behind the same `Factory` the grid uses, two ways:
//!
//! * **fused** — `simulate_flat`: the `Plain` hook over the cached
//!   packed trace, one `predict_and_update` per record, the path every
//!   experiment takes;
//! * **composed** — `drive(.., StaleCommit::new(0, ..))`: `predict` then
//!   `update_record` per record, the trait's reference composition.
//!
//! Before timing, the bench asserts both return the same `SimResult`.
//! Each sample interleaves one run of each (family, path), and the
//! recorded `composed_over_fused` is the median of per-sample ratios, so
//! a host slowdown that covers one sample cancels out of the ratio (see
//! `sweep_batched` for why this host needs paired sampling).
//!
//! `EV8_SWEEP_SCALE` overrides the trace scale (default 0.2, CI smoke
//! sets 0.02) and `EV8_BENCH_SAMPLES` the sample count (CI smoke sets
//! 1). The first non-dash argument filters families by substring of
//! `predictor_throughput/<family>`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ev8_util::bench::black_box;
use ev8_util::json::JsonObject;

use ev8_sim::experiments::fig5;
use ev8_sim::{drive, simulate_flat, SimResult, StaleCommit};
use ev8_trace::FlatTrace;
use ev8_workloads::spec95;

const DEFAULT_SWEEP_SCALE: f64 = 0.2;
const DEFAULT_SAMPLES: usize = 7;

/// The largest-footprint benchmark of the suite: the most distinct
/// branches, so the tables see the most aliasing.
const BENCHMARK: &str = "gcc";

/// Stable keys for `fig5::configs()`, in its order (the keys the
/// pipeline benchmark's per-layer panel uses).
const FAMILIES: [(&str, &str); 6] = [
    ("2Bc-gskew 256Kb", "twobcgskew_256k"),
    ("2Bc-gskew 512Kb", "twobcgskew_512k"),
    ("bimode 544Kb", "bimode_544k"),
    ("gshare 2Mb", "gshare_2m"),
    ("YAGS 288Kb", "yags_288k"),
    ("YAGS 576Kb", "yags_576k"),
];

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn time<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// `predict` then `update_record` on every record: the composition the
/// fused step must equal.
fn composed(predictor: Box<dyn ev8_predictors::BranchPredictor>, trace: &FlatTrace) -> SimResult {
    let name = predictor.name();
    let tally = drive(predictor, trace, StaleCommit::new(0, &mut VecDeque::new()));
    SimResult::new(trace.name(), trace.instruction_count(), name, tally)
}

fn main() {
    let samples_per_series: usize = env_or("EV8_BENCH_SAMPLES", DEFAULT_SAMPLES).max(1);
    let scale: f64 = env_or("EV8_SWEEP_SCALE", DEFAULT_SWEEP_SCALE);
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));

    let configs = fig5::configs();
    let labels: Vec<&str> = configs.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(
        labels,
        FAMILIES.map(|(label, _)| label),
        "the Fig 5 roster changed"
    );
    let roster: Vec<_> = FAMILIES
        .iter()
        .map(|(_, key)| *key)
        .zip(configs.into_iter().map(|(_, f)| f))
        .filter(|(key, _)| {
            filter
                .as_deref()
                .is_none_or(|f| format!("predictor_throughput/{key}").contains(f))
        })
        .collect();
    if roster.is_empty() {
        return;
    }

    let trace = spec95::cached(BENCHMARK, scale).expect("known benchmark");
    let branches = trace.conditional_count();

    // Equivalence before timing: the ratio below only means something if
    // both paths compute the same run. This also warms every series.
    for (key, make) in &roster {
        assert_eq!(
            simulate_flat(make(), &trace),
            composed(make(), &trace),
            "{key}: fused step diverged from predict + update_record"
        );
    }

    // samples[s][family] = (fused, composed)
    let mut samples: Vec<Vec<(Duration, Duration)>> = Vec::with_capacity(samples_per_series);
    for _ in 0..samples_per_series {
        samples.push(
            roster
                .iter()
                .map(|(_, make)| {
                    (
                        time(|| simulate_flat(make(), &trace)),
                        time(|| composed(make(), &trace)),
                    )
                })
                .collect(),
        );
    }

    let ns_per_branch = |d: Duration| d.as_nanos() as f64 / branches.max(1) as f64;
    let mut entries = Vec::new();
    for (i, (key, _)) in roster.iter().enumerate() {
        let fused = median_of(samples.iter().map(|s| ns_per_branch(s[i].0)).collect());
        let composed = median_of(samples.iter().map(|s| ns_per_branch(s[i].1)).collect());
        let ratio = median_of(
            samples
                .iter()
                .map(|s| s[i].1.as_secs_f64() / s[i].0.as_secs_f64())
                .collect(),
        );
        println!(
            "predictor_throughput/{key:<16} fused {fused:>7.2} ns/branch  composed {composed:>7.2} ns/branch  composed/fused {ratio:.2}x  ({} paired samples)",
            samples.len()
        );
        let mut out = JsonObject::new();
        out.field("benchmark", &BENCHMARK)
            .field("scale", &scale)
            .field("conditional_branches", &branches)
            .field("samples", &(samples.len() as u64))
            .field("fused_ns_per_branch", &fused)
            .field("composed_ns_per_branch", &composed)
            .field("composed_over_fused", &ratio);
        entries.push((format!("predictor_throughput/{key}"), out.finish()));
    }

    match ev8_bench::merge_bench_json(&entries) {
        Ok(path) => println!(
            "merged {} predictor_throughput entries into {path}",
            entries.len()
        ),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
