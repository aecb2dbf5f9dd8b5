//! Per-branch cost of the Fig 5 roster and of TAGE, fused step against
//! the composed reference, recorded into the shared `BENCH_sim.json`
//! under the `predictor_throughput` group.
//!
//! Every family in `fig5::configs()` — the roster Figs 5, 6 and 10 and
//! the shootout run through `run_grid` — plus TAGE at
//! `TageConfig::ev8_budget()` (the successor design the shootout and the
//! sampled suite pit against the EV8 at its 352 Kbit) runs over the
//! `gcc` trace at the sweep scale, boxed behind the same `Factory` the
//! grid uses, two ways:
//!
//! * **fused** — `simulate_flat`: the `Plain` hook over the cached
//!   packed trace, one `predict_and_update` per record, the path every
//!   experiment takes;
//! * **composed** — `drive(.., StaleCommit::new(0, ..))`: `predict` then
//!   `update_record` per record, the trait's reference composition.
//!
//! Before timing, the bench asserts both return the same `SimResult`.
//! Each sample interleaves one run of each (family, path)
//! (`ev8_bench::measure::PairedSamples`), and the recorded
//! `composed_over_fused` is the median of per-sample ratios, so a host
//! slowdown that covers one sample cancels out of the ratio (see
//! `sweep_batched` for why this host needs paired sampling).
//!
//! `EV8_SCALE` overrides the trace scale (default 0.2, CI smoke sets
//! 0.002) and `EV8_BENCH_SAMPLES` the sample count (default 7, CI smoke
//! sets 1). The first non-dash argument filters families by substring
//! of `predictor_throughput/<family>`.

use std::collections::VecDeque;
use std::time::Duration;

use ev8_util::json::JsonObject;

use ev8_bench::measure::{
    filter_from_args, merge_bench_json, samples_from_env, time, PairedSamples,
};
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_sim::experiments::{factory, fig5};
use ev8_sim::{drive, simulate_flat, SimResult, StaleCommit};
use ev8_trace::FlatTrace;
use ev8_workloads::spec95;

const DEFAULT_SCALE: f64 = 0.2;
const DEFAULT_SAMPLES: usize = 7;

/// The largest-footprint benchmark of the suite: the most distinct
/// branches, so the tables see the most aliasing.
const BENCHMARK: &str = "gcc";

/// Stable keys for `fig5::configs()`, in its order (the keys the
/// pipeline benchmark's per-layer panel uses).
const FIG5_FAMILIES: [(&str, &str); 6] = [
    ("2Bc-gskew 256Kb", "twobcgskew_256k"),
    ("2Bc-gskew 512Kb", "twobcgskew_512k"),
    ("bimode 544Kb", "bimode_544k"),
    ("gshare 2Mb", "gshare_2m"),
    ("YAGS 288Kb", "yags_288k"),
    ("YAGS 576Kb", "yags_576k"),
];

/// The key of TAGE at the EV8 budget, timed after the Fig 5 roster.
const TAGE_KEY: &str = "tage_352k";

/// `predict` then `update_record` on every record: the composition the
/// fused step must equal.
fn composed(predictor: Box<dyn ev8_predictors::BranchPredictor>, trace: &FlatTrace) -> SimResult {
    let name = predictor.name();
    let tally = drive(predictor, trace, StaleCommit::new(0, &mut VecDeque::new()));
    SimResult::new(trace.name(), trace.instruction_count(), name, tally)
}

fn main() {
    let samples_per_series = samples_from_env().unwrap_or(DEFAULT_SAMPLES);
    let scale = ev8_bench::scale_from_env(DEFAULT_SCALE);
    let filter = filter_from_args();

    let configs = fig5::configs();
    let labels: Vec<&str> = configs.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(
        labels,
        FIG5_FAMILIES.map(|(label, _)| label),
        "the Fig 5 roster changed"
    );
    let roster: Vec<_> = FIG5_FAMILIES
        .iter()
        .map(|(_, key)| *key)
        .zip(configs.into_iter().map(|(_, f)| f))
        .chain([(TAGE_KEY, factory(|| Tage::new(TageConfig::ev8_budget())))])
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

    // Series 2i is family i fused, 2i + 1 the same family composed.
    let mut samples = PairedSamples::new(2 * roster.len());
    for _ in 0..samples_per_series {
        let sample: Vec<Duration> = roster
            .iter()
            .flat_map(|(_, make)| {
                [
                    time(|| simulate_flat(make(), &trace)),
                    time(|| composed(make(), &trace)),
                ]
            })
            .collect();
        samples.push(&sample);
    }

    let ns_per_branch = |series| samples.median_ns(series) as f64 / branches.max(1) as f64;
    let mut entries = Vec::new();
    for (i, (key, _)) in roster.iter().enumerate() {
        let fused = ns_per_branch(2 * i);
        let composed = ns_per_branch(2 * i + 1);
        let ratio = samples.ratio(2 * i + 1, 2 * i);
        println!(
            "predictor_throughput/{key:<16} fused {fused:>7.2} ns/branch  composed {composed:>7.2} ns/branch  composed/fused {ratio:.2}x  ({} paired samples)",
            samples_per_series
        );
        let mut out = JsonObject::new();
        out.field("benchmark", &BENCHMARK)
            .field("scale", &scale)
            .field("conditional_branches", &branches)
            .field("samples", &(samples_per_series as u64))
            .field("fused_ns_per_branch", &fused)
            .field("composed_ns_per_branch", &composed)
            .field("composed_over_fused", &ratio);
        entries.push((format!("predictor_throughput/{key}"), out.finish()));
    }

    match merge_bench_json(&entries) {
        Ok(path) => println!(
            "merged {} predictor_throughput entries into {path}",
            entries.len()
        ),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
