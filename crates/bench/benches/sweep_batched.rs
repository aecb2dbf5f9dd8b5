//! Sweep-engine benches: serial-vs-batched multi-config sweeps and
//! flat-vs-AoS single-config simulation, recorded per benchmark into
//! the shared `BENCH_sim.json` under the `sweep_batched` group.
//!
//! The paper's evaluation re-walks each trace once per predictor
//! configuration; the batched engine walks it once per *sweep*. Two
//! comparisons per benchmark quantify what that buys on this host:
//!
//! * **8-config sweep** — eight gshare history-length configurations
//!   (the Fig 6/7 sweep shape), run as 8 serial `simulate` passes over
//!   the AoS trace vs one batched pass over the flat view through the
//!   engine's history-sweep path (`simulate_gshare_sweep`, which hoists
//!   the config-invariant history register and PC extraction out of the
//!   per-config work — work a serial sweep must redo per config). The
//!   recorded `batched_speedup` is the acceptance number for the sweep
//!   engine; `generic_sweep_ns` records the fully general
//!   `simulate_many` on the same sweep for comparison. Before timing
//!   anything the bench asserts all three paths return identical
//!   results.
//! * **single config** — one gshare over AoS `simulate` vs flat
//!   `simulate_flat`, isolating the layout's contribution from the
//!   batching.
//!
//! # Paired sampling
//!
//! This host (a shared single-core VM) shows cross-run wall-clock swings
//! far larger than the effects being measured — the same serial sweep
//! binary has varied by 1.7× between runs with tight within-run minima.
//! So this bench does NOT time each series back-to-back: every sample
//! interleaves one run of each series (serial, batched, generic, AoS
//! single, flat single), and each recorded speedup is the **median of
//! per-sample ratios**, so a machine-wide slowdown that covers one
//! sample inflates both sides of the ratio and cancels, instead of
//! poisoning whichever series it happened to land on.
//!
//! The sweep scale is much larger than `sim_hot_loop`'s (0.2 vs 0.002)
//! because the serial sweep's dominant structural cost — re-streaming
//! the trace once per configuration — only exists once the trace
//! outgrows the cache hierarchy. At scale 0.02 the ~7 MB AoS record
//! array stays cache-resident, all eight serial walks are free, and the
//! measured advantage collapses to the shared-computation term alone;
//! at 0.2 the AoS traces run tens of MB and the serial sweep pays the
//! same per-config memory traffic it pays in real experiment runs,
//! which walk the full 25M-instruction (scale 1.0) traces.
//! `EV8_BENCH_SAMPLES` overrides the sample count (default 7, CI smoke
//! sets 1) and `EV8_SCALE` the trace scale (default 0.2).

use ev8_util::bench::{samples_from_env, time, PairedSamples};
use ev8_util::json::JsonObject;

use ev8_predictors::gshare::Gshare;
use ev8_sim::{simulate, simulate_flat, simulate_gshare_sweep, simulate_many};
use ev8_workloads::spec95;

/// Default trace scale for recorded runs; see the module doc for why it
/// must be large.
const DEFAULT_SCALE: f64 = 0.2;
const DEFAULT_SAMPLES: usize = 7;

/// The Fig 6/7-shaped sweep axis: one predictor geometry, eight history
/// lengths. 64K entries (128 Kbit) sits in the middle of the paper's
/// predictor-size axis.
const HISTORIES: [u32; 8] = [0, 2, 4, 6, 8, 10, 12, 14];
const INDEX_BITS: u32 = 16;

/// The full Table 2 suite, so the recorded speedups cover every
/// workload character the paper evaluates — from compress's tiny loopy
/// footprint to gcc's aliasing stress — not just a favourable case.
const BENCHMARKS: [&str; 8] = [
    "go", "ijpeg", "gcc", "m88ksim", "compress", "li", "perl", "vortex",
];

fn sweep_configs() -> Vec<Gshare> {
    HISTORIES
        .iter()
        .map(|&h| Gshare::new(INDEX_BITS, h))
        .collect()
}

const SERIES: [&str; 5] = [
    "serial_8_configs",
    "batched_8_configs",
    "generic_8_configs",
    "aos_single_config",
    "flat_single_config",
];

fn main() {
    let samples_per_series = samples_from_env().unwrap_or(DEFAULT_SAMPLES);
    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
    let scale = ev8_bench::scale_from_env(DEFAULT_SCALE);
    let mut entries: Vec<(String, String)> = Vec::new();

    for name in BENCHMARKS {
        if let Some(f) = &filter {
            if !format!("sweep_batched_{name}").contains(f.as_str()) {
                continue;
            }
        }
        // Build both forms outside measurement: the AoS side is a fresh
        // generation, the packed side the cached trace.
        let trace = spec95::benchmark(name)
            .expect("known benchmark")
            .generate_scaled(scale);
        let flat = spec95::cached(name, scale).expect("known benchmark");

        // Equivalence sanity check before timing: the speedups below are
        // only meaningful if every path computes the same sweep. This
        // also warms the caches and branch predictors for every series.
        {
            let serial: Vec<_> = sweep_configs()
                .into_iter()
                .map(|p| simulate(p, &trace))
                .collect();
            let generic = simulate_many(&mut sweep_configs(), &flat);
            assert_eq!(generic, serial, "{name}: generic batched sweep diverged");
            let batched = simulate_gshare_sweep(INDEX_BITS, &HISTORIES, &flat);
            assert_eq!(batched, serial, "{name}: specialized sweep diverged");
            assert_eq!(
                simulate_flat(Gshare::new(INDEX_BITS, 14), &flat),
                simulate(Gshare::new(INDEX_BITS, 14), &trace),
                "{name}: flat single-config run diverged"
            );
        }

        let mut samples = PairedSamples::new(SERIES.len());
        for _ in 0..samples_per_series {
            samples.push(&[
                time(|| {
                    sweep_configs()
                        .into_iter()
                        .map(|p| simulate(p, &trace))
                        .collect::<Vec<_>>()
                }),
                time(|| simulate_gshare_sweep(INDEX_BITS, &HISTORIES, &flat)),
                time(|| simulate_many(&mut sweep_configs(), &flat)),
                time(|| simulate(Gshare::new(INDEX_BITS, 14), &trace)),
                time(|| simulate_flat(Gshare::new(INDEX_BITS, 14), &flat)),
            ]);
        }

        for (i, series) in SERIES.iter().enumerate() {
            println!(
                "sweep_batched_{name}/{series:<20} {:>9.2} ms/iter  (median of {} paired samples)",
                samples.median_ns(i) as f64 / 1e6,
                samples_per_series,
            );
        }
        let batched_speedup = samples.ratio(0, 1);
        let flat_speedup = samples.ratio(3, 4);
        println!(
            "sweep_batched_{name}: batched_speedup {batched_speedup:.2}x  flat_speedup {flat_speedup:.2}x"
        );

        let mut out = JsonObject::new();
        out.field("benchmark", &name)
            .field("scale", &scale)
            .field("configs", &(HISTORIES.len() as u64))
            .field("conditional_branches", &flat.conditional_count())
            .field("samples", &(samples_per_series as u64))
            .field("serial_sweep_ns", &samples.median_ns(0))
            .field("batched_sweep_ns", &samples.median_ns(1))
            .field("batched_speedup", &batched_speedup)
            .field("generic_sweep_ns", &samples.median_ns(2))
            .field("aos_single_ns", &samples.median_ns(3))
            .field("flat_single_ns", &samples.median_ns(4))
            .field("flat_speedup", &flat_speedup);
        entries.push((format!("sweep_batched/{name}"), out.finish()));
    }

    match ev8_bench::merge_bench_json(&entries) {
        Ok(path) => println!("merged {} sweep_batched entries into {path}", entries.len()),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
