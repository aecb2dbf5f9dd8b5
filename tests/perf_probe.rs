//! Manual perf probe for the sweep engines (ignored by default; run it
//! with `cargo test --release --test perf_probe -- --ignored --nocapture`).
//!
//! Interleaves serial / transposed sweeps round-robin and reports
//! per-engine medians plus paired ratios, so engine changes can be
//! evaluated quickly despite host timing noise. Not part of tier-1.

use std::time::{Duration, Instant};

use ev8_predictors::gshare::Gshare;
use ev8_sim::{simulate, simulate_gshare_sweep};
use ev8_workloads::spec95;

const HISTORIES: [u32; 8] = [0, 2, 4, 6, 8, 10, 12, 14];
const INDEX_BITS: u32 = 16;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
#[ignore = "manual perf probe, not a correctness test"]
fn sweep_engine_probe() {
    let scale: f64 = std::env::var("EV8_PROBE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);
    let rounds: usize = std::env::var("EV8_PROBE_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    for name in ["m88ksim", "li"] {
        let trace = spec95::benchmark(name).unwrap().generate_scaled(scale);
        let flat = spec95::cached(name, scale).unwrap();
        let branches = flat.conditional_count() as f64;
        let mut serial_ns = Vec::new();
        let mut transposed_ns = Vec::new();
        let mut ratios_t = Vec::new();
        for _ in 0..rounds {
            let t0 = Instant::now();
            let serial: Vec<_> = HISTORIES
                .iter()
                .map(|&h| simulate(Gshare::new(INDEX_BITS, h), &trace))
                .collect();
            let ds = t0.elapsed();
            let t0 = Instant::now();
            let transposed = simulate_gshare_sweep(INDEX_BITS, &HISTORIES, &flat);
            let dt = t0.elapsed();
            assert_eq!(serial, transposed);
            let ns = |d: Duration| d.as_nanos() as f64;
            serial_ns.push(ns(ds));
            transposed_ns.push(ns(dt));
            ratios_t.push(ns(ds) / ns(dt));
        }
        let per_bc = |total: f64| total / branches / HISTORIES.len() as f64;
        println!(
            "{name}: serial {:.1}ms  transposed {:.1}ms ({:.2}ns/b/c)  speedup {:.2}x",
            median(serial_ns.clone()) / 1e6,
            median(transposed_ns.clone()) / 1e6,
            per_bc(median(transposed_ns)),
            median(ratios_t),
        );
    }
}
