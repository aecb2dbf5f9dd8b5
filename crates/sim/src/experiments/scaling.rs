//! Trace-length convergence study: how misp/KI settles as the trace
//! grows toward the paper's 100M instructions.
//!
//! Not a paper figure, but the calibration context for every comparison
//! in EXPERIMENTS.md: short runs over-weight cold-start (especially for
//! large tables), so the paper's 100M-instruction traces — sampled after
//! skipping 400M instructions — see predictors much closer to steady
//! state than small test runs do.

use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_workloads::spec95;

use crate::batch::simulate_many;
use crate::report::{ExperimentReport, TextTable};
use crate::sweep::run_parallel;

/// The scales probed (fractions of 100M instructions).
pub const SCALES: [f64; 5] = [0.005, 0.02, 0.08, 0.3, 1.0];

/// Regenerates the convergence study on one benchmark. `max_scale` caps
/// the probed scales (for fast test runs).
pub fn report(benchmark: &str, max_scale: f64, workers: usize) -> ExperimentReport {
    let spec =
        spec95::benchmark(benchmark).unwrap_or_else(|| panic!("unknown benchmark {benchmark:?}"));
    let scales: Vec<f64> = SCALES.iter().copied().filter(|&s| s <= max_scale).collect();
    assert!(!scales.is_empty(), "max_scale below the smallest probe");
    let jobs: Vec<Box<dyn FnOnce() -> (f64, f64) + Send>> = scales
        .iter()
        .map(|&scale| {
            let spec = spec.clone();
            Box::new(move || {
                let t = ev8_workloads::cache::global().get_scaled(&spec, scale);
                let r = simulate_many(
                    &mut [
                        TwoBcGskew::new(TwoBcGskewConfig::size_256k()),
                        TwoBcGskew::new(TwoBcGskewConfig::size_512k()),
                    ],
                    &t,
                );
                (r[0].misp_per_ki(), r[1].misp_per_ki())
            }) as Box<dyn FnOnce() -> (f64, f64) + Send>
        })
        .collect();
    let rows = run_parallel(jobs, workers);

    let mut table = TextTable::new(vec![
        "scale (of 100M)".into(),
        "2Bc-gskew 256Kb".into(),
        "2Bc-gskew 512Kb".into(),
        "512Kb advantage".into(),
    ]);
    for (&scale, (small, large)) in scales.iter().zip(&rows) {
        table.row(vec![
            format!("{scale}"),
            format!("{small:.3}"),
            format!("{large:.3}"),
            format!("{:+.3}", small - large),
        ]);
    }
    ExperimentReport {
        title: format!("Trace-length convergence on {benchmark}"),
        table,
        notes: vec![
            "short traces over-weight cold-start: the larger predictor only pulls ahead \
             once its tables warm up"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn mispki_decreases_with_scale() {
        let r = report("vortex", 0.08, default_workers());
        assert!(r.table.len() >= 3);
        let first: f64 = r.table.cell(0, 2).parse().unwrap();
        let last: f64 = r.table.cell(r.table.len() - 1, 2).parse().unwrap();
        assert!(
            last < first,
            "misp/KI should fall as the trace grows ({first} -> {last})"
        );
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_rejected() {
        report("doom", 1.0, 1);
    }
}
