//! History-length sweep (§4.5, §5.3, §8.2): locate the best G1 history
//! length of the 4×64K 2Bc-gskew and gshare's best length on this
//! substrate, mirroring the paper's tuning methodology ("for all the
//! predictors, the best history length results are presented").

use std::sync::Arc;

use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_trace::Trace;

use crate::batch::simulate_gshare_sweep;
use crate::experiments::{suite_flat_traces, suite_traces};
use crate::metrics::SimResult;
use crate::report::{ExperimentReport, TextTable};
use crate::sweep::run_parallel;

/// The history lengths swept.
pub const LENGTHS: [u32; 8] = [0, 4, 8, 12, 16, 20, 24, 27];

/// Mean misp/KI over the suite for a 2Bc-gskew whose G1 history is `h`
/// (G0/Meta scale proportionally, as §4.5 prescribes).
fn gskew_mean(traces: &[Arc<Trace>], h: u32, workers: usize) -> f64 {
    let jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = traces
        .iter()
        .map(|t| {
            let t = Arc::clone(t);
            Box::new(move || {
                let g0 = (h * 17 / 27).min(h);
                let meta = (h * 20 / 27).min(h);
                let cfg = TwoBcGskewConfig::size_512k().with_history_lengths(0, g0, h, meta);
                crate::simulator::simulate(TwoBcGskew::new(cfg), &t).misp_per_ki()
            }) as Box<dyn FnOnce() -> f64 + Send>
        })
        .collect();
    let v = run_parallel(jobs, workers);
    v.iter().sum::<f64>() / v.len() as f64
}

/// Mean misp/KI over the suite for the 2Mb gshare at every length in
/// [`LENGTHS`]: one transposed [`simulate_gshare_sweep`] per trace, means
/// summed in suite order.
fn gshare_means(scale: f64, workers: usize) -> Vec<f64> {
    let jobs: Vec<Box<dyn FnOnce() -> Vec<SimResult> + Send>> = suite_flat_traces(scale)
        .into_iter()
        .map(|t| {
            Box::new(move || simulate_gshare_sweep(20, &LENGTHS, &t))
                as Box<dyn FnOnce() -> Vec<SimResult> + Send>
        })
        .collect();
    let per_trace = run_parallel(jobs, workers);
    (0..LENGTHS.len())
        .map(|i| {
            let sum = per_trace.iter().map(|r| r[i].misp_per_ki()).sum::<f64>();
            sum / per_trace.len() as f64
        })
        .collect()
}

/// Regenerates the history-length sweep.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let traces = suite_traces(scale);
    let mut table = TextTable::new(vec![
        "G1 / gshare history".into(),
        "2Bc-gskew 512Kb mean".into(),
        "gshare 2Mb mean".into(),
    ]);
    let mut best_gskew = (0u32, f64::INFINITY);
    let mut best_gshare = (0u32, f64::INFINITY);
    for (&h, s) in LENGTHS.iter().zip(gshare_means(scale, workers)) {
        let g = gskew_mean(&traces, h, workers);
        if g < best_gskew.1 {
            best_gskew = (h, g);
        }
        if s < best_gshare.1 {
            best_gshare = (h, s);
        }
        table.row(vec![h.to_string(), format!("{g:.3}"), format!("{s:.3}")]);
    }
    ExperimentReport {
        title: "History-length sweep (§8.2 tuning methodology)".into(),
        table,
        notes: vec![
            format!(
                "best: 2Bc-gskew G1 h={} ({:.3}), gshare h={} ({:.3})",
                best_gskew.0, best_gskew.1, best_gshare.0, best_gshare.1
            ),
            "the paper's optima: G1 27 (512Kb 2Bc-gskew), gshare 20".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn sweep_produces_a_clear_optimum_above_zero() {
        let r = report(0.005, default_workers());
        assert_eq!(r.table.len(), LENGTHS.len());
        // Zero history must be the worst 2Bc-gskew configuration: the
        // hybrid degenerates to its bimodal side.
        let at_zero: f64 = r.table.cell(0, 1).parse().unwrap();
        let best = (0..LENGTHS.len())
            .map(|i| r.table.cell(i, 1).parse::<f64>().unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < at_zero,
            "some nonzero history ({best}) must beat zero history ({at_zero})"
        );
    }
}
