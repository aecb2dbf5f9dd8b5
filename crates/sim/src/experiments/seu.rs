//! Soft-error resilience study — misprediction rate under single-event
//! upsets in the predictor arrays.
//!
//! The EV8 predictor is 352 Kbit of SRAM whose contents are purely
//! speculative: an upset cell can never corrupt architectural state, only
//! cost mispredictions. That makes *misp/KI versus fault rate* the right
//! resilience metric, and the paper's own structures predict its shape —
//! the majority vote tolerates single-bank damage, and the shared
//! half-size hysteresis arrays (§4.3-4.4) hold *second-bit* state whose
//! loss only weakens confirmation, so hysteresis-targeted damage should
//! degrade more gracefully than prediction-bit damage.
//!
//! Every cell of the grid is seeded from its coordinates, so the sweep
//! runs on [`run_parallel`] like every other experiment: a panicking
//! cell re-raises its own payload once the other cells have drained.

use std::sync::Arc;

use ev8_faults::{ArraySelector, FaultInjector, FaultPlan};
use ev8_predictors::introspect::ArrayClass;
use ev8_predictors::twobcgskew::{TableConfig, TwoBcGskew, TwoBcGskewConfig, UpdatePolicy};
use ev8_trace::Trace;
use ev8_util::rng::mix;
use ev8_workloads::spec95;

use crate::metrics::SimResult;
use crate::report::{ExperimentReport, TextTable};
use crate::simulator::drive;
use crate::sweep::run_parallel;

/// Per-branch SEU probabilities swept (0 = fault-free baseline). Real
/// soft-error rates are far lower; the sweep compresses the wall-clock a
/// silicon lifetime into one trace by raising the strike rate.
pub const FAULT_RATES: [f64; 5] = [0.0, 1e-4, 1e-3, 1e-2, 5e-2];

/// The benchmarks swept (a 3-benchmark cut of the suite keeps the grid —
/// benchmarks × rates × targets — tractable).
pub const BENCHMARKS: [&str; 3] = ["compress", "gcc", "go"];

/// Which array population each column of the default report targets
/// (the EV8-generation split: whole predictor, prediction bits only,
/// hysteresis bits only).
pub const TARGETS: [(&str, ArraySelector); 3] = [
    ("all arrays", ArraySelector::All),
    (
        "prediction only",
        ArraySelector::Class(ArrayClass::Prediction),
    ),
    (
        "hysteresis only",
        ArraySelector::Class(ArrayClass::Hysteresis),
    ),
];

/// The default subject: a 2Bc-gskew with EV8-style shared half-size
/// hysteresis, sized so the sweep's strike counts are significant against
/// the array population at test scales.
fn default_predictor() -> TwoBcGskew {
    TwoBcGskew::new(TwoBcGskewConfig {
        bim: TableConfig::new(10, 0),
        g0: TableConfig::with_half_hysteresis(10, 8),
        g1: TableConfig::new(10, 12),
        meta: TableConfig::with_half_hysteresis(10, 10),
        update_policy: UpdatePolicy::Partial,
        commit_window: 0,
    })
}

/// One cell of the sweep: misp/KI plus the number of faults that landed.
type Cell = (f64, u64);

/// Regenerates the SEU degradation study for the default subject (the
/// half-hysteresis 2Bc-gskew). `scale` is the fraction of a
/// 100M-instruction trace per benchmark.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let mut r = report_for(
        scale,
        workers,
        "2Bc-gskew, half hysteresis",
        super::unified_factory(default_predictor),
        &TARGETS,
    );
    r.notes.insert(
        1,
        "hysteresis-only damage degrades more gently than prediction-bit damage (§4.3)".into(),
    );
    r
}

/// [`report`] for an arbitrary predictor: the campaign quantifies over
/// the unified capability trait (see [`super::UnifiedFactory`]), so any
/// family whose storage is introspectable — bimodal, gshare, 2Bc-gskew,
/// the full EV8, TAGE — runs through the same grid. `label` names the subject in the
/// report title, and `targets` picks the array populations to strike
/// (one misp/KI column each; every selector must match at least one of
/// the subject's arrays — e.g. TAGE has `Counter`/`Tag`/`Useful`
/// classes, not the EV8 generation's `Prediction`/`Hysteresis`).
///
/// Returns one row per (benchmark, rate) with a misp/KI column per fault
/// target. Every cell is deterministic: the injection seed is derived
/// from the (benchmark, rate, target) coordinates.
///
/// # Panics
///
/// Panics if `targets` is empty. A panicking cell re-raises its own
/// payload once the other cells have drained ([`run_parallel`]).
pub fn report_for(
    scale: f64,
    workers: usize,
    label: &str,
    factory: super::UnifiedFactory,
    targets: &[(&str, ArraySelector)],
) -> ExperimentReport {
    let traces: Vec<Arc<Trace>> = BENCHMARKS
        .iter()
        .map(|name| spec95::cached(name, scale).expect("benchmark names are known"))
        .collect();

    let mut jobs: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for (b, trace) in traces.iter().enumerate() {
        for (r, &rate) in FAULT_RATES.iter().enumerate() {
            for (t, &(_, selector)) in targets.iter().enumerate() {
                let trace = Arc::clone(trace);
                let factory = Arc::clone(&factory);
                let seed = mix((b as u64) << 32 | (r as u64) << 16 | t as u64);
                jobs.push(Box::new(move || {
                    let plan = FaultPlan::seu(rate).targeting(selector).with_seed(seed);
                    let mut predictor = factory();
                    let mut injector = FaultInjector::new(plan, &predictor);
                    let tally = drive(&mut predictor, &*trace, &mut injector);
                    let name = predictor.name();
                    let result =
                        SimResult::new(trace.name(), trace.instruction_count(), name, tally);
                    (result.misp_per_ki(), injector.log().injected())
                }));
            }
        }
    }

    let cells = run_parallel(jobs, workers);

    let mut headers = vec!["benchmark".to_string(), "SEU rate/branch".to_string()];
    for (label, _) in targets {
        headers.push(format!("misp/KI ({label})"));
    }
    headers.push("faults (all)".to_string());
    let mut table = TextTable::new(headers);

    let mut rows = cells.chunks(targets.len());
    for bench in BENCHMARKS {
        for &rate in FAULT_RATES.iter() {
            let row_cells = rows.next().expect("grid covers every coordinate");
            let mut row = vec![bench.to_string(), format!("{rate:.0e}")];
            row.extend(row_cells.iter().map(|(mispki, _)| format!("{mispki:.3}")));
            row.push(row_cells[0].1.to_string());
            table.row(row);
        }
    }

    ExperimentReport {
        title: format!("SEU resilience: misp/KI vs per-branch fault rate ({label})"),
        table,
        notes: vec![
            "predictor state is speculative: faults cost accuracy, never correctness".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    fn column(r: &ExperimentReport, bench: usize, col: usize) -> Vec<f64> {
        (0..FAULT_RATES.len())
            .map(|i| {
                r.table
                    .cell(bench * FAULT_RATES.len() + i, col)
                    .parse()
                    .expect("cell is numeric")
            })
            .collect()
    }

    #[test]
    fn degradation_is_monotone_within_noise_on_every_benchmark() {
        let r = report(0.002, default_workers());
        assert_eq!(r.table.len(), BENCHMARKS.len() * FAULT_RATES.len());
        for (b, bench) in BENCHMARKS.iter().enumerate() {
            // The "all arrays" column: endpoints must separate cleanly...
            let curve = column(&r, b, 2);
            assert!(
                curve[FAULT_RATES.len() - 1] > curve[0],
                "{bench}: fault storm {curve:?} should degrade the fault-free baseline"
            );
            // ...and each step may regress only within noise (small
            // sample jitter), never by a structural amount.
            for w in curve.windows(2) {
                assert!(
                    w[1] >= w[0] * 0.9 - 0.25,
                    "{bench}: non-monotone step {w:?} in {curve:?}"
                );
            }
        }
    }

    #[test]
    fn hysteresis_damage_is_gentler_than_prediction_damage() {
        let r = report(0.002, default_workers());
        // Sum the top-rate rows across benchmarks to beat the noise.
        let (mut pred, mut hyst) = (0.0, 0.0);
        for b in 0..BENCHMARKS.len() {
            pred += column(&r, b, 3)[FAULT_RATES.len() - 1];
            hyst += column(&r, b, 4)[FAULT_RATES.len() - 1];
        }
        assert!(
            hyst < pred,
            "hysteresis-targeted ({hyst:.3}) should degrade less than prediction-targeted ({pred:.3})"
        );
    }

    #[test]
    fn zero_rate_rows_agree_across_targets() {
        // At rate 0 the selector is irrelevant: all three columns are the
        // same fault-free simulation.
        let r = report(0.001, default_workers());
        for b in 0..BENCHMARKS.len() {
            let row = b * FAULT_RATES.len();
            let all = r.table.cell(row, 2);
            assert_eq!(all, r.table.cell(row, 3));
            assert_eq!(all, r.table.cell(row, 4));
            assert_eq!(r.table.cell(row, 5), "0");
        }
    }

    #[test]
    fn campaign_runs_any_unified_predictor() {
        // The seam the unified trait removed: the same grid, driven by a
        // TAGE factory and TAGE-generation array classes instead of the
        // built-in 2Bc-gskew. A storm into the tagged entries must
        // degrade the fault-free baseline.
        use ev8_predictors::tage::{Tage, TageConfig};
        let targets = [
            ("all arrays", ArraySelector::All),
            ("ctr only", ArraySelector::Class(ArrayClass::Counter)),
            ("tags only", ArraySelector::Class(ArrayClass::Tag)),
        ];
        // A deliberately tiny TAGE: at test scales the strike count must
        // be significant against the array population, and TAGE soaks up
        // damage gracefully (a corrupted tag is just a miss that falls
        // back to the base table), so a large instance barely moves.
        let r = report_for(
            0.001,
            default_workers(),
            "TAGE 7 Kbit",
            crate::experiments::unified_factory(|| {
                Tage::new(TageConfig::geometric(7, 4, 7, 8, 4, 21))
            }),
            &targets,
        );
        assert!(r.title.contains("TAGE 7 Kbit"));
        assert_eq!(r.table.len(), BENCHMARKS.len() * FAULT_RATES.len());
        // Sum the all-arrays column across benchmarks to beat per-cell
        // noise: the storm endpoint must sit above the fault-free floor.
        let (mut clean, mut storm) = (0.0, 0.0);
        for b in 0..BENCHMARKS.len() {
            let curve = column(&r, b, 2);
            clean += curve[0];
            storm += curve[FAULT_RATES.len() - 1];
        }
        assert!(
            storm > clean,
            "fault storm ({storm:.3}) should degrade the fault-free baseline ({clean:.3})"
        );
    }
}
