//! Aliasing-pressure study — the motivation for the de-aliased predictor
//! family (§4 of the paper, after Michaud/Seznec/Uhlig \[15\] and
//! Talcott et al. \[24\]).
//!
//! Fixing the storage budget and growing the *static branch footprint*
//! raises table interference. "Aliased" schemes (gshare) degrade fastest;
//! the skewed majority vote of e-gskew tolerates single-bank collisions;
//! 2Bc-gskew adds the bimodal/meta protection for biased branches. The
//! paper's Fig 5 shows the end result at SPEC footprints; this experiment
//! exposes the underlying trend.

use ev8_predictors::egskew::EGskew;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_trace::FlatTrace;
use ev8_workloads::{BehaviorMix, ProgramSpec};

use crate::batch::simulate_flat;
use crate::report::{ExperimentReport, TextTable};
use crate::sweep::run_parallel;

/// The footprint points swept (static conditional branches).
pub const FOOTPRINTS: [usize; 5] = [250, 1000, 4000, 12000, 32000];

/// A gcc-like program with a configurable static footprint, packed.
fn workload(statics: usize, instructions: u64) -> FlatTrace {
    let spec = ProgramSpec {
        name: format!("footprint-{statics}"),
        seed: 0xA11A5 ^ statics as u64,
        static_branches: statics,
        instructions,
        branch_density: 140.0,
        mix: BehaviorMix::default_integer(),
        hotness_skew: 0.85,
        call_fraction: 0.1,
        noise: 0.4,
        chain_length_bias: 0.7,
    };
    FlatTrace::from_trace(&spec.generate())
}

/// Regenerates the aliasing study. `scale` is the fraction of a
/// 20M-instruction probe run.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let instructions = ((20_000_000.0 * scale) as u64).max(50_000);
    type Row = (f64, f64, f64);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = FOOTPRINTS
        .iter()
        .map(|&statics| {
            Box::new(move || {
                let t = workload(statics, instructions);
                // Matched 128Kbit-class budgets: gshare 64K entries,
                // e-gskew 3x16K, 2Bc-gskew 4x16K.
                let gshare = simulate_flat(Gshare::new(16, 14), &t).misp_per_ki();
                let egskew = simulate_flat(EGskew::new(14, 14), &t).misp_per_ki();
                let gskew = simulate_flat(TwoBcGskew::new(TwoBcGskewConfig::equal(14, 14)), &t)
                    .misp_per_ki();
                (gshare, egskew, gskew)
            }) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    let rows = run_parallel(jobs, workers);

    let mut table = TextTable::new(vec![
        "static branches".into(),
        "gshare 128Kb".into(),
        "e-gskew 96Kb".into(),
        "2Bc-gskew 128Kb".into(),
    ]);
    for (&statics, (g, e, t)) in FOOTPRINTS.iter().zip(&rows) {
        table.row(vec![
            statics.to_string(),
            format!("{g:.3}"),
            format!("{e:.3}"),
            format!("{t:.3}"),
        ]);
    }
    ExperimentReport {
        title: "Aliasing pressure: misp/KI vs static footprint at fixed budget".into(),
        table,
        notes: vec![
            "growing footprints raise interference; de-aliased schemes degrade more slowly".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn dealiased_schemes_win_under_pressure() {
        let r = report(0.1, default_workers());
        assert_eq!(r.table.len(), FOOTPRINTS.len());
        // At the largest footprint, 2Bc-gskew must beat gshare.
        let last = FOOTPRINTS.len() - 1;
        let gshare: f64 = r.table.cell(last, 1).parse().unwrap();
        let gskew: f64 = r.table.cell(last, 3).parse().unwrap();
        assert!(
            gskew < gshare,
            "2Bc-gskew ({gskew}) must beat gshare ({gshare}) at 32K statics"
        );
    }

    #[test]
    fn interference_grows_with_footprint() {
        let r = report(0.05, default_workers());
        let first: f64 = r.table.cell(0, 1).parse().unwrap();
        let last: f64 = r.table.cell(FOOTPRINTS.len() - 1, 1).parse().unwrap();
        assert!(
            last > first,
            "gshare should degrade from {first} as footprint grows, got {last}"
        );
    }
}
