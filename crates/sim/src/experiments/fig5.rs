//! Figure 5: branch prediction accuracy for various global history
//! schemes, at memorization sizes in the EV8's range, each with its best
//! history length (per §8.2):
//!
//! * 2Bc-gskew 4×32K (256 Kbits), history 0/13/23/16;
//! * 2Bc-gskew 4×64K (512 Kbits), history 0/17/27/20;
//! * bi-mode 544 Kbits, history 20;
//! * gshare 1M entries (2 Mbits), history 20;
//! * YAGS 288 Kbits (h 23) and 576 Kbits (h 25).
//!
//! Expected shape: 2Bc-gskew at or above bi-mode and gshare at comparable
//! budgets; YAGS ≈ 2Bc-gskew ("no clear winner").

use ev8_predictors::bimode::Bimode;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::yags::Yags;

use crate::experiments::{factory, mean_mispki, run_grid, suite_traces, Factory};
use crate::report::{fmt_mispki, ExperimentReport, TextTable};

/// The Fig 5 predictor roster (label, constructor).
pub fn configs() -> Vec<(String, Factory)> {
    vec![
        (
            "2Bc-gskew 256Kb".into(),
            factory(|| TwoBcGskew::new(TwoBcGskewConfig::size_256k())),
        ),
        (
            "2Bc-gskew 512Kb".into(),
            factory(|| TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
        ),
        ("bimode 544Kb".into(), factory(Bimode::paper_544k)),
        ("gshare 2Mb".into(), factory(|| Gshare::new(20, 20))),
        ("YAGS 288Kb".into(), factory(Yags::paper_288k)),
        ("YAGS 576Kb".into(), factory(Yags::paper_576k)),
    ]
}

/// Regenerates Figure 5.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let traces = suite_traces(scale);
    let configs = configs();
    let grid = run_grid(&traces, &configs, workers);

    let mut headers = vec!["predictor".into()];
    headers.extend(traces.iter().map(|t| t.name().to_owned()));
    headers.push("mean".into());
    let mut table = TextTable::new(headers);
    for ((label, _), row) in configs.iter().zip(&grid) {
        let mut cells = vec![label.clone()];
        cells.extend(row.iter().map(|r| fmt_mispki(r.misp_per_ki())));
        cells.push(fmt_mispki(mean_mispki(row)));
        table.row(cells);
    }
    ExperimentReport {
        title: "Figure 5: misp/KI of global history schemes (best history lengths)".into(),
        table,
        notes: vec![
            "expected shape: 2Bc-gskew <= bimode/gshare at similar budgets; YAGS ~ 2Bc-gskew"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn roster_matches_paper() {
        let c = configs();
        assert_eq!(c.len(), 6);
        // Budgets as advertised.
        let budgets: Vec<u64> = c.iter().map(|(_, f)| f().storage_bits()).collect();
        assert_eq!(
            budgets,
            vec![
                256 * 1024,
                512 * 1024,
                544 * 1024,
                2 * 1024 * 1024,
                288 * 1024,
                576 * 1024
            ]
        );
    }

    #[test]
    fn small_scale_run_produces_sane_numbers() {
        let r = report(0.001, default_workers());
        assert_eq!(r.table.len(), 6);
        for row in 0..6 {
            for col in 1..=8 {
                let v: f64 = r.table.cell(row, col).parse().unwrap();
                assert!(v.is_finite() && (0.0..200.0).contains(&v));
            }
        }
    }
}
