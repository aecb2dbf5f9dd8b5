//! Figure 7: impact of the information vector on prediction accuracy,
//! on a 4×64K-entry 2Bc-gskew with unconstrained (complete-hash)
//! indexing:
//!
//! * **ghist** — conventional per-branch history (lengths 17/27/20);
//! * **lghist, no path** — block-compressed history without the PC-bit-4
//!   XOR (lghist-optimal lengths 15/23/17);
//! * **lghist+path** — block-compressed with path bit;
//! * **3-old lghist** — same, three fetch blocks late;
//! * **EV8 info vector** — 3-old lghist+path plus path information from
//!   the last three block addresses.
//!
//! Expected shape: lghist ≈ ghist; path bit mildly beneficial; 3-old
//! slightly worse; the EV8 vector recovers most of the delayed-history
//! loss.

use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode};

use crate::experiments::{factory, mean_mispki, run_grid, suite_traces, Factory};
use crate::report::{fmt_mispki, ExperimentReport, TextTable};

/// The Fig 7 information-vector roster.
pub fn configs() -> Vec<(String, Factory)> {
    vec![
        (
            "ghist".into(),
            factory(|| Ev8Predictor::new(Ev8Config::unconstrained_512k())),
        ),
        (
            "lghist, no path".into(),
            factory(|| Ev8Predictor::new(Ev8Config::lghist_512k(HistoryMode::lghist_no_path()))),
        ),
        (
            "lghist+path".into(),
            factory(|| Ev8Predictor::new(Ev8Config::lghist_512k(HistoryMode::lghist_path()))),
        ),
        (
            "3-old lghist".into(),
            factory(|| Ev8Predictor::new(Ev8Config::lghist_512k(HistoryMode::lghist_3old()))),
        ),
        (
            "EV8 info vector".into(),
            factory(|| Ev8Predictor::new(Ev8Config::lghist_512k(HistoryMode::ev8()))),
        ),
    ]
}

/// Regenerates Figure 7.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let traces = suite_traces(scale);
    let configs = configs();
    let grid = run_grid(&traces, &configs, workers);

    let mut headers = vec!["information vector".into()];
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
        title: "Figure 7: impact of the information vector (4x64K 2Bc-gskew, complete hash)".into(),
        table,
        notes: vec![
            "expected: lghist ~ ghist; 3-old slightly worse; EV8 vector recovers most loss".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn five_information_vectors() {
        let c = configs();
        assert_eq!(c.len(), 5);
        // All five share the 512 Kbit budget.
        for (_, f) in &c {
            assert_eq!(f().storage_bits(), 512 * 1024);
        }
    }

    #[test]
    fn ev8_vector_recovers_delayed_loss() {
        // Shape assertion at small scale: the EV8 vector (row 4) should
        // not be drastically worse than immediate lghist+path (row 2),
        // and 3-old (row 3) should not beat lghist+path by much.
        let r = report(0.002, default_workers());
        let mean = |row: usize| -> f64 { r.table.cell(row, 9).parse().unwrap() };
        let lghist_path = mean(2);
        let three_old = mean(3);
        let ev8 = mean(4);
        // Small-scale runs are noisy; the full-scale shape is recorded in
        // EXPERIMENTS.md. Here we assert the broad ordering only.
        assert!(
            ev8 <= three_old * 1.15 + 0.5,
            "EV8 vector ({ev8}) should be near or below 3-old lghist ({three_old})"
        );
        assert!(
            (ev8 - lghist_path).abs() < lghist_path * 0.5 + 1.0,
            "EV8 vector ({ev8}) should be near immediate lghist ({lghist_path})"
        );
    }
}
