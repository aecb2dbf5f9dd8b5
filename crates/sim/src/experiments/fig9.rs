//! Figure 9: effect of the wordline-index and index-function constraints
//! (on the 352 Kbit EV8 geometry, three-blocks-old history):
//!
//! * **address only, no path** — shared wordline from PC bits only, no
//!   path bit in lghist;
//! * **address only, path** — PC-only wordline, path bit in lghist;
//! * **no path** — the EV8 wordline (4 history + 2 address bits) but no
//!   path bit in lghist;
//! * **EV8** — the shipping configuration;
//! * **complete hash** — the EV8 information vector with unconstrained
//!   hashing (Fig 7's best);
//! * **4x64K 2Bc-gskew ghist** — the 512 Kbit unconstrained conventional-
//!   history reference.
//!
//! Expected shape: address-only wordlines lose accuracy (unbalanced table
//! use); the engineered EV8 functions come close to the unconstrained
//! 512 Kbit reference.

use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode, IndexScheme, WordlineMode};

use crate::experiments::{factory, mean_mispki, run_grid, suite_traces, Factory};
use crate::report::{fmt_mispki, ExperimentReport, TextTable};

fn ev8_variant(wordline: WordlineMode, path_bit: bool) -> Ev8Config {
    Ev8Config::ev8()
        .with_history(HistoryMode::Lghist {
            path_bit,
            three_blocks_old: true,
            path_patch: true,
        })
        .with_index(IndexScheme::Ev8 { wordline })
}

/// The Fig 9 roster.
pub fn configs() -> Vec<(String, Factory)> {
    vec![
        (
            "address only, no path".into(),
            factory(|| Ev8Predictor::new(ev8_variant(WordlineMode::AddressOnly, false))),
        ),
        (
            "address only, path".into(),
            factory(|| Ev8Predictor::new(ev8_variant(WordlineMode::AddressOnly, true))),
        ),
        (
            "no path".into(),
            factory(|| Ev8Predictor::new(ev8_variant(WordlineMode::HistoryAndAddress, false))),
        ),
        (
            "EV8".into(),
            factory(|| Ev8Predictor::new(Ev8Config::ev8())),
        ),
        (
            "complete hash".into(),
            factory(|| Ev8Predictor::new(Ev8Config::lghist_512k(HistoryMode::ev8()))),
        ),
        (
            "4x64K 2Bc-gskew ghist".into(),
            factory(|| Ev8Predictor::new(Ev8Config::unconstrained_512k())),
        ),
    ]
}

/// Regenerates Figure 9.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let traces = suite_traces(scale);
    let configs = configs();
    let grid = run_grid(&traces, &configs, workers);

    let mut headers = vec!["wordline / index functions".into()];
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
        title: "Figure 9: effect of wordline indices and index-function constraints".into(),
        table,
        notes: vec![
            "rows 1-4 are 352Kb EV8-constrained; rows 5-6 are 512Kb unconstrained references"
                .into(),
            "expected: EV8 close to complete hash; address-only wordline worse".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn roster_has_six_rows() {
        let c = configs();
        assert_eq!(c.len(), 6);
        // EV8-constrained rows carry the 352 Kbit budget.
        for (_, f) in &c[..4] {
            assert_eq!(f().storage_bits(), 352 * 1024);
        }
        for (_, f) in &c[4..] {
            assert_eq!(f().storage_bits(), 512 * 1024);
        }
    }

    #[test]
    fn ev8_reasonably_close_to_complete_hash() {
        let r = report(0.002, default_workers());
        let mean = |row: usize| -> f64 { r.table.cell(row, 9).parse().unwrap() };
        let ev8 = mean(3);
        let complete = mean(4);
        assert!(
            ev8 <= complete * 1.6 + 1.0,
            "EV8 ({ev8}) should be in the neighbourhood of complete hash ({complete})"
        );
    }
}
