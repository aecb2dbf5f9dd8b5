//! Figure 8: adjusting table sizes. Base configuration is a 4×64K-entry
//! 2Bc-gskew (512 Kbits) indexed with the EV8 information vector; then:
//!
//! * **small BIM** — BIM reduced from 64K to 16K entries;
//! * **EV8 size** — small BIM plus half-size hysteresis tables for G0 and
//!   Meta, reaching the 352 Kbit budget.
//!
//! Expected shape: the small BIM is free; half hysteresis is barely
//! noticeable except for the largest-footprint benchmark (`go` — "very
//! large footprint and consequently the most sensitive to size
//! reduction").

use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode};
use ev8_predictors::twobcgskew::TableConfig;

use crate::experiments::{factory, mean_mispki, run_grid, suite_traces, Factory};
use crate::report::{fmt_mispki, ExperimentReport, TextTable};

fn base_512k() -> Ev8Config {
    Ev8Config::lghist_512k(HistoryMode::ev8())
}

fn small_bim() -> Ev8Config {
    let mut c = base_512k();
    // Fig 8 isolates the BIM *size* reduction (64K -> 16K entries); the
    // bimodal component stays purely PC-indexed here. (The 4 history bits
    // of the real EV8's BIM come from the shared wordline constraint and
    // are studied separately in Fig 9.)
    c.bim = TableConfig::new(14, 0);
    c
}

fn ev8_size() -> Ev8Config {
    let mut c = small_bim();
    c.g0 = TableConfig::with_half_hysteresis(16, c.g0.history_length);
    c.meta = TableConfig::with_half_hysteresis(16, c.meta.history_length);
    c
}

/// The Fig 8 size roster.
pub fn configs() -> Vec<(String, Factory)> {
    vec![
        (
            "4x64K base (512Kb)".into(),
            factory(|| Ev8Predictor::new(base_512k())),
        ),
        (
            "small BIM (416Kb)".into(),
            factory(|| Ev8Predictor::new(small_bim())),
        ),
        (
            "EV8 size (352Kb)".into(),
            factory(|| Ev8Predictor::new(ev8_size())),
        ),
    ]
}

/// Regenerates Figure 8.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let traces = suite_traces(scale);
    let configs = configs();
    let grid = run_grid(&traces, &configs, workers);

    let mut headers = vec!["configuration".into()];
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
        title: "Figure 8: reducing table sizes (EV8 information vector)".into(),
        table,
        notes: vec!["expected: small BIM free; half hysteresis nearly free except go".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn budgets_shrink_as_labelled() {
        let c = configs();
        let budgets: Vec<u64> = c.iter().map(|(_, f)| f().storage_bits()).collect();
        assert_eq!(budgets[0], 512 * 1024);
        assert_eq!(budgets[1], 416 * 1024); // 512K - 2*48K(BIM shrink)
        assert_eq!(budgets[2], 352 * 1024);
        assert!(budgets[0] > budgets[1] && budgets[1] > budgets[2]);
    }

    #[test]
    fn size_reduction_is_nearly_free() {
        let r = report(0.002, default_workers());
        let mean = |row: usize| -> f64 { r.table.cell(row, 9).parse().unwrap() };
        let base = mean(0);
        let ev8 = mean(2);
        assert!(
            ev8 <= base * 1.3 + 0.5,
            "EV8 size ({ev8}) should be near the 512Kb base ({base})"
        );
    }
}
