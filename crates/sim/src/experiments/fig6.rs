//! Figure 6: additional mispredictions when the history length is
//! limited to `log2(table size)` instead of the best length.
//!
//! The paper's point (§5.3, §8.2): "predictors featuring a large number
//! of entries need very long history length and `log2(table size)`
//! history is suboptimal." The log2-limited lengths are 15 (2Bc-gskew
//! 256Kb, all global tables), 16 (512Kb), 17 (bimode), 20 (gshare — its
//! best length *is* log2), 14/15 (YAGS).

use ev8_predictors::bimode::Bimode;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::yags::Yags;

use crate::experiments::{factory, run_grid, suite_traces, Factory};
use crate::report::{ExperimentReport, TextTable};

/// (label, best-history constructor, log2-history constructor) triples.
pub fn config_pairs() -> Vec<(String, Factory, Factory)> {
    vec![
        (
            "2Bc-gskew 256Kb".into(),
            factory(|| TwoBcGskew::new(TwoBcGskewConfig::size_256k())),
            factory(|| {
                TwoBcGskew::new(TwoBcGskewConfig::size_256k().with_history_lengths(0, 15, 15, 15))
            }),
        ),
        (
            "2Bc-gskew 512Kb".into(),
            factory(|| TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
            factory(|| {
                TwoBcGskew::new(TwoBcGskewConfig::size_512k().with_history_lengths(0, 16, 16, 16))
            }),
        ),
        (
            "bimode 544Kb".into(),
            factory(Bimode::paper_544k),
            factory(|| Bimode::new(14, 17, 17)),
        ),
        (
            "gshare 2Mb".into(),
            factory(|| Gshare::new(20, 20)),
            factory(|| Gshare::new(20, 20)), // log2 == best for gshare
        ),
        (
            "YAGS 288Kb".into(),
            factory(Yags::paper_288k),
            factory(|| Yags::new(14, 14, 6, 14)),
        ),
        (
            "YAGS 576Kb".into(),
            factory(Yags::paper_576k),
            factory(|| Yags::new(15, 15, 6, 15)),
        ),
    ]
}

/// Regenerates Figure 6: the *additional* misp/KI of the log2-limited
/// configuration relative to the best-history configuration.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let traces = suite_traces(scale);
    let pairs = config_pairs();
    let mut configs: Vec<(String, Factory)> = Vec::new();
    for (label, best, log2) in &pairs {
        configs.push((format!("{label} best"), best.clone()));
        configs.push((format!("{label} log2"), log2.clone()));
    }
    let grid = run_grid(&traces, &configs, workers);

    let mut headers = vec!["predictor".into()];
    headers.extend(traces.iter().map(|t| t.name().to_owned()));
    headers.push("mean delta".into());
    let mut table = TextTable::new(headers);
    for (i, (label, _, _)) in pairs.iter().enumerate() {
        let best = &grid[2 * i];
        let log2 = &grid[2 * i + 1];
        let mut cells = vec![label.clone()];
        let mut sum = 0.0;
        for (b, l) in best.iter().zip(log2) {
            let delta = l.misp_per_ki() - b.misp_per_ki();
            sum += delta;
            cells.push(format!("{delta:+.3}"));
        }
        cells.push(format!("{:+.3}", sum / best.len() as f64));
        table.row(cells);
    }
    ExperimentReport {
        title: "Figure 6: additional misp/KI with log2(table size) history".into(),
        table,
        notes: vec![
            "positive deltas mean the short history loses accuracy".into(),
            "gshare's row is zero by construction (its best length is log2)".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn pairs_cover_the_roster() {
        assert_eq!(config_pairs().len(), 6);
    }

    #[test]
    fn gshare_delta_is_zero() {
        let r = report(0.0005, default_workers());
        // gshare is row 3; all its per-benchmark deltas must be exactly 0.
        for col in 1..=8 {
            let v: f64 = r.table.cell(3, col).parse().unwrap();
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn deltas_are_finite() {
        let r = report(0.0005, default_workers());
        for row in 0..6 {
            for col in 1..=9 {
                let v: f64 = r.table.cell(row, col).parse().unwrap();
                assert!(v.is_finite());
            }
        }
    }
}
