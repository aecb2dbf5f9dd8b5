//! Shootout: every prediction scheme the experiments run, over the
//! whole synthetic SPECINT95 suite, misp/KI per benchmark — a miniature,
//! extended version of the paper's Figure 5 that adds e-gskew (the
//! `aliasing` study), the perceptron (the §9 backup) and TAGE at the
//! EV8 budget.
//!
//! ```text
//! cargo run --release --example predictor_shootout [scale]
//! ```

use ev8_core::Ev8Predictor;
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::bimode::Bimode;
use ev8_predictors::egskew::EGskew;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::perceptron::Perceptron;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::yags::Yags;
use ev8_sim::experiments::{factory, mean_mispki, run_grid, suite_traces, Factory};
use ev8_sim::report::{fmt_mispki, TextTable};
use ev8_sim::sweep::default_workers;

fn roster() -> Vec<(String, Factory)> {
    vec![
        ("bimodal 32Kb".into(), factory(|| Bimodal::new(14))),
        ("gshare 128Kb".into(), factory(|| Gshare::new(16, 16))),
        ("e-gskew 384Kb".into(), factory(|| EGskew::new(16, 16))),
        ("bimode 544Kb".into(), factory(Bimode::paper_544k)),
        ("YAGS 288Kb".into(), factory(Yags::paper_288k)),
        (
            "perceptron 139Kb".into(),
            factory(|| Perceptron::new(10, 16)),
        ),
        (
            "2Bc-gskew 512Kb".into(),
            factory(|| TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
        ),
        ("EV8 352Kb".into(), factory(Ev8Predictor::ev8)),
        (
            "TAGE 352Kb".into(),
            factory(|| Tage::new(TageConfig::ev8_budget())),
        ),
    ]
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.05);
    let workers = default_workers();
    println!("predictor shootout at scale {scale} ({workers} workers)\n");

    let traces = suite_traces(scale);
    let configs = roster();
    let grid = run_grid(&traces, &configs, workers);

    let mut headers = vec!["predictor".to_owned()];
    headers.extend(traces.iter().map(|t| t.name().to_owned()));
    headers.push("mean".into());
    let mut table = TextTable::new(headers);
    for ((label, _), row) in configs.iter().zip(&grid) {
        let mut cells = vec![label.clone()];
        cells.extend(row.iter().map(|r| fmt_mispki(r.misp_per_ki())));
        cells.push(fmt_mispki(mean_mispki(row)));
        table.row(cells);
    }
    println!("{table}");
    println!("misp/KI, lower is better; budgets in parentheses are storage bits");
    println!(
        "note: small scales over-weight cold-start for the long-history schemes; \
         run with scale 1.0 for steady-state numbers (see EXPERIMENTS.md)"
    );
}
