//! One EV8 core: `Ev8Predictor`, a one-context `SmtEv8` and the
//! scheme-level `TwoBcGskew` all run the same four-table body
//! (`ev8_predictors::twobcgskew::Tables`), so where their inputs agree
//! their predictions and table state must agree exactly.
//!
//! * `SmtEv8` with one thread context against `Ev8Predictor`, for every
//!   configuration Figs 7-10 build: same prediction on every record of
//!   the suite, same tables afterwards.
//! * `Ev8Predictor` in its unconstrained form (conventional history,
//!   complete hash, no path patch) against `TwoBcGskew` with the same
//!   four tables under the partial update: same prediction on every
//!   record, same counters afterwards. This pins the §4.2 body across the
//!   crate boundary.
//!
//! Equal twins cannot catch a fault in the body they share, so both
//! tests also hold their misprediction counts to the independent rows of
//! `tests/golden_misp.fixture` (same scale): `ev8` for the shipping
//! configuration, `twobcgskew_512k` for the unconstrained one.

use std::path::PathBuf;

use ev8_core::smt::SmtEv8;
use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode, IndexScheme, WordlineMode};
use ev8_predictors::twobcgskew::{TableConfig, TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::BranchPredictor;
use ev8_workloads::spec95;

/// The scale of `tests/golden_misp.fixture`.
const SCALE: f64 = 0.002;

/// The mispredictions `tests/golden_misp.fixture` pins for `key` on
/// benchmark `name`.
fn golden_mispredictions(name: &str, key: &str) -> u64 {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_misp.fixture");
    let fixture = std::fs::read_to_string(&path).expect("golden misprediction fixture");
    fixture
        .lines()
        .find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            (fields[..2] == [name, key]).then(|| fields[4].parse().expect("a count"))
        })
        .unwrap_or_else(|| panic!("no fixture row for {name} {key}"))
}

/// Every `Ev8Config` the Fig 7-10 rosters build, by name.
fn figure_configs() -> Vec<(&'static str, Ev8Config)> {
    let fig8_small_bim = {
        let mut c = Ev8Config::lghist_512k(HistoryMode::ev8());
        c.bim = TableConfig::new(14, 0);
        c
    };
    let fig8_ev8_size = {
        let mut c = fig8_small_bim;
        c.g0 = TableConfig::with_half_hysteresis(16, c.g0.history_length);
        c.meta = TableConfig::with_half_hysteresis(16, c.meta.history_length);
        c
    };
    let fig9 = |wordline, path_bit| {
        Ev8Config::ev8()
            .with_history(HistoryMode::Lghist {
                path_bit,
                three_blocks_old: true,
                path_patch: true,
            })
            .with_index(IndexScheme::Ev8 { wordline })
    };
    vec![
        ("ev8", Ev8Config::ev8()),
        ("unconstrained_512k", Ev8Config::unconstrained_512k()),
        (
            "lghist_512k/no_path",
            Ev8Config::lghist_512k(HistoryMode::lghist_no_path()),
        ),
        (
            "lghist_512k/path",
            Ev8Config::lghist_512k(HistoryMode::lghist_path()),
        ),
        (
            "lghist_512k/3old",
            Ev8Config::lghist_512k(HistoryMode::lghist_3old()),
        ),
        (
            "lghist_512k/ev8",
            Ev8Config::lghist_512k(HistoryMode::ev8()),
        ),
        ("fig8/small_bim", fig8_small_bim),
        ("fig8/ev8_size", fig8_ev8_size),
        (
            "fig9/address_only_no_path",
            fig9(WordlineMode::AddressOnly, false),
        ),
        (
            "fig9/address_only_path",
            fig9(WordlineMode::AddressOnly, true),
        ),
        ("fig9/no_path", fig9(WordlineMode::HistoryAndAddress, false)),
    ]
}

#[test]
fn one_context_smt_predicts_exactly_as_the_ev8_predictor() {
    for name in spec95::NAMES {
        let trace = spec95::cached(name, SCALE).expect("suite benchmark");
        for (label, config) in figure_configs() {
            let mut single = Ev8Predictor::new(config);
            let mut smt = SmtEv8::new(config, 1);
            let mut mispredictions = 0;
            for (i, record) in trace.iter().enumerate() {
                let record = &record;
                let predicted = smt.predict_and_update(0, record);
                assert_eq!(
                    predicted,
                    single.predict_and_update(record),
                    "{name}, {label}: record {i}"
                );
                mispredictions += u64::from(predicted.is_some_and(|p| p != record.outcome));
            }
            assert!(
                smt.tables() == single.tables(),
                "{name}, {label}: tables differ after the run"
            );
            if label == "ev8" {
                assert_eq!(mispredictions, golden_mispredictions(name, "ev8"), "{name}");
            }
        }
    }
}

#[test]
fn unconstrained_ev8_predicts_exactly_as_twobcgskew() {
    let config = Ev8Config::unconstrained_512k();
    // The Fig 5 512 Kbit 2Bc-gskew: the same four tables, the partial
    // update, no commit window.
    let gskew_config = TwoBcGskewConfig::size_512k();
    assert_eq!(
        [config.bim, config.g0, config.g1, config.meta],
        [
            gskew_config.bim,
            gskew_config.g0,
            gskew_config.g1,
            gskew_config.meta
        ]
    );
    for name in spec95::NAMES {
        let trace = spec95::cached(name, SCALE).expect("suite benchmark");
        let mut ev8 = Ev8Predictor::new(config);
        let mut gskew = TwoBcGskew::new(gskew_config);
        let mut mispredictions = 0;
        for (i, record) in trace.iter().enumerate() {
            let record = &record;
            let predicted = ev8.predict_and_update(record);
            assert_eq!(
                predicted,
                gskew.predict_and_update(record),
                "{name}: record {i}"
            );
            mispredictions += u64::from(predicted.is_some_and(|p| p != record.outcome));
        }
        for (table, geometry) in [config.bim, config.g0, config.g1, config.meta]
            .into_iter()
            .enumerate()
        {
            for index in 0..1usize << geometry.index_bits {
                assert_eq!(
                    ev8.tables().counter(table, index),
                    gskew.tables().counter(table, index),
                    "{name}: table {table}, entry {index}"
                );
            }
        }
        assert_eq!(
            mispredictions,
            golden_mispredictions(name, "twobcgskew_512k"),
            "{name}"
        );
    }
}
