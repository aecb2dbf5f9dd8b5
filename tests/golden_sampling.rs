//! Golden regression suite for the phase-sampling estimator: exact full
//! counters and the sampled estimates they validate against, pinned in
//! `tests/golden_sampling.fixture` for the full benchmark suite ×
//! {EV8, gshare, TAGE}.
//!
//! `golden_misp` pins the serial simulator; this suite pins
//! [`ev8_sim::validate_sampled`] — the interval profile, the k-means
//! phases, the anchored chained estimator and its age-curve correction.
//! Any change that moves a phase boundary, a sample position or a
//! correction term fails loudly here, with the offending rows named.
//!
//! When a change is *intended* to move the numbers, regenerate the
//! fixture and commit it alongside the change:
//!
//! ```text
//! EV8_BLESS_GOLDEN=1 cargo test --test golden_sampling --offline
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_sim::experiments::{factory, Factory};
use ev8_sim::{validate_sampled, SamplingConfig};
use ev8_workloads::spec95;

/// Same small fixed scale as `golden_misp`: a couple of seconds for the
/// whole grid, tens of thousands of dynamic branches per benchmark.
const SCALE: f64 = 0.002;

/// Stable fixture keys, the sampling study's roster: the paper's EV8
/// bracketed by gshare and TAGE.
const PREDICTORS: [&str; 3] = ["ev8", "gshare", "tage"];

fn build(key: &str) -> Factory {
    match key {
        "ev8" => factory(Ev8Predictor::ev8),
        "gshare" => factory(|| Gshare::new(16, 16)),
        "tage" => factory(|| Tage::new(TageConfig::ev8_budget())),
        _ => unreachable!("unknown fixture key {key}"),
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_sampling.fixture")
}

/// Runs the whole grid and renders it in fixture format, one line per
/// (benchmark, predictor) pair:
///
/// ```text
/// benchmark predictor full_mispredictions estimated_mispredictions \
///     simulated_records total_records
/// ```
///
/// The estimate is a float (population-weighted, curve-corrected);
/// three decimals pin it far below any meaningful drift while staying
/// stable to format.
fn current_table() -> String {
    let mut out = String::new();
    for name in spec95::NAMES {
        let flat = spec95::cached(name, SCALE).expect("benchmark names are known");
        let config = SamplingConfig::auto(flat.len());
        for key in PREDICTORS {
            let cmp = validate_sampled(&build(key), &flat, &config);
            writeln!(
                out,
                "{name} {key} {} {:.3} {} {}",
                cmp.full.mispredictions,
                cmp.sampled.estimated_mispredictions,
                cmp.sampled.simulated_records,
                cmp.sampled.total_records,
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn sampled_estimates_match_golden_fixture() {
    let got = current_table();
    let path = fixture_path();

    if std::env::var_os("EV8_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden fixture");
        println!("blessed {} ({} lines)", path.display(), got.lines().count());
        return;
    }

    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             EV8_BLESS_GOLDEN=1 cargo test --test golden_sampling",
            path.display()
        )
    });

    if got != want {
        let mut diff = String::new();
        for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                writeln!(diff, "  line {}: fixture `{w}` vs current `{g}`", line + 1).unwrap();
            }
        }
        if got.lines().count() != want.lines().count() {
            writeln!(
                diff,
                "  line count: fixture {} vs current {}",
                want.lines().count(),
                got.lines().count()
            )
            .unwrap();
        }
        panic!(
            "golden sampling estimates diverged:\n{diff}\
             if this change is intended, re-bless with \
             EV8_BLESS_GOLDEN=1 cargo test --test golden_sampling"
        );
    }
}

#[test]
fn golden_table_is_deterministic_across_runs() {
    // Two full back-to-back runs (fresh predictors, second pass served
    // from the warm trace cache) must agree bit-for-bit — clustering,
    // sample placement and the curve fit are all seeded and stable.
    assert_eq!(current_table(), current_table());
}

#[test]
fn fixture_rows_are_internally_consistent() {
    let want = match std::fs::read_to_string(fixture_path()) {
        Ok(s) => s,
        // The bless run creates the file; nothing to check until then.
        Err(_) => return,
    };
    let mut lines = 0;
    for line in want.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 6, "malformed fixture line: {line}");
        assert!(PREDICTORS.contains(&f[1]), "unknown predictor in: {line}");
        let full: u64 = f[2].parse().expect("full mispredictions");
        let est: f64 = f[3].parse().expect("estimated mispredictions");
        let simulated: u64 = f[4].parse().expect("simulated records");
        let total: u64 = f[5].parse().expect("total records");
        assert!(est >= 0.0, "negative estimate pinned: {line}");
        assert!(simulated > 0 && simulated < total, "no savings: {line}");
        // The suite-wide acceptance bar is ≥5×; even at this tiny scale
        // the auto budget must stay close to it.
        assert!(
            total as f64 / simulated as f64 >= 4.0,
            "reduction below 4x: {line}"
        );
        // A regression-suite sanity band, not the accuracy claim (the
        // 2% envelope is asserted at full scale in the sampling bench):
        // the estimate must land within half-to-double the truth.
        let ratio = est / (full as f64).max(1.0);
        assert!(
            (0.5..=2.0).contains(&ratio),
            "estimate wildly off the pinned truth: {line}"
        );
        lines += 1;
    }
    assert_eq!(lines, spec95::NAMES.len() * PREDICTORS.len());
}
