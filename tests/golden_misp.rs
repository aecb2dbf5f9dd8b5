//! Golden regression suite: exact misprediction counters for the full
//! benchmark suite, pinned in `tests/golden_misp.fixture`.
//!
//! The scaling/aliasing experiments assert *shapes* (orderings, ranges);
//! this suite pins the *exact* integers — instructions, conditional
//! branches and mispredictions — for every (benchmark, predictor) pair
//! at a small fixed scale. Any change to trace synthesis, indexing,
//! history management or update policy that moves a single prediction
//! fails loudly here, with the offending rows named.
//!
//! When a change is *intended* to move the numbers (e.g. a predictor
//! fix), regenerate the fixture and commit it alongside the change:
//!
//! ```text
//! EV8_BLESS_GOLDEN=1 cargo test --test golden_misp --offline
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use ev8_core::Ev8Predictor;
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::bimode::Bimode;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::yags::Yags;
use ev8_predictors::BranchPredictor;
use ev8_sim::{simulate, simulate_many};
use ev8_workloads::spec95;

/// Fraction of the paper's 100M-instruction traces. Small enough to keep
/// this suite to a couple of seconds, large enough that every predictor
/// sees tens of thousands of dynamic branches per benchmark.
const SCALE: f64 = 0.002;

/// Stable fixture keys (decoupled from `BranchPredictor::name`, which
/// embeds configuration and may be reworded), in blocks. The fixture
/// holds the whole suite for the first block, then for the second, and
/// so on, so the Fig 5 families and then the other 2Bc-gskew geometries
/// were appended without moving any earlier line.
const BLOCKS: [&[&str]; 3] = [
    &["ev8", "gshare", "bimodal", "tage"],
    &["twobcgskew_512k", "bimode_544k", "yags_288k"],
    &[
        "twobcgskew_256k",
        "twobcgskew_ev8",
        "twobcgskew_512k_small_bim",
        "twobcgskew_4x1m",
    ],
];

fn build(key: &str) -> Box<dyn BranchPredictor> {
    match key {
        // The full 352 Kbit EV8 predictor (Table 1 geometry).
        "ev8" => Box::new(Ev8Predictor::ev8()),
        // The paper's main comparison points at similar storage.
        "gshare" => Box::new(Gshare::new(16, 16)),
        "bimodal" => Box::new(Bimodal::new(14)),
        // The next-generation design at the exact EV8 budget.
        "tage" => Box::new(Tage::new(TageConfig::ev8_budget())),
        // The Fig 5 roster's other families, as `fig5::configs()` builds
        // them.
        "twobcgskew_512k" => Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
        "bimode_544k" => Box::new(Bimode::paper_544k()),
        "yags_288k" => Box::new(Yags::paper_288k()),
        // The other 2Bc-gskew geometries the experiments build: Fig 5's
        // 256 Kbit point, the EV8-budget logical config (shootout and the
        // server's `TwoBcGskewEv8`), Fig 8's small BIM and Fig 10's 4×1M.
        "twobcgskew_256k" => Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_256k())),
        "twobcgskew_ev8" => Box::new(TwoBcGskew::new(TwoBcGskewConfig::ev8_size())),
        "twobcgskew_512k_small_bim" => {
            Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k_small_bim()))
        }
        "twobcgskew_4x1m" => Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_4x1m())),
        _ => unreachable!("unknown fixture key {key}"),
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_misp.fixture")
}

/// Runs the whole grid and renders it in fixture format: one
/// `benchmark predictor instructions conditional_branches mispredictions`
/// line per (benchmark, predictor) pair, block by block, suite order
/// within a block, LF-terminated.
///
/// This is the slow twin: the serial AoS `simulate` over a freshly
/// generated trace, sharing neither the trace cache nor the packed form
/// with the batched path.
fn current_table() -> String {
    let mut out = String::new();
    for block in BLOCKS {
        for spec in spec95::suite() {
            let (name, trace) = (&spec.name, spec.generate_scaled(SCALE));
            for &key in block {
                let r = simulate(build(key), &trace);
                writeln!(
                    out,
                    "{name} {key} {} {} {}",
                    r.instructions, r.conditional_branches, r.mispredictions
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn misprediction_counters_match_golden_fixture() {
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
             EV8_BLESS_GOLDEN=1 cargo test --test golden_misp",
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
            "golden misprediction counters diverged:\n{diff}\
             if this change is intended, re-bless with \
             EV8_BLESS_GOLDEN=1 cargo test --test golden_misp"
        );
    }
}

/// The same grid through the batched sweep engine: each block's
/// predictors stepped per branch in one pass over the cached packed trace.
fn current_table_batched() -> String {
    let mut out = String::new();
    for block in BLOCKS {
        for name in spec95::NAMES {
            let flat = spec95::cached(name, SCALE).expect("benchmark names are known");
            let mut batch: Vec<Box<dyn BranchPredictor>> = block.iter().map(|k| build(k)).collect();
            for (key, r) in block.iter().zip(simulate_many(&mut batch, &flat)) {
                writeln!(
                    out,
                    "{name} {key} {} {} {}",
                    r.instructions, r.conditional_branches, r.mispredictions
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn batched_path_matches_golden_fixture() {
    // Pins `simulate_many` + `FlatTrace` against the same golden
    // integers as the serial path — any divergence between the two
    // engines shows up as a fixture diff here.
    let path = fixture_path();
    let want = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        // The bless run (serial test above) creates the file first.
        Err(_) => return,
    };
    assert_eq!(
        current_table_batched(),
        want,
        "batched sweep diverged from the golden fixture at {}",
        path.display()
    );
}

#[test]
fn golden_table_is_deterministic_across_runs() {
    // Two full back-to-back runs (fresh predictors, second pass served
    // from the warm trace cache) must agree bit-for-bit — the property
    // the fixture's stability rests on.
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
        assert_eq!(f.len(), 5, "malformed fixture line: {line}");
        assert!(
            BLOCKS.iter().any(|block| block.contains(&f[1])),
            "unknown predictor in: {line}"
        );
        let inst: u64 = f[2].parse().expect("instructions");
        let cond: u64 = f[3].parse().expect("conditional_branches");
        let misp: u64 = f[4].parse().expect("mispredictions");
        assert!(inst > 0 && cond > 0, "empty run pinned: {line}");
        assert!(misp <= cond, "more mispredictions than branches: {line}");
        lines += 1;
    }
    let keys: usize = BLOCKS.iter().map(|block| block.len()).sum();
    assert_eq!(lines, spec95::NAMES.len() * keys);
}
