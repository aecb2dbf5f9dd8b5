//! Experiment drivers and benchmarks for the EV8 reproduction.
//!
//! Each table/figure of the paper has a binary that regenerates it:
//!
//! ```text
//! cargo run --release -p ev8-bench --bin table1
//! cargo run --release -p ev8-bench --bin table2
//! cargo run --release -p ev8-bench --bin table3
//! cargo run --release -p ev8-bench --bin fig5        # ... fig6..fig10
//! cargo run --release -p ev8-bench --bin delayed_update
//! cargo run --release -p ev8-bench --bin seu         # soft-error resilience
//! cargo run --release -p ev8-bench --bin all         # everything
//! ```
//!
//! All simulation drivers accept the trace scale (fraction of the paper's
//! 100M instructions per benchmark) through the `EV8_SCALE` environment
//! variable or a single positional argument; the default is `0.25`
//! (25M instructions per benchmark — minutes, not hours). Use
//! `EV8_SCALE=1.0` for full-length runs.
//!
//! Micro-benchmarks live in `benches/` (driven by the in-tree
//! `ev8_util::bench` harness, so `cargo bench` runs fully offline):
//! per-predictor prediction throughput, EV8 full-front-end throughput,
//! index-function cost, workload generation cost, and the design-choice
//! ablations DESIGN.md calls out (update policy, shared hysteresis,
//! per-table history lengths, lghist path bit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Reads the trace scale from argv (first positional argument) or the
/// `EV8_SCALE` environment variable; defaults to 0.25.
///
/// # Panics
///
/// Panics with a usage message when the value does not parse or is not
/// a positive finite number.
pub fn scale_from_env() -> f64 {
    parse_scale(
        std::env::args()
            .nth(1)
            .or_else(|| std::env::var("EV8_SCALE").ok()),
    )
}

fn parse_scale(raw: Option<String>) -> f64 {
    match raw {
        None => 0.25,
        Some(s) => {
            let v: f64 = s
                .parse()
                .unwrap_or_else(|_| panic!("invalid scale {s:?}: expected a positive number"));
            assert!(
                v > 0.0 && v.is_finite(),
                "scale must be positive and finite, got {v}"
            );
            v
        }
    }
}

/// Worker thread count for the sweeps (delegates to `ev8-sim`).
pub fn workers() -> usize {
    ev8_sim::sweep::default_workers()
}

/// Merges bench-result entries into the shared `BENCH_sim.json` file
/// (or the `EV8_BENCH_JSON` override) instead of overwriting it, so the
/// bench trajectory accumulates across groups and runs.
///
/// Each entry is a `("group/benchmark", raw JSON value)` pair; entries
/// with a key already in the file replace it, new keys append. Keys
/// without a `/` (the pre-merge single-object schema) and unparseable
/// files are discarded — the first merged write resets such files to
/// the keyed schema.
///
/// Returns the path written to, or the I/O error (benches report it and
/// continue; results on stdout are never lost to a read-only checkout).
pub fn merge_bench_json(entries: &[(String, String)]) -> std::io::Result<String> {
    let path = bench_json_path();
    let existing = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| ev8_util::json::parse_raw_object(&text).ok())
        .unwrap_or_default();
    let merged = ev8_util::json::merge_raw_object(&existing, entries, |key| key.contains('/'));
    std::fs::write(&path, merged)?;
    Ok(path)
}

/// The bench-results path: `EV8_BENCH_JSON` if set (the CI smoke points
/// it at a scratch file so one-sample runs never touch the committed,
/// properly-sampled numbers), else `BENCH_sim.json` at the workspace
/// root.
pub fn bench_json_path() -> String {
    std::env::var("EV8_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").into())
}

/// Prints the standard run header for an experiment binary.
pub fn print_header(what: &str, scale: f64) {
    println!(
        "EV8 branch predictor reproduction — {what} (scale {scale} of 100M instructions, {} workers)",
        workers()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale() {
        assert_eq!(parse_scale(None), 0.25);
        assert_eq!(parse_scale(Some("0.5".into())), 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn garbage_scale_rejected() {
        parse_scale(Some("not-a-number".into()));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn negative_scale_rejected() {
        parse_scale(Some("-1".into()));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn infinite_scale_rejected() {
        parse_scale(Some("inf".into()));
    }

    #[test]
    fn workers_positive() {
        assert!(workers() >= 1);
    }
}
