//! Experiment driver and benchmarks for the EV8 reproduction.
//!
//! One binary regenerates every table and figure of the paper, plus the
//! extension studies, from the registry [`EXPERIMENTS`]:
//!
//! ```text
//! cargo run --release -p ev8-bench --bin experiments -- table1
//! cargo run --release -p ev8-bench --bin experiments -- fig5 0.02
//! cargo run --release -p ev8-bench --bin experiments -- all      # everything
//! ```
//!
//! The optional scale is the fraction of the paper's 100M instructions
//! per benchmark. Without it, `EV8_SCALE` sets it, and without that it is
//! [`DEFAULT_SCALE`] (25M instructions per benchmark: minutes, not
//! hours). `EV8_CSV_DIR=<dir>` also dumps every printed table as CSV.
//! The `corpus` binary builds, verifies and lists the on-disk trace
//! corpus.
//!
//! Benches live in `benches/`, plain `fn main()` binaries that measure
//! and record through one module, [`measure`] (paired interleaved
//! samples, recorded into `BENCH_sim.json`), so `cargo bench` runs fully
//! offline. Every bench that takes a trace scale reads `EV8_SCALE`
//! through [`scale_from_env`], each with its own recorded default;
//! `EV8_BENCH_SAMPLES` sets the sample count and `EV8_BENCH_JSON`
//! redirects the recorded results ([`measure::merge_bench_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;

use std::process::ExitCode;

use ev8_sim::experiments::{
    aliasing, attribution, backup, delayed_update, fig10, fig5, fig6, fig7, fig8, fig9, frontend,
    h2p, history_sweep, scaling, seu, shootout, smt, table1, table2, table3, update_traffic,
};
use ev8_sim::report::ExperimentReport;
use ev8_sim::sweep::default_workers;

/// The trace scale when neither the command line nor `EV8_SCALE` sets
/// one: 25M instructions per benchmark.
pub const DEFAULT_SCALE: f64 = 0.25;

const SCALE_VAR: &str = "EV8_SCALE";

/// Parses a trace scale: a positive, finite fraction of the paper's 100M
/// instructions per benchmark, written with a decimal point.
fn parse_scale(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!(
            "invalid trace scale {raw:?}: expected a positive finite number such as 0.25"
        )),
    }
}

/// The scale `raw` gives, or `default` when there is none.
fn scale_or(raw: Option<&str>, default: f64) -> Result<f64, String> {
    raw.map_or(Ok(default), parse_scale)
}

/// The trace scale `EV8_SCALE` sets, or `default` when it is unset, for
/// the `corpus` binary and every bench that takes a scale. It reads the
/// environment only, since `cargo bench` owns the command line.
///
/// # Panics
///
/// Panics, naming the variable, when its value is not a positive finite
/// number.
pub fn scale_from_env(default: f64) -> f64 {
    scale_or(env_scale().as_deref(), default).unwrap_or_else(|e| panic!("{SCALE_VAR}: {e}"))
}

/// The value of `EV8_SCALE`: the one reader of the variable, for
/// [`scale_from_env`] and the experiment driver.
fn env_scale() -> Option<String> {
    std::env::var_os(SCALE_VAR).map(|v| v.to_string_lossy().into_owned())
}

/// One entry of the experiment registry.
#[derive(Debug)]
pub struct Experiment {
    /// The name the `experiments` binary takes.
    pub name: &'static str,
    /// The title of its run header.
    pub title: &'static str,
    /// Builds its report from a trace scale and a worker count.
    pub run: fn(f64, usize) -> ExperimentReport,
    /// False for a report that reads no trace (Table 1, a configuration
    /// print): its header reports scale 0.
    pub scaled: bool,
    /// The scale `experiments all` runs it at, given the requested one;
    /// `None` leaves it out of `all`.
    pub in_all: Option<fn(f64) -> f64>,
}

const fn entry(
    name: &'static str,
    title: &'static str,
    run: fn(f64, usize) -> ExperimentReport,
    in_all: Option<fn(f64) -> f64>,
) -> Experiment {
    Experiment {
        name,
        title,
        run,
        scaled: true,
        in_all,
    }
}

/// `all` runs the entry at the requested scale.
const FULL: Option<fn(f64) -> f64> = Some(|scale| scale);
/// `all` runs the entry at a tenth of the requested scale, floored at
/// 0.002: the grids that multiply benchmarks by rates, targets or extra
/// workloads, kept inside the full evaluation's wall clock.
const TENTH: Option<fn(f64) -> f64> = Some(|scale| (scale * 0.1).max(0.002));

/// Every experiment, in the order `experiments all` runs them: Tables
/// 1-3, Figures 5-10, the §8.1.1 methodology check and the extension
/// studies, then the two studies `all` leaves out.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        scaled: false,
        ..entry("table1", "Table 1", |_, _| table1::report(), FULL)
    },
    entry("table2", "Table 2", |s, _| table2::report(s), FULL),
    entry("table3", "Table 3", |s, _| table3::report(s), FULL),
    entry("fig5", "Figure 5", fig5::report, FULL),
    entry("fig6", "Figure 6", fig6::report, FULL),
    entry("fig7", "Figure 7", fig7::report, FULL),
    entry("fig8", "Figure 8", fig8::report, FULL),
    entry("fig9", "Figure 9", fig9::report, FULL),
    entry("fig10", "Figure 10", fig10::report, FULL),
    entry(
        "delayed_update",
        "delayed-update methodology check",
        |s, w| delayed_update::report(s, w, 64),
        FULL,
    ),
    entry(
        "frontend",
        "front-end substrate",
        |s, _| frontend::report(s),
        FULL,
    ),
    entry(
        "smt",
        "SMT interference",
        |s, _| smt::report(s),
        Some(|scale| scale * 0.2),
    ),
    entry("backup", "backup hierarchy", backup::report, FULL),
    entry(
        "history_sweep",
        "history-length sweep",
        history_sweep::report,
        TENTH,
    ),
    entry(
        "update_traffic",
        "update-policy traffic",
        update_traffic::report,
        FULL,
    ),
    entry("attribution", "attribution", attribution::report, FULL),
    entry("seu", "SEU resilience", seu::report, TENTH),
    entry("shootout", "shootout", shootout::report, FULL),
    entry("h2p", "h2p", h2p::report, TENTH),
    entry("aliasing", "aliasing pressure", aliasing::report, None),
    entry(
        "scaling",
        "trace-length convergence",
        |s, w| scaling::report("vortex", s, w),
        None,
    ),
];

/// The first line of the `experiments` usage message.
const USAGE: &str = "usage: experiments <name|all> [scale]";

fn usage(problem: &str) -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "{problem}{USAGE}\n  name:  all {}\n  scale: fraction of 100M instructions per benchmark \
         (default: {SCALE_VAR}, else {DEFAULT_SCALE})",
        names.join(" ")
    )
}

/// Parses the `experiments` arguments, `<name|all> [scale]`, into the
/// experiment to run (`None` for `all`) and its scale: the command
/// line's, else `env_scale` (the value of `EV8_SCALE`), else
/// [`DEFAULT_SCALE`]. Any other shape, an unknown name, a scale that
/// [`parse_scale`] refuses, or a `scaling` scale below its smallest
/// probe yields the usage message.
fn parse_args(
    args: &[String],
    env_scale: Option<&str>,
) -> Result<(Option<&'static Experiment>, f64), String> {
    let (name, scale) = match args {
        [name] => (
            name,
            scale_or(env_scale, DEFAULT_SCALE).map_err(|e| format!("{SCALE_VAR}: {e}")),
        ),
        [name, scale] => (name, parse_scale(scale)),
        _ => return Err(usage("")),
    };
    let scale = scale.map_err(|e| usage(&format!("{e}\n")))?;
    if name == "all" {
        return Ok((None, scale));
    }
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        return Err(usage(&format!("unknown experiment {name:?}\n")));
    };
    // `scaling` compares the probe scales up to the requested one, so it
    // needs at least the smallest.
    let floor = scaling::SCALES[0];
    if experiment.name == "scaling" && scale < floor {
        return Err(usage(&format!(
            "experiment scaling needs a scale of at least {floor}, its smallest probe; got {scale}\n"
        )));
    }
    Ok((Some(experiment), scale))
}

/// The `experiments` binary: given its arguments (without the program
/// name), prints the run header, then the report of the named
/// experiment or of every `all` entry at its `all` scale. A bad command
/// line gets the usage message on stderr and exit status 2.
pub fn experiments_main(args: &[String]) -> ExitCode {
    let (experiment, scale) = match parse_args(args, env_scale().as_deref()) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let workers = default_workers();
    match experiment {
        Some(e) => {
            print_header(e.title, if e.scaled { scale } else { 0.0 }, workers);
            emit((e.run)(scale, workers));
        }
        None => {
            print_header("full evaluation", scale, workers);
            for e in EXPERIMENTS {
                if let Some(at) = e.in_all {
                    emit((e.run)(at(scale), workers));
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn print_header(what: &str, scale: f64, workers: usize) {
    println!(
        "EV8 branch predictor reproduction — {what} (scale {scale} of 100M instructions, {workers} workers)"
    );
    println!();
}

/// Prints a report, and writes its CSV into `EV8_CSV_DIR` when that is
/// set.
fn emit(report: ExperimentReport) {
    if let Some(dir) = std::env::var_os("EV8_CSV_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create the EV8_CSV_DIR directory");
        report.write_csv(&dir).expect("write CSV into EV8_CSV_DIR");
    }
    println!("{report}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_accepts_positive_decimals() {
        assert_eq!(parse_scale("0.5"), Ok(0.5));
        assert_eq!(parse_scale("0.002"), Ok(0.002));
        assert_eq!(parse_scale("1"), Ok(1.0));
    }

    #[test]
    fn scale_defaults_when_unset() {
        assert_eq!(scale_or(None, DEFAULT_SCALE), Ok(0.25));
        assert_eq!(scale_or(Some("0.5"), DEFAULT_SCALE), Ok(0.5));
        assert!(scale_or(Some("0,002"), DEFAULT_SCALE).is_err());
    }

    #[test]
    fn scale_refuses_what_it_cannot_run() {
        for bad in ["0,002", "-1", "0", "inf", "NaN", "", "not-a-number"] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.contains("invalid trace scale"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate experiment name");
        assert!(!names.contains(&"all"), "`all` names the whole registry");
    }

    #[test]
    fn all_runs_the_full_evaluation_in_order() {
        let in_all: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all.is_some())
            .map(|e| e.name)
            .collect();
        assert_eq!(
            in_all,
            [
                "table1",
                "table2",
                "table3",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "delayed_update",
                "frontend",
                "smt",
                "backup",
                "history_sweep",
                "update_traffic",
                "attribution",
                "seu",
                "shootout",
                "h2p",
            ]
        );
        let at = |name: &str, scale: f64| {
            let e = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
            e.in_all.expect("in all")(scale)
        };
        assert_eq!(at("fig5", 0.25), 0.25);
        assert_eq!(at("smt", 0.25), 0.25 * 0.2);
        for name in ["history_sweep", "seu", "h2p"] {
            assert_eq!(at(name, 0.25), 0.25 * 0.1);
            assert_eq!(at(name, 0.002), 0.002, "{name}: floored");
        }
        let scale_free: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| !e.scaled)
            .map(|e| e.name)
            .collect();
        assert_eq!(scale_free, ["table1"]);
    }

    #[test]
    fn arguments_name_an_experiment_or_all() {
        let (one, scale) = parse_args(&args(&["fig5", "0.02"]), Some("0.5")).unwrap();
        assert_eq!(one.map(|e| e.name), Some("fig5"));
        assert_eq!(scale, 0.02, "the command line beats EV8_SCALE");
        let (all, scale) = parse_args(&args(&["all"]), None).unwrap();
        assert!(all.is_none());
        assert_eq!(scale, DEFAULT_SCALE);
        let (_, scale) = parse_args(&args(&["all"]), Some("0.5")).unwrap();
        assert_eq!(scale, 0.5);
    }

    #[test]
    fn bad_command_lines_get_the_usage_line_and_a_failing_exit() {
        for bad in [
            &[][..],
            &["nope"],
            &["fig5", "0,002"],
            &["fig5", "0.02", "extra"],
        ] {
            let err = parse_args(&args(bad), None).unwrap_err();
            assert!(err.contains(USAGE), "{bad:?}: {err}");
            assert_eq!(experiments_main(&args(bad)), ExitCode::from(2), "{bad:?}");
        }
        assert!(parse_args(&args(&["nope"]), None)
            .unwrap_err()
            .starts_with("unknown experiment \"nope\""));
        let err = parse_args(&args(&["fig5"]), Some("0,002")).unwrap_err();
        assert!(err.starts_with("EV8_SCALE: invalid trace scale"), "{err}");
    }

    #[test]
    fn scaling_refuses_a_scale_below_its_smallest_probe() {
        let floor = scaling::SCALES[0];
        let too_small = args(&["scaling", "0.002"]);
        for err in [
            parse_args(&too_small, None).unwrap_err(),
            parse_args(&args(&["scaling"]), Some("0.002")).unwrap_err(),
        ] {
            assert!(err.contains(&format!("at least {floor}")), "{err}");
            assert!(err.lines().next().unwrap().contains("got 0.002"), "{err}");
            assert!(err.contains(USAGE), "{err}");
        }
        assert_eq!(experiments_main(&too_small), ExitCode::from(2));
        let (e, scale) = parse_args(&args(&["scaling"]), Some(&floor.to_string())).unwrap();
        assert_eq!((e.map(|e| e.name), scale), (Some("scaling"), floor));
    }
}
