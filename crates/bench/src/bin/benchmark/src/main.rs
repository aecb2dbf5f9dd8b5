//! End-to-end pipeline benchmark of the EV8 reproduction.
//!
//! ```text
//! benchmark <workload|all> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in a process of its own (`all` starts one per
//! workload), prints a table of every metric with its unit, and ends with
//! one JSON line: `correct`, `attempted`, `failed` and the metrics —
//! end-to-end ones untraced, per-layer ones with `--trace`. The exit code
//! is non-zero when any operation failed its correctness check. See
//! README.md for the workloads and the metric definitions.

mod ev8_corpus;
mod fig5_grid;
mod harness;
mod inputs;
mod metrics;
mod panel;
mod reference;
mod replay;
mod sampled_suite;
mod server_gshare;
mod spans;
mod stats;

use std::process::{Command, ExitCode};

use inputs::RunConfig;
use metrics::Outcome;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["ev8_corpus", "fig5_grid", "sampled_suite", "server_gshare"];
/// Seconds of timed passes when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    cfg: RunConfig,
}

const USAGE: &str = "usage: benchmark <ev8_corpus|fig5_grid|sampled_suite|server_gshare|all> \
                     [--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                cfg.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => cfg.smoke = true,
            other if !other.starts_with('-') && workload.is_none() => {
                workload = Some(other.to_owned())
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("no workload named")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args { workload, cfg })
}

fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    match name {
        "ev8_corpus" => harness::run::<ev8_corpus::Ev8Corpus>(cfg),
        "fig5_grid" => harness::run::<fig5_grid::Fig5Grid>(cfg),
        "sampled_suite" => harness::run::<sampled_suite::SampledSuite>(cfg),
        "server_gshare" => harness::run::<server_gshare::ServerGshare>(cfg),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(cfg: &RunConfig) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }]);
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("running {name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, cfg } = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return match run_all(&cfg) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = run_workload(&workload, &cfg);
    print!("{}", outcome.table());
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that run workloads or measure this process's
    /// memory, so they neither contend nor see each other's allocations.
    pub fn heavy_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    /// The `name` values of one metric list in BENCHMARK.json.
    fn declared(section: &str) -> BTreeSet<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let rest = &BENCHMARK_JSON[start..];
        let list = &rest[..rest.find(']').expect("metric list closes")];
        list.split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    fn smoke(trace: bool) -> RunConfig {
        RunConfig {
            seed: 0,
            seconds: 1.0,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn every_workload_passes_its_smoke_run_with_the_declared_metrics() {
        let _serial = heavy_lock();
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        for trace in [false, true] {
            let want = if trace { &per_layer } else { &end_to_end };
            for name in WORKLOADS {
                let out = run_workload(name, &smoke(trace));
                assert!(out.correct(), "{name} (trace {trace}):\n{}", out.table());
                assert!(out.attempted > 0);
                let got: BTreeSet<String> = out.values.keys().map(|k| k.to_string()).collect();
                assert_eq!(&got, want, "{name} (trace {trace}) metric names");
            }
        }
    }

    #[test]
    fn declared_lists_match_benchmark_json() {
        let names = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, _)| n.to_string())
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(names(&metrics::END_TO_END), declared("end_to_end"));
        assert_eq!(names(&metrics::PER_LAYER), declared("per_layer"));
        for (name, unit) in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is not declared with unit {unit}"
            );
        }
        for w in WORKLOADS {
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{w}\"")),
                "{w} not declared"
            );
        }
    }

    #[test]
    fn arguments_parse_in_both_styles() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse(&args(
            "--workload fig5_grid --seed 7 --seconds 10 --trace 1",
        ))
        .expect("parses");
        assert_eq!(a.workload, "fig5_grid");
        assert_eq!(
            (a.cfg.seed, a.cfg.seconds, a.cfg.trace, a.cfg.smoke),
            (7, 10.0, true, false)
        );
        let b = parse(&args("all --trace --smoke")).expect("parses");
        assert_eq!(b.workload, "all");
        assert!(b.cfg.trace && b.cfg.smoke);
        assert_eq!(b.cfg.seconds, DEFAULT_SECONDS);
        assert!(
            !parse(&args("ev8_corpus --trace 0"))
                .expect("parses")
                .cfg
                .trace
        );
        assert!(parse(&args("doom")).is_err());
        assert!(parse(&args("ev8_corpus --seconds 0")).is_err());
        assert!(parse(&args("ev8_corpus --seed")).is_err());
        assert!(parse(&args("")).is_err());
    }
}
