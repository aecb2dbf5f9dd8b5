//! Exact counts a run's outputs are checked against.
//!
//! At the default seed the counts come from `reference.tsv`, pinned in
//! the repository. At any other seed, under `--smoke`, or when blessing
//! (`EV8_BLESS_GOLDEN=1`), they come from the slow twin: the AoS
//! `simulate` over freshly generated traces, run after the timed passes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ev8_sim::experiments::Factory;
use ev8_sim::sweep::run_parallel;
use ev8_sim::{simulate, SimResult};
use ev8_workloads::ProgramSpec;

use crate::inputs::RunConfig;

const PINNED: &str = include_str!("../reference.tsv");
const PINNED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.tsv");

/// The scoreboard of one (benchmark, predictor) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub instructions: u64,
    pub conditional_branches: u64,
    pub mispredictions: u64,
}

impl From<&SimResult> for Counts {
    fn from(r: &SimResult) -> Self {
        Counts {
            instructions: r.instructions,
            conditional_branches: r.conditional_branches,
            mispredictions: r.mispredictions,
        }
    }
}

/// Expected counts keyed by (benchmark, predictor key).
pub type Expected = BTreeMap<(String, String), Counts>;

/// Threads the slow twin runs on, within the benchmark's two-thread load.
const TWIN_WORKERS: usize = 2;

/// Whether this run re-blesses the pinned reference.
fn blessing() -> bool {
    std::env::var_os("EV8_BLESS_GOLDEN").is_some()
}

/// The counts `workload`'s cells must match: pinned at the default seed
/// and full scale, the slow twin otherwise (and re-pinned when blessing).
pub fn expected(
    workload: &str,
    cfg: &RunConfig,
    specs: &[ProgramSpec],
    scale: f64,
    predictors: &[(&'static str, Factory)],
) -> Result<Expected, String> {
    let pinnable = cfg.seed == 0 && !cfg.smoke;
    if pinnable && !blessing() {
        return pinned(workload);
    }
    let rows = twin(specs, scale, predictors);
    if pinnable {
        bless(workload, &rows).map_err(|e| format!("blessing reference.tsv: {e}"))?;
    }
    Ok(rows)
}

/// The slow twin: each benchmark's AoS trace generated afresh and run
/// through the serial `simulate` for every predictor.
pub fn twin(specs: &[ProgramSpec], scale: f64, predictors: &[(&'static str, Factory)]) -> Expected {
    type Job = Box<dyn FnOnce() -> Vec<((String, String), Counts)> + Send>;
    let jobs: Vec<Job> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            let predictors = predictors.to_vec();
            Box::new(move || {
                let trace = spec.generate_scaled(scale);
                predictors
                    .iter()
                    .map(|(key, f)| {
                        let key = (spec.name.clone(), (*key).to_owned());
                        (key, Counts::from(&simulate(f(), &trace)))
                    })
                    .collect()
            }) as Job
        })
        .collect();
    run_parallel(jobs, TWIN_WORKERS)
        .into_iter()
        .flatten()
        .collect()
}

/// The pinned rows of `workload`.
fn pinned(workload: &str) -> Result<Expected, String> {
    let mut out = Expected::new();
    for (lineno, line) in PINNED.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("reference.tsv line {}: malformed", lineno + 1);
        if f.len() != 6 {
            return Err(bad());
        }
        if f[0] != workload {
            continue;
        }
        let n = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let counts = Counts {
            instructions: n(f[3])?,
            conditional_branches: n(f[4])?,
            mispredictions: n(f[5])?,
        };
        out.insert((f[1].to_owned(), f[2].to_owned()), counts);
    }
    if out.is_empty() {
        return Err(format!(
            "reference.tsv has no rows for {workload}; bless them with EV8_BLESS_GOLDEN=1 at --seed 0"
        ));
    }
    Ok(out)
}

/// Replaces `workload`'s rows in `reference.tsv` with `rows`, keeping
/// every other workload's rows. Takes effect at the next build.
fn bless(workload: &str, rows: &Expected) -> std::io::Result<()> {
    let current = std::fs::read_to_string(PINNED_PATH)?;
    let mut out = String::new();
    for line in current.lines() {
        if line.split_whitespace().next() != Some(workload) {
            out.push_str(line);
            out.push('\n');
        }
    }
    for ((bench, key), c) in rows {
        writeln!(
            out,
            "{workload} {bench} {key} {} {} {}",
            c.instructions, c.conditional_branches, c.mispredictions
        )
        .expect("writing to a String cannot fail");
    }
    std::fs::write(PINNED_PATH, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_rows_cover_every_checked_cell() {
        // 8 EV8 rows, the 6×8 Fig 5 grid, and the 3×8 full runs the
        // sampled estimates are measured against.
        assert_eq!(pinned("ev8_corpus").expect("pinned").len(), 8);
        assert_eq!(pinned("fig5_grid").expect("pinned").len(), 48);
        assert_eq!(pinned("sampled_suite").expect("pinned").len(), 24);
        assert!(pinned("no_such_workload").is_err());
    }
}
