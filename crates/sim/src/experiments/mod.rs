//! The paper's evaluation, experiment by experiment.
//!
//! Each submodule regenerates one table or figure of §8 on the synthetic
//! SPECINT95 suite (see `ev8-workloads` for the substitution rationale):
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — EV8 predictor configuration |
//! | [`table2`] | Table 2 — benchmark characteristics |
//! | [`table3`] | Table 3 — lghist/ghist compression ratio |
//! | [`fig5`] | Fig 5 — accuracy of global-history schemes |
//! | [`fig6`] | Fig 6 — penalty of `log2(size)` history lengths |
//! | [`fig7`] | Fig 7 — information-vector quality |
//! | [`fig8`] | Fig 8 — reducing table sizes |
//! | [`fig9`] | Fig 9 — wordline/index-function constraints |
//! | [`fig10`] | Fig 10 — limits of global history (4×1M predictor) |
//! | [`delayed_update`] | §8.1.1 — immediate vs commit-time update |
//!
//! Extension studies beyond the paper's figures:
//!
//! | Module | Topic |
//! |---|---|
//! | [`frontend`] | §2 substrate — line predictor / RAS / fetch blocks |
//! | [`history_sweep`] | §8.2 — history-length tuning methodology |
//! | [`smt`] | §3 — SMT interference on shared tables |
//! | [`backup`] | §9 — perceptron backup hierarchy |
//! | [`update_traffic`] | §4.2 — partial-update accuracy and write traffic |
//! | [`aliasing`] | §4 — interference vs static footprint |
//! | [`attribution`] | observability — per-component provenance, §6 invariants |
//! | [`h2p`] | taxonomy — the EV8/TAGE gap concentrates in the H2P branch tail |
//! | [`seu`] | robustness — misp/KI under soft-error injection |
//! | [`scaling`] | calibration — misp/KI convergence with trace length |
//! | [`shootout`] | cross-generation — bimodal/gshare/2Bc-gskew/TAGE at the EV8 budget |
//!
//! Every `report(scale, workers)` takes `scale` as a fraction of the
//! paper's 100M-instruction traces (1.0 = full length) and a worker
//! thread count for the parallel sweep. Every experiment walks the same
//! traces: the packed [`FlatTrace`]s of the process-wide trace cache
//! ([`suite_traces`], `spec95::cached`, `h2p::cached`), driven through
//! [`run_grid`]/[`simulate_many`], [`crate::simulate_flat`] or
//! [`crate::drive`].

use std::sync::Arc;

use ev8_predictors::observe::ConditionalBranchPredictor;
use ev8_predictors::BranchPredictor;
use ev8_trace::FlatTrace;
use ev8_workloads::spec95;

use crate::batch::simulate_many;
use crate::metrics::SimResult;
use crate::sweep::run_parallel;

pub mod aliasing;
pub mod attribution;
pub mod backup;
pub mod delayed_update;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod frontend;
pub mod h2p;
pub mod history_sweep;
pub mod scaling;
pub mod seu;
pub mod shootout;
pub mod smt;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod update_traffic;

/// A thread-safe predictor factory: experiments describe each predictor
/// configuration as a named constructor, instantiated fresh per
/// (config, benchmark) job.
pub type Factory = Arc<dyn Fn() -> Box<dyn BranchPredictor> + Send + Sync>;

/// Builds a [`Factory`] from a constructor closure.
pub fn factory<P, F>(f: F) -> Factory
where
    P: BranchPredictor + 'static,
    F: Fn() -> P + Send + Sync + 'static,
{
    Arc::new(move || Box::new(f()))
}

/// Like [`Factory`], but over the unified
/// [`ConditionalBranchPredictor`] capability bundle: the fault campaign
/// ([`seu`]) and the attribution study ([`attribution`]) need subjects
/// that also expose storage arrays and per-branch provenance, so they
/// quantify over this trait instead of a concrete predictor type.
pub type UnifiedFactory = Arc<dyn Fn() -> Box<dyn ConditionalBranchPredictor> + Send + Sync>;

/// Builds a [`UnifiedFactory`] from a constructor closure.
pub fn unified_factory<P, F>(f: F) -> UnifiedFactory
where
    P: ConditionalBranchPredictor + 'static,
    F: Fn() -> P + Send + Sync + 'static,
{
    Arc::new(move || Box::new(f()))
}

/// The eight SPECINT95-analogue traces at the given scale (fraction of
/// 100M instructions), as the packed [`FlatTrace`]s the process-wide
/// trace cache holds — the form every experiment walks, whether through
/// [`run_grid`]/[`simulate_many`], [`crate::simulate_flat`] or
/// [`crate::drive`].
///
/// Uncached benchmarks generate in parallel (one worker per distinct
/// key); on a warm cache this returns shared `Arc`s without generating
/// anything.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn suite_traces(scale: f64) -> Vec<Arc<FlatTrace>> {
    assert!(scale > 0.0, "scale must be positive");
    let jobs: Vec<Box<dyn FnOnce() -> Arc<FlatTrace> + Send>> = spec95::NAMES
        .iter()
        .map(|name| {
            Box::new(move || spec95::cached(name, scale).expect("all suite names are known"))
                as Box<dyn FnOnce() -> Arc<FlatTrace> + Send>
        })
        .collect();
    run_parallel(jobs, crate::sweep::default_workers())
}

/// Runs the full (config × trace) sweep; returns `results[config][trace]`.
///
/// Parallelism covers benchmarks — one job per trace — and batching
/// covers configurations: each job instantiates every config fresh and
/// steps all of them over its trace in a single [`simulate_many`] pass,
/// so the trace's memory traffic is paid once regardless of how many
/// configurations sweep over it. Results are bit-identical to the old
/// one-job-per-(config, trace) serial grid.
pub fn run_grid(
    traces: &[Arc<FlatTrace>],
    configs: &[(String, Factory)],
    workers: usize,
) -> Vec<Vec<SimResult>> {
    let factories: Vec<Factory> = configs.iter().map(|(_, f)| Arc::clone(f)).collect();
    let jobs: Vec<Box<dyn FnOnce() -> Vec<SimResult> + Send>> = traces
        .iter()
        .map(|trace| {
            let factories = factories.clone();
            let trace = Arc::clone(trace);
            Box::new(move || {
                let mut predictors: Vec<Box<dyn BranchPredictor>> =
                    factories.iter().map(|f| f()).collect();
                simulate_many(&mut predictors, &trace)
            }) as Box<dyn FnOnce() -> Vec<SimResult> + Send>
        })
        .collect();
    let per_trace = run_parallel(jobs, workers); // [trace][config]
    let mut grid: Vec<Vec<SimResult>> = (0..configs.len())
        .map(|_| Vec::with_capacity(traces.len()))
        .collect();
    for row in per_trace {
        debug_assert_eq!(row.len(), configs.len());
        for (config_idx, result) in row.into_iter().enumerate() {
            grid[config_idx].push(result);
        }
    }
    grid
}

/// Arithmetic mean of misp/KI over a row of results (the cross-benchmark
/// average column the figures eyeball).
pub fn mean_mispki(results: &[SimResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.misp_per_ki()).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_predictors::bimodal::Bimodal;

    #[test]
    fn suite_traces_generates_all_eight() {
        // Each cached trace holds, record by record, exactly what a fresh
        // generation of its benchmark holds.
        let traces = suite_traces(0.0005);
        assert_eq!(traces.len(), 8);
        for (t, spec) in traces.iter().zip(spec95::suite()) {
            let fresh = spec.generate_scaled(0.0005);
            assert_eq!(t.name(), spec.name);
            assert!(t.conditional_count() > 0);
            assert_eq!(t.instruction_count(), fresh.instruction_count());
            assert_eq!(t.len(), fresh.len());
            for (i, (cached, fresh)) in t.iter().zip(fresh.records()).enumerate() {
                assert_eq!(cached, *fresh, "{} record {i}", spec.name);
            }
        }
    }

    #[test]
    fn grid_shape_and_ordering() {
        let traces = suite_traces(0.0002);
        let configs = vec![
            ("bimodal-small".to_owned(), factory(|| Bimodal::new(8))),
            ("bimodal-large".to_owned(), factory(|| Bimodal::new(14))),
        ];
        let grid = run_grid(&traces, &configs, 4);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].len(), 8);
        for (row, _) in grid.iter().zip(&configs) {
            for (r, t) in row.iter().zip(&traces) {
                assert_eq!(r.trace, t.name());
            }
        }
        let m = mean_mispki(&grid[0]);
        assert!(m.is_finite() && m >= 0.0);
    }

    #[test]
    fn grid_matches_serial_simulation() {
        // The slow twin: serial AoS simulation over fresh generation.
        let traces = suite_traces(0.0002);
        let configs = vec![("bimodal".to_owned(), factory(|| Bimodal::new(10)))];
        let grid = run_grid(&traces, &configs, 2);
        for (r, spec) in grid[0].iter().zip(spec95::suite()) {
            let fresh = spec.generate_scaled(0.0002);
            assert_eq!(*r, crate::simulator::simulate(Bimodal::new(10), &fresh));
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean_mispki(&[]), 0.0);
    }
}
