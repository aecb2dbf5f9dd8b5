//! `fig5_grid`: the heterogeneous config grid Figs 5–10 and the shootout
//! run — `run_grid` with the Fig 5 roster over in-RAM flat traces. No EV8
//! and no corpus decode, so it is the control for `ev8-core` and
//! `ev8-trace` changes; the only workload with two-thread fan-out, so it
//! exposes stragglers.

use std::sync::Arc;

use ev8_sim::experiments::{fig5, run_grid, Factory};
use ev8_trace::FlatTrace;
use ev8_workloads::ProgramSpec;

use crate::harness::{Cell, Pass, Workload};
use crate::inputs::{self, RunConfig};
use crate::reference::{self, Expected};
use crate::spans::Ctx;

/// Worker threads `run_grid` fans out to.
pub const GRID_WORKERS: usize = 2;

/// The Fig 5 roster's labels, in order, and the stable keys metrics and
/// the reference use for them.
const ROSTER: [(&str, &str); 6] = [
    ("2Bc-gskew 256Kb", "twobcgskew_256k"),
    ("2Bc-gskew 512Kb", "twobcgskew_512k"),
    ("bimode 544Kb", "bimode_544k"),
    ("gshare 2Mb", "gshare_2m"),
    ("YAGS 288Kb", "yags_288k"),
    ("YAGS 576Kb", "yags_576k"),
];

/// `fig5::configs()` under stable keys; an error if the roster changed.
pub fn roster() -> Result<Vec<(&'static str, Factory)>, String> {
    let configs = fig5::configs();
    let labels: Vec<&str> = configs.iter().map(|(label, _)| label.as_str()).collect();
    if labels != ROSTER.map(|(label, _)| label) {
        return Err(format!("the Fig 5 roster changed: {labels:?}"));
    }
    Ok(ROSTER
        .iter()
        .map(|(_, key)| *key)
        .zip(configs.into_iter().map(|(_, f)| f))
        .collect())
}

/// Builds the flat view of each benchmark's trace, dropping the AoS trace
/// as soon as it is flattened.
pub fn flat_suite(specs: &[ProgramSpec], scale: f64, ctx: Ctx) -> Vec<Arc<FlatTrace>> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let trace = inputs::generate(ctx, spec, scale, i as u64);
            Arc::new(ctx.span("trace.flat.build", i as u64, |_| {
                FlatTrace::from_trace(&trace)
            }))
        })
        .collect()
}

pub struct Fig5Grid {
    flats: Vec<Arc<FlatTrace>>,
    configs: Vec<(String, Factory)>,
    scale: f64,
}

impl Workload for Fig5Grid {
    const NAME: &'static str = "fig5_grid";

    fn scale(cfg: &RunConfig) -> f64 {
        cfg.suite_scale()
    }

    fn setup(cfg: &RunConfig, specs: &[ProgramSpec], ctx: Ctx) -> Result<Self, String> {
        let scale = Self::scale(cfg);
        let flats = flat_suite(specs, scale, ctx);
        let configs = roster()?
            .into_iter()
            .map(|(key, f)| (key.to_owned(), f))
            .collect();
        Ok(Fig5Grid {
            flats,
            configs,
            scale,
        })
    }

    fn pass(&mut self, ctx: Ctx, _index: usize) -> Pass {
        let grid = ctx.span("sim.run_grid", 0, |_| {
            run_grid(&self.flats, &self.configs, GRID_WORKERS)
        });
        let mut pass = Pass::default();
        for ((_, key), row) in ROSTER.iter().zip(&grid) {
            for r in row {
                pass.instructions += r.instructions;
                pass.cells.push(Cell {
                    bench: r.trace.clone(),
                    predictor: key,
                    counts: r.into(),
                });
            }
        }
        pass
    }

    fn expected(&self, cfg: &RunConfig, specs: &[ProgramSpec]) -> Result<Expected, String> {
        reference::expected(Self::NAME, cfg, specs, self.scale, &roster()?)
    }
}
