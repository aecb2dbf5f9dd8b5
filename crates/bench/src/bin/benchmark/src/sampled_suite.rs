//! `sampled_suite`: SimPoint-style phase sampling for the EV8, gshare and
//! TAGE over the suite. Interval profiling, k-means and the chained
//! predictor's re-warm jumps use the predictors unlike any long run, and
//! the estimate's accuracy is an output: a speed-up that costs accuracy
//! shows as a failed check or a larger error.

use std::sync::Arc;

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_sim::experiments::{factory, Factory};
use ev8_sim::{simulate_sampled, SamplingConfig};
use ev8_trace::FlatTrace;
use ev8_workloads::ProgramSpec;

use crate::fig5_grid::flat_suite;
use crate::harness::{Cell, Pass, Workload};
use crate::inputs::RunConfig;
use crate::metrics::Outcome;
use crate::reference::{self, Counts, Expected};
use crate::spans::Ctx;

/// The sampling study's roster: the paper's EV8 bracketed by gshare and
/// TAGE at the EV8's budget.
pub fn families() -> [(&'static str, Factory); 3] {
    [
        ("ev8", factory(Ev8Predictor::ev8)),
        ("gshare", factory(|| Gshare::new(17, 17))),
        ("tage", factory(|| Tage::new(TageConfig::ev8_budget()))),
    ]
}

/// |estimate − full| / full misprediction count (equal instruction
/// counts make it the misp/KI error).
pub fn relative_error(estimate: u64, full: u64) -> f64 {
    (estimate as f64 - full as f64).abs() / full.max(1) as f64
}

pub struct SampledSuite {
    flats: Vec<Arc<FlatTrace>>,
    plans: Vec<SamplingConfig>,
    /// Records simulated over total records, per cell of the last pass.
    reductions: Vec<f64>,
    scale: f64,
}

impl Workload for SampledSuite {
    const NAME: &'static str = "sampled_suite";

    fn scale(cfg: &RunConfig) -> f64 {
        cfg.suite_scale()
    }

    fn setup(cfg: &RunConfig, specs: &[ProgramSpec], ctx: Ctx) -> Result<Self, String> {
        let scale = Self::scale(cfg);
        let flats = flat_suite(specs, scale, ctx);
        let plans = flats
            .iter()
            .map(|f| SamplingConfig::auto(f.len()))
            .collect();
        Ok(SampledSuite {
            flats,
            plans,
            reductions: Vec::new(),
            scale,
        })
    }

    fn pass(&mut self, ctx: Ctx, _index: usize) -> Pass {
        let mut pass = Pass::default();
        self.reductions.clear();
        let families = families();
        for (i, (flat, plan)) in self.flats.iter().zip(&self.plans).enumerate() {
            for (key, f) in &families {
                let run = ctx.span("sim.sampling.simulate_sampled", i as u64, |_| {
                    simulate_sampled(f, flat, plan)
                });
                pass.instructions += flat.instruction_count();
                self.reductions.push(run.reduction());
                pass.cells.push(Cell {
                    bench: flat.name().to_owned(),
                    predictor: key,
                    counts: (&run.estimate).into(),
                });
            }
        }
        pass
    }

    /// The full runs the estimates are measured against.
    fn expected(&self, cfg: &RunConfig, specs: &[ProgramSpec]) -> Result<Expected, String> {
        reference::expected(Self::NAME, cfg, specs, self.scale, &families())
    }

    /// Instruction and branch counts are exact; the misprediction
    /// estimate must land within half to double the full run's, the
    /// repository's sanity band for sampled estimates.
    fn agrees(cell: &Cell, full: &Counts) -> bool {
        let ratio = cell.counts.mispredictions as f64 / full.mispredictions.max(1) as f64;
        cell.counts.instructions == full.instructions
            && cell.counts.conditional_branches == full.conditional_branches
            && (0.5..=2.0).contains(&ratio)
    }

    fn describe(&self, first: &Pass, expected: &Expected, out: &mut Outcome) {
        let worst = first
            .cells
            .iter()
            .filter_map(|c| {
                let full = expected.get(&(c.bench.clone(), c.predictor.to_owned()))?;
                Some(relative_error(c.counts.mispredictions, full.mispredictions))
            })
            .fold(0.0, f64::max);
        let reduction = self
            .reductions
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        out.notes.push(format!(
            "sampled estimates over the full inputs: worst relative error {worst:.4}, least reduction {reduction:.2}x"
        ));
    }
}
