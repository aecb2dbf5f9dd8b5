//! `ev8_corpus`: the paper's own predictor over the suite, streamed from
//! an on-disk corpus — the path every full-suite experiment takes from
//! disk, and the only workload where `ev8-core` dominates.

use ev8_core::Ev8Predictor;
use ev8_predictors::BranchPredictor;
use ev8_sim::experiments::factory;
use ev8_workloads::corpus::{CatalogEntry, CorpusStore};
use ev8_workloads::ProgramSpec;

use crate::harness::{Cell, Pass, Workload};
use crate::inputs::{self, RunConfig, TempDir};
use crate::reference::{self, Counts, Expected};
use crate::spans::Ctx;

pub struct Ev8Corpus {
    store: CorpusStore,
    entries: Vec<CatalogEntry>,
    scale: f64,
    // Last, so the store's files go after everything that reads them.
    _dir: TempDir,
}

impl Workload for Ev8Corpus {
    const NAME: &'static str = "ev8_corpus";

    fn scale(cfg: &RunConfig) -> f64 {
        cfg.suite_scale()
    }

    fn setup(cfg: &RunConfig, specs: &[ProgramSpec], ctx: Ctx) -> Result<Self, String> {
        let dir = TempDir(inputs::unique_path("corpus", ""));
        let mut store = CorpusStore::open(&dir.0).map_err(|e| format!("corpus store: {e}"))?;
        let scale = Self::scale(cfg);
        let entries = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                ctx.span("workloads.corpus.build", i as u64, |_| {
                    store.build(spec, scale)
                })
                .map_err(|e| format!("building {}: {e}", spec.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(Ev8Corpus {
            store,
            entries,
            scale,
            _dir: dir,
        })
    }

    fn pass(&mut self, ctx: Ctx, _index: usize) -> Pass {
        let mut pass = Pass::default();
        for (i, entry) in self.entries.iter().enumerate() {
            match ctx.span("bench", i as u64, |ctx| {
                stream(&self.store, entry, ctx, i as u64)
            }) {
                Ok(counts) => {
                    pass.instructions += counts.instructions;
                    pass.cells.push(Cell {
                        bench: entry.benchmark.clone(),
                        predictor: "ev8",
                        counts,
                    });
                }
                Err(e) => pass.errors.push(format!("{}: {e}", entry.benchmark)),
            }
        }
        pass
    }

    fn expected(&self, cfg: &RunConfig, specs: &[ProgramSpec]) -> Result<Expected, String> {
        reference::expected(
            Self::NAME,
            cfg,
            specs,
            self.scale,
            &[("ev8", factory(Ev8Predictor::ev8))],
        )
    }
}

/// Streams one corpus entry through a fresh EV8, checking that the
/// records decoded, the records stepped and the scoreboard agree with the
/// entry's pinned counts.
fn stream(
    store: &CorpusStore,
    entry: &CatalogEntry,
    ctx: Ctx,
    request: u64,
) -> Result<Counts, String> {
    let mut reader = ctx
        .span("trace.corpus.open", request, |_| store.open_reader(entry))
        .map_err(|e| e.to_string())?;
    let mut predictor = Ev8Predictor::ev8();
    let mut counts = Counts::default();
    let (mut decoded, mut conditional) = (0u64, 0u64);
    while let Some(block) = ctx
        .span("trace.corpus.decode", request, |_| reader.next_block())
        .map_err(|e| e.to_string())?
    {
        decoded += block.len() as u64;
        conditional += block.conditional_count();
        counts.instructions += block.instruction_count();
        ctx.span("core.ev8.step", request, |_| {
            block.for_each(|r| {
                if let Some(p) = predictor.predict_and_update(r) {
                    counts.conditional_branches += 1;
                    counts.mispredictions += u64::from(p != r.outcome);
                }
            })
        });
    }
    if decoded != entry.record_count || counts.instructions != entry.instruction_count {
        return Err(format!(
            "decoded {decoded} records / {} instructions, catalog pins {} / {}",
            counts.instructions, entry.record_count, entry.instruction_count
        ));
    }
    if counts.conditional_branches != conditional {
        return Err(format!(
            "predicted {} conditional branches of {conditional} decoded",
            counts.conditional_branches
        ));
    }
    if predictor.bank_collisions() != 0 {
        return Err(format!(
            "{} §6 bank collisions",
            predictor.bank_collisions()
        ));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The corpus path at the golden scale reproduces every `ev8` row of
    /// the repository's golden misprediction fixture.
    #[test]
    fn corpus_path_reproduces_golden_ev8_rows() {
        const GOLDEN: &str = include_str!("../../../../../../tests/golden_misp.fixture");
        let cfg = RunConfig {
            seed: 0,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        assert_eq!(cfg.suite_scale(), 0.002, "the fixture's scale");
        let mut w = Ev8Corpus::setup(&cfg, &inputs::suite(0), Ctx::root(None)).expect("set-up");
        let pass = w.pass(Ctx::root(None), 0);
        assert!(pass.errors.is_empty(), "{:?}", pass.errors);
        let rows: Vec<String> = GOLDEN
            .lines()
            .filter(|l| l.split_whitespace().nth(1) == Some("ev8"))
            .map(str::to_owned)
            .collect();
        assert_eq!(rows.len(), 8);
        let got: Vec<String> = pass
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{} ev8 {} {} {}",
                    c.bench,
                    c.counts.instructions,
                    c.counts.conditional_branches,
                    c.counts.mispredictions
                )
            })
            .collect();
        assert_eq!(got, rows);
    }
}
