//! The EV8 step split into its stages, from the outside.
//!
//! `Ev8Predictor::predict_and_update` fuses fetch-block formation, §6 bank
//! sequencing, lghist insertion, the §7 index functions, the table read
//! and the §4.2 partial update. The replay rebuilds the same front end
//! from the public pieces and runs it five times over the records, each
//! run with one more stage switched on; a stage's cost is the difference
//! between the run that adds it and the run before. The update has no
//! public entry point, so its cost is what the composed step takes beyond
//! the run with every other stage on. Every run is fused like the real
//! step, so the costs add up to the step by construction (a difference
//! within timing noise of zero can come out slightly negative).
//!
//! An untimed run then steps the real predictor beside the full replay
//! and counts records after which their `(visible_history, current_bank)`
//! differ; the stage costs mean something only while that stays zero.

use std::hint::black_box;
use std::time::Instant;

use ev8_core::banks::{BankId, BankSequencer};
use ev8_core::fetch::{FetchBlock, FetchState};
use ev8_core::index::IndexInputs;
use ev8_core::lghist::DelayedLghist;
use ev8_core::predictor::Indices;
use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode, IndexScheme, WordlineMode};
use ev8_predictors::BranchPredictor;
use ev8_trace::{BranchRecord, Pc};

use crate::spans::Ctx;

const FETCH: u8 = 1;
const BANKS: u8 = 2;
const LGHIST: u8 = 3;
const INDEX: u8 = 4;
const TABLE_READ: u8 = 5;

/// Per-stage host seconds over the replayed records.
pub struct Replay {
    pub fetch: f64,
    pub banks: f64,
    pub lghist: f64,
    pub index: f64,
    pub table_read: f64,
    /// The composed step minus the run with every stage above.
    pub update: f64,
    /// The composed step.
    pub step: f64,
    /// Conditional branches the full replay indexed.
    pub conditional_branches: u64,
    /// Records after which replay and predictor disagreed.
    pub mismatches: u64,
    /// Successive-block bank collisions, replay and predictor together.
    pub collisions: u64,
}

/// The EV8 front end rebuilt from its public parts.
struct FrontEnd {
    fetch: FetchState,
    sequencer: BankSequencer,
    last_start: Option<Pc>,
    bank: BankId,
    lghist: DelayedLghist,
    completed: Vec<FetchBlock>,
    wordline: WordlineMode,
}

impl FrontEnd {
    fn new(config: &Ev8Config) -> Self {
        let HistoryMode::Lghist {
            path_bit,
            three_blocks_old,
            ..
        } = config.history
        else {
            unreachable!("the shipping EV8 uses lghist");
        };
        let IndexScheme::Ev8 { wordline } = config.index else {
            unreachable!("the shipping EV8 uses the §7 index functions");
        };
        FrontEnd {
            fetch: FetchState::new(),
            sequencer: BankSequencer::new(),
            last_start: None,
            bank: 0,
            lghist: DelayedLghist::new(config.max_history().min(64), path_bit, three_blocks_old),
            completed: Vec::with_capacity(8),
            wordline,
        }
    }

    /// Takes in the blocks the fetch state just completed: a bank for
    /// each block that starts, an lghist entry for each block.
    #[inline(always)]
    fn absorb<const LEVEL: u8>(&mut self) {
        for b in &self.completed {
            if LEVEL >= BANKS && self.last_start != Some(b.start) {
                self.bank = self.sequencer.next_bank(b.start);
                self.last_start = Some(b.start);
            }
            if LEVEL >= LGHIST {
                self.lghist.push_block(b.summary());
            }
        }
        self.completed.clear();
        if LEVEL >= BANKS {
            if let Some(s) = self.fetch.current_start() {
                if self.last_start != Some(s) {
                    self.bank = self.sequencer.next_bank(s);
                    self.last_start = Some(s);
                }
            }
        }
    }

    /// One record through the stages up to `LEVEL`; returns a value that
    /// depends on every stage run, so none can be optimized away.
    #[inline(always)]
    fn step<const LEVEL: u8>(&mut self, r: &BranchRecord, tables: &Ev8Predictor) -> u64 {
        let completed = &mut self.completed;
        self.fetch.feed_run(r, |b| completed.push(b));
        self.absorb::<LEVEL>();
        let mut out = 0;
        if LEVEL >= INDEX && r.kind.is_conditional() {
            let inputs = IndexInputs {
                pc: r.pc,
                history: self.lghist.visible_bits(),
                z: self.lghist.z_address().unwrap_or(Pc::new(0)),
                bank: self.bank,
                wordline: self.wordline,
            };
            let idx = Indices {
                bim: inputs.bim(),
                g0: inputs.g0(),
                g1: inputs.g1(),
                meta: inputs.meta(),
            };
            out = if LEVEL >= TABLE_READ {
                tables.predict_at(idx).overall.as_bit()
            } else {
                (idx.bim ^ idx.g0 ^ idx.g1 ^ idx.meta) as u64
            };
        }
        let completed = &mut self.completed;
        self.fetch.feed_branch(r, |b| completed.push(b));
        self.absorb::<LEVEL>();
        out
    }
}

/// Runs the replay up to `LEVEL` over `records` as span `name`; returns
/// its host seconds.
fn timed_level<const LEVEL: u8>(
    records: &[BranchRecord],
    config: &Ev8Config,
    ctx: Ctx,
    name: &'static str,
    request: u64,
) -> f64 {
    let tables = Ev8Predictor::new(*config);
    let mut front = FrontEnd::new(config);
    ctx.span(name, request, |_| {
        let t = Instant::now();
        let mut acc = 0u64;
        for r in records {
            acc = acc.wrapping_add(front.step::<LEVEL>(r, &tables));
        }
        black_box((acc, front.bank, front.lghist.visible_bits()));
        t.elapsed().as_secs_f64()
    })
}

/// Replays `records` under `ctx`, recording one span per replay run
/// (`core.replay.<stage>` runs every stage up to `<stage>`) and
/// `core.ev8.step` for the composed step.
pub fn staged(records: &[BranchRecord], ctx: Ctx, request: u64) -> Replay {
    let mut step = Ev8Predictor::ev8();
    let config = *step.config();
    let runs = [
        timed_level::<FETCH>(records, &config, ctx, "core.replay.fetch", request),
        timed_level::<BANKS>(records, &config, ctx, "core.replay.banks", request),
        timed_level::<LGHIST>(records, &config, ctx, "core.replay.lghist", request),
        timed_level::<INDEX>(records, &config, ctx, "core.replay.index", request),
        timed_level::<TABLE_READ>(records, &config, ctx, "core.replay.table_read", request),
    ];
    let step_s = ctx.span("core.ev8.step", request, |_| {
        let t = Instant::now();
        let mut wrong = 0u64;
        for r in records {
            if let Some(p) = step.predict_and_update(r) {
                wrong += u64::from(p != r.outcome);
            }
        }
        black_box(wrong);
        t.elapsed().as_secs_f64()
    });

    // Untimed: the real predictor must see the replay's state after
    // every record.
    let mut check = Ev8Predictor::ev8();
    let mut front = FrontEnd::new(&config);
    let tables = Ev8Predictor::new(config);
    let (mut mismatches, mut conditional) = (0u64, 0u64);
    for r in records {
        front.step::<TABLE_READ>(r, &tables);
        conditional += u64::from(r.kind.is_conditional());
        check.predict_and_update(r);
        mismatches += u64::from(
            (check.visible_history(), check.current_bank())
                != (front.lghist.visible_bits(), front.bank),
        );
    }

    Replay {
        fetch: runs[0],
        banks: runs[1] - runs[0],
        lghist: runs[2] - runs[1],
        index: runs[3] - runs[2],
        table_read: runs[4] - runs[3],
        update: step_s - runs[4],
        step: step_s,
        conditional_branches: conditional,
        mismatches,
        collisions: front.sequencer.collisions() + step.bank_collisions() + check.bank_collisions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use ev8_workloads::spec95;

    #[test]
    fn replay_tracks_the_predictor_on_a_real_trace() {
        let trace = spec95::benchmark("gcc")
            .expect("known")
            .generate_scaled(0.001);
        let tracer = Tracer::new();
        let r = staged(trace.records(), Ctx::root(Some(&tracer)), 0);
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.collisions, 0);
        assert_eq!(r.conditional_branches, trace.conditional_count());
        let stages = r.fetch + r.banks + r.lghist + r.index + r.table_read + r.update;
        assert!((stages - r.step).abs() < 1e-9);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.replay.fetch",
                "core.replay.banks",
                "core.replay.lghist",
                "core.replay.index",
                "core.replay.table_read",
                "core.ev8.step"
            ]
        );
    }
}
