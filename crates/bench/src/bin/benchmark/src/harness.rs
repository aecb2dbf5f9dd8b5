//! The measurement loop every workload shares: set-up, timed passes,
//! correctness checks, and in a traced run the layer panel.

use std::time::Instant;

use ev8_workloads::ProgramSpec;

use crate::inputs::{self, RunConfig};
use crate::metrics::Outcome;
use crate::reference::{Counts, Expected};
use crate::spans::{self, Ctx, Tracer};
use crate::{panel, stats};

/// Set-ups per untraced run: at least `SETUP_REPEATS`, and more while
/// they take under `SETUP_SECONDS` together, up to `MAX_SETUPS`;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUPS: usize = 25;

/// Largest share of a traced pass that may fall outside every layer span.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// One checked result of a pass: a (benchmark, predictor) cell or one
/// session's summary.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub bench: String,
    pub predictor: &'static str,
    pub counts: Counts,
}

/// What one pass produced.
#[derive(Default)]
pub struct Pass {
    pub cells: Vec<Cell>,
    /// Latency in ms of each request the pass served, when it serves
    /// several (sessions); empty when the whole pass is the one request a
    /// caller waits for (a suite's results).
    pub requests_ms: Vec<f64>,
    /// Operations that returned an error, with the reason.
    pub errors: Vec<String>,
    /// Simulated instructions, counted once per predictor configuration.
    pub instructions: u64,
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Threads whose layer spans tile a traced pass.
    const PASS_THREADS: usize = 1;
    /// Percentile reported as `latency_tail_ms`: the highest usual level
    /// that leaves at least ten of a default-length run's requests beyond
    /// it (see `stats::tail_level`), or the upper quartile when a run has
    /// too few requests for that.
    const TAIL_LEVEL: f64 = 75.0;

    /// Scale of this workload's traces.
    fn scale(cfg: &RunConfig) -> f64;

    /// Builds the inputs from the seeded suite (timed as `setup_s`).
    fn setup(cfg: &RunConfig, specs: &[ProgramSpec], ctx: Ctx) -> Result<Self, String>;

    /// Untimed preparation between set-up and the first pass.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One timed pass.
    fn pass(&mut self, ctx: Ctx, index: usize) -> Pass;

    /// The counts every pass's cells must match (see [`reference`]).
    fn expected(&self, cfg: &RunConfig, specs: &[ProgramSpec]) -> Result<Expected, String>;

    /// Whether a cell agrees with its expected counts.
    fn agrees(cell: &Cell, expected: &Counts) -> bool {
        cell.counts == *expected
    }

    /// Adds workload-specific lines to the table from the first pass.
    fn describe(&self, _first: &Pass, _expected: &Expected, _out: &mut Outcome) {}

    /// Tears down; returns the reasons any post-run check failed.
    fn finish(self) -> Vec<String> {
        Vec::new()
    }
}

/// Runs workload `W` under `cfg`.
pub fn run<W: Workload>(cfg: &RunConfig) -> Outcome {
    let specs = inputs::suite(cfg.seed);
    let mut out = Outcome::new(W::NAME, cfg.trace);
    let result = if cfg.trace {
        traced::<W>(cfg, &specs, &mut out)
    } else {
        untraced::<W>(cfg, &specs, &mut out)
    };
    if let Err(why) = result {
        out.fail(1, why);
        out.attempted += 1;
    }
    out.check_complete();
    out
}

fn untraced<W: Workload>(
    cfg: &RunConfig,
    specs: &[ProgramSpec],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut state = None;
    while setup_s.is_empty()
        || (!cfg.smoke
            && setup_s.len() < MAX_SETUPS
            && (setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_SECONDS))
    {
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(cfg, specs, Ctx::root(None))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    state.prepare()?;
    stats::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;

    let mut walls = Vec::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || (!cfg.smoke && start.elapsed().as_secs_f64() < cfg.seconds) {
        let t = Instant::now();
        let pass = state.pass(Ctx::root(None), passes.len());
        walls.push(t.elapsed().as_secs_f64());
        passes.push(pass);
    }
    let peak = stats::peak_rss_mb().map_err(|e| format!("reading VmHWM: {e}"))?;

    let expected = state.expected(cfg, specs);
    if let Ok(expected) = &expected {
        verify::<W>(&passes, expected, out);
        state.describe(&passes[0], expected, out);
    }
    for why in state.finish() {
        out.fail(1, why);
    }
    expected?;

    let mut latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.requests_ms.iter().copied())
        .collect();
    if latencies.is_empty() {
        latencies = walls.iter().map(|w| w * 1e3).collect();
    }
    out.set("setup_s", stats::median(&setup_s));
    out.detail("setup_s", spread(&setup_s, "set-ups"));
    out.set("latency_p50_ms", stats::median(&latencies));
    out.detail("latency_p50_ms", format!("{} requests", latencies.len()));
    out.set(
        "latency_tail_ms",
        stats::percentile(&latencies, W::TAIL_LEVEL),
    );
    let highest = stats::tail_level(latencies.len()).map_or("none".to_owned(), |p| format!("p{p}"));
    out.detail(
        "latency_tail_ms",
        format!(
            "p{}; highest level with 10 beyond: {highest}",
            W::TAIL_LEVEL
        ),
    );
    out.set(
        "minstr_per_s",
        passes[0].instructions as f64 / 1e6 / stats::median(&walls),
    );
    out.set("peak_rss_mb", peak);
    out.notes
        .push(format!("pass seconds: {}", spread(&walls, "passes")));
    Ok(())
}

fn traced<W: Workload>(
    cfg: &RunConfig,
    specs: &[ProgramSpec],
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let root = Ctx::root(Some(&tracer));
    let mut state = root.span("setup", 0, |ctx| W::setup(cfg, specs, ctx))?;
    state.prepare()?;

    // Untraced and traced passes alternate, so drift hits both alike.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut passes = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || (!cfg.smoke && start.elapsed().as_secs_f64() < cfg.seconds) {
        let t = Instant::now();
        passes.push(state.pass(Ctx::root(None), passes.len()));
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let index = passes.len();
        passes.push(root.span("pass", index as u64, |ctx| state.pass(ctx, index)));
        traced.push(t.elapsed().as_secs_f64());
    }
    let expected = state.expected(cfg, specs);
    if let Ok(expected) = &expected {
        verify::<W>(&passes, expected, out);
    }
    for why in state.finish() {
        out.fail(1, why);
    }
    expected?;

    let unattributed = unattributed_frac(&tracer.spans(), W::PASS_THREADS);
    out.set(
        "trace_overhead",
        stats::median(&traced) / stats::median(&plain),
    );
    out.detail(
        "trace_overhead",
        format!("{} traced / {} untraced passes", traced.len(), plain.len()),
    );
    out.set("unattributed_frac", unattributed);
    // Smoke passes are a few sessions long, too short for the bound.
    if unattributed > MAX_UNATTRIBUTED && !cfg.smoke {
        out.fail(
            0,
            format!("unattributed_frac {unattributed:.4} exceeds {MAX_UNATTRIBUTED}"),
        );
    }

    panel::run(specs, W::scale(cfg), &tracer, out);

    let path = inputs::work_dir().join(format!("{}-{}.spans.jsonl", W::NAME, cfg.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!("spans: {}", path.display()));
    Ok(())
}

/// Checks every pass's cells against the expected counts and against the
/// first pass (a deterministic simulation must repeat exactly).
fn verify<W: Workload>(passes: &[Pass], expected: &Expected, out: &mut Outcome) {
    for (i, pass) in passes.iter().enumerate() {
        out.attempted += (pass.cells.len() + pass.errors.len()) as u64;
        for why in &pass.errors {
            out.fail(1, format!("pass {i}: {why}"));
        }
        for (j, cell) in pass.cells.iter().enumerate() {
            let key = (cell.bench.clone(), cell.predictor.to_owned());
            match expected.get(&key) {
                Some(want) if W::agrees(cell, want) => {}
                Some(want) => out.fail(
                    1,
                    format!(
                        "pass {i}: {key:?} gave {:?}, expected {want:?}",
                        cell.counts
                    ),
                ),
                None => out.fail(1, format!("pass {i}: no reference for {key:?}")),
            }
            if i > 0 && passes[0].cells.get(j) != Some(cell) {
                out.fail(1, format!("pass {i}: {key:?} differs from pass 0"));
            }
        }
    }
}

/// Median over traced passes of the share of the pass's thread time that
/// no layer span covers.
fn unattributed_frac(all: &[spans::Span], threads: usize) -> f64 {
    let selfs = spans::self_times(all);
    let fracs: Vec<f64> = all
        .iter()
        .filter(|s| s.name == "pass")
        .map(|pass| {
            let covered: f64 = selfs
                .iter()
                .filter(|(s, _)| {
                    spans::is_layer(s.name) && s.start >= pass.start && s.end <= pass.end
                })
                .map(|(_, d)| d.as_secs_f64())
                .sum();
            1.0 - covered / (threads as f64 * pass.duration().as_secs_f64())
        })
        .collect();
    stats::median(&fracs)
}

/// Quartiles and every sample, for the table.
fn spread(xs: &[f64], what: &str) -> String {
    let (q1, q3) = stats::quartiles(xs);
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    format!(
        "q1 {q1:.4} q3 {q3:.4} over {} {what}: {}",
        xs.len(),
        all.join(" ")
    )
}
