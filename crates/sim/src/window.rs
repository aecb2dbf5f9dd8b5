//! Windowed single-trace parallelism: split one [`FlatTrace`] into
//! contiguous windows, simulate them on worker threads, splice the
//! per-window scoreboards.
//!
//! Batching ([`crate::batch`]) parallelizes over *configurations*;
//! [`crate::sweep::run_parallel`] parallelizes over *benchmarks*. The
//! remaining serial axis is a single long trace with a single predictor:
//! prediction is a strictly sequential state machine, so exact
//! parallelism within one trace is impossible. Windowing trades a
//! bounded, measurable accuracy error for wall-clock: each worker
//! simulates one window `[s, e)` of the record stream, but first *warms
//! up* by running the preceding `warmup_len` records `[s - W, s)`
//! through a fresh predictor with predictions discarded. Branch
//! predictor state is strongly mixing — a few hundred thousand branches
//! overwrite essentially every live table entry and history bit — so a
//! modest warmup makes the spliced misprediction total converge on the
//! serial one.
//!
//! Two properties make the error auditable rather than hand-waved
//! (pinned by the tests here and in `tests/batched_equivalence.rs`):
//!
//! 1. **Exactness at full warmup.** If `warmup_len` covers the whole
//!    prefix of every window (`warmup_len >= len - window_len`), each
//!    worker replays exactly the serial predictor state and the splice
//!    equals [`simulate_flat`](crate::simulate_flat) *bit for bit*.
//! 2. **Monotone convergence in practice.** Growing the warmup can only
//!    extend the replayed prefix toward the serial one; the property
//!    test checks the misprediction delta against the serial golden
//!    count shrinks to zero as warmup grows.
//!
//! The per-window warmup is redundant work: total cost is
//! `len + windows * warmup_len` record steps, so throughput scales as
//! `workers / (1 + W/window_len)`. The `windowed` bench records
//! the realized branches/sec and the signed misprediction delta next to
//! each other, so the speed/accuracy trade is always visible in
//! `BENCH_sim.json`.

use std::sync::Arc;

use ev8_predictors::BranchPredictor;
use ev8_trace::FlatTrace;

use crate::metrics::{SimResult, Tally};
use crate::simulator::{drive, Plain};
use crate::sweep::{run_parallel_with, RunPolicy};

/// Geometry of a windowed run: how the record stream is cut and how much
/// redundant prefix each window replays before measuring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowPlan {
    /// Measured records per window (the last window may be shorter).
    /// Must be non-zero.
    pub window_len: usize,
    /// Records replayed before each window with predictions discarded,
    /// clamped to the available prefix. Window 0 needs no warmup.
    pub warmup_len: usize,
}

impl WindowPlan {
    /// A plan with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `window_len == 0`.
    pub fn new(window_len: usize, warmup_len: usize) -> Self {
        assert!(window_len > 0, "window_len must be non-zero");
        WindowPlan {
            window_len,
            warmup_len,
        }
    }

    /// Number of windows a trace of `records` records splits into.
    pub fn windows(&self, records: usize) -> usize {
        records.div_ceil(self.window_len)
    }

    /// True when the warmup covers every window's full prefix, making
    /// the splice bit-identical to a serial run (see module docs).
    pub fn is_exact_for(&self, records: usize) -> bool {
        records <= self.window_len || self.warmup_len >= records - self.window_len
    }
}

/// Result of [`simulate_windowed`]: the spliced [`SimResult`] plus the
/// per-window scoreboards for bit-accounting against a serial run.
#[derive(Clone, Debug)]
pub struct WindowedRun {
    /// Spliced totals, shaped exactly like a serial result.
    pub result: SimResult,
    /// The geometry the run used.
    pub plan: WindowPlan,
    /// One scoreboard per window (warmup excluded), in trace order;
    /// sums match `result`.
    pub per_window: Vec<Tally>,
}

/// Simulates `trace` in parallel windows, splicing the scoreboards.
///
/// `factory` builds one fresh predictor per window (each worker owns its
/// state; nothing is shared but the read-only trace); a type-erased
/// experiment [`Factory`](crate::experiments::Factory) `f` fits as
/// `move || f()`. Each window is two [`drive`] calls over ranges on one
/// predictor: warmup (tally discarded), then measurement. Jobs run over
/// [`run_parallel_with`] under `policy`; window results are spliced by
/// summation in trace order, so the output is deterministic regardless
/// of worker scheduling.
///
/// # Panics
///
/// Panics if any window job fails under `policy` (a missing window would
/// silently corrupt the splice, so degraded mode is not supported here),
/// or if `workers == 0`.
pub fn simulate_windowed<P, F>(
    factory: F,
    trace: &Arc<FlatTrace>,
    plan: WindowPlan,
    workers: usize,
    policy: &RunPolicy,
) -> WindowedRun
where
    P: BranchPredictor,
    F: Fn() -> P + Send + Sync + 'static,
{
    let len = trace.len();
    let predictor = factory().name();
    let factory = Arc::new(factory);
    let jobs: Vec<Box<dyn Fn() -> Tally + Send + 'static>> = (0..plan.windows(len))
        .map(|w| {
            let trace = Arc::clone(trace);
            let factory = Arc::clone(&factory);
            let start = w * plan.window_len;
            let end = (start + plan.window_len).min(len);
            let warm_start = start - plan.warmup_len.min(start);
            Box::new(move || {
                let mut predictor = factory();
                drive(&mut predictor, (&*trace, warm_start..start), Plain);
                drive(&mut predictor, (&*trace, start..end), Plain)
            }) as Box<dyn Fn() -> Tally + Send + 'static>
        })
        .collect();
    let per_window = run_parallel_with(jobs, workers.max(1), policy).into_complete();
    let mut spliced = Tally::default();
    for &tally in &per_window {
        spliced += tally;
    }
    WindowedRun {
        result: SimResult::new(trace.name(), trace.instruction_count(), predictor, spliced),
        plan,
        per_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_flat;
    use ev8_predictors::gshare::Gshare;
    use ev8_trace::{BranchRecord, Pc, TraceBuilder};

    fn dense_trace(records: u64) -> Arc<FlatTrace> {
        let mut b = TraceBuilder::new("windowed");
        let mut x = 0x9E37_79B9u64;
        for i in 0..records {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
            b.run(i % 5);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + (x % 97) * 4),
                Pc::new(0x4000),
                x & 0x30 != 0,
            ));
        }
        Arc::new(FlatTrace::from_trace(&b.finish()))
    }

    #[test]
    fn full_warmup_splice_is_bit_identical_to_serial() {
        let trace = dense_trace(5_000);
        let serial = simulate_flat(Gshare::new(10, 8), &trace);
        let plan = WindowPlan::new(700, trace.len());
        assert!(plan.is_exact_for(trace.len()));
        let run = simulate_windowed(
            || Gshare::new(10, 8),
            &trace,
            plan,
            4,
            &RunPolicy::default(),
        );
        assert_eq!(run.result, serial);
        assert_eq!(run.per_window.len(), plan.windows(trace.len()));
        let spliced: u64 = run.per_window.iter().map(|w| w.mispredictions).sum();
        assert_eq!(spliced, run.result.mispredictions);
    }

    #[test]
    fn single_window_needs_no_warmup_to_be_exact() {
        let trace = dense_trace(300);
        let plan = WindowPlan::new(trace.len().max(1), 0);
        assert!(plan.is_exact_for(trace.len()));
        let run = simulate_windowed(
            || Gshare::new(10, 8),
            &trace,
            plan,
            2,
            &RunPolicy::default(),
        );
        assert_eq!(run.result, simulate_flat(Gshare::new(10, 8), &trace));
    }

    #[test]
    fn zero_warmup_counts_reconcile_even_when_inexact() {
        let trace = dense_trace(4_000);
        let serial = simulate_flat(Gshare::new(10, 8), &trace);
        let run = simulate_windowed(
            || Gshare::new(10, 8),
            &trace,
            WindowPlan::new(512, 0),
            4,
            &RunPolicy::default(),
        );
        // Conditional-branch accounting is exact regardless of warmup —
        // only mispredictions can drift.
        assert_eq!(run.result.conditional_branches, serial.conditional_branches);
        assert_eq!(run.result.instructions, serial.instructions);
        assert_eq!(run.result.trace, serial.trace);
        assert_eq!(run.result.predictor, serial.predictor);
    }

    #[test]
    fn empty_trace_yields_zero_windows() {
        let trace = Arc::new(FlatTrace::from_trace(&ev8_trace::Trace::default()));
        let run = simulate_windowed(
            || Gshare::new(10, 8),
            &trace,
            WindowPlan::new(64, 0),
            2,
            &RunPolicy::default(),
        );
        assert!(run.per_window.is_empty());
        assert_eq!(run.result.conditional_branches, 0);
        assert_eq!(run.result.mispredictions, 0);
    }

    #[test]
    #[should_panic(expected = "window_len must be non-zero")]
    fn zero_window_len_panics() {
        WindowPlan::new(0, 0);
    }
}
