//! §8.1.1 methodology validation: immediate vs commit-time update.
//!
//! "We checked that for branch predictors using (very) long global
//! history as those considered in this study, the relative error in
//! number of branch mispredictions between a trace driven simulation,
//! assuming immediate update, and the complete simulation of the Alpha
//! EV8, assuming predictor update at commit time, is insignificant."
//!
//! The faithful commit-time model keeps the history register speculative
//! (updated at prediction time, as the real front end does) and delays
//! only the counter writes by an in-flight window — the EV8's minimum
//! branch resolution latency is 14 cycles, and with up to 16 branches per
//! cycle a generous window is 64 branches. For contrast, the table also
//! shows the *stale* model (\[8\]): history and tables both delayed, which
//! is catastrophically worse and is why the EV8 maintains speculative
//! history.

use std::collections::VecDeque;
use std::sync::Arc;

use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::BranchPredictor;

use crate::batch::simulate_many;
use crate::experiments::suite_traces;
use crate::metrics::SimResult;
use crate::report::{ExperimentReport, TextTable};
use crate::simulator::{drive, StaleCommit};
use crate::sweep::run_parallel;

/// Regenerates the immediate-vs-commit-time comparison with the given
/// commit window.
pub fn report(scale: f64, workers: usize, window: usize) -> ExperimentReport {
    type Job = Box<dyn FnOnce() -> (f64, f64, f64) + Send>;
    // The immediate and commit-window configs batch over one pass; the
    // stale model drives predict/update separately over the same trace.
    let traces = suite_traces(scale);
    let jobs: Vec<Job> = traces
        .iter()
        .map(|t| {
            let t = Arc::clone(t);
            Box::new(move || {
                let mut configs: Vec<Box<dyn BranchPredictor>> = vec![
                    Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
                    Box::new(TwoBcGskew::new(
                        TwoBcGskewConfig::size_512k().with_commit_window(window),
                    )),
                ];
                let batched = simulate_many(&mut configs, &t);
                let mut scratch = VecDeque::new();
                let mut stale = TwoBcGskew::new(TwoBcGskewConfig::size_512k());
                let name = format!("{} [stale, window {window}]", stale.name());
                let tally = drive(&mut stale, &*t, StaleCommit::new(window, &mut scratch));
                let stale = SimResult::new(t.name(), t.instruction_count(), name, tally);
                (
                    batched[0].misp_per_ki(),
                    batched[1].misp_per_ki(),
                    stale.misp_per_ki(),
                )
            }) as Job
        })
        .collect();
    let results = run_parallel(jobs, workers);

    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "immediate misp/KI".into(),
        format!("commit-time (window {window})"),
        "relative error".into(),
        "stale history (for contrast)".into(),
    ]);
    for (t, (imm, commit, stale)) in traces.iter().zip(&results) {
        let rel = if *imm > 0.0 {
            (commit - imm) / imm
        } else {
            0.0
        };
        table.row(vec![
            t.name().to_owned(),
            format!("{imm:.3}"),
            format!("{commit:.3}"),
            format!("{:+.1}%", rel * 100.0),
            format!("{stale:.3}"),
        ]);
    }
    ExperimentReport {
        title: "Methodology check (§8.1.1): immediate vs commit-time update".into(),
        table,
        notes: vec![
            "the paper reports the immediate/commit-time error as insignificant".into(),
            "the stale column shows why speculative history update is mandatory ([8])".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn commit_time_error_is_small() {
        // Short runs overweight the warmup window; the relative error
        // shrinks further at full scale (recorded in EXPERIMENTS.md).
        let r = report(0.005, default_workers(), 64);
        assert_eq!(r.table.len(), 8);
        for row in 0..8 {
            let imm: f64 = r.table.cell(row, 1).parse().unwrap();
            let commit: f64 = r.table.cell(row, 2).parse().unwrap();
            let rel = if imm > 0.0 {
                (commit - imm).abs() / imm
            } else {
                0.0
            };
            assert!(
                rel < 0.2,
                "{}: relative error {rel} too large ({imm} vs {commit})",
                r.table.cell(row, 0)
            );
        }
    }

    #[test]
    fn stale_history_is_clearly_worse() {
        let r = report(0.002, default_workers(), 64);
        let mut worse = 0;
        for row in 0..8 {
            let imm: f64 = r.table.cell(row, 1).parse().unwrap();
            let stale: f64 = r.table.cell(row, 4).parse().unwrap();
            if stale > imm * 1.1 {
                worse += 1;
            }
        }
        assert!(worse >= 5, "stale should hurt most benchmarks ({worse}/8)");
    }
}
