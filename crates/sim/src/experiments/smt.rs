//! SMT interference study (§3 of the paper): per-thread prediction
//! quality when two workloads share the EV8's tables, with per-thread
//! history registers.
//!
//! "When independent threads are running, they compete for predictor
//! table entries. ... when several parallel threads are spawned by a
//! single application ... parallel threads — from the same application —
//! benefit from constructive aliasing."

use std::ops::Range;

use ev8_core::smt::SmtEv8;
use ev8_core::Ev8Config;
use ev8_trace::FlatTrace;
use ev8_workloads::spec95;

use crate::report::{ExperimentReport, TextTable};

/// misp/KI of each thread when co-running record ranges of packed traces
/// round-robin on one shared-table SMT predictor; thread `i` runs
/// `threads[i]`, and its misp/KI is over the instructions of its range.
///
/// With one thread this is the EV8 running alone: a one-context
/// [`SmtEv8`] predicts exactly as `Ev8Predictor` (pinned record by record
/// in the workspace's `tests/one_core.rs`).
///
/// # Panics
///
/// Panics if a range reaches past the end of its trace.
pub fn corun_mispki(threads: &[(&FlatTrace, Range<usize>)]) -> Vec<f64> {
    let mut smt = SmtEv8::new(Ev8Config::ev8(), threads.len());
    let mut iters: Vec<_> = threads
        .iter()
        .map(|(trace, range)| {
            assert!(range.end <= trace.len(), "thread range beyond trace end");
            trace.iter().skip(range.start).take(range.len())
        })
        .collect();
    let mut misses = vec![0u64; threads.len()];
    let mut instructions = vec![0u64; threads.len()];
    loop {
        let mut progressed = false;
        for (tid, it) in iters.iter_mut().enumerate() {
            if let Some(rec) = it.next() {
                progressed = true;
                instructions[tid] += 1 + rec.gap as u64;
                if let Some(pred) = smt.predict_and_update(tid, &rec) {
                    if pred != rec.outcome {
                        misses[tid] += 1;
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }
    misses
        .iter()
        .zip(&instructions)
        .map(|(&m, &n)| m as f64 * 1000.0 / n as f64)
        .collect()
}

/// Regenerates the SMT interference study: each benchmark alone, with a
/// phase-shifted thread of the same application, and with the hard `go`
/// analogue as co-runner.
pub fn report(scale: f64) -> ExperimentReport {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "alone".into(),
        "+ same app".into(),
        "+ go".into(),
    ]);
    let go = spec95::cached("go", scale).expect("go exists");
    for name in ["li", "m88ksim", "vortex", "perl"] {
        let full = spec95::cached(name, 2.0 * scale).expect("suite benchmark");
        // Two phase-shifted halves of the same program: the model for two
        // parallel threads of one application.
        let half = full.len() / 2;
        let a = (&*full, 0..half);
        let b = (&*full, half..full.len());
        let alone = corun_mispki(std::slice::from_ref(&a))[0];
        let same = corun_mispki(&[a.clone(), b])[0];
        let with_go = corun_mispki(&[a, (&*go, 0..go.len())])[0];
        table.row(vec![
            name.to_owned(),
            format!("{alone:.3}"),
            format!("{same:.3}"),
            format!("{with_go:.3}"),
        ]);
    }
    ExperimentReport {
        title: "SMT interference (§3): shared tables, per-thread history".into(),
        table,
        notes: vec![
            "same-application co-running aliases constructively; an unrelated hard co-runner \
             (go) interferes destructively"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_app_interferes_less_than_go() {
        let r = report(0.004);
        assert_eq!(r.table.len(), 4);
        let mut favourable = 0;
        for row in 0..4 {
            let same: f64 = r.table.cell(row, 2).parse().unwrap();
            let with_go: f64 = r.table.cell(row, 3).parse().unwrap();
            if same <= with_go + 0.2 {
                favourable += 1;
            }
        }
        assert!(
            favourable >= 3,
            "same-app co-running should interfere less than go ({favourable}/4)"
        );
    }

    #[test]
    fn corun_returns_one_value_per_thread() {
        let t1 = spec95::cached("li", 0.001).unwrap();
        let t2 = spec95::cached("go", 0.001).unwrap();
        let v = corun_mispki(&[(&*t1, 0..t1.len()), (&*t2, 0..t2.len())]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|m| m.is_finite() && *m >= 0.0));
    }
}
