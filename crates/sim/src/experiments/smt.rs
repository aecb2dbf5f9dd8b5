//! SMT interference study (§3 of the paper): per-thread prediction
//! quality when two workloads share the EV8's tables, with per-thread
//! history registers.
//!
//! "When independent threads are running, they compete for predictor
//! table entries. ... when several parallel threads are spawned by a
//! single application ... parallel threads — from the same application —
//! benefit from constructive aliasing."

use ev8_core::smt::SmtEv8;
use ev8_core::{Ev8Config, Ev8Predictor};
use ev8_trace::Trace;
use ev8_workloads::spec95;

use crate::report::{ExperimentReport, TextTable};
use crate::simulator::simulate;

/// misp/KI of thread 0's workload when co-running `traces` round-robin on
/// one shared-table SMT predictor.
pub fn corun_mispki(traces: &[Trace]) -> Vec<f64> {
    let mut smt = SmtEv8::new(Ev8Config::ev8(), traces.len());
    let mut iters: Vec<_> = traces.iter().map(|t| t.iter()).collect();
    let mut misses = vec![0u64; traces.len()];
    loop {
        let mut progressed = false;
        for (tid, it) in iters.iter_mut().enumerate() {
            if let Some(rec) = it.next() {
                progressed = true;
                if let Some(pred) = smt.predict_and_update(tid, rec) {
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
    traces
        .iter()
        .zip(&misses)
        .map(|(t, &m)| m as f64 * 1000.0 / t.instruction_count() as f64)
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
        let (a, b) = full.split_at(full.len() / 2);
        let alone = simulate(Ev8Predictor::ev8(), &a).misp_per_ki();
        let same = corun_mispki(&[a.clone(), b])[0];
        let with_go = corun_mispki(&[a, (*go).clone()])[0];
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
        let t1 = (*spec95::cached("li", 0.001).unwrap()).clone();
        let t2 = (*spec95::cached("go", 0.001).unwrap()).clone();
        let v = corun_mispki(&[t1, t2]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|m| m.is_finite() && *m >= 0.0));
    }
}
