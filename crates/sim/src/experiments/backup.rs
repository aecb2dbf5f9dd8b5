//! The §9 future-work proposal, evaluated: a confidence-gated perceptron
//! *backup predictor* behind the EV8 predictor ("line predictor, global
//! history branch prediction, backup branch predictor").
//!
//! For every benchmark the table reports the EV8's misp/KI, the
//! hierarchy's misp/KI, the net mispredictions removed, and the override
//! precision (fraction of backup overrides that were beneficial — each
//! override costs a late front-end resteer, so precision matters as much
//! as volume).

use std::sync::Arc;

use ev8_core::backup::BackupHierarchy;
use ev8_trace::FlatTrace;

use crate::batch::simulate_flat;
use crate::experiments::suite_traces;
use crate::report::{ExperimentReport, TextTable};
use crate::sweep::run_parallel;

/// Runs the hierarchy over one trace; returns (primary misp/KI,
/// hierarchy misp/KI, overrides, precision).
fn run_one(trace: &FlatTrace) -> (f64, f64, u64, f64) {
    let mut h = BackupHierarchy::default_hierarchy();
    simulate_flat(&mut h, trace);
    let s = *h.stats();
    let ki = trace.instruction_count() as f64 / 1000.0;
    (
        s.primary_mispredictions as f64 / ki,
        s.hierarchy_mispredictions as f64 / ki,
        s.overrides,
        s.override_precision(),
    )
}

/// Regenerates the backup-hierarchy study.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    type Row = (f64, f64, u64, f64);
    let traces = suite_traces(scale);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = traces
        .iter()
        .map(|t| {
            let t = Arc::clone(t);
            Box::new(move || run_one(&t)) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    let rows = run_parallel(jobs, workers);

    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "EV8 misp/KI".into(),
        "with backup".into(),
        "overrides".into(),
        "override precision".into(),
    ]);
    for (t, (primary, hierarchy, overrides, precision)) in traces.iter().zip(&rows) {
        table.row(vec![
            t.name().to_owned(),
            format!("{primary:.3}"),
            format!("{hierarchy:.3}"),
            overrides.to_string(),
            format!("{:.1}%", precision * 100.0),
        ]);
    }
    ExperimentReport {
        title: "§9 extension: perceptron backup predictor behind the EV8".into(),
        table,
        notes: vec![
            "the backup targets hard-to-predict branches; precision > 50% means net gain".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn backup_does_not_hurt_overall() {
        let r = report(0.005, default_workers());
        assert_eq!(r.table.len(), 8);
        let mut improved = 0;
        for row in 0..8 {
            let primary: f64 = r.table.cell(row, 1).parse().unwrap();
            let hierarchy: f64 = r.table.cell(row, 2).parse().unwrap();
            if hierarchy <= primary + 0.05 {
                improved += 1;
            }
        }
        assert!(
            improved >= 6,
            "the gated backup should rarely hurt ({improved}/8 within bounds)"
        );
    }
}
