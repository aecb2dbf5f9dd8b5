//! Update-policy ablation (§4.2-4.3): accuracy *and* counter-write
//! traffic of the partial update policy versus naive total update.
//!
//! The partial update policy exists for two reasons the paper spells
//! out: accuracy ("partial update policy was shown to result in higher
//! prediction accuracy") and **write bandwidth** — "a correct prediction
//! requires only one read of the prediction array (at fetch time) and
//! (at most) one write of the hysteresis array (at commit time)". This
//! experiment measures both on the same streams.

use std::sync::Arc;

use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig, UpdatePolicy};
use ev8_trace::Trace;

use crate::experiments::suite_traces;
use crate::report::{ExperimentReport, TextTable};
use crate::simulator::simulate;
use crate::sweep::run_parallel;

/// (misp/KI, prediction writes per 1K branches, hysteresis writes per 1K
/// branches) for one policy over one trace.
fn run_policy(trace: &Trace, policy: UpdatePolicy) -> (f64, f64, f64) {
    let mut p = TwoBcGskew::new(TwoBcGskewConfig::size_512k().with_update_policy(policy));
    let r = simulate(&mut p, trace);
    let (pw, hw) = p.write_traffic();
    let kb = r.conditional_branches.max(1) as f64 / 1000.0;
    (
        r.mispredictions as f64 * 1000.0 / trace.instruction_count().max(1) as f64,
        pw as f64 / kb,
        hw as f64 / kb,
    )
}

/// Regenerates the update-policy traffic study.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    type Row = ((f64, f64, f64), (f64, f64, f64));
    let traces = suite_traces(scale);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = traces
        .iter()
        .map(|t| {
            let t: Arc<Trace> = Arc::clone(t);
            Box::new(move || {
                (
                    run_policy(&t, UpdatePolicy::Partial),
                    run_policy(&t, UpdatePolicy::Total),
                )
            }) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    let rows = run_parallel(jobs, workers);

    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "partial misp/KI".into(),
        "total misp/KI".into(),
        "partial writes/KB (pred+hyst)".into(),
        "total writes/KB (pred+hyst)".into(),
    ]);
    for (t, ((pm, pp, ph), (tm, tp, th))) in traces.iter().zip(&rows) {
        table.row(vec![
            t.name().to_owned(),
            format!("{pm:.3}"),
            format!("{tm:.3}"),
            format!("{:.0}+{:.0}", pp, ph),
            format!("{:.0}+{:.0}", tp, th),
        ]);
    }
    ExperimentReport {
        title: "Update-policy ablation (§4.2): accuracy and counter-write traffic".into(),
        table,
        notes: vec![
            "partial update should win on accuracy AND write fewer counters".into(),
            "writes/KB = array writes per 1000 conditional branches".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    #[test]
    fn partial_writes_less_on_every_benchmark() {
        let r = report(0.002, default_workers());
        assert_eq!(r.table.len(), 8);
        for row in 0..8 {
            let parse_pair = |cell: &str| -> (f64, f64) {
                let mut it = cell.split('+');
                (
                    it.next().unwrap().parse().unwrap(),
                    it.next().unwrap().parse().unwrap(),
                )
            };
            let (pp, ph) = parse_pair(r.table.cell(row, 3));
            let (tp, th) = parse_pair(r.table.cell(row, 4));
            assert!(
                pp + ph < tp + th,
                "{}: partial {pp}+{ph} should write less than total {tp}+{th}",
                r.table.cell(row, 0)
            );
        }
    }
}
