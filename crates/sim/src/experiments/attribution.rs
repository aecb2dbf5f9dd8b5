//! Per-prediction attribution study — where the EV8's predictions come
//! from, component by component.
//!
//! The paper assigns each 2Bc-gskew bank a *role* (Table 1, §4): BIM
//! (h=4) covers short-history, almost-bias-only branches; G1 (h=21)
//! captures long-history correlation; Meta steers between the bimodal
//! side and the e-gskew majority per branch. This experiment runs the
//! full EV8 predictor over the suite through the observability layer
//! ([`crate::observe`]) and reports, per benchmark: which side provided
//! predictions, how often the chooser's decision mattered and was right,
//! the §4.2 partial-update action mix, the §6 bank-collision invariant
//! (always 0), and how concentrated mispredictions are on the worst
//! static branches.
//!
//! Every cell is cross-checked in-job: [`Attribution::reconcile`] must
//! accept the run before the row is emitted, so a table you can read is
//! a table whose counters sum exactly.
//!
//! Set `EV8_OBSERVE_JSONL=<path>` to also dump the full per-prediction
//! event stream (one JSON object per dynamic branch, all benchmarks
//! concatenated in suite order) for offline analysis. At default scales
//! this is millions of events — use small scales.

use std::path::Path;
use std::sync::Arc;

use ev8_core::Ev8Predictor;
use ev8_trace::Trace;
use ev8_workloads::spec95;

use crate::metrics::SimResult;
use crate::observe::{Attribution, JsonlObserver};
use crate::report::{fmt_mispki, ExperimentReport, TextTable};
use crate::simulator::drive;
use crate::sweep::run_parallel;

/// How many top-mispredicting static branches the concentration column
/// aggregates.
pub const TOP_N: usize = 8;

/// One benchmark's observed run.
type Cell = (SimResult, Attribution, Option<Vec<u8>>);

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * 100.0 / den as f64
    }
}

/// Regenerates the attribution study. `scale` is the fraction of a
/// 100M-instruction trace per benchmark. The JSONL stream is written only
/// if the `EV8_OBSERVE_JSONL` environment variable names a path.
pub fn report(scale: f64, workers: usize) -> ExperimentReport {
    let jsonl = std::env::var_os("EV8_OBSERVE_JSONL").map(std::path::PathBuf::from);
    report_with_jsonl(scale, workers, jsonl.as_deref())
}

/// [`report`] with an explicit JSONL destination (used by tests to avoid
/// racing on process-global environment variables).
pub fn report_with_jsonl(scale: f64, workers: usize, jsonl: Option<&Path>) -> ExperimentReport {
    let mut r = report_for(
        scale,
        workers,
        jsonl,
        "EV8 (352 Kbit)",
        super::unified_factory(Ev8Predictor::ev8),
    );
    r.notes.push(
        "Meta steers toward the majority on history-friendly benchmarks; BIM covers \
         short-history branches (Table 1's h=4 role)"
            .into(),
    );
    r
}

/// [`report_with_jsonl`] for an arbitrary predictor: the study quantifies
/// over the unified capability trait (see [`super::UnifiedFactory`]), so
/// any family with an observed step runs through the same attribution
/// pipeline — [`Attribution::reconcile`] accepts degenerate
/// single-component provenance (gshare, bimodal, TAGE's provider/alt
/// mapping) exactly as it accepts the EV8's, because the reconciliation
/// arithmetic is over provenance invariants, not 2Bc-gskew specifics.
/// `label` names the subject in the report title.
pub fn report_for(
    scale: f64,
    workers: usize,
    jsonl: Option<&Path>,
    label: &str,
    factory: super::UnifiedFactory,
) -> ExperimentReport {
    let traces: Vec<Arc<Trace>> = spec95::NAMES
        .iter()
        .map(|name| spec95::cached(name, scale).expect("benchmark names are known"))
        .collect();

    let want_jsonl = jsonl.is_some();
    let jobs: Vec<Box<dyn FnOnce() -> Cell + Send>> = traces
        .iter()
        .map(|trace| {
            let trace = Arc::clone(trace);
            let factory = Arc::clone(&factory);
            Box::new(move || {
                let mut predictor = factory();
                let mut attr = Attribution::new();
                let (tally, events) = if want_jsonl {
                    // Each job streams into its own buffer; the buffers are
                    // concatenated in suite order after the parallel run,
                    // so the file is deterministic regardless of worker
                    // interleaving.
                    let mut pair = (
                        attr,
                        JsonlObserver::new(Vec::<u8>::new(), trace.name().to_owned()),
                    );
                    let tally = drive(&mut predictor, &*trace, &mut pair);
                    attr = pair.0;
                    (tally, Some(pair.1.into_inner()))
                } else {
                    (drive(&mut predictor, &*trace, &mut attr), None)
                };
                let name = predictor.name();
                let result = SimResult::new(trace.name(), trace.instruction_count(), name, tally);
                attr.reconcile(&result)
                    .expect("attribution counters must reconcile with the scoreboard");
                (result, attr, events)
            }) as Box<dyn FnOnce() -> Cell + Send>
        })
        .collect();
    let cells = run_parallel(jobs, workers);

    if let Some(path) = jsonl {
        let mut bytes = Vec::new();
        for (_, _, events) in &cells {
            bytes.extend_from_slice(events.as_deref().unwrap_or_default());
        }
        std::fs::write(path, bytes).expect("EV8_OBSERVE_JSONL path must be writable");
    }

    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "misp/KI".into(),
        "majority used %".into(),
        "meta decisive %".into(),
        "meta ok %".into(),
        "skip %".into(),
        "strengthen %".into(),
        "chooser-first %".into(),
        "retrain %".into(),
        "bank collisions".into(),
        format!("top-{TOP_N} misp share %"),
    ]);

    for (result, attr, _) in &cells {
        let top: u64 = attr
            .top_mispredicting(TOP_N)
            .iter()
            .map(|(_, s)| s.mispredictions)
            .sum();
        let s = &attr.summary;
        table.row(vec![
            result.trace.clone(),
            fmt_mispki(result.misp_per_ki()),
            format!("{:.1}", pct(s.provider_majority, attr.predictions)),
            format!("{:.1}", pct(s.meta_decisive, attr.predictions)),
            format!("{:.1}", pct(s.meta_correct, s.meta_decisive)),
            format!("{:.1}", pct(s.actions[0], attr.predictions)),
            format!("{:.1}", pct(s.actions[1], attr.predictions)),
            format!("{:.1}", pct(s.actions[2], attr.predictions)),
            format!("{:.1}", pct(s.actions[3], attr.predictions)),
            s.bank_collisions.unwrap_or(0).to_string(),
            format!("{:.1}", pct(top, result.mispredictions)),
        ]);
    }

    ExperimentReport {
        title: format!("Attribution: per-component provenance of {label} predictions (observed)"),
        table,
        notes: vec![
            "every row reconciled exactly: provider/action/vote sums match the scoreboard".into(),
            "bank collisions are the §6 invariant — 0 by construction (unbanked subjects show 0)"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::default_workers;

    fn parse(cell: &str) -> f64 {
        cell.parse().expect("cell is numeric")
    }

    #[test]
    fn one_reconciled_row_per_benchmark() {
        let r = report_with_jsonl(0.002, default_workers(), None);
        assert_eq!(r.table.len(), spec95::NAMES.len());
        for (row, name) in spec95::NAMES.iter().enumerate() {
            assert_eq!(r.table.cell(row, 0), *name);
            // §6 invariant: zero collisions everywhere.
            assert_eq!(r.table.cell(row, 9), "0");
            // The four action percentages cover every prediction.
            let action_sum: f64 = (5..=8).map(|c| parse(r.table.cell(row, c))).sum();
            assert!(
                (action_sum - 100.0).abs() < 0.3,
                "{name}: action mix sums to {action_sum}"
            );
            // Shares are percentages.
            for col in 2..=8 {
                let v = parse(r.table.cell(row, col));
                assert!((0.0..=100.0).contains(&v), "{name} col {col}: {v}");
            }
            let top_share = parse(r.table.cell(row, 10));
            assert!((0.0..=100.0).contains(&top_share));
        }
    }

    #[test]
    fn jsonl_dump_covers_the_whole_suite_in_order() {
        let path = std::env::temp_dir().join(format!("ev8_attr_jsonl_{}", std::process::id()));
        let r = report_with_jsonl(0.0005, default_workers(), Some(&path));
        assert_eq!(r.table.len(), spec95::NAMES.len());
        let text = std::fs::read_to_string(&path).expect("dump written");
        std::fs::remove_file(&path).ok();
        // One finish line per benchmark, in suite order.
        let finishes: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with(r#"{"event":"finish""#))
            .collect();
        assert_eq!(finishes.len(), spec95::NAMES.len());
        for (line, name) in finishes.iter().zip(spec95::NAMES) {
            assert!(line.contains(&format!(r#""trace":"{name}""#)), "{line}");
            assert!(line.contains(r#""bank_collisions":0"#));
        }
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains(r#""event":"prediction""#));
    }

    #[test]
    fn attribution_pipeline_accepts_any_unified_predictor() {
        // The seam the unified trait removed: the same observed loop and
        // reconciliation, driven by a TAGE factory. Reconcile runs
        // in-job (a failure panics the row), so a full table *is* the
        // assertion that TAGE's provider/alt provenance sums exactly.
        use ev8_predictors::tage::{Tage, TageConfig};
        let r = report_for(
            0.001,
            default_workers(),
            None,
            "TAGE (352 Kbit)",
            crate::experiments::unified_factory(|| Tage::new(TageConfig::ev8_budget())),
        );
        assert!(r.title.contains("TAGE (352 Kbit)"));
        assert_eq!(r.table.len(), spec95::NAMES.len());
        for (row, name) in spec95::NAMES.iter().enumerate() {
            // Unbanked subject: the §6 column reads 0.
            assert_eq!(r.table.cell(row, 9), "0");
            let action_sum: f64 = (5..=8).map(|c| parse(r.table.cell(row, c))).sum();
            assert!(
                (action_sum - 100.0).abs() < 0.3,
                "{name}: action mix sums to {action_sum}"
            );
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = report_with_jsonl(0.001, default_workers(), None);
        let b = report_with_jsonl(0.001, 1, None);
        assert_eq!(a.table.to_csv(), b.table.to_csv());
    }
}
