//! Front-end substrate report (§2 of the paper): per-benchmark accuracy
//! of the PC-address-generation predictors that surround the conditional
//! branch predictor — the weak line predictor and the return address
//! stack — plus the fetch-block geometry they operate on. (The synthetic
//! workloads emit no indirect jumps, so §2's jump predictor has nothing
//! to learn here and is not modelled.)
//!
//! Not a figure in the paper, but the §2 narrative this reproduction's
//! front-end substrate must support: the line predictor is fast and weak
//! ("relatively low line prediction accuracy"), which is why the EV8
//! devotes 352 Kbits to the backing conditional branch predictor.

use ev8_core::fetch::{BlockStats, FetchBlock, FetchState};
use ev8_core::line_predictor::LinePredictor;
use ev8_core::ras::ReturnAddressStack;
use ev8_trace::{BranchKind, FlatTrace};

use crate::experiments::suite_traces;
use crate::report::{ExperimentReport, TextTable};

/// Per-benchmark front-end accuracies.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontEndAccuracy {
    /// Line predictor next-block accuracy.
    pub line: f64,
    /// Return address stack accuracy over returns.
    pub ras: f64,
    /// Mean fetch-block size in instructions.
    pub block_size: f64,
}

/// Measures the front-end predictors over one trace, in one walk: each
/// record drives the RAS and the fetch state, whose completed blocks
/// train the line predictor on successive block starts and accumulate
/// the block statistics.
pub fn measure(trace: &FlatTrace) -> FrontEndAccuracy {
    let mut lp = LinePredictor::new(12);
    // The RAS is sized *below* the workloads' maximum call depth so that
    // deep recursion (the li analogue) visibly overflows it.
    let mut ras = ReturnAddressStack::new(8);
    let mut blocks = BlockStats::default();
    let mut prev_start = None;
    let mut on_block = |b: FetchBlock| {
        if let Some(p) = prev_start {
            lp.train(p, b.start);
        }
        prev_start = Some(b.start);
        blocks.add(&b);
    };
    let mut fetch = FetchState::new();
    trace.for_each(|rec| {
        fetch.feed(rec, &mut on_block);
        match rec.kind {
            BranchKind::Call => ras.push(rec.pc.next()),
            BranchKind::Return => {
                ras.predict_return(rec.target);
            }
            _ => {}
        }
    });
    fetch.flush(&mut on_block);

    FrontEndAccuracy {
        line: lp.accuracy(),
        ras: ras.accuracy(),
        block_size: blocks.mean_block_size(),
    }
}

/// Regenerates the front-end substrate report.
pub fn report(scale: f64) -> ExperimentReport {
    let traces = suite_traces(scale);
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "line predictor".into(),
        "return stack".into(),
        "block size".into(),
    ]);
    for t in &traces {
        let a = measure(t);
        table.row(vec![
            t.name().to_owned(),
            format!("{:.1}%", a.line * 100.0),
            format!("{:.1}%", a.ras * 100.0),
            format!("{:.2}", a.block_size),
        ]);
    }
    ExperimentReport {
        title: "Front-end substrate (§2): line predictor, RAS, fetch blocks".into(),
        table,
        notes: vec![
            "the line predictor is deliberately weak — the conditional predictor backs it up"
                .into(),
            "the RAS is near-perfect except where call depth exceeds its capacity".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_workloads::spec95;

    #[test]
    fn ras_is_strong_line_predictor_weak() {
        let t = spec95::cached("li", 0.005).unwrap();
        let a = measure(&t);
        assert!(a.ras > 0.9, "RAS accuracy {} too low", a.ras);
        assert!(
            a.line < 0.98,
            "line predictor should not be near-perfect: {}",
            a.line
        );
        assert!(a.block_size > 1.0 && a.block_size <= 8.0);
    }

    #[test]
    fn report_covers_all_benchmarks() {
        let r = report(0.001);
        assert_eq!(r.table.len(), 8);
        for row in 0..8 {
            let line: f64 = r.table.cell(row, 1).trim_end_matches('%').parse().unwrap();
            assert!((0.0..=100.0).contains(&line));
        }
    }
}
