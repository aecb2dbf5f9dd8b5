//! The metrics a run reports, and how it prints them.
//!
//! These lists are the single source of the names and units the program
//! emits; a test checks them against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the workload waits for. Reported by
/// every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: each layer's cost on
/// the workload's own inputs, plus the tracing overhead and the share of
/// a pass no layer span accounts for.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.generate_mrec_s", "Mrec/s"),
    ("trace.flat.build_mrec_s", "Mrec/s"),
    ("trace.corpus.encode_mrec_s", "Mrec/s"),
    ("trace.corpus.bytes_per_record", "B/rec"),
    ("trace.corpus.decode_mrec_s", "Mrec/s"),
    ("trace.frame.encode_mrec_s", "Mrec/s"),
    ("core.ev8.ns_per_branch", "ns"),
    ("core.fetch.ns_per_branch", "ns"),
    ("core.banks.ns_per_branch", "ns"),
    ("core.lghist.ns_per_branch", "ns"),
    ("core.index.ns_per_branch", "ns"),
    ("core.table_read.ns_per_branch", "ns"),
    ("core.update_residual.ns_per_branch", "ns"),
    ("predictors.twobcgskew_256k.ns_per_branch", "ns"),
    ("predictors.twobcgskew_512k.ns_per_branch", "ns"),
    ("predictors.bimode_544k.ns_per_branch", "ns"),
    ("predictors.gshare_2m.ns_per_branch", "ns"),
    ("predictors.yags_288k.ns_per_branch", "ns"),
    ("predictors.yags_576k.ns_per_branch", "ns"),
    ("sim.simulate_many.batch_gain", "x"),
    ("sim.run_grid.parallel_eff", "frac"),
    ("sim.run_grid.job_max_s", "s"),
    ("sim.sampling.profile_mrec_s", "Mrec/s"),
    ("sim.sampling.cluster_ms", "ms"),
    ("sim.sampling.ev8.ns_per_branch", "ns"),
    ("sim.sampling.gshare.ns_per_branch", "ns"),
    ("sim.sampling.tage.ns_per_branch", "ns"),
    ("sim.sampling.reduction", "x"),
    ("sim.sampling.rel_err_max", "frac"),
    ("server.connect_ms", "ms"),
    ("server.bye_ms", "ms"),
    ("server.wire_ns_per_record", "ns"),
    ("server.inproc_ns_per_record", "ns"),
    ("trace_overhead", "x"),
    ("unattributed_frac", "frac"),
];

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub trace: bool,
    /// Operations run: (benchmark, predictor) cells and sessions.
    pub attempted: u64,
    /// Operations that errored, panicked or disagreed with the reference.
    pub failed: u64,
    /// Why the run is not correct, one line each; empty when it is.
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed beside a metric in the table (spread, counts).
    pub details: BTreeMap<&'static str, String>,
    /// Further lines for the table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, trace: bool) -> Self {
        Outcome {
            workload,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            details: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Records a failed check; `ops` operations count as failed.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn detail(&mut self, name: &'static str, text: String) {
        self.details.insert(name, text);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The declared metrics this run reports.
    pub fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Checks that operations ran and every declared metric was measured
    /// as a finite number.
    pub fn check_complete(&mut self) {
        if self.attempted == 0 {
            self.failures.push("no operation ran".to_owned());
        }
        let mut missing = Vec::new();
        for (name, _) in self.declared() {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.failures.push(format!("{name} measured as {v}")),
                None => missing.push(*name),
            }
        }
        if !missing.is_empty() {
            self.failures
                .push(format!("not measured: {}", missing.join(", ")));
        }
    }

    /// The human-readable table: every metric with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let kind = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        writeln!(out, "== {} ({kind})", self.workload).expect("String write");
        for (name, unit) in self.declared() {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            let detail = self.details.get(name).map_or("", String::as_str);
            writeln!(out, "  {name:<42} {value:>14.4} {unit:<13} {detail}").expect("String write");
        }
        for note in &self.notes {
            writeln!(out, "  {note}").expect("String write");
        }
        writeln!(
            out,
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        )
        .expect("String write");
        for why in &self.failures {
            writeln!(out, "  FAILED: {why}").expect("String write");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// every declared metric with its unit.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in self.declared().iter().enumerate() {
            let value = self.values.get(name).copied().filter(|v| v.is_finite());
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            )
            .expect("String write");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_declared_metric() {
        let mut o = Outcome::new("ev8_corpus", false);
        o.attempted = 16;
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.25 + i as f64);
        }
        o.check_complete();
        assert!(o.correct());
        let line = o.json();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 16, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 5.25, \"unit\": \"MB\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_a_failure() {
        let mut o = Outcome::new("fig5_grid", false);
        o.attempted = 1;
        o.set("latency_p50_ms", f64::NAN);
        o.check_complete();
        assert!(!o.correct());
        assert!(o
            .json()
            .contains("\"latency_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
    }
}
