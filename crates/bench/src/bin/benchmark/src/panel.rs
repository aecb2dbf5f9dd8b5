//! The layer panel of a traced run: every layer's public calls timed on
//! the workload's own inputs.
//!
//! Each benchmark's trace is generated at the workload's scale and cut to
//! its first [`PANEL_RECORDS`] records; every probe below then runs over
//! that prefix, as a span around one bulk call. Per-layer metrics are the
//! spans' totals over the records, branches or sessions they served, so a
//! change to a layer moves its metric on every workload's panel, while
//! only workloads whose passes call the layer see their latency move.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use ev8_core::Ev8Predictor;
use ev8_predictors::BranchPredictor;
use ev8_sim::experiments::run_grid;
use ev8_sim::session::SessionSim;
use ev8_sim::{
    cluster_intervals, profile_intervals, simulate_flat, simulate_many, simulate_sampled,
    SamplingConfig,
};
use ev8_trace::corpus::{CorpusReader, CorpusWriter};
use ev8_trace::frame::encode_records;
use ev8_trace::{FlatTrace, Pc, Trace};
use ev8_util::bytebuf::ByteBuf;
use ev8_workloads::ProgramSpec;

use crate::fig5_grid::{roster, GRID_WORKERS};
use crate::inputs;
use crate::metrics::Outcome;
use crate::reference::Counts;
use crate::replay;
use crate::sampled_suite::{families, relative_error};
use crate::server_gshare::{self, Running, CHUNK, SPEC};
use crate::spans::{Ctx, Tracer};
use crate::stats;

/// Records per benchmark the probes run over.
pub const PANEL_RECORDS: usize = 1 << 20;

/// Span names of the per-config `simulate_flat` probes, in roster order.
const CONFIG_SPANS: [&str; 6] = [
    "predictors.twobcgskew_256k.simulate_flat",
    "predictors.twobcgskew_512k.simulate_flat",
    "predictors.bimode_544k.simulate_flat",
    "predictors.gshare_2m.simulate_flat",
    "predictors.yags_288k.simulate_flat",
    "predictors.yags_576k.simulate_flat",
];
const CONFIG_METRICS: [&str; 6] = [
    "predictors.twobcgskew_256k.ns_per_branch",
    "predictors.twobcgskew_512k.ns_per_branch",
    "predictors.bimode_544k.ns_per_branch",
    "predictors.gshare_2m.ns_per_branch",
    "predictors.yags_288k.ns_per_branch",
    "predictors.yags_576k.ns_per_branch",
];
/// Span and metric names of the sampled estimate per family, in
/// `families()` order.
const SAMPLED: [(&str, &str); 3] = [
    ("sim.sampling.ev8", "sim.sampling.ev8.ns_per_branch"),
    ("sim.sampling.gshare", "sim.sampling.gshare.ns_per_branch"),
    ("sim.sampling.tage", "sim.sampling.tage.ns_per_branch"),
];

/// Work counted while probing, the denominators of the metrics.
#[derive(Default)]
struct Work {
    generated: u64,
    records: u64,
    branches: u64,
    corpus_bytes: u64,
    /// Seconds per EV8 stage: fetch, banks, lghist, index, table read,
    /// update, and the composed step.
    ev8: [f64; 7],
    rel_err_max: f64,
    reduction_min: f64,
}

/// Runs the panel over `specs` at `scale` and records the per-layer
/// metrics in `out`; its spans join `tracer`'s.
pub fn run(specs: &[ProgramSpec], scale: f64, tracer: &Tracer, out: &mut Outcome) {
    let panel = Tracer::new();
    match probe(specs, scale, &panel, out) {
        Ok(work) => record(&panel, &work, out),
        Err(why) => out.fail(1, format!("layer panel: {why}")),
    }
    tracer.absorb(panel);
}

fn probe(
    specs: &[ProgramSpec],
    scale: f64,
    panel: &Tracer,
    out: &mut Outcome,
) -> Result<Work, String> {
    let ctx = Ctx::root(Some(panel));
    let roster = roster()?;
    let families = families();
    let storage = Ev8Predictor::ev8().storage_bits();
    if storage != 352 * 1024 {
        out.fail(1, format!("EV8 storage is {storage} bits, not 352 Kbit"));
    }
    let server = Running::start()?;
    let refused = AtomicU64::new(0);
    let mut work = Work {
        reduction_min: f64::INFINITY,
        ..Work::default()
    };
    let mut flats = Vec::with_capacity(specs.len());
    let mut single_runs = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let request = i as u64;
        let name = &spec.name;
        let full = inputs::generate(ctx, spec, scale, request);
        work.generated += full.len() as u64;
        let trace = if full.len() > PANEL_RECORDS {
            full.truncated(PANEL_RECORDS)
        } else {
            full
        };
        work.records += trace.len() as u64;
        work.branches += trace.conditional_count();
        // Checked below: the corpus round trip, the replay, each config's
        // batch result, each family's estimate, the session.
        out.attempted += 2 + roster.len() as u64 + families.len() as u64 + 1;

        let flat = ctx.span("trace.flat.build", request, |_| {
            FlatTrace::from_trace(&trace)
        });
        corpus_roundtrip(&trace, ctx, request, &mut work)
            .map_err(|e| format!("{name} corpus: {e}"))?;
        ctx.span("trace.frame.encode", request, |_| {
            let mut cursor = Pc::default();
            for chunk in trace.records().chunks(CHUNK) {
                let mut payload = ByteBuf::new();
                encode_records(&mut payload, chunk, &mut cursor);
                std::hint::black_box(payload);
            }
        });

        let r = replay::staged(trace.records(), ctx, request);
        for (sum, s) in work.ev8.iter_mut().zip([
            r.fetch,
            r.banks,
            r.lghist,
            r.index,
            r.table_read,
            r.update,
            r.step,
        ]) {
            *sum += s;
        }
        if r.conditional_branches != trace.conditional_count()
            || r.mismatches != 0
            || r.collisions != 0
        {
            out.fail(
                1,
                format!(
                    "{name}: EV8 replay indexed {} of {} branches, {} mismatches, {} bank collisions",
                    r.conditional_branches,
                    trace.conditional_count(),
                    r.mismatches,
                    r.collisions
                ),
            );
        }

        let singles: Vec<Counts> = roster
            .iter()
            .zip(CONFIG_SPANS)
            .map(|((_, f), span)| {
                ctx.span(span, request, |_| Counts::from(&simulate_flat(f(), &flat)))
            })
            .collect();
        let mut predictors: Vec<Box<dyn BranchPredictor>> =
            roster.iter().map(|(_, f)| f()).collect();
        let batch = ctx.span("sim.simulate_many", request, |_| {
            simulate_many(&mut predictors, &flat)
        });
        if batch.iter().map(Counts::from).ne(singles.iter().copied()) {
            out.fail(
                roster.len() as u64,
                format!("{name}: simulate_many disagrees with simulate_flat"),
            );
        }

        let plan = SamplingConfig::auto(flat.len());
        let intervals = ctx.span("sim.sampling.profile", request, |_| {
            profile_intervals(&flat, &plan)
        });
        ctx.span("sim.sampling.cluster", request, |_| {
            cluster_intervals(&intervals, &plan)
        });
        for ((key, f), (span, _)) in families.iter().zip(SAMPLED) {
            let run = ctx.span(span, request, |_| simulate_sampled(f, &flat, &plan));
            let full = simulate_flat(f(), &flat);
            work.rel_err_max = work.rel_err_max.max(relative_error(
                run.estimate.mispredictions,
                full.mispredictions,
            ));
            work.reduction_min = work.reduction_min.min(run.reduction());
            if run.estimate.conditional_branches != full.conditional_branches {
                out.fail(
                    1,
                    format!("{name} {key}: sampled estimate counts the wrong branches"),
                );
            }
        }

        let served = ctx
            .span("session", request, |ctx| {
                server_gshare::session(&server.socket, &trace, &refused, ctx, request)
            })
            .map_err(|e| format!("{name} session: {e}"))?;
        let inproc = ctx.span("sim.session.feed_all", request, |_| {
            let mut sim = SessionSim::new(SPEC.build(), false);
            sim.begin(trace.name(), trace.instruction_count());
            sim.feed_all(trace.records());
            sim.finish()
        });
        if served != inproc {
            out.fail(
                1,
                format!("{name}: served summary differs from the in-process session"),
            );
        }
        flats.push(Arc::new(flat));
        single_runs.push(singles);
    }
    server.stop()?;

    let configs: Vec<(String, _)> = roster.into_iter().map(|(k, f)| (k.to_owned(), f)).collect();
    let grid = ctx.span("sim.run_grid", 0, |_| {
        run_grid(&flats, &configs, GRID_WORKERS)
    });
    out.attempted += 1;
    let agrees = grid.iter().enumerate().all(|(c, row)| {
        row.iter()
            .zip(&single_runs)
            .all(|(r, singles)| Counts::from(r) == singles[c])
    });
    if !agrees {
        out.fail(1, "run_grid disagrees with simulate_flat".to_owned());
    }
    Ok(work)
}

/// Encodes `trace` into an in-memory corpus and decodes it back.
fn corpus_roundtrip(trace: &Trace, ctx: Ctx, request: u64, work: &mut Work) -> Result<(), String> {
    let bytes = ctx.span("trace.corpus.encode", request, |_| {
        let mut writer = CorpusWriter::new(trace.name());
        for r in trace.records() {
            writer.push(r);
        }
        let mut bytes = Vec::new();
        writer.finish(&mut bytes).map(|_| bytes)
    });
    let bytes = bytes.map_err(|e| e.to_string())?;
    work.corpus_bytes += bytes.len() as u64;
    let decoded = ctx.span("trace.corpus.decode", request, |_| -> Result<u64, String> {
        let mut reader = CorpusReader::new(&bytes[..]).map_err(|e| e.to_string())?;
        let mut n = 0u64;
        while let Some(block) = reader.next_block().map_err(|e| e.to_string())? {
            n += block.len() as u64;
        }
        Ok(n)
    })?;
    if decoded != trace.len() as u64 {
        return Err(format!("decoded {decoded} of {} records", trace.len()));
    }
    Ok(())
}

fn record(panel: &Tracer, work: &Work, out: &mut Outcome) {
    let s = |name: &str| panel.total(name).as_secs_f64();
    // Each span's duration in ms, for the medians and maxima.
    let ms = |name: &str| -> Vec<f64> {
        panel
            .spans()
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.duration().as_secs_f64() * 1e3)
            .collect()
    };
    let per_branch = |secs: f64| secs * 1e9 / work.branches as f64;
    let mrec_s = |records: u64, secs: f64| records as f64 / 1e6 / secs;
    let records = work.records;

    out.set(
        "workloads.generate_mrec_s",
        mrec_s(work.generated, s("workloads.generate")),
    );
    out.set(
        "trace.flat.build_mrec_s",
        mrec_s(records, s("trace.flat.build")),
    );
    out.set(
        "trace.corpus.encode_mrec_s",
        mrec_s(records, s("trace.corpus.encode")),
    );
    out.set(
        "trace.corpus.bytes_per_record",
        work.corpus_bytes as f64 / records as f64,
    );
    out.set(
        "trace.corpus.decode_mrec_s",
        mrec_s(records, s("trace.corpus.decode")),
    );
    out.set(
        "trace.frame.encode_mrec_s",
        mrec_s(records, s("trace.frame.encode")),
    );

    for (metric, secs) in [
        "core.fetch.ns_per_branch",
        "core.banks.ns_per_branch",
        "core.lghist.ns_per_branch",
        "core.index.ns_per_branch",
        "core.table_read.ns_per_branch",
        "core.update_residual.ns_per_branch",
        "core.ev8.ns_per_branch",
    ]
    .into_iter()
    .zip(work.ev8)
    {
        out.set(metric, per_branch(secs));
    }

    for (span, metric) in CONFIG_SPANS.iter().zip(CONFIG_METRICS) {
        out.set(metric, per_branch(s(span)));
    }
    let singles: f64 = CONFIG_SPANS.iter().map(|n| s(n)).sum();
    let many = s("sim.simulate_many");
    out.set("sim.simulate_many.batch_gain", singles / many);
    out.set(
        "sim.run_grid.parallel_eff",
        many / (GRID_WORKERS as f64 * s("sim.run_grid")),
    );
    let job_max = ms("sim.simulate_many").into_iter().fold(0.0, f64::max) / 1e3;
    out.set("sim.run_grid.job_max_s", job_max);

    out.set(
        "sim.sampling.profile_mrec_s",
        mrec_s(records, s("sim.sampling.profile")),
    );
    out.set("sim.sampling.cluster_ms", s("sim.sampling.cluster") * 1e3);
    for (span, metric) in SAMPLED {
        out.set(metric, per_branch(s(span)));
    }
    out.set("sim.sampling.reduction", work.reduction_min);
    out.set("sim.sampling.rel_err_max", work.rel_err_max);

    out.set("server.connect_ms", stats::median(&ms("server.connect")));
    out.set("server.bye_ms", stats::median(&ms("server.bye")));
    let inproc = s("sim.session.feed_all");
    out.set(
        "server.wire_ns_per_record",
        (s("server.run_trace") - inproc) * 1e9 / records as f64,
    );
    out.set("server.inproc_ns_per_record", inproc * 1e9 / records as f64);
    out.notes.push(format!(
        "layer panel: first {PANEL_RECORDS} records of each benchmark, {records} records, {} conditional branches",
        work.branches
    ));
}
