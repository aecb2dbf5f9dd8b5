//! Throughput of the full EV8 predictor pipeline — fetch-block
//! formation, delayed lghist, bank sequencing, engineered index functions
//! and the partial update — against the unconstrained (complete-hash,
//! conventional-history) configuration and the plain 2Bc-gskew scheme.

use ev8_util::bench::Harness;

use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_sim::simulate_flat;
use ev8_trace::FlatTrace;
use ev8_workloads::spec95;

fn bench_trace() -> std::sync::Arc<FlatTrace> {
    spec95::cached("m88ksim", 0.002).expect("known benchmark")
}

fn main() {
    let mut h = Harness::from_env();
    let trace = bench_trace();
    let branches = trace.conditional_count();
    let mut group = h.group("ev8_pipeline");
    group.throughput(branches);
    group.sample_size(10);

    group.bench("ev8-full", |b| {
        b.iter(|| simulate_flat(Ev8Predictor::ev8(), &trace))
    });
    group.bench("ev8-complete-hash", |b| {
        b.iter(|| {
            simulate_flat(
                Ev8Predictor::new(Ev8Config::lghist_512k(HistoryMode::ev8())),
                &trace,
            )
        })
    });
    group.bench("ev8-ghist-unconstrained", |b| {
        b.iter(|| simulate_flat(Ev8Predictor::new(Ev8Config::unconstrained_512k()), &trace))
    });
    group.bench("plain-2bcgskew", |b| {
        b.iter(|| simulate_flat(TwoBcGskew::new(TwoBcGskewConfig::size_512k()), &trace))
    });
    group.finish();
}
