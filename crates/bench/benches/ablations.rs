//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each ablation runs the 2Bc-gskew / EV8 predictor with one design
//! decision reverted and reports both the **accuracy delta** (printed
//! once, to stderr, as mispredictions on the probe workload) and the
//! **simulation throughput** (the harness measurement):
//!
//! * partial vs total update policy (§4.2),
//! * private vs shared (half-size) hysteresis (§4.4),
//! * per-table vs uniform history lengths (§4.5),
//! * lghist path bit on/off (§5.1).

use ev8_util::bench::Harness;

use ev8_core::{Ev8Config, Ev8Predictor, HistoryMode};
use ev8_predictors::twobcgskew::{TableConfig, TwoBcGskew, TwoBcGskewConfig, UpdatePolicy};
use ev8_predictors::BranchPredictor;
use ev8_sim::simulate_flat;
use ev8_trace::FlatTrace;
use ev8_workloads::spec95;

fn probe_trace() -> std::sync::Arc<FlatTrace> {
    spec95::cached("gcc", 0.002).expect("known benchmark")
}

fn announce(
    label: &str,
    trace: &FlatTrace,
    a: Box<dyn BranchPredictor>,
    b: Box<dyn BranchPredictor>,
) {
    let ra = simulate_flat(a, trace);
    let rb = simulate_flat(b, trace);
    eprintln!(
        "[ablation] {label}: baseline {:.3} misp/KI vs ablated {:.3} misp/KI",
        ra.misp_per_ki(),
        rb.misp_per_ki()
    );
}

fn main() {
    let mut h = Harness::from_env();
    let trace = probe_trace();
    let branches = trace.conditional_count();

    // Accuracy deltas, printed once.
    announce(
        "update policy (partial vs total)",
        &trace,
        Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
        Box::new(TwoBcGskew::new(
            TwoBcGskewConfig::size_512k().with_update_policy(UpdatePolicy::Total),
        )),
    );
    let private_hysteresis = {
        let mut c = TwoBcGskewConfig::ev8_size();
        c.g0 = TableConfig::new(16, 13);
        c.meta = TableConfig::new(16, 15);
        c
    };
    announce(
        "hysteresis (shared-half vs private)",
        &trace,
        Box::new(TwoBcGskew::new(TwoBcGskewConfig::ev8_size())),
        Box::new(TwoBcGskew::new(private_hysteresis)),
    );
    announce(
        "history lengths (per-table vs uniform)",
        &trace,
        Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k())),
        Box::new(TwoBcGskew::new(
            TwoBcGskewConfig::size_512k().with_history_lengths(0, 20, 20, 20),
        )),
    );
    announce(
        "lghist path bit (on vs off)",
        &trace,
        Box::new(Ev8Predictor::new(Ev8Config::lghist_512k(
            HistoryMode::lghist_path(),
        ))),
        Box::new(Ev8Predictor::new(Ev8Config::lghist_512k(
            HistoryMode::lghist_no_path(),
        ))),
    );

    // Throughput measurements.
    let mut group = h.group("ablations");
    group.throughput(branches);
    group.sample_size(10);
    group.bench("partial-update", |b| {
        b.iter(|| simulate_flat(TwoBcGskew::new(TwoBcGskewConfig::size_512k()), &trace))
    });
    group.bench("total-update", |b| {
        b.iter(|| {
            simulate_flat(
                TwoBcGskew::new(
                    TwoBcGskewConfig::size_512k().with_update_policy(UpdatePolicy::Total),
                ),
                &trace,
            )
        })
    });
    group.bench("commit-window-64", |b| {
        b.iter(|| {
            simulate_flat(
                TwoBcGskew::new(TwoBcGskewConfig::size_512k().with_commit_window(64)),
                &trace,
            )
        })
    });
    group.finish();
}
