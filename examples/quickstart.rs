//! Quickstart: build the EV8 predictor, run it on a synthetic SPECINT95
//! benchmark, and compare against a couple of familiar baselines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ev8_core::Ev8Predictor;
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_sim::simulate;
use ev8_workloads::spec95;

fn main() {
    // A 2M-instruction slice of the compress analogue (the full suite
    // uses 100M-instruction traces; see the ev8-bench `experiments` bin).
    let trace = spec95::benchmark("compress")
        .expect("compress is part of the suite")
        .generate_scaled(0.02);
    println!(
        "workload: {} ({} instructions, {} conditional branches)",
        trace.name(),
        trace.instruction_count(),
        trace.conditional_count()
    );
    println!();

    // The shipping EV8 predictor: 352 Kbits, three-blocks-old compressed
    // history, conflict-free banking, engineered index functions.
    let ev8 = simulate(Ev8Predictor::ev8(), &trace);
    // The unconstrained 2Bc-gskew scheme it was derived from.
    let gskew = simulate(TwoBcGskew::new(TwoBcGskewConfig::size_512k()), &trace);
    // Textbook baselines.
    let gshare = simulate(Gshare::new(16, 16), &trace);
    let bimodal = simulate(Bimodal::new(14), &trace);

    for r in [&ev8, &gskew, &gshare, &bimodal] {
        println!(
            "{:<55} {:>8.3} misp/KI  ({:.2}% accuracy)",
            r.predictor,
            r.misp_per_ki(),
            r.accuracy() * 100.0
        );
    }
    println!();
    println!(
        "the EV8's 352 Kbits deliver accuracy in the range of the 512 Kbit \
         unconstrained scheme — the paper's headline claim"
    );
}
