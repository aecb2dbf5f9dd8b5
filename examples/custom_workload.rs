//! Build a custom synthetic workload, persist it as an on-disk trace
//! corpus, read it back, and evaluate predictors on it — the workflow for
//! using this library on your own branch behaviour hypotheses.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_sim::simulate;
use ev8_trace::corpus::{write_corpus, CorpusReader};
use ev8_trace::TraceStats;
use ev8_workloads::{BehaviorMix, H2pMix, ProgramSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hypothetical pointer-chasing workload: modest footprint, heavy
    // global correlation, a pinch of data-dependent noise.
    let spec = ProgramSpec {
        name: "pointer-chaser".into(),
        seed: 2024,
        static_branches: 600,
        instructions: 2_000_000,
        branch_density: 140.0,
        mix: BehaviorMix {
            biased: 0.30,
            loops: 0.10,
            patterns: 0.05,
            correlated: 0.50,
            random: 0.05,
            h2p: H2pMix::NONE,
        },
        hotness_skew: 0.9,
        call_fraction: 0.15,
        noise: 0.4,
        chain_length_bias: 0.7,
    };
    let trace = spec.generate();
    let stats = TraceStats::from_trace(&trace);
    println!("generated: {stats}");

    // Persist as a chunked, compressed, checksummed corpus file and
    // read it back.
    let path = std::env::temp_dir().join("pointer_chaser.ev8c");
    let mut file = BufWriter::new(File::create(&path)?);
    write_corpus(&mut file, &trace)?;
    file.flush()?;
    drop(file);
    let on_disk = std::fs::metadata(&path)?.len();
    println!(
        "persisted to {} ({} bytes, {:.2} bytes/record)",
        path.display(),
        on_disk,
        on_disk as f64 / trace.len() as f64
    );
    let reloaded = CorpusReader::new(BufReader::new(File::open(&path)?))?.read_trace()?;
    assert_eq!(reloaded, trace);
    println!("round-trip verified");
    println!();

    // Evaluate.
    for result in [
        simulate(Ev8Predictor::ev8(), &reloaded),
        simulate(Gshare::new(16, 16), &reloaded),
    ] {
        println!(
            "{:<55} {:>8.3} misp/KI",
            result.predictor,
            result.misp_per_ki()
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}
