//! Shootout bench group: cross-generation accuracy at the EV8 storage
//! budget, recorded per benchmark into the shared `BENCH_sim.json` under
//! the `shootout` group.
//!
//! Unlike the timing groups, the recorded quantity here is *accuracy*:
//! misp/KI for bimodal (256 Kbit), gshare (256 Kbit), 2Bc-gskew
//! (352 Kbit, Table 1) and TAGE (352 Kbit, `TageConfig::ev8_budget`) on
//! each Table 2 benchmark, plus the `tage_beats_gshare` verdict the
//! acceptance gate tracks. The grid runs through the batched sweep
//! engine — one trace pass per benchmark for all four predictors — so a
//! full-suite shootout costs about one serial simulation sweep.
//!
//! `EV8_SCALE` overrides the trace scale (default 0.05; CI smoke sets
//! 0.002, and the committed numbers come from a manual run at the
//! default).

use ev8_util::json::JsonObject;

use ev8_sim::experiments::shootout;
use ev8_sim::sweep::default_workers;

const DEFAULT_SCALE: f64 = 0.05;

fn main() {
    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
    let scale = ev8_bench::scale_from_env(DEFAULT_SCALE);
    let workers = default_workers();

    // [config][benchmark], in shootout::configs() roster order.
    let labels: Vec<String> = shootout::configs().into_iter().map(|(l, _)| l).collect();
    let grid = shootout::grid(scale, workers);
    let mut entries: Vec<(String, String)> = Vec::new();

    for b in 0..grid[0].len() {
        let name = grid[0][b].trace.clone();
        if let Some(f) = &filter {
            if !format!("shootout_{name}").contains(f.as_str()) {
                continue;
            }
        }
        let mispki: Vec<f64> = grid.iter().map(|row| row[b].misp_per_ki()).collect();
        for (label, m) in labels.iter().zip(&mispki) {
            println!("shootout_{name}/{label:<16} {m:>7.3} misp/KI");
        }
        let tage_beats_gshare = mispki[3] < mispki[1];
        println!(
            "shootout_{name}: tage_beats_gshare {tage_beats_gshare} ({:+.3} misp/KI)",
            mispki[3] - mispki[1]
        );

        let mut out = JsonObject::new();
        out.field("benchmark", &name)
            .field("scale", &scale)
            .field("conditional_branches", &grid[0][b].conditional_branches)
            .field("bimodal_256k_mispki", &mispki[0])
            .field("gshare_256k_mispki", &mispki[1])
            .field("gskew_352k_mispki", &mispki[2])
            .field("tage_352k_mispki", &mispki[3])
            .field("tage_beats_gshare", &tage_beats_gshare);
        entries.push((format!("shootout/{name}"), out.finish()));
    }

    match ev8_bench::merge_bench_json(&entries) {
        Ok(path) => println!("merged {} shootout entries into {path}", entries.len()),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
