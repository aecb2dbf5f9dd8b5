//! Cost of index computation, recorded into the shared `BENCH_sim.json`
//! under the `index_functions` group: the EV8's engineered bit equations
//! (§7), bit by bit and as the tabulated linear map the predictor runs,
//! versus the skewing-family complete hash, and the primitive `H`
//! transform / XOR fold.
//!
//! Every series evaluates its function on the same 1024 inputs per pass.
//! Before timing, the bench asserts that the map
//! (`IndexInputs::indices`) equals the bit-by-bit equations on every EV8
//! input it times. Each sample interleaves one timed run of every series
//! (`ev8_bench::measure::PairedSamples`); each entry records the median
//! ns per evaluation, and the map's entry also `reference_over_map`, the
//! median over samples of the equations' time over the map's (`null`
//! when a filter leaves either out).
//!
//! `EV8_BENCH_SAMPLES` overrides the sample count (default 31, CI smoke
//! sets 1). The first non-dash argument filters series by substring of
//! `index_functions/<series>`.

use std::hint::black_box;
use std::time::Duration;

use ev8_bench::measure::{
    filter_from_args, merge_bench_json, samples_from_env, time, PairedSamples,
};
use ev8_core::config::WordlineMode;
use ev8_core::index::IndexInputs;
use ev8_predictors::skew::{h_transform, skew_index, xor_fold, InfoVector};
use ev8_predictors::twobcgskew::Indices;
use ev8_trace::Pc;
use ev8_util::json::JsonObject;

const DEFAULT_SAMPLES: usize = 31;
/// Inputs per pass.
const INPUTS: u64 = 1024;
/// Passes per timed run: enough that the cheapest series still runs for
/// tens of microseconds, far above the clock's resolution.
const PASSES: u64 = 64;

/// The `i`-th of the index inputs both EV8 series evaluate.
fn ev8_inputs(i: u64) -> IndexInputs {
    IndexInputs {
        pc: Pc::new(0x1_0000 + i * 4),
        history: i.wrapping_mul(0x9E37_79B9),
        z: Pc::new(0x2_0000 + (i % 64) * 32),
        bank: (i % 4) as u8,
        wordline: WordlineMode::HistoryAndAddress,
    }
}

// One pass of each series. The input count goes through `black_box` so
// that a pass cannot be folded or hoisted out of the repeated passes.

fn ev8_equations() -> u64 {
    let mut acc = 0usize;
    for i in 0..black_box(INPUTS) {
        let inputs = ev8_inputs(i);
        acc ^= inputs.bim() ^ inputs.g0() ^ inputs.g1() ^ inputs.meta();
    }
    acc as u64
}

fn ev8_map() -> u64 {
    let mut acc = 0usize;
    for i in 0..black_box(INPUTS) {
        let idx = ev8_inputs(i).indices();
        acc ^= idx.bim ^ idx.g0 ^ idx.g1 ^ idx.meta;
    }
    acc as u64
}

fn complete_hash() -> u64 {
    let mut acc = 0u64;
    for i in 0..black_box(INPUTS) {
        let pc = Pc::new(0x1_0000 + i * 4);
        let hist = i.wrapping_mul(0x9E37_79B9);
        for (bank, (bits, hlen)) in [(14u32, 4u32), (16, 13), (16, 21), (16, 15)]
            .iter()
            .enumerate()
        {
            acc ^= InfoVector::new(pc, hist, *hlen, *bits).index(bank as u32);
        }
    }
    acc
}

fn h_transform_16bit() -> u64 {
    (0..black_box(INPUTS)).fold(0, |acc, i| {
        acc ^ h_transform(i.wrapping_mul(0xC2B2_AE35), 16)
    })
}

fn skew_index_bank2() -> u64 {
    (0..black_box(INPUTS)).fold(0, |acc, i| acc ^ skew_index(2, i, i.rotate_left(13), 16))
}

fn xor_fold_64_to_16() -> u64 {
    (0..black_box(INPUTS)).fold(0, |acc, i| {
        acc ^ xor_fold((i as u128).wrapping_mul(0x0123_4567_89AB_CDEF), 16)
    })
}

/// A series: its name and one pass over the inputs.
type Series = (&'static str, fn() -> u64);

const SERIES: [Series; 6] = [
    ("ev8_all_four_tables", ev8_equations),
    ("ev8_linear_all_four_tables", ev8_map),
    ("complete_hash_all_four_tables", complete_hash),
    ("h_transform_16bit", h_transform_16bit),
    ("skew_index_bank2", skew_index_bank2),
    ("xor_fold_64_to_16", xor_fold_64_to_16),
];
/// The bit-by-bit equations and the map, indices into [`SERIES`].
const EQUATIONS: usize = 0;
const MAP: usize = 1;

fn main() {
    let samples_per_series = samples_from_env().unwrap_or(DEFAULT_SAMPLES);
    let filter = filter_from_args();
    let series: Vec<usize> = (0..SERIES.len())
        .filter(|&s| {
            filter
                .as_deref()
                .is_none_or(|f| format!("index_functions/{}", SERIES[s].0).contains(f))
        })
        .collect();
    if series.is_empty() {
        return;
    }

    // The map is only worth timing if it computes the equations' indices.
    for i in 0..INPUTS {
        let inputs = ev8_inputs(i);
        let equations = Indices {
            bim: inputs.bim(),
            g0: inputs.g0(),
            g1: inputs.g1(),
            meta: inputs.meta(),
        };
        assert_eq!(inputs.indices(), equations, "input {i}: map diverged");
    }

    let mut samples = PairedSamples::new(series.len());
    for _ in 0..samples_per_series {
        let sample: Vec<Duration> = series
            .iter()
            .map(|&s| time(|| (0..PASSES).fold(0, |acc, _| acc ^ SERIES[s].1())))
            .collect();
        samples.push(&sample);
    }

    let column = |s| series.iter().position(|&t| t == s);
    let reference_over_map = column(EQUATIONS)
        .zip(column(MAP))
        .map(|(equations, map)| samples.ratio(equations, map));
    let mut entries = Vec::new();
    for (column, &s) in series.iter().enumerate() {
        let name = SERIES[s].0;
        let ns = samples.median_ns(column) as f64 / (INPUTS * PASSES) as f64;
        println!(
            "index_functions/{name:<30} {ns:>7.2} ns/evaluation  (median of {samples_per_series} paired samples)"
        );
        let mut out = JsonObject::new();
        out.field("inputs", &INPUTS)
            .field("passes", &PASSES)
            .field("samples", &(samples_per_series as u64))
            .field("ns_per_evaluation", &ns);
        if s == MAP {
            out.field("reference_over_map", &reference_over_map);
            if let Some(ratio) = reference_over_map {
                println!("index_functions: reference_over_map {ratio:.2}x");
            }
        }
        entries.push((format!("index_functions/{name}"), out.finish()));
    }

    match merge_bench_json(&entries) {
        Ok(path) => println!(
            "merged {} index_functions entries into {path}",
            entries.len()
        ),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
