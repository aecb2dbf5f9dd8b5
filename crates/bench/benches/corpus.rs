//! Corpus codec benches: compression ratio, encode/decode throughput,
//! and the streaming-decode simulation overhead, recorded per benchmark
//! into the shared `BENCH_sim.json` under the `corpus` group.
//!
//! Three questions per Table 2 benchmark:
//!
//! * **Ratio** — corpus bytes per record against the 24 B/record AoS
//!   `Trace` and the packed `FlatTrace` view. The acceptance bar is
//!   < 10 B/record across the suite.
//! * **Throughput** — encode (records → corpus bytes) and streaming
//!   decode (corpus bytes → `FlatTrace` blocks) in records/s.
//! * **Overhead** — `drive` over a `CorpusReader` (decode-while-simulating
//!   from the corpus bytes) vs `drive` over the cached in-RAM packed
//!   trace, as a paired per-sample ratio: what streaming a run from a
//!   corpus costs over a run from the trace cache.
//!
//! Bit-identity is asserted before any timing: the corpus decodes back
//! to the exact source trace and the streaming run returns the exact
//! tally of the in-RAM run — the numbers are only meaningful for
//! equivalent computations. Sampling is paired per the `sweep_batched`
//! rationale (this host's cross-run wall-clock swings exceed the
//! measured effects); `EV8_BENCH_SAMPLES` overrides the sample count
//! and `EV8_CORPUS_SCALE` the trace scale (defaults: 5 samples, 0.02).

use std::time::{Duration, Instant};

use ev8_predictors::gshare::Gshare;
use ev8_sim::{drive, Plain};
use ev8_trace::corpus::{write_corpus, CorpusReader};
use ev8_util::bench::black_box;
use ev8_util::json::JsonObject;
use ev8_workloads::spec95;

const DEFAULT_SCALE: f64 = 0.02;
const DEFAULT_SAMPLES: usize = 5;
/// Bytes per record of the AoS `Trace` layout (2×u64 PC + kind +
/// outcome + u32 gap, padded).
const AOS_BYTES_PER_RECORD: f64 = 24.0;

const BENCHMARKS: [&str; 8] = [
    "go", "ijpeg", "gcc", "m88ksim", "compress", "li", "perl", "vortex",
];

fn corpus_scale() -> f64 {
    std::env::var("EV8_CORPUS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

fn time<R>(mut f: impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

fn median_ns(samples: &[[Duration; 4]], series: usize) -> u64 {
    median_of(
        samples
            .iter()
            .map(|s| s[series].as_nanos() as f64)
            .collect(),
    ) as u64
}

fn paired_ratio(samples: &[[Duration; 4]], num: usize, den: usize) -> f64 {
    median_of(
        samples
            .iter()
            .map(|s| s[num].as_secs_f64() / s[den].as_secs_f64())
            .collect(),
    )
}

fn predictor() -> Gshare {
    Gshare::new(14, 12)
}

fn main() {
    let samples_per_series: usize = std::env::var("EV8_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SAMPLES);
    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
    let scale = corpus_scale();
    let mut entries: Vec<(String, String)> = Vec::new();
    let mut worst_ratio = 0.0f64;

    for name in BENCHMARKS {
        if let Some(f) = &filter {
            if !format!("corpus_{name}").contains(f.as_str()) {
                continue;
            }
        }
        // The encoder takes the AoS trace; the in-RAM side is the cached
        // packed trace every experiment walks.
        let trace = spec95::benchmark(name)
            .expect("known benchmark")
            .generate_scaled(scale);
        let flat = spec95::cached(name, scale).expect("known benchmark");
        let records = trace.len() as u64;

        let mut bytes: Vec<u8> = Vec::new();
        write_corpus(&mut bytes, &trace).expect("in-memory corpus write");

        // Bit-identity before timing: decode reproduces the trace
        // exactly, and the streaming-decode simulation returns the exact
        // in-RAM result.
        {
            let reader = CorpusReader::new(bytes.as_slice()).expect("corpus header");
            assert_eq!(
                reader.read_trace().expect("corpus decode"),
                trace,
                "{name}: corpus roundtrip diverged"
            );
            let reader = CorpusReader::new(bytes.as_slice()).expect("corpus header");
            assert_eq!(
                drive(predictor(), reader, Plain).expect("corpus simulate"),
                drive(predictor(), &*flat, Plain),
                "{name}: streaming-decode simulation diverged"
            );
        }

        let mut samples: Vec<[Duration; 4]> = Vec::with_capacity(samples_per_series);
        for _ in 0..samples_per_series {
            samples.push([
                time(|| {
                    let mut out: Vec<u8> = Vec::new();
                    write_corpus(&mut out, &trace).expect("encode");
                    out
                }),
                time(|| {
                    let reader = CorpusReader::new(bytes.as_slice()).expect("header");
                    let mut n = 0u64;
                    reader
                        .for_each_block(|block| n += block.len() as u64)
                        .expect("decode");
                    n
                }),
                time(|| {
                    let reader = CorpusReader::new(bytes.as_slice()).expect("header");
                    drive(predictor(), reader, Plain).expect("simulate")
                }),
                time(|| drive(predictor(), &*flat, Plain)),
            ]);
        }

        let corpus_bpr = bytes.len() as f64 / records.max(1) as f64;
        let flat_bpr = flat.packed_bytes() as f64 / records.max(1) as f64;
        worst_ratio = worst_ratio.max(corpus_bpr);
        let encode_ns = median_ns(&samples, 0);
        let decode_ns = median_ns(&samples, 1);
        let overhead = paired_ratio(&samples, 2, 3);
        let mrec_s = |ns: u64| records as f64 / (ns as f64 / 1e9) / 1e6;
        println!(
            "corpus_{name:<9} {records:>8} records  {corpus_bpr:>5.2} B/rec (aos {AOS_BYTES_PER_RECORD}, flat {flat_bpr:.2})  \
             encode {:>6.1} Mrec/s  decode {:>6.1} Mrec/s  sim overhead {overhead:.2}x",
            mrec_s(encode_ns),
            mrec_s(decode_ns),
        );

        let mut out = JsonObject::new();
        out.field("benchmark", &name)
            .field("scale", &scale)
            .field("records", &records)
            .field("samples", &(samples.len() as u64))
            .field("corpus_bytes", &(bytes.len() as u64))
            .field("corpus_bytes_per_record", &corpus_bpr)
            .field("aos_bytes_per_record", &AOS_BYTES_PER_RECORD)
            .field("flat_bytes_per_record", &flat_bpr)
            .field("ratio_vs_aos", &(AOS_BYTES_PER_RECORD / corpus_bpr))
            .field("encode_ns", &encode_ns)
            .field("decode_ns", &decode_ns)
            .field("corpus_simulate_ns", &median_ns(&samples, 2))
            .field("cached_simulate_ns", &median_ns(&samples, 3))
            .field("corpus_simulate_overhead", &overhead);
        entries.push((format!("corpus/{name}"), out.finish()));
    }

    if !entries.is_empty() {
        assert!(
            worst_ratio < 10.0,
            "corpus compression must stay under 10 B/record (worst {worst_ratio:.2})"
        );
    }
    match ev8_bench::merge_bench_json(&entries) {
        Ok(path) => println!("merged {} corpus entries into {path}", entries.len()),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
