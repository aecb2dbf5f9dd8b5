//! Before/after benches for the two simulate-hot-loop optimisations, with
//! results written to `BENCH_sim.json` at the workspace root:
//!
//! * **trace provider** — fresh `generate_scaled` (the old behaviour at
//!   every test/experiment call site) vs a warm `spec95::cached` hit
//!   (the memoized provider all call sites use now);
//! * **table layout** — the bit-packed [`SplitCounterTable`] vs an
//!   in-bench byte-per-bit reference model with identical semantics,
//!   driven by the same pseudo-random train/strengthen stream;
//! * **simulate** — the full EV8 predictor over a cached suite trace,
//!   the hot loop the tier-1 suite spends its time in.
//!
//! The JSON records the median per-iteration nanoseconds for each side
//! and the resulting before/after ratios. The trace-provider ratio is
//! the one the tier-1 wall-clock win rides on; the table-layout ratio
//! is expected to be near 1 (packing trades a little shift/mask work
//! for an 8x smaller resident footprint), and is recorded so either
//! side regressing badly is visible.
//!
//! A fourth group guards the fault-injection subsystem's zero-cost
//! claim: hooks are *types* of the one driver, not flags, so
//! `drive(.., Plain)` carries no disabled-hook cost by construction —
//! `fault_hook_disabled_ns` (the plain hook on the same predictor/trace)
//! must stay in family with `simulate_ev8_ns` history, and
//! `fault_hook_zero_rate_ns` (`drive` with a rate-0 `&mut
//! FaultInjector`) records what an armed-but-idle injector costs (one
//! RNG draw per branch).
//!
//! A fifth group makes the same argument for the observability layer:
//! `observe_hook_disabled_ns` is the plain hook, and
//! `observe_hook_noop_ns` is `drive` with a `NullObserver` — the cost of
//! materialising per-branch provenance into a sink that drops it, which
//! bounds the armed-but-idle overhead.
//!
//! # Paired sampling
//!
//! This host (a shared single-core VM) shows machine-wide wall-clock
//! swings far larger than the effects measured here, and back-to-back
//! series timing let one slow phase poison whichever series it landed
//! on — the recorded `table_layout_speedup` once came out 0.91 and
//! `observe_hook_noop_overhead` 0.90 (a no-op observer "faster" than no
//! observer, which is structurally impossible). So, like the
//! `sweep_batched` bench, every sample now interleaves the series and
//! each recorded ratio is the **median of per-sample ratios**: a
//! slowdown covering one sample inflates both sides of that sample's
//! ratio and cancels. Each before/after pair goes further than
//! `sweep_batched`: the two sides run A,B,B,A,A,B,B,A within the sample
//! and each side keeps its *minimum* leg, cancelling the icache/front-end
//! edge a fixed order hands to whichever side runs second and shedding
//! additive noise spikes. `EV8_BENCH_SAMPLES` overrides the sample
//! count (CI smoke sets 1).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ev8_util::bench::black_box;
use ev8_util::json::JsonObject;

use ev8_core::Ev8Predictor;
use ev8_faults::{FaultInjector, FaultPlan};
use ev8_predictors::counter::Counter2;
use ev8_predictors::table::SplitCounterTable;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_sim::observe::NullObserver;
use ev8_sim::simulate_flat;
use ev8_sim::simulator::{drive, Plain};
use ev8_trace::{FlatTrace, Outcome};
use ev8_workloads::spec95;

const BENCH_SCALE: f64 = 0.002;
const DEFAULT_SAMPLES: usize = 7;

/// A byte-per-bit split table with the exact semantics
/// [`SplitCounterTable`] had before bit-packing: one `u8` per prediction
/// bit, one per hysteresis bit, write-enable on actual change.
struct ByteSplitTable {
    prediction: Vec<u8>,
    hysteresis: Vec<u8>,
    mask: usize,
}

impl ByteSplitTable {
    fn new(index_bits: u32, hysteresis_index_bits: u32) -> Self {
        ByteSplitTable {
            prediction: vec![0; 1 << index_bits],
            hysteresis: vec![1; 1 << hysteresis_index_bits],
            mask: (1 << hysteresis_index_bits) - 1,
        }
    }

    #[inline]
    fn train(&mut self, index: usize, outcome: Outcome) {
        let mut c =
            Counter2::from_split(self.prediction[index], self.hysteresis[index & self.mask]);
        let before = c;
        c.train(outcome);
        if c.prediction_bit() != before.prediction_bit() {
            self.prediction[index] = c.prediction_bit();
        }
        if c.hysteresis_bits() != before.hysteresis_bits() {
            self.hysteresis[index & self.mask] = c.hysteresis_bits();
        }
    }
}

/// The EV8's four-table geometry (Table 1): BIM 14/14, G0 16/15,
/// G1 16/16, Meta 16/15 — 352 Kbit total, 44 KB packed vs 352 KB
/// byte-per-bit. Driving all four per access makes the comparison
/// representative of the real predictor's working set; on hosts whose
/// caches swallow even the byte layout the two come out close, and the
/// ratio in `BENCH_sim.json` records whatever this host measured.
const EV8_TABLES: [(u32, u32); 4] = [(14, 14), (16, 15), (16, 16), (16, 15)];

/// Drives all four tables per access, as every EV8 prediction does.
fn drive_packed(tables: &mut [SplitCounterTable], accesses: u32) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..accesses {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let outcome = Outcome::from(x >> 63 != 0);
        let mut bits = x;
        for t in tables.iter_mut() {
            let idx = (bits >> 16) as usize & (t.entries() - 1);
            bits = bits.rotate_left(17);
            t.train(idx, outcome);
        }
    }
    tables
        .iter()
        .map(|t| t.prediction_writes() + t.hysteresis_writes())
        .sum()
}

fn drive_bytes(tables: &mut [ByteSplitTable], accesses: u32) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..accesses {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let outcome = Outcome::from(x >> 63 != 0);
        let mut bits = x;
        for t in tables.iter_mut() {
            let idx = (bits >> 16) as usize & (t.prediction.len() - 1);
            bits = bits.rotate_left(17);
            t.train(idx, outcome);
        }
    }
    tables.iter().map(|t| t.prediction.len() as u64).sum()
}

const SERIES: usize = 9;
const FRESH: usize = 0;
const CACHED: usize = 1;
const BYTES: usize = 2;
const PACKED: usize = 3;
const SIM_EV8: usize = 4;
const FAULT_DISABLED: usize = 5;
const FAULT_ZERO: usize = 6;
const OBSERVE_DISABLED: usize = 7;
const OBSERVE_NOOP: usize = 8;

const SERIES_NAMES: [&str; SERIES] = [
    "trace_provider/generate_fresh",
    "trace_provider/cached_hit",
    "table_layout/byte_split_train",
    "table_layout/packed_split_train",
    "simulate/ev8_full_m88ksim",
    "fault_hook/disabled_plain_simulate",
    "fault_hook/zero_rate_injector",
    "observe_hook/disabled_plain_simulate",
    "observe_hook/noop_observer",
];

fn time<R>(mut f: impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

fn median_ns(samples: &[[Duration; SERIES]], series: usize) -> u64 {
    median_of(
        samples
            .iter()
            .map(|s| s[series].as_nanos() as f64)
            .collect(),
    ) as u64
}

/// Median over samples of the within-sample `num / den` time ratio.
fn paired_ratio(samples: &[[Duration; SERIES]], num: usize, den: usize) -> f64 {
    median_of(
        samples
            .iter()
            .map(|s| s[num].as_secs_f64() / s[den].as_secs_f64())
            .collect(),
    )
}

fn main() {
    let samples_per_series: usize = std::env::var("EV8_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SAMPLES);
    let spec = spec95::benchmark("m88ksim").expect("known benchmark");

    // Warm the cache outside measurement so "cached_hit" times the hit
    // path, not the first-miss generation.
    let trace: Arc<FlatTrace> = spec95::cached("m88ksim", BENCH_SCALE).expect("known benchmark");

    const ACCESSES: u32 = 200_000;
    // Table state persists across samples, as it did across the old
    // bench's iterations: steady-state occupancy, not cold-table fills.
    let mut packed_tables: Vec<SplitCounterTable> = EV8_TABLES
        .iter()
        .map(|&(p, hy)| SplitCounterTable::new(p, hy))
        .collect();
    let mut byte_tables: Vec<ByteSplitTable> = EV8_TABLES
        .iter()
        .map(|&(p, hy)| ByteSplitTable::new(p, hy))
        .collect();

    // One warmup pass of every series (not recorded) so the first sample
    // doesn't pay first-touch page faults and cold caches for one side.
    let _ = drive_bytes(&mut byte_tables, ACCESSES);
    let _ = drive_packed(&mut packed_tables, ACCESSES);
    let _ = simulate_flat(Ev8Predictor::ev8(), &trace);

    // Every before/after pair is timed A,B,B,A *within* each sample and
    // each side keeps the MINIMUM of its two runs: running B right after
    // A leaves A's shared code hot in the front-end caches (a systematic
    // edge a fixed A,B order hands to B every sample), and host noise is
    // strictly additive, so the min is the robust per-sample estimate.
    // The per-sample ratio then feeds the median as in `sweep_batched`.
    let mut samples: Vec<[Duration; SERIES]> = Vec::with_capacity(samples_per_series);
    for _ in 0..samples_per_series {
        let mut t = [Duration::MAX; SERIES];
        t[FRESH] = time(|| spec.generate_scaled(BENCH_SCALE));
        t[CACHED] = time(|| spec95::cached("m88ksim", BENCH_SCALE).expect("known benchmark"));
        for leg in [0, 1, 1, 0, 0, 1, 1, 0] {
            match leg {
                0 => {
                    let d = time(|| black_box(drive_bytes(&mut byte_tables, ACCESSES)));
                    t[BYTES] = t[BYTES].min(d);
                }
                _ => {
                    let d = time(|| black_box(drive_packed(&mut packed_tables, ACCESSES)));
                    t[PACKED] = t[PACKED].min(d);
                }
            }
        }
        for leg in [0, 1, 1, 0, 0, 1, 1, 0] {
            match leg {
                0 => {
                    let d = time(|| {
                        drive(
                            TwoBcGskew::new(TwoBcGskewConfig::ev8_size()),
                            &*trace,
                            Plain,
                        )
                    });
                    t[FAULT_DISABLED] = t[FAULT_DISABLED].min(d);
                }
                _ => {
                    let d = time(|| {
                        let predictor = TwoBcGskew::new(TwoBcGskewConfig::ev8_size());
                        let mut injector = FaultInjector::new(FaultPlan::seu(0.0), &predictor);
                        drive(predictor, &*trace, &mut injector)
                    });
                    t[FAULT_ZERO] = t[FAULT_ZERO].min(d);
                }
            }
        }
        for leg in [0, 1, 1, 0, 0, 1, 1, 0] {
            match leg {
                0 => {
                    let d = time(|| drive(Ev8Predictor::ev8(), &*trace, Plain));
                    t[OBSERVE_DISABLED] = t[OBSERVE_DISABLED].min(d);
                }
                _ => {
                    let d = time(|| drive(Ev8Predictor::ev8(), &*trace, NullObserver));
                    t[OBSERVE_NOOP] = t[OBSERVE_NOOP].min(d);
                }
            }
        }
        t[SIM_EV8] = time(|| simulate_flat(Ev8Predictor::ev8(), &trace));
        samples.push(t);
    }

    for (i, series) in SERIES_NAMES.iter().enumerate() {
        println!(
            "sim_hot_loop/{series:<38} {:>12} ns/iter  (median of {} paired samples)",
            median_ns(&samples, i),
            samples.len(),
        );
    }
    let table_layout_speedup = paired_ratio(&samples, BYTES, PACKED);
    let fault_overhead = paired_ratio(&samples, FAULT_ZERO, FAULT_DISABLED);
    let observe_overhead = paired_ratio(&samples, OBSERVE_NOOP, OBSERVE_DISABLED);
    println!(
        "sim_hot_loop: table_layout_speedup {table_layout_speedup:.2}x  \
         fault_hook_zero_rate_overhead {fault_overhead:.3}  \
         observe_hook_noop_overhead {observe_overhead:.3}"
    );

    let mut out = JsonObject::new();
    out.field("benchmark", &"m88ksim")
        .field("scale", &BENCH_SCALE)
        .field("samples", &(samples.len() as u64))
        .field("trace_provider_fresh_ns", &median_ns(&samples, FRESH))
        .field("trace_provider_cached_ns", &median_ns(&samples, CACHED))
        .field(
            "trace_provider_speedup",
            &paired_ratio(&samples, FRESH, CACHED),
        )
        .field("table_layout_accesses", &(ACCESSES as u64))
        .field("table_layout_byte_ns", &median_ns(&samples, BYTES))
        .field("table_layout_packed_ns", &median_ns(&samples, PACKED))
        .field("table_layout_speedup", &table_layout_speedup)
        .field("simulate_ev8_ns", &median_ns(&samples, SIM_EV8))
        .field(
            "simulate_branches_per_sec",
            &(trace.conditional_count() as f64
                / Duration::from_nanos(median_ns(&samples, SIM_EV8).max(1)).as_secs_f64()),
        )
        .field(
            "fault_hook_disabled_ns",
            &median_ns(&samples, FAULT_DISABLED),
        )
        .field("fault_hook_zero_rate_ns", &median_ns(&samples, FAULT_ZERO))
        .field("fault_hook_zero_rate_overhead", &fault_overhead)
        .field(
            "observe_hook_disabled_ns",
            &median_ns(&samples, OBSERVE_DISABLED),
        )
        .field("observe_hook_noop_ns", &median_ns(&samples, OBSERVE_NOOP))
        .field("observe_hook_noop_overhead", &observe_overhead);
    let json = out.finish();
    // Merge-on-write: this group's entry is keyed so other bench groups'
    // history in the shared file survives this run (`EV8_BENCH_JSON`
    // redirects, e.g. for the CI one-sample smoke).
    match ev8_bench::merge_bench_json(&[("sim_hot_loop/m88ksim".to_owned(), json)]) {
        Ok(path) => println!("merged sim_hot_loop/m88ksim into {path}"),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
