//! A lightweight `std::time::Instant`-based benchmark harness.
//!
//! Replaces `criterion` for the workspace's `harness = false` bench
//! targets. The measurement model is simple and honest: per benchmark,
//! one warm-up call, then `sample_size` timed samples (each sample runs
//! the closure enough times to cover a minimum measurable span), and the
//! report shows the median and minimum per-iteration time plus element
//! throughput when declared.
//!
//! # Example (a `benches/foo.rs` with `harness = false`)
//!
//! ```no_run
//! use ev8_util::bench::Harness;
//!
//! fn main() {
//!     let mut h = Harness::from_env();
//!     let mut g = h.group("sums");
//!     g.throughput(1_000);
//!     g.bench("sum_1k", |b| {
//!         b.iter(|| (0..1_000u64).sum::<u64>())
//!     });
//!     g.finish();
//! }
//! ```
//!
//! `cargo bench` runs offline; `EV8_BENCH_SAMPLES` overrides the sample
//! count — including any per-group [`Group::sample_size`] calls, so
//! `EV8_BENCH_SAMPLES=1` is a true one-sample smoke run (this is what
//! `scripts/ci.sh` uses) — and a positional command-line argument
//! filters benchmarks by substring of `group/name`.
//!
//! # Paired sampling
//!
//! Benches that compare two ways of doing one job record their series
//! in [`PairedSamples`] instead: every sample times each series once,
//! back to back, so a host slowdown that covers one sample slows every
//! series of that sample alike, and a within-sample ratio cancels it.
//! [`PairedSamples::ratio`] reports the median of those per-sample
//! ratios. Their sample count comes from the same
//! [`samples_from_env`] as the harness's.

use std::hint::black_box as hint_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`]: keeps a computed value alive so
/// the optimizer cannot delete the benchmarked work.
pub fn black_box<T>(v: T) -> T {
    hint_black_box(v)
}

/// Minimum time span one sample should cover; closures faster than this
/// are batched until a sample is measurable.
const MIN_SAMPLE: Duration = Duration::from_millis(2);

/// The top-level bench harness: parses the CLI filter and prints the
/// session header/footer.
pub struct Harness {
    filter: Option<String>,
    sample_size: usize,
    /// True when `sample_size` came from `EV8_BENCH_SAMPLES`; the env
    /// var then also wins over per-group [`Group::sample_size`] calls.
    env_samples: bool,
    ran: usize,
}

impl Harness {
    /// Builds a harness from command-line arguments and environment.
    ///
    /// Flags injected by `cargo bench` (`--bench`, `--nocapture`, ...)
    /// are ignored; the first non-flag argument is a substring filter on
    /// `group/name`. `EV8_BENCH_SAMPLES` ([`samples_from_env`]) sets the
    /// per-benchmark sample count (default 10) and, when present,
    /// overrides per-group [`Group::sample_size`] calls too.
    pub fn from_env() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let env_sample_size = samples_from_env();
        Harness {
            filter,
            sample_size: env_sample_size.unwrap_or(10),
            env_samples: env_sample_size.is_some(),
            ran: 0,
        }
    }

    /// A harness with an explicit filter and sample count (for tests).
    pub fn with_config(filter: Option<String>, sample_size: usize) -> Self {
        Harness {
            filter,
            sample_size: sample_size.max(1),
            env_samples: false,
            ran: 0,
        }
    }

    /// Starts a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_owned(),
            throughput: None,
            sample_size: None,
        }
    }

    /// Number of benchmarks actually run (after filtering).
    pub fn ran(&self) -> usize {
        self.ran
    }
}

/// A group of related benchmarks sharing a throughput declaration.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    throughput: Option<u64>,
    sample_size: Option<usize>,
}

impl Group<'_> {
    /// Declares how many logical elements one iteration processes, so the
    /// report can show elements/second.
    pub fn throughput(&mut self, elements: u64) -> &mut Self {
        self.throughput = Some(elements);
        self
    }

    /// Overrides the harness sample count for this group. An
    /// `EV8_BENCH_SAMPLES` environment setting still wins, so smoke runs
    /// stay one-sample even through groups that ask for more.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Runs one benchmark (unless filtered out) and prints its line.
    pub fn bench(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        let full = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let sample_size = if self.harness.env_samples {
            self.harness.sample_size
        } else {
            self.sample_size.unwrap_or(self.harness.sample_size)
        };
        let mut b = Bencher {
            sample_size,
            result: None,
        };
        f(&mut b);
        self.harness.ran += 1;
        match b.result {
            Some(m) => println!("{}", m.report_line(&full, self.throughput)),
            None => println!("{full:<44} (no measurement: Bencher::iter never called)"),
        }
    }

    /// Ends the group (purely cosmetic; prints nothing today).
    pub fn finish(&mut self) {}
}

/// Passed to each benchmark closure; call [`Bencher::iter`] exactly once.
pub struct Bencher {
    sample_size: usize,
    result: Option<Measurement>,
}

/// A completed measurement: per-iteration times across samples.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Median per-iteration time.
    pub median: Duration,
    /// Fastest per-iteration time observed.
    pub min: Duration,
    /// Iterations batched into each sample.
    pub batch: u32,
    /// Number of samples taken.
    pub samples: usize,
}

impl Measurement {
    fn report_line(&self, name: &str, throughput: Option<u64>) -> String {
        let mut line = format!(
            "{name:<44} {:>12}/iter  (min {:>12}, {} samples x {} iters)",
            fmt_duration(self.median),
            fmt_duration(self.min),
            self.samples,
            self.batch,
        );
        if let Some(elements) = throughput {
            let secs = self.median.as_secs_f64();
            if secs > 0.0 {
                line.push_str(&format!("  {:>12}", fmt_rate(elements as f64 / secs)));
            }
        }
        line
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} Gelem/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} Melem/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} Kelem/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} elem/s")
    }
}

impl Bencher {
    /// Measures the closure: one warm-up call (also used to size the
    /// per-sample batch), then `sample_size` timed samples.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warm-up + batch sizing.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let batch: u32 = if once >= MIN_SAMPLE {
            1
        } else {
            (MIN_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u32
        };

        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter.push(t.elapsed() / batch);
        }
        per_iter.sort_unstable();
        let median = upper_median(&per_iter);
        let min = per_iter[0];
        self.result = Some(Measurement {
            median,
            min,
            batch,
            samples: self.sample_size,
        });
    }

    /// The measurement, once [`Bencher::iter`] has run.
    pub fn measurement(&self) -> Option<&Measurement> {
        self.result.as_ref()
    }
}

/// The variable that sets every bench's sample count.
const SAMPLES_VAR: &str = "EV8_BENCH_SAMPLES";

/// The sample count `EV8_BENCH_SAMPLES` asks for, or `None` when it is
/// unset: the one reader of the variable, for [`Harness::from_env`] and
/// for every bench that fills [`PairedSamples`].
///
/// # Panics
///
/// Panics, naming the variable, when it is set to anything but a
/// positive integer: zero samples have no median to report.
pub fn samples_from_env() -> Option<usize> {
    let raw = std::env::var_os(SAMPLES_VAR)?;
    Some(parse_samples(&raw.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")))
}

fn parse_samples(raw: &str) -> Result<usize, String> {
    match raw.trim().parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{SAMPLES_VAR} must be a positive integer, got {raw:?}"
        )),
    }
}

/// Wall time of one call of `f`; the result goes through [`black_box`]
/// so the work cannot be optimized away.
pub fn time<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// Interleaved paired samples of a fixed number of series (see the
/// module doc): each [`push`](Self::push) records one sample, one time
/// per series, all taken back to back.
///
/// Its methods are `#[inline]`, so they are compiled only into the
/// benches that call them: ev8-util's own object code, which every
/// binary of the workspace links, stays the same with or without the
/// sampler, and so does those binaries' code layout.
#[derive(Clone, Debug)]
pub struct PairedSamples {
    series: usize,
    /// Sample-major: `times[s * series + i]` is series `i` in sample `s`.
    times: Vec<Duration>,
}

impl PairedSamples {
    /// An empty record of `series` series.
    ///
    /// # Panics
    ///
    /// Panics when `series` is zero.
    #[inline]
    pub fn new(series: usize) -> Self {
        assert!(series > 0, "paired samples need at least one series");
        PairedSamples {
            series,
            times: Vec::new(),
        }
    }

    /// Records one sample: one time per series, in series order.
    ///
    /// # Panics
    ///
    /// Panics when `sample` does not hold exactly one time per series.
    #[inline]
    pub fn push(&mut self, sample: &[Duration]) {
        assert_eq!(sample.len(), self.series, "one time per series");
        self.times.extend_from_slice(sample);
    }

    /// Median time of `series` in nanoseconds: the middle sample for an
    /// odd count, the upper of the two middle ones for an even count
    /// (as [`Measurement::median`]).
    ///
    /// # Panics
    ///
    /// Panics when no sample has been recorded.
    #[inline]
    pub fn median_ns(&self, series: usize) -> u64 {
        let mut column: Vec<Duration> = self.samples().map(|s| s[series]).collect();
        column.sort_unstable();
        upper_median(&column).as_nanos() as u64
    }

    /// Median over samples of the within-sample time ratio `num / den`
    /// (same median as [`median_ns`](Self::median_ns)).
    ///
    /// # Panics
    ///
    /// Panics when no sample has been recorded.
    #[inline]
    pub fn ratio(&self, num: usize, den: usize) -> f64 {
        let mut ratios: Vec<f64> = self
            .samples()
            .map(|s| s[num].as_secs_f64() / s[den].as_secs_f64())
            .collect();
        ratios.sort_by(f64::total_cmp);
        upper_median(&ratios)
    }

    #[inline]
    fn samples(&self) -> std::slice::ChunksExact<'_, Duration> {
        self.times.chunks_exact(self.series)
    }
}

fn upper_median<T: Copy>(sorted: &[T]) -> T {
    assert!(!sorted.is_empty(), "no samples recorded");
    sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut h = Harness::with_config(None, 3);
        let mut ran_inner = false;
        {
            let mut g = h.group("g");
            g.throughput(100);
            g.bench("busy", |b| {
                b.iter(|| {
                    ran_inner = true;
                    (0..1000u64).map(black_box).sum::<u64>()
                });
                let m = b.measurement().expect("measured");
                assert!(m.median >= m.min);
                assert!(m.batch >= 1);
                assert_eq!(m.samples, 3);
            });
            g.finish();
        }
        assert!(ran_inner);
        assert_eq!(h.ran(), 1);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut h = Harness::with_config(Some("match-me".into()), 2);
        {
            let mut g = h.group("grp");
            g.bench("other", |_| panic!("must be filtered out"));
            g.bench("match-me-exactly", |b| b.iter(|| 1u32 + 1));
        }
        assert_eq!(h.ran(), 1);
    }

    #[test]
    fn env_sample_count_beats_group_sample_size() {
        let mut h = Harness {
            filter: None,
            sample_size: 2,
            env_samples: true,
            ran: 0,
        };
        let mut g = h.group("g");
        g.sample_size(50);
        g.bench("b", |b| {
            b.iter(|| 1u32 + 1);
            assert_eq!(b.measurement().unwrap().samples, 2);
        });
    }

    #[test]
    fn group_sample_size_applies_without_env_override() {
        let mut h = Harness::with_config(None, 9);
        let mut g = h.group("g");
        g.sample_size(4);
        g.bench("b", |b| {
            b.iter(|| 1u32 + 1);
            assert_eq!(b.measurement().unwrap().samples, 4);
        });
    }

    #[test]
    fn slow_closures_get_batch_of_one() {
        let mut h = Harness::with_config(None, 2);
        let mut g = h.group("slow");
        g.bench("sleepy", |b| {
            b.iter(|| std::thread::sleep(Duration::from_millis(3)));
            assert_eq!(b.measurement().unwrap().batch, 1);
        });
    }

    #[test]
    fn sample_count_must_be_a_positive_integer() {
        assert_eq!(parse_samples("3"), Ok(3));
        for bad in ["0", "abc", "-1", ""] {
            let err = parse_samples(bad).unwrap_err();
            assert!(err.contains("EV8_BENCH_SAMPLES"), "{bad:?}: {err}");
        }
    }

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn paired_medians_over_odd_and_even_counts() {
        let mut odd = PairedSamples::new(2);
        for (a, b) in [(30, 1), (10, 2), (20, 3)] {
            odd.push(&[ns(a), ns(b)]);
        }
        assert_eq!((odd.median_ns(0), odd.median_ns(1)), (20, 2));

        let mut even = PairedSamples::new(1);
        for t in [40, 10, 30, 20] {
            even.push(&[ns(t)]);
        }
        assert_eq!(even.median_ns(0), 30, "upper median, as the harness's");
    }

    #[test]
    fn ratio_is_the_median_of_per_sample_ratios() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let mut s = PairedSamples::new(2);
        s.push(&[ns(100), ns(50)]); // 2
        s.push(&[ns(400), ns(100)]); // 4
        s.push(&[ns(300), ns(200)]); // 1.5
                                     // The medians alone (300 / 100) would read 3.
        assert!(close(s.ratio(0, 1), 2.0), "{}", s.ratio(0, 1));
        assert!(close(s.ratio(1, 0), 0.5), "{}", s.ratio(1, 0));
        s.push(&[ns(1000), ns(250)]); // 4
        assert!(close(s.ratio(0, 1), 4.0), "upper median of 1.5, 2, 4, 4");
    }

    #[test]
    #[should_panic(expected = "one time per series")]
    fn a_sample_needs_one_time_per_series() {
        PairedSamples::new(3).push(&[ns(1), ns(2)]);
    }

    #[test]
    fn duration_and_rate_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_rate(5e9).ends_with("Gelem/s"));
        assert!(fmt_rate(5e6).ends_with("Melem/s"));
        assert!(fmt_rate(5e3).ends_with("Kelem/s"));
        assert!(fmt_rate(5.0).ends_with("elem/s"));
    }
}
