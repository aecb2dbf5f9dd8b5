//! SimPoint-style weighted phase sampling: simulate an exact anchored
//! prefix plus a handful of phase-stratified tail intervals, correct
//! the staleness with a fitted training-age curve, and estimate
//! full-trace misp/KI at a fraction of the cost.
//!
//! The pipeline is the classic three stages, each deterministic:
//!
//! 1. **Profile** ([`profile_intervals`]): a single streaming pass over
//!    the [`FlatTrace`] (via [`FlatTrace::for_each_in`]) slices the
//!    record stream into fixed-length intervals and extracts one
//!    branch-behaviour vector per interval — the basic-block-vector
//!    analog is per-PC conditional execution counts, projected into a
//!    fixed [`SamplingConfig::dims`]-dimensional integer vector by a
//!    seeded random projection (bucket and sign from
//!    `ev8_util::rng::mix(seed ^ pc)`), so the feature dimension is
//!    independent of the static footprint.
//! 2. **Cluster** ([`cluster_intervals`]): an in-tree k-means over the
//!    integer vectors. Everything that could vary by platform is pinned:
//!    distances are exact `u128` sums of squares, ties break to the
//!    lowest index, centroids are `i128` floor-division means, the
//!    iteration count is capped, and initialization is a seeded first
//!    pick (`ev8_util` RNG) followed by greedy farthest-point selection.
//!    Each cluster's *representative* is its centroid-nearest member.
//! 3. **Estimate** ([`simulate_sampled`]): one predictor lives through
//!    the whole plan. It first simulates the anchored prefix
//!    ([`SamplingConfig::anchor_intervals`]) serially — those intervals
//!    are measured *exactly*, and the prefix doubles as training so the
//!    predictor reaches the tail warm. The tail is then sampled:
//!    [`SamplingConfig::tail_samples`] intervals, allocated across
//!    phases proportionally to their tail population (every phase's
//!    centroid-nearest representative is always among its picks), each
//!    re-warmed over a short window of the records just before it, then
//!    measured — and everything between samples is skipped.
//!
//!    Stages 1 and 2, plus the sample allocation, make the *plan*, which
//!    does not depend on the predictor; the anchored prefix's interval
//!    bounds follow from [`SamplingConfig::interval_len`] alone. So a
//!    call uses two threads: one scoped helper thread builds the plan
//!    while the calling thread simulates the prefix, and the tail runs
//!    once both are done. The ranges, their order and the predictor are
//!    those of a serial plan-then-simulate, so every estimate is
//!    bit-identical to it.
//!
//!    A sampled interval at position `p` is measured by a predictor
//!    that has only trained on `t_eff < p` records, so its rate reads
//!    high by the training-curve gap `m(t_eff) − m(p)`. The estimator
//!    fits `m(t) = a + b·(t+1)^−α` ([`AgeCurve`]) to the exact anchor
//!    blocks plus the samples at their recorded effective ages, and
//!    charges unmeasured member intervals `curve(p) + phase residual`
//!    instead of the raw stale rate — the fit only has to be good on
//!    the *correction*, never on the absolute rate. Conditional-branch
//!    and instruction totals are exact (the profiling pass counts
//!    them); only mispredictions are estimated.
//!
//! **Error accounting.** The estimate is useless without the error next
//! to it: [`SampledVsFull`] pairs every sampled run with the full-trace
//! result and exposes the signed misp/KI delta and relative error, and
//! every consumer (golden fixture, `sampling/*` bench group, the CI
//! smoke) records the delta beside the reduction factor. Two structural
//! guarantees bound the audit: counts other than mispredictions are
//! exact, and when the plan degenerates to "no anchor, every interval
//! sampled, full warmup" the chained predictor sees every record once
//! in order and the estimate equals the serial run *bit for bit*
//! (pinned by tests — the same exactness anchor windowing has).

use ev8_trace::FlatTrace;
use ev8_util::rng::{DefaultRng, Rng};

use crate::experiments::Factory;
use crate::metrics::SimResult;
use crate::simulator::{drive, Plain};

/// Geometry and determinism knobs for a sampled run.
///
/// The defaults (via [`SamplingConfig::auto`]) target the acceptance
/// envelope measured on the Table 2 suite: ≥5× fewer simulated records
/// at low single-digit-percent misp/KI relative error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Records per interval. Must be non-zero.
    pub interval_len: usize,
    /// Target number of phases (clusters); clamped to the interval
    /// count. Must be non-zero.
    pub phases: usize,
    /// Dimension of the projected feature vectors. Must be non-zero.
    pub dims: usize,
    /// Warmup records replayed before each sampled tail interval,
    /// clamped so no record is ever replayed twice (the chained
    /// predictor never rewinds past its last measured position).
    pub warmup_len: usize,
    /// Seed for the feature projection and the k-means initialization.
    pub seed: u64,
    /// k-means iteration cap (assignment convergence usually stops it
    /// far earlier).
    pub max_iters: usize,
    /// Intervals in the exact anchored prefix: measured serially, and
    /// the training that carries the chained predictor into the tail.
    pub anchor_intervals: usize,
    /// Target number of sampled tail intervals (clamped to the tail
    /// population). At least one of `anchor_intervals` /
    /// `tail_samples` must be non-zero.
    pub tail_samples: usize,
}

impl SamplingConfig {
    /// The default plan for a trace of `records` records: 512
    /// intervals' worth of granularity, a one-sixteenth anchored
    /// prefix, ~50 stratified tail samples with quarter-interval
    /// re-warms. Calibrated on the full-scale Table 2 suite: the
    /// shorter anchor buys sample density, which measured better than
    /// anchor length across every hard cell — ≥5.4× record reduction
    /// with every EV8 cell within 2% relative error.
    pub fn auto(records: usize) -> Self {
        let interval_len = (records / 512).max(256);
        let n = records.div_ceil(interval_len).max(1);
        SamplingConfig {
            interval_len,
            phases: 6,
            dims: 32,
            warmup_len: (interval_len / 4).max(64),
            seed: 0xE85A_17B0_C3D2_4F69,
            max_iters: 16,
            anchor_intervals: (n / 16).max(1),
            tail_samples: (n / 10).max(4),
        }
    }

    /// Number of intervals a trace of `records` records slices into.
    pub fn intervals(&self, records: usize) -> usize {
        records.div_ceil(self.interval_len.max(1))
    }

    fn validate(&self) {
        assert!(self.interval_len > 0, "interval_len must be non-zero");
        assert!(self.phases > 0, "phases must be non-zero");
        assert!(self.dims > 0, "dims must be non-zero");
        assert!(
            self.anchor_intervals > 0 || self.tail_samples > 0,
            "anchor_intervals or tail_samples must be non-zero"
        );
    }
}

/// One profiled interval: exact per-interval counts plus the projected
/// behaviour vector k-means clusters on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// First record index (inclusive).
    pub start: usize,
    /// One past the last record index.
    pub end: usize,
    /// Conditional branches executed in the interval (exact).
    pub conditional_branches: u64,
    /// Instructions accounted to the interval (exact; record + gap).
    pub instructions: u64,
    /// Projected per-PC execution-count vector (the BBV analog).
    pub features: Vec<i64>,
}

/// One phase from clustering: a representative interval standing in for
/// `weight` member intervals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Index (into the interval list) of the centroid-nearest member.
    pub representative: usize,
    /// Number of member intervals (the population weight).
    pub weight: usize,
    /// Member interval indices, ascending.
    pub members: Vec<usize>,
}

/// The fitted training-age curve `m(t) = steady + transient·(t+1)^−α`
/// (t in interval units, m in mispredictions per instruction).
///
/// Fit by weighted least squares over the exact anchor blocks and the
/// tail samples at their effective ages, with `steady ≥ 0`,
/// `transient ≥ 0` and α grid-searched — misprediction rates decay
/// with training, so the constraints keep a noisy fit from
/// extrapolating nonsense.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgeCurve {
    /// Asymptotic (fully trained) misprediction rate per instruction.
    pub steady: f64,
    /// Transient amplitude at age zero.
    pub transient: f64,
    /// Power-law decay exponent.
    pub alpha: f64,
}

impl AgeCurve {
    /// The fitted rate at training age `t` (interval units).
    pub fn eval(&self, t: f64) -> f64 {
        self.steady + self.transient * (t + 1.0).powf(-self.alpha)
    }
}

/// One measured tail interval from a sampled run.
#[derive(Clone, Debug, PartialEq)]
pub struct TailSample {
    /// Interval index.
    pub interval: usize,
    /// Index into [`SampledRun::phases`] of the owning phase.
    pub phase: usize,
    /// Exact mispredictions measured in the interval.
    pub mispredictions: u64,
    /// The chained predictor's training age (interval units, at the
    /// window midpoint) when the interval was measured.
    pub effective_age: f64,
}

/// A population-weighted sampled estimate of a full-trace run.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// Estimated totals, shaped exactly like a serial [`SimResult`]:
    /// `instructions` and `conditional_branches` are exact;
    /// `mispredictions` is the estimate rounded to the nearest branch
    /// (the unrounded value is
    /// [`SampledRun::estimated_mispredictions`]).
    pub estimate: SimResult,
    /// The unrounded misprediction estimate.
    pub estimated_mispredictions: f64,
    /// The phases, ordered by ascending representative index.
    pub phases: Vec<Phase>,
    /// Total intervals profiled (phase weights sum to this).
    pub intervals: usize,
    /// Intervals in the exact anchored prefix (clamped to the total).
    pub anchor_intervals: usize,
    /// Exact mispredictions counted in the anchored prefix.
    pub anchor_mispredictions: u64,
    /// The measured tail samples, ascending by interval.
    pub samples: Vec<TailSample>,
    /// The fitted training-age curve used for staleness correction.
    pub curve: AgeCurve,
    /// Records actually run through a predictor (anchor + warmup +
    /// measured samples).
    pub simulated_records: usize,
    /// Records in the full trace.
    pub total_records: usize,
    /// The resolved configuration.
    pub config: SamplingConfig,
}

impl SampledRun {
    /// How many times fewer records were simulated than a full pass
    /// (`total / simulated`; ∞-free: a degenerate full-cost plan
    /// returns 1.0).
    pub fn reduction(&self) -> f64 {
        if self.simulated_records == 0 {
            1.0
        } else {
            self.total_records as f64 / self.simulated_records as f64
        }
    }
}

/// A sampled run paired with the full-trace ground truth — the error is
/// never reported without the number it qualifies.
#[derive(Clone, Debug)]
pub struct SampledVsFull {
    /// The full serial result.
    pub full: SimResult,
    /// The sampled estimate.
    pub sampled: SampledRun,
}

impl SampledVsFull {
    /// Signed misp/KI delta: `sampled − full`.
    pub fn misp_ki_delta(&self) -> f64 {
        let full = self.full.checked_misp_per_ki().unwrap_or(0.0);
        let est = self.sampled.estimate.checked_misp_per_ki().unwrap_or(0.0);
        est - full
    }

    /// |sampled − full| misp/KI as a fraction of the full value
    /// (0 when the full run had no mispredictions).
    pub fn relative_error(&self) -> f64 {
        let full = self.full.checked_misp_per_ki().unwrap_or(0.0);
        if full == 0.0 {
            0.0
        } else {
            (self.misp_ki_delta() / full).abs()
        }
    }
}

/// Projection bucket and sign for a static branch PC: deterministic,
/// platform-independent, shared by every interval. `dims_mask` is
/// `Some(dims - 1)` when `dims` is a power of two (every
/// [`SamplingConfig::auto`] plan), where the bucket `h % dims` is
/// `h & (dims - 1)` without a division.
#[inline]
fn project(seed: u64, pc_word: u64, dims: usize, dims_mask: Option<u64>) -> (usize, i64) {
    let h = ev8_util::rng::mix(seed ^ pc_word);
    let bucket = match dims_mask {
        Some(mask) => h & mask,
        None => h % dims as u64,
    } as usize;
    let sign = if (h >> 63) & 1 == 1 { 1 } else { -1 };
    (bucket, sign)
}

/// Stage 1: slice `trace` into `config.interval_len`-record intervals
/// and extract the projected behaviour vector of each, in one streaming
/// pass ([`FlatTrace::for_each_in`] per slice, consumed in order).
///
/// # Panics
///
/// Panics if the config fails validation.
pub fn profile_intervals(trace: &FlatTrace, config: &SamplingConfig) -> Vec<Interval> {
    config.validate();
    let len = trace.len();
    let dims_mask = config
        .dims
        .is_power_of_two()
        .then(|| config.dims as u64 - 1);
    let mut intervals = Vec::with_capacity(config.intervals(len));
    let mut start = 0usize;
    while start < len {
        let end = (start + config.interval_len).min(len);
        let mut iv = Interval {
            start,
            end,
            conditional_branches: 0,
            instructions: 0,
            features: vec![0i64; config.dims],
        };
        trace.for_each_in(start..end, |r| {
            // Branch-free: every record is projected and only the
            // conditional ones count, so the host never predicts a kind.
            let conditional = r.kind.is_conditional();
            iv.instructions += 1 + u64::from(r.gap);
            iv.conditional_branches += u64::from(conditional);
            let (bucket, sign) = project(config.seed, r.pc.as_u64() >> 2, config.dims, dims_mask);
            iv.features[bucket] += sign * i64::from(conditional);
        });
        intervals.push(iv);
        start = end;
    }
    intervals
}

/// Exact squared Euclidean distance between two integer vectors.
fn dist2(a: &[i64], b: &[i64]) -> u128 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (x - y) as i128;
            (d * d) as u128
        })
        .sum()
}

/// Stage 2: deterministic k-means over the interval feature vectors.
///
/// Initialization is a seeded uniform first pick followed by greedy
/// farthest-point selection (maximize the minimum distance to the
/// chosen set; ties to the lowest interval index). Assignment breaks
/// distance ties to the lowest cluster index; centroids are elementwise
/// `i128` floor-division means; iteration stops at assignment
/// convergence or `config.max_iters`. Empty clusters are dropped from
/// the output, so phase weights always sum to the interval count.
///
/// # Panics
///
/// Panics if the config fails validation.
pub fn cluster_intervals(intervals: &[Interval], config: &SamplingConfig) -> Vec<Phase> {
    config.validate();
    let n = intervals.len();
    if n == 0 {
        return Vec::new();
    }
    let k = config.phases.min(n);
    let dims = config.dims;

    // Seeded first centroid, then greedy farthest-point: deterministic
    // and well-spread without any float arithmetic.
    let mut rng = DefaultRng::seed_from_u64(config.seed);
    let first = rng.gen_range(0..n);
    let mut centroids: Vec<Vec<i64>> = vec![intervals[first].features.clone()];
    let mut min_d2: Vec<u128> = intervals
        .iter()
        .map(|iv| dist2(&iv.features, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let mut best = 0usize;
        for i in 1..n {
            if min_d2[i] > min_d2[best] {
                best = i;
            }
        }
        centroids.push(intervals[best].features.clone());
        let newest = centroids.last().expect("just pushed");
        for (i, iv) in intervals.iter().enumerate() {
            min_d2[i] = min_d2[i].min(dist2(&iv.features, newest));
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for _ in 0..config.max_iters.max(1) {
        // Assign: nearest centroid, ties to the lowest cluster index.
        let mut changed = false;
        for (i, iv) in intervals.iter().enumerate() {
            let mut best_c = 0usize;
            let mut best_d = dist2(&iv.features, &centroids[0]);
            for (c, centroid) in centroids.iter().enumerate().skip(1) {
                let d = dist2(&iv.features, centroid);
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
            if assignment[i] != best_c {
                assignment[i] = best_c;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Recenter: i128 sums, floor-division means; empty clusters keep
        // their previous centroid (they can re-acquire members later).
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let mut sums = vec![0i128; dims];
            let mut count = 0i128;
            for (i, iv) in intervals.iter().enumerate() {
                if assignment[i] == c {
                    count += 1;
                    for (s, f) in sums.iter_mut().zip(&iv.features) {
                        *s += i128::from(*f);
                    }
                }
            }
            if count > 0 {
                for (dst, s) in centroid.iter_mut().zip(&sums) {
                    *dst = s.div_euclid(count) as i64;
                }
            }
        }
    }

    // Emit phases: representative = centroid-nearest member (ties to the
    // lowest interval index), ordered by representative index.
    let mut phases: Vec<Phase> = Vec::with_capacity(k);
    for (c, centroid) in centroids.iter().enumerate() {
        let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
        if members.is_empty() {
            continue;
        }
        let representative = *members
            .iter()
            .min_by_key(|&&i| (dist2(&intervals[i].features, centroid), i))
            .expect("non-empty members");
        phases.push(Phase {
            representative,
            weight: members.len(),
            members,
        });
    }
    phases.sort_by_key(|p| p.representative);
    debug_assert_eq!(phases.iter().map(|p| p.weight).sum::<usize>(), n);
    phases
}

/// Weighted least-squares fit of `y = steady + transient·(t+1)^−α` over
/// `(age, rate, weight)` points, constrained to non-negative
/// coefficients with α grid-searched in [0.02, 2.0].
fn fit_curve(points: &[(f64, f64, f64)]) -> AgeCurve {
    let sw: f64 = points.iter().map(|p| p.2).sum();
    if sw <= 0.0 {
        return AgeCurve {
            steady: 0.0,
            transient: 0.0,
            alpha: 1.0,
        };
    }
    let mean = points.iter().map(|p| p.1 * p.2).sum::<f64>() / sw;
    let mut best = AgeCurve {
        steady: mean.max(0.0),
        transient: 0.0,
        alpha: 1.0,
    };
    let mut best_sse = f64::INFINITY;
    let mut step = 1usize;
    while step <= 100 {
        let alpha = step as f64 * 0.02;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(t, y, w) in points {
            let x = (t + 1.0).powf(-alpha);
            sx += w * x;
            sy += w * y;
            sxx += w * x * x;
            sxy += w * x * y;
        }
        let det = sw * sxx - sx * sx;
        let (mut a, mut b) = if det.abs() > 1e-12 {
            ((sy * sxx - sx * sxy) / det, (sw * sxy - sx * sy) / det)
        } else {
            (mean, 0.0)
        };
        if b < 0.0 {
            // Rates rise with age only through noise: flat fallback.
            b = 0.0;
            a = mean;
        } else if a < 0.0 {
            // Negative asymptote is unphysical: pin it and refit b.
            a = 0.0;
            b = if sxx > 1e-12 {
                (sxy / sxx).max(0.0)
            } else {
                0.0
            };
        }
        let mut sse = 0.0;
        for &(t, y, w) in points {
            let e = y - (a + b * (t + 1.0).powf(-alpha));
            sse += w * e * e;
        }
        if sse < best_sse {
            best_sse = sse;
            best = AgeCurve {
                steady: a,
                transient: b,
                alpha,
            };
        }
        step += 1;
    }
    best
}

/// Allocates `target` tail samples across phases proportionally to
/// their tail population (largest-remainder apportionment, every phase
/// with tail members gets at least one pick when the budget allows),
/// picks members evenly spaced within each phase, and forces each
/// phase's centroid-nearest representative into its picks when it lies
/// in the tail. Returns `(interval, phase index)` ascending by
/// interval.
fn allocate_samples(phases: &[Phase], anchor: usize, target: usize) -> Vec<(usize, usize)> {
    let tails: Vec<Vec<usize>> = phases
        .iter()
        .map(|p| p.members.iter().copied().filter(|&m| m >= anchor).collect())
        .collect();
    let tail_total: usize = tails.iter().map(Vec::len).sum();
    let target = target.min(tail_total);
    if target == 0 {
        return Vec::new();
    }
    // Largest-remainder apportionment, ties to the lowest phase index.
    let mut quota: Vec<usize> = tails
        .iter()
        .map(|t| target * t.len() / tail_total)
        .collect();
    let mut leftover = target - quota.iter().sum::<usize>();
    let mut by_rem: Vec<usize> = (0..phases.len()).collect();
    by_rem.sort_by_key(|&i| (std::cmp::Reverse(target * tails[i].len() % tail_total), i));
    for &i in &by_rem {
        if leftover == 0 {
            break;
        }
        if quota[i] < tails[i].len() {
            quota[i] += 1;
            leftover -= 1;
        }
    }
    // Every phase with tail members deserves a sample: steal from the
    // fattest quota (ties to the lowest index) while one can spare.
    while let Some(starved) = (0..phases.len()).find(|&i| !tails[i].is_empty() && quota[i] == 0) {
        let Some(donor) = (0..phases.len())
            .filter(|&i| quota[i] >= 2)
            .max_by_key(|&i| (quota[i], std::cmp::Reverse(i)))
        else {
            break;
        };
        quota[starved] += 1;
        quota[donor] -= 1;
    }
    let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(target);
    for (pi, tail) in tails.iter().enumerate() {
        let q = quota[pi];
        if q == 0 {
            continue;
        }
        let mut picks: Vec<usize> = (0..q)
            .map(|i| tail[(i * tail.len() / q + tail.len() / (2 * q)).min(tail.len() - 1)])
            .collect();
        let rep = phases[pi].representative;
        if rep >= anchor && !picks.contains(&rep) {
            let nearest = (0..picks.len())
                .min_by_key(|&i| (picks[i].abs_diff(rep), i))
                .expect("q > 0");
            picks[nearest] = rep;
        }
        picks.sort_unstable();
        picks.dedup();
        for m in picks {
            chosen.push((m, pi));
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Stage 3: the anchored chained estimate.
///
/// One predictor from `factory` simulates the anchored prefix serially
/// (exact per-interval counts), then visits the phase-allocated tail
/// samples in position order, re-warming over at most
/// `config.warmup_len` records before each (never rewinding past its
/// last simulated position, so no record is replayed twice) and
/// skipping everything in between. Unmeasured tail intervals are
/// charged the fitted [`AgeCurve`] at their own age plus their phase's
/// instruction-weighted sample residual; measured intervals keep their
/// exact counts.
///
/// A call uses two threads. The prefix's interval bounds follow from
/// `config.interval_len` alone, so while the calling thread simulates
/// the prefix, one scoped helper thread builds the plan (profile,
/// clustering and sample allocation), which does not depend on the
/// predictor. The tail starts once both are done, so the result is the
/// same as building the plan first.
///
/// # Panics
///
/// Panics if the config fails validation (on the calling thread,
/// before the helper starts), and re-raises a panic of the helper with
/// its own payload.
pub fn simulate_sampled(
    factory: &Factory,
    trace: &FlatTrace,
    config: &SamplingConfig,
) -> SampledRun {
    config.validate();
    let len = trace.len();
    let n = config.intervals(len);
    let anchor = config.anchor_intervals.min(n);
    let anchor_end = (anchor * config.interval_len).min(len);

    let mut predictor = factory();
    let ((intervals, phases, chosen), anchor_misps) = std::thread::scope(|s| {
        // The plan: profile → cluster → sample allocation.
        let plan = s.spawn(|| {
            let intervals = profile_intervals(trace, config);
            let phases = cluster_intervals(&intervals, config);
            let chosen = allocate_samples(&phases, anchor, config.tail_samples);
            (intervals, phases, chosen)
        });
        let anchor_misps: Vec<u64> = (0..anchor)
            .map(|j| {
                let start = j * config.interval_len;
                let end = (start + config.interval_len).min(len);
                drive(&mut predictor, (trace, start..end), Plain).mispredictions
            })
            .collect();
        let plan = plan
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (plan, anchor_misps)
    });
    debug_assert_eq!(intervals.len(), n);
    debug_assert_eq!(intervals.get(anchor).map_or(len, |iv| iv.start), anchor_end);
    let mut consumed = anchor_end; // records the chained predictor has seen
    let mut simulated = anchor_end;

    let mut samples: Vec<TailSample> = Vec::with_capacity(chosen.len());
    let mut prev_end = anchor_end;
    for &(j, pi) in &chosen {
        let (start, end) = (intervals[j].start, intervals[j].end);
        let warm_start = start.saturating_sub(config.warmup_len).max(prev_end);
        drive(&mut predictor, (trace, warm_start..start), Plain);
        consumed += start - warm_start;
        let effective_age = (consumed + (end - start) / 2) as f64 / config.interval_len as f64;
        let misp = drive(&mut predictor, (trace, start..end), Plain).mispredictions;
        consumed += end - start;
        simulated += end - warm_start;
        prev_end = end;
        samples.push(TailSample {
            interval: j,
            phase: pi,
            mispredictions: misp,
            effective_age,
        });
    }

    // Age curve: geometric anchor blocks (exact rates) plus the samples
    // at their effective ages. Ages in interval units, rates per
    // instruction.
    let mut points: Vec<(f64, f64, f64)> = Vec::new();
    let mut hi = anchor;
    while hi >= 4 && points.len() < 5 {
        let lo = hi / 2;
        let misp: u64 = anchor_misps[lo..hi].iter().sum();
        let instr: u64 = intervals[lo..hi].iter().map(|iv| iv.instructions).sum();
        points.push((
            (lo + hi) as f64 / 2.0,
            misp as f64 / instr.max(1) as f64,
            instr as f64,
        ));
        hi = lo;
    }
    for s in &samples {
        let instr = intervals[s.interval].instructions;
        points.push((
            s.effective_age,
            s.mispredictions as f64 / instr.max(1) as f64,
            instr as f64,
        ));
    }
    let curve = fit_curve(&points);

    // Phase residuals: instruction-weighted mean deviation of each
    // phase's samples from the curve at their measured ages.
    let mut res_num = vec![0.0f64; phases.len()];
    let mut res_den = vec![0.0f64; phases.len()];
    for s in &samples {
        let instr = intervals[s.interval].instructions as f64;
        let rate = s.mispredictions as f64 / instr.max(1.0);
        res_num[s.phase] += instr * (rate - curve.eval(s.effective_age));
        res_den[s.phase] += instr;
    }
    let mut member_phase = vec![usize::MAX; n];
    for (pi, ph) in phases.iter().enumerate() {
        for &m in &ph.members {
            member_phase[m] = pi;
        }
    }
    let mut measured_tail = vec![false; n];
    let mut estimated: f64 = anchor_misps.iter().map(|&m| m as f64).sum();
    for s in &samples {
        measured_tail[s.interval] = true;
        estimated += s.mispredictions as f64;
    }
    for (j, iv) in intervals.iter().enumerate().skip(anchor) {
        if measured_tail[j] {
            continue;
        }
        let pi = member_phase[j];
        let residual = if pi != usize::MAX && res_den[pi] > 0.0 {
            res_num[pi] / res_den[pi]
        } else {
            0.0
        };
        let rate = (curve.eval(j as f64 + 0.5) + residual).max(0.0);
        estimated += rate * iv.instructions as f64;
    }

    let estimate = SimResult {
        trace: trace.name().to_owned(),
        predictor: predictor.name(),
        instructions: trace.instruction_count(),
        conditional_branches: trace.conditional_count(),
        mispredictions: estimated.round() as u64,
    };
    SampledRun {
        estimate,
        estimated_mispredictions: estimated,
        intervals: n,
        anchor_intervals: anchor,
        anchor_mispredictions: anchor_misps.iter().sum(),
        samples,
        curve,
        phases,
        simulated_records: simulated,
        total_records: len,
        config: *config,
    }
}

/// Runs both the sampled estimate and the full serial reference, pairing
/// them so the |sampled − full| delta sits next to every number.
pub fn validate_sampled(
    factory: &Factory,
    trace: &FlatTrace,
    config: &SamplingConfig,
) -> SampledVsFull {
    let sampled = simulate_sampled(factory, trace, config);
    let full = crate::batch::simulate_flat(factory(), trace);
    SampledVsFull { full, sampled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::simulate_flat;
    use crate::experiments::factory;
    use ev8_predictors::gshare::Gshare;
    use ev8_workloads::spec95;
    use std::sync::Arc;

    fn compress(scale: f64) -> Arc<FlatTrace> {
        spec95::cached("compress", scale).expect("known benchmark")
    }

    fn tiny_config(trace: &FlatTrace) -> SamplingConfig {
        SamplingConfig {
            interval_len: (trace.len() / 24).max(64),
            phases: 4,
            dims: 16,
            warmup_len: (trace.len() / 96).max(16),
            seed: 7,
            max_iters: 8,
            anchor_intervals: 4,
            tail_samples: 6,
        }
    }

    #[test]
    fn profile_counts_are_exact_partitions() {
        let trace = compress(0.001);
        let config = tiny_config(&trace);
        let intervals = profile_intervals(&trace, &config);
        assert_eq!(intervals.len(), config.intervals(trace.len()));
        let conds: u64 = intervals.iter().map(|iv| iv.conditional_branches).sum();
        let instrs: u64 = intervals.iter().map(|iv| iv.instructions).sum();
        assert_eq!(conds, trace.conditional_count());
        assert_eq!(instrs, trace.instruction_count());
        // Contiguous, non-overlapping, covering.
        let mut expected_start = 0usize;
        for iv in &intervals {
            assert_eq!(iv.start, expected_start);
            assert!(iv.end > iv.start);
            expected_start = iv.end;
        }
        assert_eq!(expected_start, trace.len());
    }

    #[test]
    fn clustering_is_deterministic_and_weights_sum() {
        let trace = compress(0.001);
        let config = tiny_config(&trace);
        let intervals = profile_intervals(&trace, &config);
        let a = cluster_intervals(&intervals, &config);
        let b = cluster_intervals(&intervals, &config);
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(|p| p.weight).sum::<usize>(),
            intervals.len(),
            "weights must partition the interval population"
        );
        for p in &a {
            assert!(p.members.contains(&p.representative));
            assert_eq!(p.members.len(), p.weight);
        }
    }

    #[test]
    fn every_interval_sampled_with_full_warmup_is_bit_exact() {
        let trace = compress(0.001);
        let mut config = tiny_config(&trace);
        config.anchor_intervals = 0;
        config.tail_samples = usize::MAX; // every interval sampled
        config.warmup_len = trace.len(); // chain through every gap
        let fac = factory(|| Gshare::new(12, 10));
        let run = simulate_sampled(&fac, &trace, &config);
        let serial = simulate_flat(Gshare::new(12, 10), &trace);
        assert_eq!(run.estimate, serial);
        assert_eq!(run.estimated_mispredictions, serial.mispredictions as f64);
        assert!(run.reduction() <= 1.0 + 1e-9); // degenerate plan saves nothing
        assert_eq!(run.samples.len(), run.intervals);
    }

    #[test]
    fn full_anchor_is_bit_exact_too() {
        let trace = compress(0.001);
        let mut config = tiny_config(&trace);
        config.anchor_intervals = usize::MAX;
        let fac = factory(|| Gshare::new(12, 10));
        let run = simulate_sampled(&fac, &trace, &config);
        let serial = simulate_flat(Gshare::new(12, 10), &trace);
        assert_eq!(run.estimate, serial);
        assert!(run.samples.is_empty());
        assert_eq!(run.anchor_intervals, run.intervals);
    }

    #[test]
    fn sampled_estimate_lands_near_the_serial_truth() {
        let trace = compress(0.02);
        let config = SamplingConfig::auto(trace.len());
        let fac = factory(|| Gshare::new(14, 12));
        let cmp = validate_sampled(&fac, &trace, &config);
        assert!(
            cmp.sampled.reduction() > 4.0,
            "reduction {}",
            cmp.sampled.reduction()
        );
        // The 2% acceptance envelope holds at full scale (pinned by the
        // sampling bench); at one-fiftieth scale the trace is still
        // cold-start dominated, so the band here is looser.
        assert!(
            cmp.relative_error() < 0.06,
            "relative error {} (delta {})",
            cmp.relative_error(),
            cmp.misp_ki_delta()
        );
        // Exact fields are exact.
        assert_eq!(cmp.sampled.estimate.instructions, cmp.full.instructions);
        assert_eq!(
            cmp.sampled.estimate.conditional_branches,
            cmp.full.conditional_branches
        );
    }

    #[test]
    fn sampled_run_is_deterministic_across_runs_and_threads() {
        let trace = compress(0.001);
        let config = SamplingConfig::auto(trace.len());
        let fac = factory(|| Gshare::new(12, 10));
        let a = simulate_sampled(&fac, &trace, &config);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let trace = Arc::clone(&trace);
                let fac = Arc::clone(&fac);
                std::thread::spawn(move || simulate_sampled(&fac, &trace, &config))
            })
            .collect();
        for h in handles {
            let b = h.join().expect("no panic");
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.phases, b.phases);
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.simulated_records, b.simulated_records);
        }
    }

    #[test]
    fn representatives_are_always_sampled() {
        let trace = compress(0.002);
        let config = SamplingConfig::auto(trace.len());
        let fac = factory(|| Gshare::new(12, 10));
        let run = simulate_sampled(&fac, &trace, &config);
        let sampled: std::collections::HashSet<usize> =
            run.samples.iter().map(|s| s.interval).collect();
        for ph in &run.phases {
            if ph.representative >= run.anchor_intervals {
                assert!(
                    sampled.contains(&ph.representative),
                    "tail representative {} must be measured",
                    ph.representative
                );
            }
        }
    }

    #[test]
    fn empty_trace_yields_an_empty_run() {
        let trace = Arc::new(FlatTrace::from_trace(&ev8_trace::Trace::default()));
        let fac = factory(|| Gshare::new(10, 8));
        let config = SamplingConfig {
            interval_len: 64,
            phases: 4,
            dims: 8,
            warmup_len: 64,
            seed: 1,
            max_iters: 4,
            anchor_intervals: 2,
            tail_samples: 4,
        };
        let run = simulate_sampled(&fac, &trace, &config);
        assert_eq!(run.intervals, 0);
        assert!(run.phases.is_empty());
        assert!(run.samples.is_empty());
        assert_eq!(run.estimate.mispredictions, 0);
        assert_eq!(run.reduction(), 1.0);
    }

    /// The overlapped schedule against its serial twin: the run's phases
    /// are exactly the profile's clustering, and its anchor
    /// mispredictions are serial `drive`s over the profiled anchor
    /// intervals on a fresh predictor.
    fn assert_schedule_is_serial(trace: &FlatTrace, config: &SamplingConfig) {
        let fac = factory(|| Gshare::new(12, 10));
        let run = simulate_sampled(&fac, trace, config);
        let intervals = profile_intervals(trace, config);
        assert_eq!(run.intervals, intervals.len());
        assert_eq!(run.phases, cluster_intervals(&intervals, config));
        let anchor = config.anchor_intervals.min(intervals.len());
        assert_eq!(run.anchor_intervals, anchor);
        let mut serial = fac();
        let anchor_misps: u64 = intervals[..anchor]
            .iter()
            .map(|iv| drive(&mut serial, (trace, iv.start..iv.end), Plain).mispredictions)
            .sum();
        assert_eq!(run.anchor_mispredictions, anchor_misps);
    }

    #[test]
    fn overlapped_schedule_matches_serial_when_the_anchor_covers_the_trace() {
        let trace = compress(0.001);
        let mut config = tiny_config(&trace);
        let n = config.intervals(trace.len());
        for anchor in [n, n + 1, usize::MAX] {
            config.anchor_intervals = anchor;
            assert_schedule_is_serial(&trace, &config);
        }
    }

    #[test]
    fn overlapped_schedule_matches_serial_with_a_ragged_last_interval() {
        let trace = compress(0.001);
        let mut config = tiny_config(&trace);
        config.interval_len = trace.len() / 10 + 7;
        assert_ne!(
            trace.len() % config.interval_len,
            0,
            "last interval is short"
        );
        config.anchor_intervals = 3;
        assert_schedule_is_serial(&trace, &config);
        config.anchor_intervals = config.intervals(trace.len()); // ends on the short one
        assert_schedule_is_serial(&trace, &config);
    }

    #[test]
    fn overlapped_schedule_matches_serial_on_a_trace_shorter_than_an_interval() {
        let trace = compress(0.001);
        let mut config = tiny_config(&trace);
        config.interval_len = trace.len() + 100;
        assert_eq!(config.intervals(trace.len()), 1);
        assert_schedule_is_serial(&trace, &config);
        config.anchor_intervals = 0;
        assert_schedule_is_serial(&trace, &config);
    }

    #[test]
    fn overlapped_schedule_matches_serial_on_an_empty_trace() {
        let trace = FlatTrace::from_trace(&ev8_trace::Trace::default());
        let config = tiny_config(&trace);
        assert_schedule_is_serial(&trace, &config);
    }

    #[test]
    fn non_power_of_two_dims_bucket_by_remainder() {
        // The masked projection is taken only for powers of two; any
        // other width divides, and both cover exactly `dims` buckets.
        for dims in [1usize, 3, 12, 32] {
            let mask = dims.is_power_of_two().then(|| dims as u64 - 1);
            for pc_word in 0..256u64 {
                let (bucket, _) = project(7, pc_word, dims, mask);
                let h = ev8_util::rng::mix(7 ^ pc_word);
                assert_eq!(bucket as u64, h % dims as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "interval_len must be non-zero")]
    fn zero_interval_len_panics() {
        let trace = compress(0.0005);
        let mut config = tiny_config(&trace);
        config.interval_len = 0;
        profile_intervals(&trace, &config);
    }

    #[test]
    #[should_panic(expected = "anchor_intervals or tail_samples")]
    fn zero_budget_panics() {
        let trace = compress(0.0005);
        let mut config = tiny_config(&trace);
        config.anchor_intervals = 0;
        config.tail_samples = 0;
        profile_intervals(&trace, &config);
    }
}
