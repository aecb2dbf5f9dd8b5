//! The deterministic fault-injection engine.

use ev8_predictors::introspect::{ArrayInfo, FaultTarget};
use ev8_util::rng::{mix, DefaultRng, Rng};

use crate::plan::{FaultKind, FaultPlan};

/// Per-array accounting of injected faults.
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    injected: u64,
    per_array: Vec<(&'static str, u64)>,
}

impl FaultLog {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Injected-fault counts per array name, in the target's array order
    /// (eligible arrays only).
    pub fn by_array(&self) -> &[(&'static str, u64)] {
        &self.per_array
    }
}

/// Injects faults from a [`FaultPlan`] into a [`FaultTarget`].
///
/// The injector snapshots the target's array geometry at construction and
/// derives every subsequent decision (inject or not, which array, which
/// bit/word) from one xoshiro256\*\* stream seeded by the plan: the full
/// fault sequence is a pure function of `(plan, target geometry)`.
///
/// Bits are selected uniformly over the *total* eligible bits, so a
/// 64 Kbit array receives 4× the faults of a 16 Kbit array — matching
/// physical soft-error behaviour, where the strike rate is per cell, not
/// per array.
///
/// Call [`step`](FaultInjector::step) once per predicted branch. The
/// fire/don't-fire decision and the fault address come from two
/// independently derived streams; the decision stream advances exactly
/// one draw per step regardless of the rate, so sweeps over rates under
/// one seed are *paired* samples — every step that fires at rate `r`
/// also fires at any `r' > r`, removing one noise source from
/// degradation curves.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-step fire/don't-fire stream (one draw per step, always).
    decide: DefaultRng,
    /// `plan.rate` precomputed as an integer threshold over the 53-bit
    /// decision draw (see [`decide_threshold`]): the armed-but-quiet hot
    /// path is one raw draw, one shift and one integer compare per
    /// branch, with no per-step float conversion or clamp branches.
    decide_threshold: u64,
    /// Fault-address stream (advances only when a fault fires).
    addr: DefaultRng,
    /// Eligible arrays: (index in the target's array order, geometry).
    arrays: Vec<(usize, ArrayInfo)>,
    /// Total bits across eligible arrays (bit-granular fault kinds).
    total_bits: u64,
    /// Total 64-bit words across eligible arrays (burst faults).
    total_words: u64,
    log: FaultLog,
}

impl FaultInjector {
    /// Builds an injector for `target`, capturing its array geometry.
    ///
    /// # Panics
    ///
    /// Panics if the plan's selector matches none of the target's arrays
    /// (an impossible-to-satisfy plan is a configuration bug, not a
    /// runtime condition).
    pub fn new(plan: FaultPlan, target: &impl FaultTarget) -> Self {
        let arrays: Vec<(usize, ArrayInfo)> = target
            .fault_arrays()
            .into_iter()
            .enumerate()
            .filter(|(_, info)| plan.target.matches(info.name, info.class))
            .collect();
        assert!(
            !arrays.is_empty(),
            "fault plan selector matches no array of the target"
        );
        let total_bits = arrays.iter().map(|(_, a)| a.bits as u64).sum();
        let total_words = arrays.iter().map(|(_, a)| a.words() as u64).sum();
        let per_array = arrays.iter().map(|(_, a)| (a.name, 0)).collect();
        FaultInjector {
            decide_threshold: decide_threshold(plan.rate),
            decide: DefaultRng::seed_from_u64(mix(plan.seed)),
            addr: DefaultRng::seed_from_u64(mix(plan.seed ^ 0xFA17_ADD2_E55E_5EED)),
            arrays,
            total_bits,
            total_words,
            log: FaultLog {
                injected: 0,
                per_array,
            },
            plan,
        }
    }

    /// The injection log so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Consumes the injector, returning the final injection log.
    pub fn into_log(self) -> FaultLog {
        self.log
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances one branch: with probability `plan.rate`, injects one
    /// fault into `target`. Exactly one RNG draw is consumed for the
    /// decision regardless of outcome.
    #[inline]
    pub fn step(&mut self, target: &mut impl FaultTarget) {
        // Bit-exact to `self.decide.gen_bool(self.plan.rate)` — same draw,
        // same decision — but the per-step cost is one integer compare.
        // The `gen_bool` formulation (two float clamp branches plus an
        // int→float convert and float compare per branch) is what pushed
        // `fault_hook_zero_rate_overhead` from 1.8% to 12.9% in
        // `BENCH_sim.json`.
        if (self.decide.next_u64() >> 11) < self.decide_threshold {
            self.inject_one(target);
        }
    }

    /// Unconditionally injects one fault (used by `step` and directly by
    /// tests that want a fixed fault count).
    pub fn inject_one(&mut self, target: &mut impl FaultTarget) {
        match self.plan.kind {
            FaultKind::BitFlip => {
                let (slot, array, bit) = self.pick_bit();
                target.flip_bit(array, bit);
                self.record(slot);
            }
            FaultKind::StuckAt0 => {
                let (slot, array, bit) = self.pick_bit();
                target.force_bit(array, bit, 0);
                self.record(slot);
            }
            FaultKind::StuckAt1 => {
                let (slot, array, bit) = self.pick_bit();
                target.force_bit(array, bit, 1);
                self.record(slot);
            }
            FaultKind::WordBurst => {
                let mut w = self.addr.gen_range(0..self.total_words);
                for (slot, (array, info)) in self.arrays.iter().enumerate() {
                    let words = info.words() as u64;
                    if w < words {
                        target.flip_word(*array, w as usize);
                        self.record(slot);
                        return;
                    }
                    w -= words;
                }
                unreachable!("word draw exceeds total_words");
            }
        }
    }

    /// Draws a uniform bit over all eligible arrays; returns
    /// (eligible-slot, target array index, bit index).
    fn pick_bit(&mut self) -> (usize, usize, usize) {
        let mut b = self.addr.gen_range(0..self.total_bits);
        for (slot, (array, info)) in self.arrays.iter().enumerate() {
            let bits = info.bits as u64;
            if b < bits {
                return (slot, *array, b as usize);
            }
            b -= bits;
        }
        unreachable!("bit draw exceeds total_bits");
    }

    fn record(&mut self, slot: usize) {
        self.log.injected += 1;
        self.log.per_array[slot].1 += 1;
    }
}

/// `rate` as an integer threshold over the 53-bit decision draw:
/// `(next_u64() >> 11) < decide_threshold(rate)` decides exactly like
/// `gen_bool(rate)` on the same draw, for *every* `f64` rate.
///
/// Why it is exact: `gen_bool` computes `u * 2⁻⁵³ < rate` with
/// `u = next_u64() >> 11 ∈ [0, 2⁵³)`, and both that product and
/// `rate * 2⁵³` are powers-of-two scalings (no rounding), so the real
/// comparison `u < rate·2⁵³` is preserved; taking `ceil` makes the
/// strict inequality land on the right integer whether or not
/// `rate·2⁵³` is integral. The saturating `as u64` cast maps NaN and
/// negatives to 0 (never fire — `gen_bool`'s `p <= 0.0` clamp) and
/// `rate >= 1.0` to at least 2⁵³, above every draw (always fire — the
/// `p >= 1.0` clamp). Pinned against `gen_bool` draw-for-draw in
/// `decision_stream_is_bit_exact_to_gen_bool`.
fn decide_threshold(rate: f64) -> u64 {
    const SCALE: f64 = (1u64 << 53) as f64;
    (rate * SCALE).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ArraySelector;
    use ev8_predictors::bitvec::Counter2Table;
    use ev8_predictors::introspect::ArrayClass;
    use ev8_predictors::table::SplitCounterTable;
    use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};

    #[test]
    fn rate_one_injects_every_step_rate_zero_never() {
        let mut t = Counter2Table::new(8);
        let mut always = FaultInjector::new(FaultPlan::seu(1.0).with_seed(1), &t);
        let mut never = FaultInjector::new(FaultPlan::seu(0.0).with_seed(1), &t);
        let pristine = t.clone();
        for _ in 0..64 {
            never.step(&mut t);
        }
        assert_eq!(never.log().injected(), 0);
        assert_eq!(t, pristine, "rate 0 must not touch the target");
        for _ in 0..64 {
            always.step(&mut t);
        }
        assert_eq!(always.log().injected(), 64);
        assert_ne!(t, pristine);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mut a = TwoBcGskew::new(TwoBcGskewConfig::equal(8, 6));
        let mut b = a.clone();
        let plan = FaultPlan::seu(0.5).with_seed(0xDEAD);
        let mut ia = FaultInjector::new(plan, &a);
        let mut ib = FaultInjector::new(plan, &b);
        for _ in 0..500 {
            ia.step(&mut a);
            ib.step(&mut b);
        }
        assert_eq!(ia.log().injected(), ib.log().injected());
        assert_eq!(ia.log().by_array(), ib.log().by_array());
        // The predictors were mutated identically.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn selector_restricts_damage_to_chosen_class() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::ev8_size());
        let plan = FaultPlan::seu(1.0)
            .targeting(ArraySelector::Class(ArrayClass::Hysteresis))
            .with_seed(3);
        let mut inj = FaultInjector::new(plan, &p);
        for _ in 0..256 {
            inj.step(&mut p);
        }
        assert_eq!(inj.log().injected(), 256);
        for (name, count) in inj.log().by_array() {
            assert!(name.ends_with(".hysteresis"), "hit {name}");
            let _ = count;
        }
        // All four hysteresis arrays are eligible (and large enough that
        // 256 uniform draws hit several of them).
        assert_eq!(inj.log().by_array().len(), 4);
        let hit = inj.log().by_array().iter().filter(|(_, c)| *c > 0).count();
        assert!(hit >= 2, "expected spread over arrays, got {hit}");
    }

    #[test]
    fn named_selector_hits_exactly_one_array() {
        let p = TwoBcGskew::new(TwoBcGskewConfig::equal(8, 6));
        let plan = FaultPlan::seu(1.0).targeting(ArraySelector::Named("meta.prediction"));
        let mut inj = FaultInjector::new(plan, &p);
        let mut q = p.clone();
        for _ in 0..32 {
            inj.step(&mut q);
        }
        assert_eq!(inj.log().by_array(), &[("meta.prediction", 32)]);
    }

    #[test]
    fn faults_land_proportionally_to_array_size() {
        // G0's hysteresis is half its prediction array on the EV8: under
        // uniform per-cell strikes, it should collect about half the hits.
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::ev8_size());
        let plan = FaultPlan::seu(1.0).with_seed(11);
        let mut inj = FaultInjector::new(plan, &p);
        for _ in 0..20_000 {
            inj.step(&mut p);
        }
        let count = |name: &str| {
            inj.log()
                .by_array()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, c)| *c)
                .unwrap()
        };
        let pred = count("g0.prediction") as f64;
        let hyst = count("g0.hysteresis") as f64;
        let ratio = hyst / pred;
        assert!(
            (0.35..0.7).contains(&ratio),
            "expected ~0.5 hysteresis/prediction hit ratio, got {ratio:.3}"
        );
    }

    #[test]
    fn stuck_at_faults_force_the_chosen_value() {
        let mut t = Counter2Table::new(6);
        let mut inj = FaultInjector::new(FaultPlan::stuck_at(1.0, 1).with_seed(5), &t);
        for _ in 0..512 {
            inj.inject_one(&mut t);
        }
        // Enough stuck-at-1 injections over 128 bits: many counters now
        // read 0b11; none lost bits they already had (1s only).
        let elevated = t.iter().filter(|c| c.value() == 0b11).count();
        assert!(
            elevated > 16,
            "stuck-at-1 should saturate lanes, got {elevated}"
        );
    }

    #[test]
    fn word_burst_scrambles_a_full_row() {
        let mut t = SplitCounterTable::full(8); // 256 pred + 256 hyst bits
        let mut inj = FaultInjector::new(FaultPlan::bursts(1.0).with_seed(9), &t);
        inj.inject_one(&mut t);
        // Exactly one 64-bit row inverted: 64 logical counters changed in
        // exactly one of their two bits (pred or hyst array row).
        let changed = (0..256).filter(|&i| t.read(i).value() != 0b01).count();
        assert_eq!(changed, 64);
    }

    #[test]
    fn rate_sweeps_are_paired_samples() {
        // Same seed, different rates: the per-step decision stream is the
        // same, so every fault injected at rate r also fires at any
        // r' > r (the decision draw is shared; only the threshold moves).
        let t = Counter2Table::new(8);
        let mut low = FaultInjector::new(FaultPlan::seu(0.1).with_seed(77), &t);
        let mut high = FaultInjector::new(FaultPlan::seu(0.4).with_seed(77), &t);
        let mut fired_low = Vec::new();
        let mut fired_high = Vec::new();
        let mut tl = t.clone();
        let mut th = t.clone();
        for i in 0..2000 {
            let before = low.log().injected();
            low.step(&mut tl);
            if low.log().injected() > before {
                fired_low.push(i);
            }
            let before = high.log().injected();
            high.step(&mut th);
            if high.log().injected() > before {
                fired_high.push(i);
            }
        }
        for i in &fired_low {
            assert!(fired_high.contains(i), "step {i} fired at 0.1 but not 0.4");
        }
        assert!(fired_high.len() > fired_low.len());
    }

    #[test]
    fn decision_stream_is_bit_exact_to_gen_bool() {
        // The integer-threshold hot path must reproduce gen_bool's
        // decisions draw-for-draw at every rate, including the clamp
        // regions and non-finite rates.
        let rates = [
            0.0,
            f64::MIN_POSITIVE,
            1e-12,
            0.1,
            0.25,
            0.5,
            0.4999999999999999,
            0.9999999999999999,
            1.0,
            1.5,
            -0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for rate in rates {
            let thr = decide_threshold(rate);
            let mut reference = DefaultRng::seed_from_u64(mix(0x0D00_D1E5));
            let mut fast = reference.clone();
            for step in 0..4000 {
                let expected = reference.gen_bool(rate);
                let got = (fast.next_u64() >> 11) < thr;
                assert_eq!(got, expected, "rate {rate} step {step}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matches no array")]
    fn impossible_selector_rejected() {
        let t = Counter2Table::new(4);
        // A counter table has no Prediction-class array.
        FaultInjector::new(
            FaultPlan::seu(0.5).targeting(ArraySelector::Class(ArrayClass::Prediction)),
            &t,
        );
    }
}
