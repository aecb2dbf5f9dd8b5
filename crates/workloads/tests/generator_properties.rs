//! Property-based tests of the synthetic workload generator: structural
//! invariants any generated trace must satisfy, across random spec
//! parameters.
//!
//! Driven by the in-tree deterministic harness (`ev8_util::prop`);
//! failures report an `EV8_PROP_CASE_SEED` that reproduces them.

use ev8_util::prop::{check, Gen};
use ev8_util::{prop_assert, prop_assert_eq};

use ev8_trace::{BranchKind, FlatTrace, TraceStats};
use ev8_workloads::{spec95, BehaviorMix, ProgramSpec};

const CASES: u64 = 24;

fn arb_spec(g: &mut Gen) -> ProgramSpec {
    let seed = g.range(1u64..10_000);
    ProgramSpec {
        name: format!("prop-{seed}"),
        seed,
        static_branches: g.range(2usize..300),
        instructions: g.range(20_000u64..120_000),
        branch_density: g.range(40.0f64..180.0),
        mix: BehaviorMix::default_integer(),
        hotness_skew: g.range(0.0f64..=1.0),
        call_fraction: g.range(0.0f64..0.25),
        noise: g.range(0.0f64..=1.0),
        chain_length_bias: g.range(0.0f64..=1.0),
    }
}

#[test]
fn generation_is_deterministic() {
    check("generation_is_deterministic", CASES, |g| {
        let spec = arb_spec(g);
        let a = spec.generate();
        let b = spec.generate();
        prop_assert_eq!(a, b);
        Ok(())
    });
}

#[test]
fn instruction_budget_and_counts_hold() {
    check("instruction_budget_and_counts_hold", CASES, |g| {
        let spec = arb_spec(g);
        let t = spec.generate();
        prop_assert!(t.instruction_count() >= spec.instructions);
        // The walk stops at the first record boundary past the budget.
        prop_assert!(
            t.instruction_count() < spec.instructions + 5_000,
            "overshoot {} on budget {}",
            t.instruction_count(),
            spec.instructions
        );
        // Builder bookkeeping: counts equal records + gaps.
        let sum: u64 = t.len() as u64 + t.iter().map(|r| r.gap as u64).sum::<u64>();
        prop_assert_eq!(sum, t.instruction_count());
        Ok(())
    });
}

#[test]
fn static_footprint_never_exceeds_spec() {
    check("static_footprint_never_exceeds_spec", CASES, |g| {
        let spec = arb_spec(g);
        let stats = TraceStats::from_trace(&FlatTrace::from_trace(&spec.generate()));
        prop_assert!(stats.static_conditional as usize <= spec.static_branches);
        prop_assert!(stats.dynamic_conditional > 0);
        Ok(())
    });
}

#[test]
fn calls_and_returns_balance() {
    check("calls_and_returns_balance", CASES, |g| {
        let spec = arb_spec(g);
        let stats = TraceStats::from_trace(&FlatTrace::from_trace(&spec.generate()));
        let calls = stats.per_kind.get(&BranchKind::Call).copied().unwrap_or(0);
        let rets = stats
            .per_kind
            .get(&BranchKind::Return)
            .copied()
            .unwrap_or(0);
        prop_assert!(rets <= calls, "returns {rets} exceed calls {calls}");
        Ok(())
    });
}

#[test]
fn non_conditional_records_are_taken() {
    check("non_conditional_records_are_taken", CASES, |g| {
        let spec = arb_spec(g);
        let t = spec.generate();
        for rec in t.iter() {
            if rec.kind.is_always_taken() {
                prop_assert!(rec.is_taken(), "{rec}");
            }
        }
        Ok(())
    });
}

#[test]
fn pcs_are_instruction_aligned_and_in_region() {
    check("pcs_are_instruction_aligned_and_in_region", CASES, |g| {
        let spec = arb_spec(g);
        let t = spec.generate();
        for rec in t.iter() {
            prop_assert_eq!(rec.pc.as_u64() % 4, 0);
            prop_assert_eq!(rec.target.as_u64() % 4, 0);
            prop_assert!(rec.pc.as_u64() >= 0x1_0000);
            prop_assert!(rec.target.as_u64() >= 0x1_0000);
        }
        Ok(())
    });
}

#[test]
fn cached_trace_is_bit_identical_to_fresh_generation() {
    check(
        "cached_trace_is_bit_identical_to_fresh_generation",
        12,
        |g| {
            // Every suite benchmark at a random (tiny) scale: the memoized
            // packed trace must hold, record by record, exactly what direct
            // generation produces — this is the property that makes the
            // cache sound to use everywhere.
            // Quantized scales keep the global cache small across cases
            // while still exercising several distinct keys per benchmark.
            let scale = g.range(1u64..=4) as f64 * 0.0002;
            for name in spec95::NAMES {
                let cached = spec95::cached(name, scale).expect("suite name");
                let fresh = spec95::benchmark(name)
                    .expect("suite name")
                    .generate_scaled(scale);
                prop_assert_eq!(cached.name(), fresh.name());
                prop_assert_eq!(cached.instruction_count(), fresh.instruction_count());
                prop_assert_eq!(cached.len(), fresh.len());
                for (i, (c, f)) in cached.iter().zip(fresh.records()).enumerate() {
                    prop_assert!(c == *f, "{name} record {i}: {c:?} vs {f:?}");
                }
                // And a second fetch returns the same allocation, not a copy.
                let again = spec95::cached(name, scale).expect("suite name");
                prop_assert!(std::sync::Arc::ptr_eq(&cached, &again));
            }
            Ok(())
        },
    );
}

#[test]
fn density_tracks_target_loosely() {
    check("density_tracks_target_loosely", CASES, |g| {
        let spec = arb_spec(g);
        // Density calibration is approximate but must stay in the right
        // regime across the whole parameter space.
        let stats = TraceStats::from_trace(&FlatTrace::from_trace(&spec.generate()));
        let density = stats.branch_density();
        prop_assert!(
            density > spec.branch_density * 0.4 && density < spec.branch_density * 2.5,
            "density {density} vs target {}",
            spec.branch_density
        );
        Ok(())
    });
}
