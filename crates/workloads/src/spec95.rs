//! Calibrated SPECINT95 benchmark analogues (Table 2 of the paper).
//!
//! For every benchmark in the paper's evaluation we provide a
//! [`ProgramSpec`] whose *static conditional branch count* and *branch
//! density* match Table 2, and whose behaviour mix encodes that
//! benchmark's published predictability profile:
//!
//! | Benchmark | dyn. cond ×1000 | static cond | character |
//! |---|---|---|---|
//! | compress | 12044 | 46 | tiny footprint, loopy, data-dependent bits |
//! | gcc | 16035 | 12086 | huge footprint (aliasing stress) |
//! | go | 11285 | 3710 | large footprint, weakly biased, hard |
//! | ijpeg | 8894 | 904 | loop-dominated, highly predictable |
//! | li | 16254 | 251 | recursive interpreter, deep correlation |
//! | m88ksim | 9706 | 409 | simulator main loop, strongly biased |
//! | perl | 13263 | 273 | interpreter dispatch, correlated, calls |
//! | vortex | 12757 | 2239 | OO database, very strongly biased |
//!
//! The reference dynamic/static counts are exposed by
//! [`table2_reference`] so the Table 2 experiment can print
//! paper-vs-generated numbers side by side.

use std::sync::Arc;

use ev8_trace::FlatTrace;

use crate::program::{BehaviorMix, H2pMix, ProgramSpec};

/// The benchmark names of Table 2, in the paper's order.
pub const NAMES: [&str; 8] = [
    "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex",
];

/// Paper reference values from Table 2: (dynamic conditional branches
/// ×1000 per 100M instructions, static conditional branches).
pub fn table2_reference(name: &str) -> Option<(u64, u64)> {
    Some(match name {
        "compress" => (12044, 46),
        "gcc" => (16035, 12086),
        "go" => (11285, 3710),
        "ijpeg" => (8894, 904),
        "li" => (16254, 251),
        "m88ksim" => (9706, 409),
        "perl" => (13263, 273),
        "vortex" => (12757, 2239),
        _ => return None,
    })
}

/// The calibrated spec for one benchmark, or `None` for an unknown name.
///
/// Specs target the paper's 100M-instruction trace length; use
/// [`ProgramSpec::generate_scaled`] for shorter runs.
pub fn benchmark(name: &str) -> Option<ProgramSpec> {
    let (dyn_k, statics) = table2_reference(name)?;
    // Density in conditional branches per 1000 instructions.
    let density = dyn_k as f64 * 1000.0 / 100_000_000.0 * 1000.0;
    let (mix, hotness_skew, call_fraction, noise, chain_bias, seed) = match name {
        "compress" => (
            BehaviorMix {
                biased: 0.40,
                loops: 0.30,
                patterns: 0.05,
                correlated: 0.15,
                random: 0.10,
                h2p: H2pMix::NONE,
            },
            0.7,
            0.05,
            0.60,
            0.52,
            0xC0A1,
        ),
        "gcc" => (
            BehaviorMix {
                biased: 0.50,
                loops: 0.15,
                patterns: 0.05,
                correlated: 0.25,
                random: 0.05,
                h2p: H2pMix::NONE,
            },
            0.85,
            0.12,
            0.45,
            0.90,
            0x6CC2,
        ),
        "go" => (
            BehaviorMix {
                biased: 0.38,
                loops: 0.10,
                patterns: 0.05,
                correlated: 0.25,
                random: 0.22,
                h2p: H2pMix::NONE,
            },
            0.6,
            0.08,
            1.00,
            0.20,
            0x9003,
        ),
        "ijpeg" => (
            BehaviorMix {
                biased: 0.40,
                loops: 0.40,
                patterns: 0.10,
                correlated: 0.08,
                random: 0.02,
                h2p: H2pMix::NONE,
            },
            0.9,
            0.05,
            0.35,
            0.42,
            0x1964,
        ),
        "li" => (
            BehaviorMix {
                biased: 0.40,
                loops: 0.10,
                patterns: 0.10,
                correlated: 0.35,
                random: 0.05,
                h2p: H2pMix::NONE,
            },
            1.0,
            0.20,
            0.30,
            0.95,
            0x0115,
        ),
        "m88ksim" => (
            BehaviorMix {
                biased: 0.55,
                loops: 0.20,
                patterns: 0.05,
                correlated: 0.18,
                random: 0.02,
                h2p: H2pMix::NONE,
            },
            1.0,
            0.10,
            0.18,
            0.58,
            0x5555,
        ),
        "perl" => (
            BehaviorMix {
                biased: 0.45,
                loops: 0.10,
                patterns: 0.10,
                correlated: 0.30,
                random: 0.05,
                h2p: H2pMix::NONE,
            },
            0.95,
            0.18,
            0.30,
            0.58,
            0x1111,
        ),
        "vortex" => (
            BehaviorMix {
                biased: 0.65,
                loops: 0.10,
                patterns: 0.05,
                correlated: 0.18,
                random: 0.02,
                h2p: H2pMix::NONE,
            },
            0.9,
            0.15,
            0.12,
            0.95,
            0x6666,
        ),
        _ => return None,
    };
    Some(ProgramSpec {
        name: name.to_owned(),
        seed,
        static_branches: statics as usize,
        instructions: 100_000_000,
        branch_density: density,
        mix,
        hotness_skew,
        call_fraction,
        noise,
        chain_length_bias: chain_bias,
    })
}

/// All eight calibrated specs, in Table 2 order.
pub fn suite() -> Vec<ProgramSpec> {
    NAMES
        .iter()
        .map(|n| benchmark(n).expect("all suite names are known"))
        .collect()
}

/// The packed trace of `benchmark(name)` scaled by `scale`, served from
/// the process-wide [`crate::cache`]: generated on the first request,
/// then shared (same allocation) on every later one.
///
/// Returns `None` for an unknown benchmark name.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn cached(name: &str, scale: f64) -> Option<Arc<FlatTrace>> {
    Some(crate::cache::global().get_scaled(&benchmark(name)?, scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_trace::TraceStats;

    #[test]
    fn all_names_resolve() {
        for n in NAMES {
            assert!(benchmark(n).is_some(), "missing spec for {n}");
            assert!(table2_reference(n).is_some());
        }
        assert!(benchmark("doom").is_none());
        assert!(table2_reference("doom").is_none());
        assert_eq!(suite().len(), 8);
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = suite().iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn densities_match_table2() {
        for n in NAMES {
            let spec = benchmark(n).unwrap();
            let (dyn_k, _) = table2_reference(n).unwrap();
            let expected = dyn_k as f64 / 100.0; // per KI
            assert!(
                (spec.branch_density - expected).abs() < 0.01,
                "{n}: {} vs {expected}",
                spec.branch_density
            );
        }
    }

    #[test]
    fn generated_statics_track_table2() {
        // Short (2M instruction) runs still execute most of the static
        // footprint for small-footprint benchmarks.
        for n in ["compress", "li", "m88ksim", "perl"] {
            let stats = TraceStats::from_trace(&cached(n, 0.02).unwrap());
            let (_, statics) = table2_reference(n).unwrap();
            assert!(
                stats.static_conditional >= statics / 2,
                "{n}: saw {} of {statics} static branches",
                stats.static_conditional
            );
            assert!(stats.static_conditional <= statics);
        }
    }

    #[test]
    fn generated_density_tracks_table2() {
        for n in ["compress", "go", "vortex"] {
            let spec = benchmark(n).unwrap();
            let stats = TraceStats::from_trace(&cached(n, 0.01).unwrap());
            let err = (stats.branch_density() - spec.branch_density).abs() / spec.branch_density;
            assert!(
                err < 0.35,
                "{n}: generated density {} vs target {}",
                stats.branch_density(),
                spec.branch_density
            );
        }
    }

    #[test]
    fn predictability_ordering_is_encoded() {
        // go must be the least biased benchmark, vortex among the most.
        let go = benchmark("go").unwrap();
        let vortex = benchmark("vortex").unwrap();
        assert!(go.mix.random > vortex.mix.random);
        assert!(vortex.mix.biased > go.mix.biased);
    }
}
