//! Hard-to-predict (H2P) workload analogues.
//!
//! The Constantinou/Perais/Sazeides taxonomy (see PAPERS.md) identifies
//! three recurring sources of systematically hard branches in real
//! programs: *data-dependent* branches keyed on loaded values,
//! *input-entropy* branches that follow external input streams, and
//! *timing-style* branches whose trip counts jitter with the
//! environment. This module provides one calibrated [`ProgramSpec`] per
//! archetype, each concentrating its class via
//! [`crate::program::H2pMix`] while keeping a realistic background of
//! ordinary biased/loop/correlated branches around it — the workloads
//! the `h2p` attribution experiment ranks and classifies against.
//!
//! Ground truth is available: [`crate::program::site_labels`] rebuilds
//! the static program deterministically, so every PC in the generated
//! trace can be mapped back to the archetype that drives it
//! ([`site_classes`]).

use std::collections::HashMap;
use std::sync::Arc;

use ev8_trace::FlatTrace;

use crate::program::{site_labels, BehaviorMix, H2pMix, ProgramSpec};

/// The H2P workload names, in taxonomy order.
pub const NAMES: [&str; 3] = ["datadep", "entropy", "timing"];

/// The calibrated spec for one H2P workload, or `None` for an unknown
/// name.
///
/// Each spec targets the paper's 100M-instruction trace length (use
/// [`ProgramSpec::generate_scaled`] for shorter runs) and devotes a
/// large minority of its dynamic stream to one H2P archetype, with the
/// remainder an ordinary predictable background — so per-PC attribution
/// can separate the H2P tail from the well-behaved bulk.
pub fn workload(name: &str) -> Option<ProgramSpec> {
    let (h2p, statics, density, hotness_skew, noise, seed) = match name {
        // Pointer/hash-value driven control: outcomes are a pure
        // function of opaque data, unlearnable at any history length.
        "datadep" => (
            H2pMix {
                data_dependent: 0.35,
                input_entropy: 0.0,
                timing: 0.0,
            },
            700,
            130.0,
            0.85,
            0.30,
            0xD47A,
        ),
        // Parser/decompressor-style dispatch: direction follows a
        // hidden input stream that drifts slowly but is locally biased.
        "entropy" => (
            H2pMix {
                data_dependent: 0.0,
                input_entropy: 0.35,
                timing: 0.0,
            },
            450,
            140.0,
            0.90,
            0.20,
            0xE27B,
        ),
        // Spin/poll/retry loops: trip counts redrawn per visit, so exit
        // branches mispredict once per unpredictable-length burst.
        "timing" => (
            H2pMix {
                data_dependent: 0.0,
                input_entropy: 0.0,
                timing: 0.35,
            },
            350,
            120.0,
            0.80,
            0.25,
            0x717E,
        ),
        _ => return None,
    };
    Some(ProgramSpec {
        name: name.to_owned(),
        seed,
        static_branches: statics,
        instructions: 100_000_000,
        branch_density: density,
        mix: BehaviorMix {
            biased: 0.35,
            loops: 0.15,
            patterns: 0.05,
            correlated: 0.08,
            random: 0.02,
            h2p,
        },
        hotness_skew,
        call_fraction: 0.10,
        noise,
        chain_length_bias: 0.55,
    })
}

/// All three H2P specs, in taxonomy order.
pub fn suite() -> Vec<ProgramSpec> {
    NAMES
        .iter()
        .map(|n| workload(n).expect("all suite names are known"))
        .collect()
}

/// The packed trace of `workload(name)` scaled by `scale`, served from
/// the process-wide [`crate::cache`] like [`crate::spec95::cached`].
///
/// Returns `None` for an unknown workload name.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn cached(name: &str, scale: f64) -> Option<Arc<FlatTrace>> {
    Some(crate::cache::global().get_scaled(&workload(name)?, scale))
}

/// Ground-truth archetype label per static branch PC of `spec`'s
/// program, as a lookup map.
///
/// Labels are [`crate::behavior::Behavior::label`] strings
/// (`"data-dependent"`, `"loop"`, …); use
/// [`crate::behavior::Behavior::label_is_h2p`] to collapse them into
/// the H2P / predictable dichotomy.
pub fn site_classes(spec: &ProgramSpec) -> HashMap<u64, &'static str> {
    site_labels(spec).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use ev8_trace::TraceStats;

    #[test]
    fn all_names_resolve() {
        for n in NAMES {
            assert!(workload(n).is_some(), "missing spec for {n}");
        }
        assert!(workload("doom").is_none());
        assert_eq!(suite().len(), 3);
        let seeds: std::collections::HashSet<u64> = suite().iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 3);
    }

    #[test]
    fn each_workload_concentrates_its_own_archetype() {
        let expect = [
            ("datadep", "data-dependent"),
            ("entropy", "input-entropy"),
            ("timing", "timing-jitter"),
        ];
        for (name, label) in expect {
            let spec = workload(name).unwrap();
            let classes = site_classes(&spec);
            let own = classes.values().filter(|l| **l == label).count();
            let other_h2p = classes
                .values()
                .filter(|l| **l != label && **l != "random" && Behavior::label_is_h2p(l))
                .count();
            assert!(
                own * 5 >= classes.len(),
                "{name}: only {own} of {} sites are {label}",
                classes.len()
            );
            assert_eq!(other_h2p, 0, "{name}: stray H2P archetypes present");
        }
    }

    #[test]
    fn site_classes_cover_the_generated_trace() {
        for n in NAMES {
            let spec = workload(n).unwrap();
            let classes = site_classes(&spec);
            let trace = spec.generate_scaled(0.002);
            let mut missing = 0usize;
            for r in trace.records() {
                if r.kind.is_conditional() && !classes.contains_key(&r.pc.as_u64()) {
                    missing += 1;
                }
            }
            assert_eq!(missing, 0, "{n}: trace PCs missing from site_classes");
        }
    }

    #[test]
    fn h2p_work_is_a_large_dynamic_fraction() {
        for n in NAMES {
            let spec = workload(n).unwrap();
            let classes = site_classes(&spec);
            let trace = spec.generate_scaled(0.005);
            let (mut h2p_dyn, mut total) = (0u64, 0u64);
            for r in trace.records() {
                if r.kind.is_conditional() {
                    total += 1;
                    if Behavior::label_is_h2p(classes[&r.pc.as_u64()]) {
                        h2p_dyn += 1;
                    }
                }
            }
            let frac = h2p_dyn as f64 / total as f64;
            assert!(
                (0.10..=0.80).contains(&frac),
                "{n}: H2P dynamic fraction {frac:.3} out of band"
            );
        }
    }

    #[test]
    fn densities_and_footprints_are_sane() {
        for n in NAMES {
            let spec = workload(n).unwrap();
            let stats = TraceStats::from_trace(&cached(n, 0.005).unwrap());
            let err = (stats.branch_density() - spec.branch_density).abs() / spec.branch_density;
            assert!(
                err < 0.35,
                "{n}: density {} off target",
                stats.branch_density()
            );
            assert!(stats.static_conditional as usize <= spec.static_branches);
        }
    }

    #[test]
    fn fingerprints_differ_from_h2p_free_twins() {
        for n in NAMES {
            let spec = workload(n).unwrap();
            let mut twin = spec.clone();
            twin.mix.h2p = H2pMix::NONE;
            assert_ne!(spec.fingerprint(), twin.fingerprint(), "{n}");
        }
    }
}
