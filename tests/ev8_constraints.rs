//! Integration checks of the EV8's hardware constraints against real
//! generated workloads (not just unit fixtures).
//!
//! Traces come from the process-wide cache ([`spec95::cached`]); the
//! all-benchmark smoke fans out over [`run_parallel`] (panics inside
//! jobs propagate to the test with their original message).

use ev8_core::banks::BankSequencer;
use ev8_core::fetch::blocks_of;
use ev8_core::{Ev8Config, Ev8Predictor};
use ev8_predictors::BranchPredictor;
use ev8_sim::sweep::{default_workers, run_parallel};
use ev8_workloads::spec95;

#[test]
fn bank_accesses_are_conflict_free_on_real_workloads() {
    // §6: any two dynamically successive fetch blocks must access two
    // distinct banks — verified over every block of a generated trace.
    for name in ["compress", "gcc"] {
        let trace = spec95::cached(name, 0.002).unwrap();
        let blocks = blocks_of(&trace);
        assert!(
            blocks.len() > 1000,
            "{name}: too few blocks to be meaningful"
        );
        let mut seq = BankSequencer::new();
        let mut prev = None;
        for b in &blocks {
            let bank = seq.next_bank(b.start);
            assert_ne!(Some(bank), prev, "{name}: bank conflict at {:?}", b.start);
            prev = Some(bank);
        }
    }
}

#[test]
fn all_banks_carry_real_load() {
    let trace = spec95::cached("perl", 0.002).unwrap();
    let blocks = blocks_of(&trace);
    let mut seq = BankSequencer::new();
    let mut counts = [0u64; 4];
    for b in &blocks {
        counts[seq.next_bank(b.start) as usize] += 1;
    }
    let total: u64 = counts.iter().sum();
    for (bank, &c) in counts.iter().enumerate() {
        assert!(
            c * 10 > total,
            "bank {bank} underused: {c} of {total} accesses"
        );
    }
}

#[test]
fn fetch_blocks_respect_hardware_limits_on_real_workloads() {
    let trace = spec95::cached("vortex", 0.002).unwrap();
    for b in blocks_of(&trace) {
        assert!(b.instructions >= 1 && b.instructions <= 8, "{b:?}");
        assert!(b.conditional_count <= 8, "{b:?}");
        // A block never spans two aligned 32-byte regions.
        let last = b.start.as_u64() + 4 * (b.instructions as u64 - 1);
        assert_eq!(b.start.as_u64() & !31, last & !31, "{b:?}");
    }
}

#[test]
fn storage_budgets_match_the_paper() {
    assert_eq!(Ev8Predictor::ev8().storage_bits(), 352 * 1024);
    assert_eq!(
        Ev8Predictor::new(Ev8Config::unconstrained_512k()).storage_bits(),
        512 * 1024
    );
}

#[test]
fn ev8_predictor_handles_every_suite_benchmark() {
    // Smoke the full constrained pipeline (fetch, lghist, banks, index,
    // partial update) over every benchmark without panics and with
    // better-than-chance accuracy.
    let jobs: Vec<Box<dyn FnOnce() + Send>> = spec95::NAMES
        .into_iter()
        .map(|name| {
            Box::new(move || {
                let trace = spec95::cached(name, 0.002).unwrap();
                let r = ev8_sim::simulate_flat(Ev8Predictor::ev8(), &trace);
                assert!(
                    r.accuracy() > 0.6,
                    "{name}: EV8 accuracy {:.3} too low",
                    r.accuracy()
                );
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    run_parallel(jobs, default_workers());
}
