//! Property/fuzz suite for TAGE's tagged tables: tag-match, allocation
//! and useful-bit invariants under arbitrary branch streams, the
//! folded-history registers against the from-scratch folds, the
//! observed-path state identity, and the `FaultTarget` accounting
//! contract — all driven by the in-tree deterministic harness
//! (`ev8_util::prop`), so a failure panics with an
//! `EV8_PROP_CASE_SEED`/`EV8_PROP_SCALE` pair reproducing the minimal
//! counterexample.

use ev8_util::prop::{check, Gen};
use ev8_util::{prop_assert, prop_assert_eq};

use ev8_predictors::introspect::FaultTarget;
use ev8_predictors::observe::ObservedPredictor;
use ev8_predictors::tage::{Tage, TageConfig, TaggedTableConfig};
use ev8_predictors::BranchPredictor;
use ev8_trace::{BranchRecord, Outcome, Pc};
use ev8_workloads::spec95;

const CASES: u64 = 64;

/// A small arbitrary geometry: enough tables and few enough entries that
/// arbitrary streams exercise tag hits, allocation races and useful-bit
/// saturation within a few hundred branches.
fn arb_config(g: &mut Gen) -> TageConfig {
    let mut config = TageConfig::geometric(
        g.range(3u32..7),
        g.range(1u32..6) as usize,
        g.range(3u32..7),
        g.range(4u32..11),
        g.range(1u32..4),
        g.range(6u32..32),
    );
    // Small reset periods so the periodic useful clear fires mid-stream.
    config.useful_reset_period = [0, 16, 64, 1024][g.range(0u32..4) as usize];
    config
}

/// A branch stream over a small PC pool (collisions and re-visits are
/// the interesting cases) with mixed bias patterns.
fn arb_stream(g: &mut Gen, len_range: std::ops::Range<usize>) -> Vec<(Pc, Outcome)> {
    let pool: Vec<Pc> = (0..g.range(1u32..24))
        .map(|_| Pc::new(g.u32() as u64 * 4))
        .collect();
    let n = g.len(len_range);
    (0..n)
        .map(|i| {
            let pc = *g.choose(&pool);
            let outcome = match g.range(0u32..4) {
                0 => Outcome::Taken,
                1 => Outcome::NotTaken,
                2 => Outcome::from(i % 2 == 0),
                _ => Outcome::from(g.bool()),
            };
            (pc, outcome)
        })
        .collect()
}

/// Snapshot of every tagged entry: (ctr, tag, useful) per (table, index).
fn entries(p: &Tage) -> Vec<Vec<(u8, u16, u8)>> {
    let config = p.config();
    config
        .tables
        .iter()
        .enumerate()
        .map(|(t, tc)| {
            (0..1usize << tc.index_bits)
                .map(|i| p.entry(t, i))
                .collect()
        })
        .collect()
}

#[test]
fn provider_is_always_the_longest_tag_match() {
    // After any warmup, the lookup decision must be exactly "longest
    // matching table provides, next match is the alternate": the
    // provider's stored tag equals the recomputed hash, and no
    // longer-history table matches.
    check("provider_is_always_the_longest_tag_match", CASES, |g| {
        let config = arb_config(g);
        let tables = config.tables.len();
        let mut p = Tage::new(config);
        let stream = arb_stream(g, 50..400);
        for &(pc, outcome) in &stream {
            p.update(pc, outcome);
        }
        for &(pc, _) in stream.iter().take(32) {
            let d = p.predict_detail(pc);
            let matches: Vec<usize> = (0..tables)
                .filter(|&j| p.entry(j, p.table_index(j, pc)).1 == p.table_tag(j, pc))
                .collect();
            prop_assert_eq!(d.provider.map(|h| h.table), matches.last().copied());
            if let Some(h) = d.provider {
                prop_assert_eq!(h.index, p.table_index(h.table, pc));
                let below: Vec<usize> = matches.iter().copied().filter(|&j| j < h.table).collect();
                prop_assert_eq!(d.alternate.map(|a| a.table), below.last().copied());
            } else {
                prop_assert_eq!(d.alternate, None);
                prop_assert_eq!(d.overall, d.base);
            }
        }
        Ok(())
    });
}

#[test]
fn tags_change_only_through_allocation_on_a_misprediction() {
    // Tag writes have exactly one source: the allocation path, which
    // runs only on a mispredicted branch, installs at most one entry,
    // always in a longer-history table than the provider, and always
    // weak (counter at a weak value) with its useful guard cleared.
    check(
        "tags_change_only_through_allocation_on_a_misprediction",
        CASES,
        |g| {
            let config = arb_config(g);
            let mut p = Tage::new(config);
            for (pc, outcome) in arb_stream(g, 20..250) {
                let d = p.predict_detail(pc);
                // Coordinates must be captured before the history push.
                let coords: Vec<(usize, u16)> = (0..p.config().tables.len())
                    .map(|j| (p.table_index(j, pc), p.table_tag(j, pc)))
                    .collect();
                let before = entries(&p);
                let mispredicted = d.overall != outcome;
                p.update(pc, outcome);
                let after = entries(&p);

                let mut changed_tags = Vec::new();
                for (t, (b, a)) in before.iter().zip(&after).enumerate() {
                    for (i, (eb, ea)) in b.iter().zip(a).enumerate() {
                        if eb.1 != ea.1 {
                            changed_tags.push((t, i));
                        }
                    }
                }
                if !mispredicted {
                    prop_assert_eq!(&changed_tags, &[]);
                } else {
                    prop_assert!(changed_tags.len() <= 1, "one allocation per branch");
                    if let Some(&(t, i)) = changed_tags.first() {
                        let provider_table = d.provider.map(|h| h.table as i64).unwrap_or(-1);
                        prop_assert!(t as i64 > provider_table);
                        prop_assert_eq!((i, after[t][i].1), (coords[t].0, coords[t].1));
                        prop_assert!(after[t][i].2 == 0, "fresh entry is unprotected");
                        prop_assert!(
                            after[t][i].0 == 3 || after[t][i].0 == 4,
                            "fresh entry starts weak"
                        );
                        prop_assert!(before[t][i].2 == 0, "victim had useful == 0");
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn useful_counters_move_only_on_provider_alt_disagreement_or_decay() {
    // The useful guard is trained only when the provider's existence
    // mattered (provider != alternate) or decayed by the allocation
    // drought / periodic-reset paths — so on a correct prediction with
    // agreeing components, every useful value is frozen.
    check(
        "useful_counters_move_only_on_provider_alt_disagreement_or_decay",
        CASES,
        |g| {
            let mut config = arb_config(g);
            config.useful_reset_period = 0; // isolate the training paths
            let mut p = Tage::new(config);
            for (pc, outcome) in arb_stream(g, 20..250) {
                let d = p.predict_detail(pc);
                let before = entries(&p);
                p.update(pc, outcome);
                let after = entries(&p);
                let correct = d.overall == outcome;
                let disagreed = d.provider_pred != d.alt_pred;
                if correct && !disagreed {
                    for (t, (b, a)) in before.iter().zip(&after).enumerate() {
                        for (i, (eb, ea)) in b.iter().zip(a).enumerate() {
                            prop_assert!(
                                eb.2 == ea.2,
                                "useful moved at t{t}[{i}] without a decision"
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// Fold geometries `arb_config` never draws: histories shorter than,
/// equal to and a multiple of the index width; histories equal to a tag
/// width and to the second tag fold's width (one less); tag width 2,
/// whose second fold is one bit wide; the full 64-bit history; reset
/// period 0.
fn fold_edge_configs() -> Vec<TageConfig> {
    let table = |index_bits, tag_bits, history_length| TaggedTableConfig {
        index_bits,
        tag_bits,
        history_length,
    };
    vec![
        TageConfig {
            base_index_bits: 6,
            tables: vec![table(10, 8, 3), table(10, 8, 10), table(5, 8, 20)],
            useful_reset_period: 64,
        },
        TageConfig {
            base_index_bits: 5,
            tables: vec![
                table(6, 2, 1),
                table(6, 2, 2),
                table(6, 9, 8),
                table(6, 9, 9),
                table(4, 16, 16),
            ],
            useful_reset_period: 16,
        },
        TageConfig {
            base_index_bits: 6,
            tables: vec![table(7, 12, 33), table(3, 2, 63), table(7, 12, 64)],
            useful_reset_period: 0,
        },
    ]
}

/// The step's `(index, tag)` per table, read from the folded-history
/// registers, must equal the reference folds of the history register.
fn registers_match(p: &Tage, tables: usize, pc: Pc) -> Result<(), String> {
    for j in 0..tables {
        prop_assert_eq!(
            p.table_coords(j, pc),
            (p.table_index(j, pc), p.table_tag(j, pc))
        );
    }
    Ok(())
}

#[test]
fn folded_history_registers_equal_the_reference_folds() {
    // After every step of an arbitrary stream, for every table: the O(1)
    // register update (rotate, new bit at 0, outgoing bit at L mod n)
    // must have kept exactly xor_fold64 of the current window.
    check(
        "folded_history_registers_equal_the_reference_folds",
        CASES,
        |g| {
            let mut configs = fold_edge_configs();
            configs.push(arb_config(g));
            for config in configs {
                let tables = config.tables.len();
                let mut p = Tage::new(config);
                let stream = arb_stream(g, 80..400);
                registers_match(&p, tables, stream[0].0)?;
                for (pc, outcome) in stream {
                    p.update(pc, outcome);
                    registers_match(&p, tables, pc)?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn ev8_budget_registers_track_a_suite_trace() {
    // The shipping geometry (histories 5..64 over 11-bit indexes and
    // 14-16-bit tags) on a real branch stream.
    let config = TageConfig::ev8_budget();
    let tables = config.tables.len();
    let mut p = Tage::new(config);
    let trace = spec95::cached("gcc", 0.002).expect("known benchmark");
    let mut steps = 0;
    for record in trace.iter() {
        if p.predict_and_update(&record).is_some() {
            steps += 1;
            if let Err(e) = registers_match(&p, tables, record.pc) {
                panic!("after conditional branch {steps}: {e}");
            }
        }
    }
    assert!(steps > 10_000, "only {steps} conditional branches");
}

#[test]
fn observed_path_is_state_identical_to_plain_path() {
    // The 2Bc-gskew pin, replayed for TAGE over arbitrary geometry and
    // streams: the provenance-producing step must be the same state
    // transition as the plain one, bit for bit (structural equality).
    check(
        "observed_path_is_state_identical_to_plain_path",
        CASES,
        |g| {
            let config = arb_config(g);
            let mut plain = Tage::new(config);
            let mut observed = plain.clone();
            for (pc, outcome) in arb_stream(g, 20..300) {
                let rec = BranchRecord::conditional(pc, Pc::new(0x2000), outcome.is_taken());
                let prediction = plain.predict_and_update(&rec);
                let prov = observed.predict_and_update_observed(&rec);
                let prov = prov.expect("conditional record yields provenance");
                prop_assert_eq!(prediction, Some(prov.overall));
                prop_assert_eq!(prov.outcome, outcome);
                // The vote fields mirror the lookup: overall is one of them.
                prop_assert!(
                    prov.overall == prov.g1 || prov.overall == prov.g0 || prov.overall == prov.bim
                );
            }
            prop_assert_eq!(&plain, &observed);
            Ok(())
        },
    );
}

#[test]
fn fault_accounting_covers_the_whole_predictor_exactly() {
    // Array sizes must sum to storage_bits for *every* geometry, names
    // must be unique, and a double flip at an arbitrary live (array,
    // bit) address must round-trip to the pristine state.
    check(
        "fault_accounting_covers_the_whole_predictor_exactly",
        CASES,
        |g| {
            let config = arb_config(g);
            let mut p = Tage::new(config.clone());
            let arrays = p.fault_arrays();
            prop_assert_eq!(arrays.len(), 1 + 3 * config.tables.len());
            let total: usize = arrays.iter().map(|a| a.bits).sum();
            prop_assert_eq!(total as u64, config.storage_bits());
            let mut names: Vec<&str> = arrays.iter().map(|a| a.name).collect();
            names.sort_unstable();
            names.dedup();
            prop_assert_eq!(names.len(), arrays.len());

            let pristine = p.clone();
            let array = g.range(0u32..arrays.len() as u32) as usize;
            let bit = g.range(0u32..arrays[array].bits as u32) as usize;
            p.flip_bit(array, bit);
            prop_assert!(p != pristine, "a flipped bit must be visible");
            p.flip_bit(array, bit);
            prop_assert_eq!(&p, &pristine);
            Ok(())
        },
    );
}

#[test]
fn ev8_budget_accounting_is_exact_to_the_bit() {
    // The cross-generation comparison hinges on this one number: the
    // shootout's TAGE must occupy *exactly* the EV8's 352 Kbit.
    let config = TageConfig::ev8_budget();
    assert_eq!(config.storage_bits(), 352 * 1024);
    let p = Tage::new(config);
    assert_eq!(p.storage_bits(), 352 * 1024);
    let arrays = p.fault_arrays();
    assert_eq!(
        arrays.iter().map(|a| a.bits).sum::<usize>() as u64,
        352 * 1024
    );
}
