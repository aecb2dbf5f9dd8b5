//! Property-based tests over the core data structures and invariants of
//! the workspace, driven by the in-tree deterministic harness
//! (`ev8_util::prop`).
//!
//! A failure panics with an `EV8_PROP_CASE_SEED`/`EV8_PROP_SCALE` pair
//! that reproduces the minimal counterexample in isolation.

use ev8_util::prop::{check, Gen};
use ev8_util::{prop_assert, prop_assert_eq, prop_assert_ne};

use ev8_core::banks::{bank_for, BankSequencer};
use ev8_core::fetch::FetchState;
use ev8_predictors::bitvec::{BitVec, Counter2Table};
use ev8_predictors::counter::Counter2;
use ev8_predictors::history::GlobalHistory;
use ev8_predictors::skew::{h_inverse, h_transform, skew_index, xor_fold};
use ev8_predictors::table::SplitCounterTable;
use ev8_trace::corpus::{write_corpus, CorpusReader};
use ev8_trace::{BranchKind, BranchRecord, Outcome, Pc, TraceBuilder};

const CASES: u64 = 256;

const KINDS: [BranchKind; 5] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::IndirectJump,
];

fn arb_record(g: &mut Gen) -> BranchRecord {
    let kind = *g.choose(&KINDS);
    let taken = g.bool() || kind.is_always_taken();
    BranchRecord {
        pc: Pc::new(g.u32() as u64 * 4),
        target: Pc::new(g.u32() as u64 * 4),
        kind,
        outcome: Outcome::from(taken),
        gap: g.range(0u32..200),
    }
}

#[test]
fn codec_roundtrips_arbitrary_traces() {
    check("codec_roundtrips_arbitrary_traces", CASES, |g| {
        let records = g.vec(0..300, arb_record);
        let mut b = TraceBuilder::new("prop");
        for r in &records {
            b.branch(*r);
        }
        let trace = b.finish();
        let mut buf = Vec::new();
        write_corpus(&mut buf, &trace).unwrap();
        let back = CorpusReader::new(buf.as_slice())
            .unwrap()
            .read_trace()
            .unwrap();
        prop_assert_eq!(back, trace);
        Ok(())
    });
}

#[test]
fn trace_builder_instruction_accounting() {
    check("trace_builder_instruction_accounting", CASES, |g| {
        let gaps = g.vec(1..100, |g| g.range(0u64..100));
        let mut b = TraceBuilder::new("prop");
        let mut expected = 0u64;
        for (i, &gap) in gaps.iter().enumerate() {
            b.run(gap);
            expected += gap + 1;
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + i as u64 * 4),
                Pc::new(0x2000),
                i % 2 == 0,
            ));
        }
        let t = b.finish();
        prop_assert_eq!(t.instruction_count(), expected);
        prop_assert_eq!(t.len(), gaps.len());
        Ok(())
    });
}

#[test]
fn counter_never_leaves_range() {
    check("counter_never_leaves_range", CASES, |g| {
        let ops = g.vec(0..64, |g| g.bool());
        let mut c = Counter2::default();
        for &taken in &ops {
            c.train(Outcome::from(taken));
            prop_assert!(c.value() <= 3);
            // The split representation always reassembles exactly.
            prop_assert_eq!(
                Counter2::from_split(c.prediction_bit(), c.hysteresis_bits()),
                c
            );
        }
        Ok(())
    });
}

#[test]
fn counter_agrees_with_reference_model() {
    check("counter_agrees_with_reference_model", CASES, |g| {
        let ops = g.vec(0..64, |g| g.bool());
        // Reference: a plain clamped integer.
        let mut c = Counter2::default();
        let mut model: i32 = 1;
        for &taken in &ops {
            c.train(Outcome::from(taken));
            model = (model + if taken { 1 } else { -1 }).clamp(0, 3);
            prop_assert_eq!(c.value() as i32, model);
            prop_assert_eq!(c.prediction().is_taken(), model >= 2);
        }
        Ok(())
    });
}

#[test]
fn split_table_matches_dense_counters() {
    check("split_table_matches_dense_counters", CASES, |g| {
        let ops = g.vec(0..200, |g| (g.range(0usize..32), g.bool()));
        // With full-size hysteresis, the split table must behave exactly
        // like an array of 2-bit counters.
        let mut table = SplitCounterTable::full(5);
        let mut dense = [Counter2::default(); 32];
        for &(idx, taken) in &ops {
            table.train(idx, Outcome::from(taken));
            dense[idx].train(Outcome::from(taken));
        }
        for (i, d) in dense.iter().enumerate() {
            prop_assert_eq!(&table.read(i), d);
        }
        Ok(())
    });
}

#[test]
fn bitvec_matches_byte_vector() {
    check("bitvec_matches_byte_vector", CASES, |g| {
        let len = g.len(1..200);
        let fill = u8::from(g.bool());
        let mut packed = BitVec::filled(len, fill);
        let mut bytes = vec![fill; len];
        let ops = g.vec(0..300, |g| (g.range(0usize..len), g.bool()));
        for &(idx, bit) in &ops {
            packed.set(idx, u8::from(bit));
            bytes[idx] = u8::from(bit);
            prop_assert_eq!(packed.get(idx), bytes[idx]);
        }
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(packed.get(i), b);
        }
        Ok(())
    });
}

#[test]
fn packed_counter_table_matches_byte_reference() {
    check("packed_counter_table_matches_byte_reference", CASES, |g| {
        let index_bits = g.range(1u32..=7);
        let entries = 1usize << index_bits;
        let mut packed = Counter2Table::new(index_bits);
        let mut dense = vec![Counter2::default(); entries];
        let ops = g.vec(0..300, |g| {
            (g.range(0usize..entries), g.range(0u8..3), g.bool())
        });
        for &(idx, op, taken) in &ops {
            match op {
                0 => {
                    packed.train(idx, Outcome::from(taken));
                    dense[idx].train(Outcome::from(taken));
                }
                1 => {
                    packed.strengthen(idx);
                    dense[idx].strengthen();
                }
                _ => {
                    let c = Counter2::new(u8::from(taken) * 3);
                    packed.set(idx, c);
                    dense[idx] = c;
                }
            }
            prop_assert_eq!(&packed.get(idx), &dense[idx]);
        }
        for (i, d) in dense.iter().enumerate() {
            prop_assert_eq!(&packed.get(i), d);
        }
        Ok(())
    });
}

/// A byte-per-bit reference model of [`SplitCounterTable`] with the
/// documented write-enable semantics: each array's write counter moves
/// only when its stored bit actually changes.
struct ByteSplitTable {
    prediction: Vec<u8>,
    hysteresis: Vec<u8>,
    mask: usize,
    prediction_writes: u64,
    hysteresis_writes: u64,
}

impl ByteSplitTable {
    fn new(index_bits: u32, hysteresis_index_bits: u32) -> Self {
        ByteSplitTable {
            prediction: vec![0; 1 << index_bits],
            hysteresis: vec![1; 1 << hysteresis_index_bits],
            mask: (1 << hysteresis_index_bits) - 1,
            prediction_writes: 0,
            hysteresis_writes: 0,
        }
    }

    fn read(&self, index: usize) -> Counter2 {
        Counter2::from_split(self.prediction[index], self.hysteresis[index & self.mask])
    }

    fn store(&mut self, index: usize, c: Counter2) {
        if self.prediction[index] != c.prediction_bit() {
            self.prediction[index] = c.prediction_bit();
            self.prediction_writes += 1;
        }
        let h = index & self.mask;
        if self.hysteresis[h] != c.hysteresis_bits() {
            self.hysteresis[h] = c.hysteresis_bits();
            self.hysteresis_writes += 1;
        }
    }

    fn train(&mut self, index: usize, outcome: Outcome) {
        let mut c = self.read(index);
        c.train(outcome);
        self.store(index, c);
    }

    fn strengthen(&mut self, index: usize) {
        let mut c = self.read(index);
        c.strengthen();
        self.store(index, c);
    }
}

#[test]
fn packed_split_table_matches_byte_reference() {
    check("packed_split_table_matches_byte_reference", CASES, |g| {
        // Random geometry including half-size (aliased) hysteresis, the
        // §4.4 sharing scenario: several prediction entries contend for
        // one hysteresis bit, so any packing slip shows up fast.
        let index_bits = g.range(2u32..=6);
        let hyst_bits = g.range(1u32..=index_bits);
        let entries = 1usize << index_bits;
        let mut packed = SplitCounterTable::new(index_bits, hyst_bits);
        let mut bytes = ByteSplitTable::new(index_bits, hyst_bits);
        let ops = g.vec(0..300, |g| {
            (g.range(0usize..entries), g.range(0u8..3), g.range(0u8..4))
        });
        for &(idx, op, val) in &ops {
            match op {
                0 => {
                    let o = Outcome::from(val & 1 == 1);
                    packed.train(idx, o);
                    bytes.train(idx, o);
                }
                1 => {
                    packed.strengthen(idx);
                    bytes.strengthen(idx);
                }
                _ => {
                    let c = Counter2::new(val);
                    packed.write(idx, c);
                    bytes.store(idx, c);
                }
            }
            prop_assert_eq!(&packed.read(idx), &bytes.read(idx));
            prop_assert_eq!(packed.prediction_writes(), bytes.prediction_writes);
            prop_assert_eq!(packed.hysteresis_writes(), bytes.hysteresis_writes);
        }
        for i in 0..entries {
            prop_assert_eq!(&packed.read(i), &bytes.read(i));
        }
        Ok(())
    });
}

#[test]
fn h_transform_is_a_bijection() {
    check("h_transform_is_a_bijection", CASES, |g| {
        let x = g.u64();
        let n = g.range(1u32..=64);
        let m = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let y = h_transform(x, n);
        prop_assert!(y <= m);
        prop_assert_eq!(h_inverse(y, n), x & m);
        Ok(())
    });
}

#[test]
fn skew_index_stays_in_range() {
    check("skew_index_stays_in_range", CASES, |g| {
        let bank = g.range(0u32..4);
        let (v1, v2) = (g.u64(), g.u64());
        let n = g.range(1u32..=32);
        prop_assert!(skew_index(bank, v1, v2, n) < (1u64 << n));
        Ok(())
    });
}

#[test]
fn xor_fold_preserves_zero_and_range() {
    check("xor_fold_preserves_zero_and_range", CASES, |g| {
        let v = g.u128();
        let n = g.range(1u32..=63);
        prop_assert!(xor_fold(v, n) < (1u64 << n));
        prop_assert_eq!(xor_fold(0, n), 0);
        Ok(())
    });
}

#[test]
fn global_history_window_semantics() {
    check("global_history_window_semantics", CASES, |g| {
        let bits = g.vec(0..100, |g| g.bool());
        let len = g.range(1u32..=64);
        let mut h = GlobalHistory::new(len);
        for &b in &bits {
            h.push(Outcome::from(b));
        }
        // The register equals the last `len` outcomes, newest in bit 0.
        let mut expected = 0u64;
        for &b in bits
            .iter()
            .rev()
            .take(len as usize)
            .collect::<Vec<_>>()
            .iter()
            .rev()
        {
            expected = (expected << 1) | (*b as u64);
        }
        if len < 64 {
            expected &= (1u64 << len) - 1;
        }
        prop_assert_eq!(h.bits(), expected);
        Ok(())
    });
}

#[test]
fn bank_never_repeats() {
    check("bank_never_repeats", CASES, |g| {
        let y = g.u64();
        let prev = g.range(0u8..4);
        let b = bank_for(Pc::new(y), prev);
        prop_assert!(b < 4);
        prop_assert_ne!(b, prev);
        Ok(())
    });
}

#[test]
fn bank_sequences_conflict_free() {
    check("bank_sequences_conflict_free", CASES, |g| {
        let addrs = g.vec(1..500, |g| g.u32());
        let mut seq = BankSequencer::new();
        let mut prev = None;
        for a in addrs {
            let b = seq.next_bank(Pc::new(a as u64 * 32));
            prop_assert_ne!(Some(b), prev);
            prev = Some(b);
        }
        Ok(())
    });
}

#[test]
fn fetch_blocks_always_within_limits() {
    check("fetch_blocks_always_within_limits", CASES, |g| {
        let records = g.vec(1..300, arb_record);
        let mut fs = FetchState::new();
        let mut check_block = |b: ev8_core::fetch::FetchBlock| {
            assert!(b.instructions >= 1 && b.instructions <= 8, "{b:?}");
            let last = b.start.as_u64() + 4 * (b.instructions as u64 - 1);
            assert_eq!(
                b.start.as_u64() & !31,
                last & !31,
                "block spans regions: {b:?}"
            );
        };
        for r in &records {
            fs.feed(r, &mut check_block);
        }
        fs.flush(&mut check_block);
        Ok(())
    });
}

#[test]
fn fetch_block_conditionals_accounted() {
    check("fetch_block_conditionals_accounted", CASES, |g| {
        let records = g.vec(1..300, arb_record);
        // Every conditional record lands in exactly one block.
        let mut fs = FetchState::new();
        let mut cond_in_blocks = 0u64;
        let mut add = |b: ev8_core::fetch::FetchBlock| cond_in_blocks += b.conditional_count as u64;
        for r in &records {
            fs.feed(r, &mut add);
        }
        fs.flush(&mut add);
        let cond_records = records.iter().filter(|r| r.kind.is_conditional()).count() as u64;
        prop_assert_eq!(cond_in_blocks, cond_records);
        Ok(())
    });
}

#[test]
fn attribution_reconciles_on_arbitrary_traces() {
    check("attribution_reconciles_on_arbitrary_traces", CASES, |g| {
        let records = g.vec(1..300, arb_record);
        let mut b = TraceBuilder::new("prop");
        for r in &records {
            b.branch(*r);
        }
        let trace = b.finish();
        // The observed run's attribution counters must reconcile exactly
        // with the scoreboard (provider, action, vote and per-PC sums),
        // and the §6 conflict-free banking invariant must hold: the
        // collision counter stays 0 on *every* input, not just the suite.
        let mut attr = ev8_sim::observe::Attribution::new();
        let tally = ev8_sim::drive(ev8_core::Ev8Predictor::ev8(), &trace, &mut attr);
        let result = ev8_sim::SimResult::new(
            trace.name(),
            trace.instruction_count(),
            String::new(),
            tally,
        );
        if let Err(e) = attr.reconcile(&result) {
            return Err(format!("attribution failed to reconcile: {e}"));
        }
        prop_assert_eq!(attr.summary.bank_collisions, Some(0));
        let cond = records.iter().filter(|r| r.kind.is_conditional()).count() as u64;
        prop_assert_eq!(attr.predictions, cond);
        prop_assert_eq!(attr.mispredictions, result.mispredictions);
        Ok(())
    });
}

#[test]
fn pc_bit_field_consistency() {
    check("pc_bit_field_consistency", CASES, |g| {
        let addr = g.u64();
        let lo = g.range(0u32..60);
        let len = g.range(1u32..=4);
        let pc = Pc::new(addr);
        let field = pc.bits(lo, len);
        for i in 0..len {
            prop_assert_eq!((field >> i) & 1, pc.bit(lo + i));
        }
        Ok(())
    });
}
