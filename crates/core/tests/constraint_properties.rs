//! Property-based tests of the EV8 hardware-constraint machinery: the
//! invariants of §6 (banking) and §7 (index functions) on arbitrary
//! inputs, and the fetch/lghist pipeline on arbitrary record streams.
//!
//! Driven by the in-tree deterministic harness (`ev8_util::prop`);
//! failures report an `EV8_PROP_CASE_SEED` that reproduces them.

use std::collections::VecDeque;

use ev8_util::prop::{check, Gen};
use ev8_util::{prop_assert, prop_assert_eq};

use ev8_core::config::{WordlineMode, HISTORY_DELAY_BLOCKS};
use ev8_core::index::IndexInputs;
use ev8_core::lghist::{BlockSummary, DelayedLghist};
use ev8_core::predictor::Indices;
use ev8_core::{Ev8Predictor, HistoryMode, IndexScheme};
use ev8_predictors::BranchPredictor;
use ev8_trace::{BranchKind, BranchRecord, Outcome, Pc};

const CASES: u64 = 64;

const WORDLINES: [WordlineMode; 2] = [WordlineMode::HistoryAndAddress, WordlineMode::AddressOnly];

fn arb_inputs(g: &mut Gen) -> IndexInputs {
    IndexInputs {
        pc: Pc::new(g.u32() as u64),
        history: g.u64(),
        z: Pc::new(g.u32() as u64),
        bank: g.range(0u8..4),
        wordline: WordlineMode::HistoryAndAddress,
    }
}

/// Mostly ordinary code addresses; also addresses in the last aligned
/// regions of the 64-bit space, and near 0, where a record's straight-line
/// run wraps below 0.
fn arb_pc(g: &mut Gen) -> Pc {
    match g.range(0u8..8) {
        0 | 1 => Pc::new(u64::MAX - 3 - g.u8() as u64 * 4),
        2 => Pc::new(g.range(0u64..64) * 4),
        _ => Pc::new(0x1_0000 + g.u16() as u64 * 4),
    }
}

fn arb_records(g: &mut Gen) -> Vec<BranchRecord> {
    g.vec(1..300, |g| {
        let pc = arb_pc(g);
        let target = arb_pc(g);
        let taken = g.bool();
        let gap = g.range(0u32..40);
        if g.bool() {
            BranchRecord::always_taken(pc, target, BranchKind::Call).with_gap(gap)
        } else {
            BranchRecord::conditional(pc, target, taken).with_gap(gap)
        }
    })
}

#[test]
fn indices_always_in_range() {
    check("indices_always_in_range", CASES, |g| {
        let inputs = arb_inputs(g);
        prop_assert!(inputs.bim() < 1 << 14);
        prop_assert!(inputs.g0() < 1 << 16);
        prop_assert!(inputs.g1() < 1 << 16);
        prop_assert!(inputs.meta() < 1 << 16);
        Ok(())
    });
}

#[test]
fn shared_bits_are_shared() {
    check("shared_bits_are_shared", CASES, |g| {
        let inputs = arb_inputs(g);
        // §7.3: all four tables share the bank (i1,i0) and wordline
        // (i10..i5) bits.
        let idxs = [inputs.bim(), inputs.g0(), inputs.g1(), inputs.meta()];
        for idx in idxs {
            prop_assert_eq!((idx & 0b11) as u8, inputs.bank);
            prop_assert_eq!(((idx >> 5) & 0x3F) as u64, inputs.wordline_bits());
        }
        Ok(())
    });
}

#[test]
fn block_slots_stay_distinct() {
    check("block_slots_stay_distinct", CASES, |g| {
        let base = (g.u32() as u64 * 4) & !0b11111;
        let h = g.u64();
        let z = g.u32();
        let bank = g.range(0u8..4);
        // The unshuffle must keep the 8 predictions of one fetch block in
        // 8 distinct word positions, for every table and any context.
        for table in 0..4u8 {
            let mut seen = [false; 8];
            for slot in 0..8u64 {
                let inputs = IndexInputs {
                    pc: Pc::new(base + slot * 4),
                    history: h,
                    z: Pc::new(z as u64),
                    bank,
                    wordline: WordlineMode::HistoryAndAddress,
                };
                let idx = match table {
                    0 => inputs.bim(),
                    1 => inputs.g0(),
                    2 => inputs.g1(),
                    _ => inputs.meta(),
                };
                let offset = (idx >> 2) & 0b111;
                prop_assert!(!seen[offset], "slot collision in table {}", table);
                seen[offset] = true;
            }
        }
        Ok(())
    });
}

#[test]
fn lghist_visible_length_respected() {
    check("lghist_visible_length_respected", CASES, |g| {
        let blocks = g.vec(0..200, |g| (g.u32(), g.bool(), g.bool()));
        let len = g.range(0u32..=21);
        let mut h = DelayedLghist::new(len, true, true);
        for (addr, has_cond, taken) in blocks {
            let addr = Pc::new(addr as u64 & !0b11111);
            h.push_block(BlockSummary {
                address: addr,
                last_conditional: has_cond.then_some((addr, Outcome::from(taken))),
            });
            if len < 64 {
                prop_assert!(h.visible_bits() < (1u64 << len.max(1)) || len == 0);
            }
        }
        if len == 0 {
            prop_assert_eq!(h.visible_bits(), 0);
        }
        Ok(())
    });
}

#[test]
fn ev8_predictor_never_panics_and_counts_sanely() {
    check("ev8_predictor_never_panics_and_counts_sanely", CASES, |g| {
        let records = arb_records(g);
        let mut p = Ev8Predictor::ev8();
        let mut predictions = 0u64;
        for rec in &records {
            if p.predict_and_update(rec).is_some() {
                predictions += 1;
            }
        }
        let conditionals = records.iter().filter(|r| r.kind.is_conditional()).count() as u64;
        prop_assert_eq!(predictions, conditionals);
        Ok(())
    });
}

#[test]
fn index_scheme_variants_agree_on_range() {
    check("index_scheme_variants_agree_on_range", CASES, |g| {
        let records = arb_records(g);
        // The complete-hash variant must also stay in range and process
        // any stream.
        let cfg = ev8_core::Ev8Config::ev8()
            .with_index(IndexScheme::CompleteHash)
            .with_history(HistoryMode::lghist_path());
        let mut p = Ev8Predictor::new(cfg);
        for rec in &records {
            p.predict_and_update(rec);
        }
        // Storage budget invariant.
        prop_assert_eq!(p.storage_bits(), 352 * 1024);
        Ok(())
    });
}

/// The four indices as the reference equations write them.
fn reference(inputs: &IndexInputs) -> Indices {
    Indices {
        bim: inputs.bim(),
        g0: inputs.g0(),
        g1: inputs.g1(),
        meta: inputs.meta(),
    }
}

#[test]
fn linear_index_matches_reference_on_every_table_entry() {
    for wordline in WORDLINES {
        let zero = IndexInputs {
            pc: Pc::new(0),
            history: 0,
            z: Pc::new(0),
            bank: 0,
            wordline,
        };
        // Zero, and every single input bit, read or not.
        let mut cases = vec![zero];
        for bit in 0..64 {
            cases.push(IndexInputs {
                pc: Pc::new(1 << bit),
                ..zero
            });
            cases.push(IndexInputs {
                history: 1 << bit,
                ..zero
            });
            cases.push(IndexInputs {
                z: Pc::new(1 << bit),
                ..zero
            });
        }
        // Every value of each tabulated field alone: a2..a14, each
        // history byte, and z5, z6 with every bank.
        cases.extend((0..1 << 13).map(|a| IndexInputs {
            pc: Pc::new(a << 2),
            ..zero
        }));
        for byte in 0..3 {
            cases.extend((0..256).map(|h| IndexInputs {
                history: h << (8 * byte),
                ..zero
            }));
        }
        for z in 0..4 {
            cases.extend((0..4).map(|bank| IndexInputs {
                z: Pc::new(z << 5),
                bank,
                ..zero
            }));
        }
        for inputs in &cases {
            assert_eq!(inputs.indices(), reference(inputs), "{inputs:?}");
        }
    }
}

#[test]
fn linear_index_matches_reference_on_every_slot() {
    check("linear_index_matches_reference_on_every_slot", CASES, |g| {
        let block = g.u64() & !0b11111;
        let (history, z, bank) = (g.u64(), Pc::new(g.u64()), g.range(0u8..4));
        for wordline in WORDLINES {
            for slot in 0..8u64 {
                let inputs = IndexInputs {
                    pc: Pc::new(block | slot << 2),
                    history,
                    z,
                    bank,
                    wordline,
                };
                prop_assert_eq!(inputs.indices(), reference(&inputs));
            }
        }
        Ok(())
    });
}

#[test]
fn linear_index_ignores_bits_the_equations_do_not_read() {
    // The equations read h0..h20, a2..a14 and z5, z6.
    const READ_H: u64 = (1 << 21) - 1;
    const READ_A: u64 = 0x7FFC;
    const READ_Z: u64 = 0b110_0000;
    check(
        "linear_index_ignores_bits_the_equations_do_not_read",
        CASES,
        |g| {
            let inputs = IndexInputs {
                pc: Pc::new(g.u64()),
                history: g.u64(),
                z: Pc::new(g.u64()),
                bank: g.range(0u8..4),
                wordline: *g.choose(&WORDLINES),
            };
            let flipped = IndexInputs {
                pc: Pc::new(inputs.pc.as_u64() ^ (g.u64() & !READ_A)),
                history: inputs.history ^ (g.u64() & !READ_H),
                z: Pc::new(inputs.z.as_u64() ^ (g.u64() & !READ_Z)),
                ..inputs
            };
            prop_assert_eq!(flipped.indices(), inputs.indices());
            prop_assert_eq!(reference(&flipped), reference(&inputs));
            Ok(())
        },
    );
}

/// A slow twin of [`DelayedLghist`]: the delay pipe and the path window as
/// unbounded queues, trimmed to [`HISTORY_DELAY_BLOCKS`] entries.
struct QueueLghist {
    committed: u64,
    length: u32,
    pending: VecDeque<Option<u64>>,
    recent: VecDeque<Pc>,
    path_bit: bool,
    delayed: bool,
}

impl QueueLghist {
    fn new(length: u32, path_bit: bool, delayed: bool) -> Self {
        QueueLghist {
            committed: 0,
            length,
            pending: VecDeque::new(),
            recent: VecDeque::new(),
            path_bit,
            delayed,
        }
    }

    fn commit(&mut self, bit: u64) {
        self.committed = (self.committed << 1) | bit;
        if self.length < 64 {
            self.committed &= (1u64 << self.length) - 1;
        }
    }

    fn push_block(&mut self, summary: BlockSummary) {
        let bit = summary
            .last_conditional
            .map(|(pc, outcome)| outcome.as_bit() ^ (pc.bit(4) & u64::from(self.path_bit)));
        self.recent.push_front(summary.address);
        self.recent.truncate(HISTORY_DELAY_BLOCKS);
        if self.delayed {
            self.pending.push_back(bit);
            while self.pending.len() > HISTORY_DELAY_BLOCKS {
                if let Some(Some(b)) = self.pending.pop_front() {
                    self.commit(b);
                }
            }
        } else if let Some(b) = bit {
            self.commit(b);
        }
    }

    fn clear(&mut self) {
        self.committed = 0;
        self.pending.clear();
        self.recent.clear();
    }
}

#[test]
fn lghist_ring_matches_a_queue_twin() {
    check("lghist_ring_matches_a_queue_twin", CASES, |g| {
        // None clears; Some pushes a block.
        let stream: Vec<Option<BlockSummary>> = g.vec(0..120, |g| {
            (g.range(0u8..24) != 0).then(|| BlockSummary {
                address: Pc::new(g.u64() & !0b11),
                last_conditional: g
                    .bool()
                    .then(|| (Pc::new(g.u64() & !0b11), Outcome::from(g.bool()))),
            })
        });
        for length in 0..=64 {
            for (path_bit, delayed) in [(false, false), (false, true), (true, false), (true, true)]
            {
                let mut ring = DelayedLghist::new(length, path_bit, delayed);
                let mut twin = QueueLghist::new(length, path_bit, delayed);
                for op in &stream {
                    match op {
                        Some(summary) => {
                            ring.push_block(*summary);
                            twin.push_block(*summary);
                        }
                        None => {
                            ring.clear();
                            twin.clear();
                        }
                    }
                    prop_assert_eq!(ring.visible_bits(), twin.committed);
                    prop_assert_eq!(ring.z_address(), twin.recent.front().copied());
                    prop_assert!(
                        ring.recent_addresses().eq(twin.recent.iter().copied()),
                        "path window differs at length {} path_bit {} delayed {}",
                        length,
                        path_bit,
                        delayed
                    );
                }
            }
        }
        Ok(())
    });
}
