//! Batched multi-configuration simulation over a [`FlatTrace`], the one
//! in-memory trace form the trace cache holds.
//!
//! The paper's evaluation is a grid: every figure runs many predictor
//! configurations over the same traces. Serial sweeps pay the trace's
//! memory traffic once *per configuration*; [`simulate_many`] decodes
//! each record once and steps all K configurations on it before moving
//! to the next, so the trace streams through the cache a single time
//! regardless of K. Combined with the packed [`FlatTrace`] layout
//! (~10 bytes/record instead of 24) this is the workspace's sweep
//! engine: parallelism covers benchmarks (`sweep::run_parallel`),
//! batching covers configurations.
//!
//! # Why results are bit-identical to serial runs
//!
//! Each configuration owns its own predictor state; the only shared
//! input is the trace, which is read-only. Interleaving the K state
//! machines over one record stream therefore performs exactly the same
//! sequence of (record, state) transitions each machine would see alone,
//! and [`FlatTrace`] iteration reconstructs records bit-identically to
//! the source [`Trace`](ev8_trace::Trace) (pinned by its unit tests). So
//! `simulate_many(&mut [p1, .., pK], &flat)` returns exactly what K
//! serial [`simulate`](crate::simulate) calls would — the workspace
//! equivalence suite (`tests/batched_equivalence.rs`) asserts this over
//! arbitrary generated traces, including the predictors'
//! write-accounting counters, and `tests/golden_misp.rs` pins the
//! batched path against the golden fixture.
//!
//! # Example
//!
//! ```
//! use ev8_predictors::bimodal::Bimodal;
//! use ev8_predictors::gshare::Gshare;
//! use ev8_predictors::BranchPredictor;
//! use ev8_sim::batch::simulate_many;
//! use ev8_trace::{BranchRecord, FlatTrace, Pc, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("demo");
//! for i in 0..100u64 {
//!     b.branch(BranchRecord::conditional(Pc::new(0x40), Pc::new(0x80), i % 3 != 0));
//! }
//! let flat = FlatTrace::from_trace(&b.finish());
//! let mut configs: Vec<Box<dyn BranchPredictor>> =
//!     vec![Box::new(Bimodal::new(10)), Box::new(Gshare::new(10, 8))];
//! let results = simulate_many(&mut configs, &flat);
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].conditional_branches, 100);
//! ```

use ev8_predictors::bitvec::WEAKLY_NOT_TAKEN_FILL;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::BranchPredictor;
use ev8_trace::FlatTrace;

use crate::metrics::{SimResult, Tally};
use crate::simulator::{drive, Hook, Plain};

/// Runs one predictor over a [`FlatTrace`] with immediate update —
/// exactly [`simulate`](crate::simulate) but streaming the packed
/// columns instead of the AoS record array: [`drive`] with the [`Plain`]
/// hook. This is the single-configuration run of every experiment, over
/// the packed trace the trace cache holds.
///
/// The `sweep_batched` bench records the flat-vs-AoS single-config
/// speedup.
pub fn simulate_flat<P: BranchPredictor>(predictor: P, trace: &FlatTrace) -> SimResult {
    let name = predictor.name();
    let tally = drive(predictor, trace, Plain);
    SimResult::new(trace.name(), trace.instruction_count(), name, tally)
}

/// Steps K predictor configurations over a [`FlatTrace`] in one pass,
/// returning one [`SimResult`] per configuration, in input order,
/// bit-identical to K serial [`simulate`](crate::simulate) calls (see
/// the module docs for why).
///
/// `predictors` is borrowed mutably rather than consumed so callers can
/// inspect post-run state (e.g. write-accounting counters) — pass
/// `&mut [Box<dyn BranchPredictor>]` for heterogeneous sweeps or
/// `&mut [concrete]` for homogeneous ones.
///
/// The per-record body is K [`Plain`] hook steps, the same step
/// [`drive`] takes. The loop touches only the packed trace columns, the
/// predictor state and one flat array of [`Tally`]s; the string-bearing
/// results are built after it.
pub fn simulate_many<P: BranchPredictor>(
    predictors: &mut [P],
    trace: &FlatTrace,
) -> Vec<SimResult> {
    // The config loop zips predictors with their tallies (no index
    // arithmetic, no bounds checks), and the K predictor bodies carry no
    // data dependencies between each other.
    let mut tallies = vec![Tally::default(); predictors.len()];
    trace.for_each(|record| {
        for (predictor, tally) in predictors.iter_mut().zip(tallies.iter_mut()) {
            Plain.step(predictor, record, tally);
        }
    });
    predictors
        .iter()
        .zip(tallies)
        .map(|(p, tally)| SimResult::new(trace.name(), trace.instruction_count(), p.name(), tally))
        .collect()
}

/// Runs a gshare history-length sweep — the Fig 6/7 sweep axis: one
/// table geometry, many history lengths — over a [`FlatTrace`] in one
/// pass, bit-identical to `histories.len()` serial
/// [`simulate`](crate::simulate)`(Gshare::new(index_bits, h), ..)` calls.
///
/// This is the sweep engine's specialized path, and it is where batching
/// buys more than amortized trace decode: the global history register is
/// derived from trace outcomes alone, never from predictor state, so
/// every configuration in a history-length sweep observes the *same*
/// register and differs only in how many low bits it reads.
///
/// Histories all ≤ 32 bits (every paper sweep) run on the **transposed
/// blocked engine**: one decode pass bakes each branch's rolling history
/// snapshot into a dense stream, so configurations decouple completely
/// and each one runs as its *own* tight pass over a block of branches
/// while the block is cache-hot. One configuration's pass touches
/// exactly one `2^index_bits`-counter table (L1-resident) plus a
/// sequential stream read; there is no per-branch configuration dispatch
/// at all, and the XOR fold reduces to the branchless two-chunk form
/// `(h & m) ^ (h >> index_bits)`. Any history above 32 bits or above
/// `2 * index_bits` sends the whole sweep to the general engine
/// ([`simulate_many`]), which handles any configuration mix.
///
/// # Why this is bit-identical to serial
///
/// * Masking the rolling register at use (`hist & mask_h`) equals
///   masking it at every push, because the mask is a contiguous low-bit
///   mask: bits above position `h` can never flow back down.
/// * The two-chunk fold equals [`xor_fold64`](ev8_predictors::skew::xor_fold64)
///   whenever the value fits in `2 * index_bits` bits, which the
///   fallback guard guarantees.
/// * [`Gshare::predict_and_update`] computes its index before pushing
///   history and only touches history on conditional records — mirrored
///   exactly here, and pinned by the unit tests below plus the
///   workspace equivalence suite.
/// * Configurations never exchange state, so reordering the (branch,
///   config) iteration grid into per-config passes performs the
///   identical transition sequence per configuration.
///
/// # Panics
///
/// Panics if `index_bits` is outside `1..=30` or any history length
/// exceeds 64 (the same bounds [`Gshare::new`] enforces).
pub fn simulate_gshare_sweep(
    index_bits: u32,
    histories: &[u32],
    trace: &FlatTrace,
) -> Vec<SimResult> {
    if histories.iter().any(|&h| h > 32 || h > 2 * index_bits) {
        let mut configs: Vec<Gshare> = histories
            .iter()
            .map(|&h| Gshare::new(index_bits, h))
            .collect();
        return simulate_many(&mut configs, trace);
    }
    // Result skeletons are named to match [`Gshare::name`] without
    // building a table per config just to ask (pinned by the equivalence
    // tests); the conditional count is config-invariant.
    histories
        .iter()
        .zip(transposed_sweep_misps(index_bits, histories, trace))
        .map(|(&h, mispredictions)| {
            let tally = Tally {
                conditional_branches: trace.conditional_count(),
                mispredictions,
            };
            let name = format!("gshare {}K entries, h={h}", (1u64 << index_bits) / 1024);
            SimResult::new(trace.name(), trace.instruction_count(), name, tally)
        })
        .collect()
}

/// Branches per transposed block: 2^15 stream entries (256 KB) stay
/// resident in L2 while every configuration's pass re-reads them, and
/// one configuration's table (≤ 2^30 counters in principle, 16 KB for
/// the paper's 64K-entry sweeps) stays L1-resident within a pass.
const TRANSPOSED_BLOCK: usize = 1 << 15;

/// The transposed blocked sweep engine (histories ≤ 32 bits).
///
/// One shared decode pass projects the conditional records into a dense
/// one-`u64`-per-branch stream: rolling 32-bit history snapshot in the
/// high word, outcome in bit 31, masked PC index field in the low bits
/// (`index_bits` caps at 30, so the fields never collide). Baking the
/// history into the stream is what makes transposition legal — after
/// it, a configuration's whole simulation is a pure function of the
/// stream, so the (branch, config) grid can run config-major: for each
/// block of branches, each configuration sweeps the block in a tight
/// scalar loop with *zero* per-branch dispatch, a bounds-check-free
/// masked table access, an XOR-merge counter store and a branchless
/// misprediction tally. Per (branch, config) that is ~a dozen ALU ops
/// against one L1 load/store — the data-parallel inner loop the
/// one-u32-per-branch engine from PR 5 still interleaved away.
fn transposed_sweep_misps(index_bits: u32, histories: &[u32], trace: &FlatTrace) -> Vec<u64> {
    assert!((1..=30).contains(&index_bits), "index_bits must be 1..=30");
    debug_assert!(histories.iter().all(|&h| h <= 32 && h <= 2 * index_bits));
    let low_mask = (1u64 << index_bits) - 1;
    let mut stream: Vec<u64> = Vec::with_capacity(trace.conditional_count() as usize);
    let mut hist: u64 = 0;
    trace.for_each_conditional(|pc_shifted, outcome| {
        let taken = u64::from(outcome.is_taken());
        stream.push((hist << 32) | (taken << 31) | (pc_shifted & low_mask));
        hist = ((hist << 1) | taken) & u32::MAX as u64;
    });
    if index_bits <= BYTE_TABLE_MAX_BITS {
        transposed_pass_bytes(index_bits, &stream, histories)
    } else {
        transposed_pass_packed(index_bits, &stream, histories)
    }
}

/// Geometry ceiling for the byte-per-counter engine tables: past
/// `2^22` entries (4 MB per configuration) the 4× storage inflation
/// over packed words stops being a cache win, so larger sweeps take the
/// packed-word pass instead. Every sweep in the paper's figures is far
/// below this.
const BYTE_TABLE_MAX_BITS: u32 = 22;

/// Fused counter-step table: entry `(cur << 1) | taken` holds the next
/// counter value (`cur + 2 * taken - 1` clamped to `0..=3`) in bits
/// 0..2 and the misprediction flag (`(cur >> 1) != taken`) in bit 2.
/// One 8-byte L1 load replaces the saturate arithmetic (whose `min`
/// compiles to a data-dependent branch that mispredicts on every
/// saturation) *and* the predict-vs-outcome compare.
const COUNTER_STEP_LUT: [u8; 8] = [0, 5, 0, 6, 5, 3, 6, 3];

/// The byte-table inner passes of the transposed engine.
///
/// Engine tables here are one *byte* per 2-bit counter — 4× the state
/// of the packed [`Counter2Table`](ev8_predictors::bitvec::Counter2Table) layout, but the per-branch
/// read-modify-write loses every variable-count shift (2–3 µops each on
/// Intel, and the packed form needs several): extract is a plain byte
/// load, the step is one [`COUNTER_STEP_LUT`] lookup, write-back is a
/// byte store. A configuration's table (64 KB for the paper's
/// 64K-entry geometry) stays L1/L2-resident within its pass. Sweeps
/// whose history fits inside the index (`mask <= low_mask`, true for
/// every paper figure) skip the fold's shift-XOR entirely.
///
/// Configurations run through each block in *pairs*: on traces whose
/// dynamic branches concentrate on a few static sites (compress: ~45
/// statics, one dominant loop branch) consecutive steps of one
/// configuration read-modify-write the *same* counter, so a lone
/// config's loop serializes on the store-to-load-forward → LUT-load
/// chain (~15 cycles/branch measured, vs ~6-7 when indices spread).
/// Two configurations' chains are independent, so interleaving them in
/// one loop lets out-of-order execution overlap the stalls; each
/// configuration still steps the block strictly in trace order, so the
/// pairing is bit-exact by construction.
fn transposed_pass_bytes(index_bits: u32, stream: &[u64], histories: &[u32]) -> Vec<u64> {
    let low_mask = (1u64 << index_bits) - 1;
    let entries = 1usize << index_bits;
    let masks: Vec<u64> = histories.iter().map(|&h| mask_for(h)).collect();
    let mut tables: Vec<Vec<u8>> = vec![vec![0b01; entries]; histories.len()];
    let mut misps: Vec<u64> = vec![0; histories.len()];
    for block in stream.chunks(TRANSPOSED_BLOCK) {
        for ((pair, mask2), misp2) in tables
            .chunks_mut(2)
            .zip(masks.chunks(2))
            .zip(misps.chunks_mut(2))
        {
            if pair.len() == 2 {
                let (mask_a, mask_b) = (mask2[0], mask2[1]);
                let (pa, pb) = pair.split_at_mut(1);
                let ta = pa[0].as_mut_slice();
                let tb = pb[0].as_mut_slice();
                // Derived from *these* slices' (power-of-two) lengths so
                // the compiler can prove the masked accesses in bounds
                // and emit no checks in the inner loops.
                let tmask_a = ta.len() - 1;
                let tmask_b = tb.len() - 1;
                let (mut tally_a, mut tally_b) = (0u64, 0u64);
                if mask_a <= low_mask && mask_b <= low_mask {
                    for &e in block {
                        // History fits inside the index field: the
                        // fold's high chunk is zero, bit 31 (the
                        // outcome) dies under low_mask.
                        let idx_a = ((e ^ ((e >> 32) & mask_a)) & low_mask) as usize;
                        let idx_b = ((e ^ ((e >> 32) & mask_b)) & low_mask) as usize;
                        let t = (e >> 31) & 1;
                        let slot_a = &mut ta[idx_a & tmask_a];
                        let key_a = ((u64::from(*slot_a) << 1) | t) as usize;
                        let va = COUNTER_STEP_LUT[key_a & 7];
                        *slot_a = va & 0b11;
                        tally_a += u64::from(va >> 2);
                        let slot_b = &mut tb[idx_b & tmask_b];
                        let key_b = ((u64::from(*slot_b) << 1) | t) as usize;
                        let vb = COUNTER_STEP_LUT[key_b & 7];
                        *slot_b = vb & 0b11;
                        tally_b += u64::from(vb >> 2);
                    }
                } else {
                    for &e in block {
                        // Two-chunk fold: exactly xor_fold64 for values
                        // below 2^(2 * index_bits).
                        let hm_a = (e >> 32) & mask_a;
                        let hm_b = (e >> 32) & mask_b;
                        let idx_a = (((e ^ hm_a) & low_mask) ^ (hm_a >> index_bits)) as usize;
                        let idx_b = (((e ^ hm_b) & low_mask) ^ (hm_b >> index_bits)) as usize;
                        let t = (e >> 31) & 1;
                        let slot_a = &mut ta[idx_a & tmask_a];
                        let key_a = ((u64::from(*slot_a) << 1) | t) as usize;
                        let va = COUNTER_STEP_LUT[key_a & 7];
                        *slot_a = va & 0b11;
                        tally_a += u64::from(va >> 2);
                        let slot_b = &mut tb[idx_b & tmask_b];
                        let key_b = ((u64::from(*slot_b) << 1) | t) as usize;
                        let vb = COUNTER_STEP_LUT[key_b & 7];
                        *slot_b = vb & 0b11;
                        tally_b += u64::from(vb >> 2);
                    }
                }
                misp2[0] += tally_a;
                misp2[1] += tally_b;
                continue;
            }
            // Odd trailing configuration: the single-table loop.
            let table = pair[0].as_mut_slice();
            let mask = mask2[0];
            let tmask = table.len() - 1;
            let mut tally = 0u64;
            if mask <= low_mask {
                for &e in block {
                    let hm = (e >> 32) & mask;
                    let idx = ((e ^ hm) & low_mask) as usize;
                    let slot = &mut table[idx & tmask];
                    let t = (e >> 31) & 1;
                    let key = ((u64::from(*slot) << 1) | t) as usize;
                    let v = COUNTER_STEP_LUT[key & 7];
                    *slot = v & 0b11;
                    tally += u64::from(v >> 2);
                }
            } else {
                for &e in block {
                    let hm = (e >> 32) & mask;
                    let idx = (((e ^ hm) & low_mask) ^ (hm >> index_bits)) as usize;
                    let slot = &mut table[idx & tmask];
                    let t = (e >> 31) & 1;
                    let key = ((u64::from(*slot) << 1) | t) as usize;
                    let v = COUNTER_STEP_LUT[key & 7];
                    *slot = v & 0b11;
                    tally += u64::from(v >> 2);
                }
            }
            misp2[0] += tally;
        }
    }
    misps
}

/// The packed-word inner pass of the transposed engine, for geometries
/// past [`BYTE_TABLE_MAX_BITS`]: same iteration order, counters stored
/// 32 per `u64` word exactly like
/// [`Counter2Table`](ev8_predictors::bitvec::Counter2Table).
fn transposed_pass_packed(index_bits: u32, stream: &[u64], histories: &[u32]) -> Vec<u64> {
    let low_mask = (1u64 << index_bits) - 1;
    let word_count = (1usize << index_bits).div_ceil(32);
    let masks: Vec<u64> = histories.iter().map(|&h| mask_for(h)).collect();
    let mut tables: Vec<Vec<u64>> = vec![vec![WEAKLY_NOT_TAKEN_FILL; word_count]; histories.len()];
    let mut misps: Vec<u64> = vec![0; histories.len()];
    for block in stream.chunks(TRANSPOSED_BLOCK) {
        for ((words, &mask), misp) in tables.iter_mut().zip(&masks).zip(misps.iter_mut()) {
            let words = words.as_mut_slice();
            let wmask = words.len() - 1;
            let mut tally = 0u64;
            for &e in block {
                let hm = (e >> 32) & mask;
                let idx = (((e ^ hm) & low_mask) ^ (hm >> index_bits)) as usize;
                let shift = ((idx & 31) << 1) as u32;
                let word = &mut words[(idx >> 5) & wmask];
                let cur = (*word >> shift) & 0b11;
                let t = (e >> 31) & 1;
                let key = (((cur << 1) | t) & 7) as usize;
                let v = u64::from(COUNTER_STEP_LUT[key]);
                *word ^= (cur ^ (v & 0b11)) << shift;
                tally += v >> 2;
            }
            *misp += tally;
        }
    }
    misps
}

/// `(1 << h) - 1` without the `h = 64` overflow.
#[inline]
fn mask_for(h: u32) -> u64 {
    if h >= 64 {
        u64::MAX
    } else {
        (1u64 << h) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::simulate;
    use ev8_predictors::bimodal::Bimodal;
    use ev8_predictors::gshare::Gshare;
    use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
    use ev8_trace::{BranchKind, BranchRecord, Pc, Trace, TraceBuilder};

    fn mixed_trace() -> Trace {
        let mut b = TraceBuilder::new("mixed");
        for i in 0..600u64 {
            b.run(i % 7);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + (i % 13) * 8),
                Pc::new(0x2000),
                (i / 3) % 2 == 0,
            ));
            if i % 5 == 0 {
                b.branch(BranchRecord::always_taken(
                    Pc::new(0x3000),
                    Pc::new(0x4000),
                    BranchKind::Call,
                ));
            }
        }
        b.finish()
    }

    #[test]
    fn batched_matches_serial_exactly() {
        let t = mixed_trace();
        let flat = FlatTrace::from_trace(&t);
        let mut batch: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(Bimodal::new(10)),
            Box::new(Gshare::new(10, 8)),
            Box::new(TwoBcGskew::new(TwoBcGskewConfig::equal(9, 9))),
        ];
        let batched = simulate_many(&mut batch, &flat);
        let serial = vec![
            simulate(Bimodal::new(10), &t),
            simulate(Gshare::new(10, 8), &t),
            simulate(TwoBcGskew::new(TwoBcGskewConfig::equal(9, 9)), &t),
        ];
        assert_eq!(batched, serial);
    }

    #[test]
    fn flat_single_config_matches_serial() {
        let t = mixed_trace();
        let flat = FlatTrace::from_trace(&t);
        assert_eq!(
            simulate_flat(Gshare::new(12, 10), &flat),
            simulate(Gshare::new(12, 10), &t)
        );
    }

    #[test]
    fn batched_leaves_predictor_state_identical_to_serial() {
        let t = mixed_trace();
        let flat = FlatTrace::from_trace(&t);
        let mut batched = [TwoBcGskew::new(TwoBcGskewConfig::equal(9, 9))];
        simulate_many(&mut batched, &flat);
        let mut serial = TwoBcGskew::new(TwoBcGskewConfig::equal(9, 9));
        simulate(&mut serial, &t);
        assert_eq!(batched[0].write_traffic(), serial.write_traffic());
    }

    /// The specialized gshare sweep path must agree with serial gshare
    /// runs exactly — results, names, and instruction counts — across
    /// the full history-length range it claims, including h = 0
    /// (bimodal-like), h = index_bits, and h up to 2 * index_bits
    /// (two-chunk fold active).
    #[test]
    fn gshare_sweep_matches_serial_exactly() {
        let t = mixed_trace();
        let flat = FlatTrace::from_trace(&t);
        let histories = [0, 1, 5, 10, 14, 20];
        let batched = simulate_gshare_sweep(10, &histories, &flat);
        let serial: Vec<_> = histories
            .iter()
            .map(|&h| simulate(Gshare::new(10, h), &t))
            .collect();
        assert_eq!(batched, serial);
    }

    /// The transposed engine must stay exact across multiple blocks
    /// (table state carries over block boundaries) and at h = 32, the
    /// top of its claimed range.
    #[test]
    fn transposed_engine_spans_blocks_exactly() {
        let mut b = TraceBuilder::new("blocks");
        // > 2 * TRANSPOSED_BLOCK conditionals with enough PC spread and
        // outcome structure that block-boundary bugs would show.
        for i in 0..(2 * TRANSPOSED_BLOCK as u64 + 1234) {
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000 + (i % 4093) * 4),
                Pc::new(0x2000),
                (i * i / 7) % 3 != 0,
            ));
        }
        let t = b.finish();
        let flat = FlatTrace::from_trace(&t);
        let histories = [0, 7, 16, 32];
        let batched = simulate_gshare_sweep(16, &histories, &flat);
        let serial: Vec<_> = histories
            .iter()
            .map(|&h| simulate(Gshare::new(16, h), &t))
            .collect();
        assert_eq!(batched, serial);
    }

    /// Geometries past BYTE_TABLE_MAX_BITS take the packed-word pass;
    /// it must be just as exact (and histories past index_bits exercise
    /// its fold).
    #[test]
    fn transposed_packed_fallback_matches_serial_exactly() {
        let t = mixed_trace();
        let flat = FlatTrace::from_trace(&t);
        let histories = [0, 9, 23, 30];
        let batched = simulate_gshare_sweep(BYTE_TABLE_MAX_BITS + 1, &histories, &flat);
        let serial: Vec<_> = histories
            .iter()
            .map(|&h| simulate(Gshare::new(BYTE_TABLE_MAX_BITS + 1, h), &t))
            .collect();
        assert_eq!(batched, serial);
    }

    /// Histories beyond 32 bits or beyond 2 * index_bits route through
    /// the generic engine and must still match serial runs: past
    /// 2 * index_bits the fold is no longer two chunks, and in
    /// (32, 2 * index_bits] the rolling snapshot is too narrow.
    #[test]
    fn gshare_sweep_long_history_fallback_matches_serial() {
        let t = mixed_trace();
        let flat = FlatTrace::from_trace(&t);
        let cases: [(u32, &[u32]); 2] =
            [(8, &[4, 17, 40, 64]), (18, &[0, 1, 5, 10, 14, 20, 33, 36])];
        for (index_bits, histories) in cases {
            let batched = simulate_gshare_sweep(index_bits, histories, &flat);
            let serial: Vec<_> = histories
                .iter()
                .map(|&h| simulate(Gshare::new(index_bits, h), &t))
                .collect();
            assert_eq!(batched, serial, "index_bits {index_bits}");
        }
    }

    #[test]
    fn gshare_sweep_empty_inputs() {
        let flat = FlatTrace::from_trace(&mixed_trace());
        assert!(simulate_gshare_sweep(12, &[], &flat).is_empty());
        let empty = FlatTrace::from_trace(&Trace::default());
        let results = simulate_gshare_sweep(12, &[0, 8], &empty);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].conditional_branches, 0);
        assert_eq!(results[1].mispredictions, 0);
    }

    #[test]
    fn empty_config_set_returns_no_results() {
        let flat = FlatTrace::from_trace(&mixed_trace());
        let mut none: Vec<Box<dyn BranchPredictor>> = Vec::new();
        assert!(simulate_many(&mut none, &flat).is_empty());
    }

    #[test]
    fn empty_trace_yields_empty_results_per_config() {
        let flat = FlatTrace::from_trace(&Trace::default());
        let mut batch = [Bimodal::new(8), Bimodal::new(10)];
        let results = simulate_many(&mut batch, &flat);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.conditional_branches, 0);
            assert_eq!(r.mispredictions, 0);
            assert_eq!(r.checked_misp_per_ki(), None);
        }
    }
}
