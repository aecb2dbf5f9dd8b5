//! The assembled Alpha EV8 conditional branch predictor.
//!
//! [`Ev8Predictor`] wires together every constraint of the paper:
//!
//! * the **Table 1** geometry: BIM 16K/16K (h=4), G0 64K/32K (h=13),
//!   G1 64K/64K (h=21), Meta 64K/32K (h=15) — 352 Kbits in eight physical
//!   single-ported arrays;
//! * **fetch-block formation** (§2) and **block-compressed,
//!   three-blocks-old lghist** (§5.1);
//! * **path information** from the last fetch blocks in the index (§5.2);
//! * the **conflict-free bank sequence** (§6);
//! * the **engineered index functions** (§7);
//! * the **partial update policy** of §4.2.
//!
//! The predictor is two parts. The four tables, their read and the §4.2
//! update are [`Tables`], the one body `ev8_predictors`' 2Bc-gskew also
//! runs. Everything the EV8 keeps per hardware thread (fetch state,
//! lghist, banks, conventional history) is the front end, which also owns
//! the index dispatch; [`crate::smt::SmtEv8`] is the same tables under
//! one front end per thread.
//!
//! The information-vector and indexing variants of Figures 7-9 are
//! selected through [`Ev8Config`].

use ev8_predictors::history::GlobalHistory;
use ev8_predictors::introspect::{ArrayInfo, FaultTarget};
use ev8_predictors::provenance::Provenance;
use ev8_predictors::skew::{xor_fold64, InfoVector};
pub use ev8_predictors::twobcgskew::Indices;
use ev8_predictors::twobcgskew::{PredictionDetail, TableConfig, Tables};
use ev8_predictors::BranchPredictor;
use ev8_trace::{BranchRecord, Outcome, Pc};

use crate::banks::{BankId, BankSequencer};
use crate::config::{Ev8Config, HistoryMode, IndexScheme};
use crate::fetch::{FetchBlock, FetchState};
use crate::index::IndexInputs;
use crate::lghist::DelayedLghist;

/// One hardware thread's front end: the state the EV8 keeps per thread
/// (§3) and the index dispatch that turns it into table indices.
#[derive(Clone, Debug)]
pub(crate) struct FrontEnd {
    fetch: FetchState,
    pub(crate) context: FetchContext,
    ghist: GlobalHistory,
}

/// The fetch context a branch is predicted in: what completed fetch
/// blocks drive (lghist and the path window, §5) and the §6 bank of the
/// block in progress.
#[derive(Clone, Debug)]
pub(crate) struct FetchContext {
    lghist: DelayedLghist,
    banks: BankSequencer,
    current_bank: BankId,
    pub(crate) last_block_start: Option<Pc>,
}

impl FetchContext {
    /// Assigns a bank when a new fetch block starts at `start`.
    #[inline(always)]
    fn enter(&mut self, start: Pc) {
        if self.last_block_start != Some(start) {
            self.current_bank = self.banks.next_bank(start);
            self.last_block_start = Some(start);
        }
    }

    /// Takes in one block the fetch state completed: its bank, if it
    /// starts here, then its history bit.
    #[inline(always)]
    fn complete(&mut self, block: FetchBlock) {
        self.enter(block.start);
        self.lghist.push_block(block.summary());
    }
}

impl FrontEnd {
    /// A front end in its reset state.
    ///
    /// # Panics
    ///
    /// Panics if `config.index` is [`IndexScheme::Ev8`] but the geometry
    /// is not the Table 1 layout the hardware index functions assume
    /// (16K-entry BIM, 64K-entry G0/G1/Meta).
    pub(crate) fn new(config: &Ev8Config) -> Self {
        if matches!(config.index, IndexScheme::Ev8 { .. }) {
            assert_eq!(
                (
                    config.bim.index_bits,
                    config.g0.index_bits,
                    config.g1.index_bits,
                    config.meta.index_bits
                ),
                (14, 16, 16, 16),
                "the EV8 index functions assume the Table 1 geometry"
            );
        }
        let (path_bit, delayed) = match config.history {
            HistoryMode::Ghist => (false, false),
            HistoryMode::Lghist {
                path_bit,
                three_blocks_old,
                ..
            } => (path_bit, three_blocks_old),
        };
        FrontEnd {
            fetch: FetchState::new(),
            context: FetchContext {
                lghist: DelayedLghist::new(config.max_history().min(64), path_bit, delayed),
                banks: BankSequencer::new(),
                current_bank: 0,
                last_block_start: None,
            },
            ghist: GlobalHistory::new(config.max_history().min(64)),
        }
    }

    fn visible_history(&self, config: &Ev8Config) -> u64 {
        match config.history {
            HistoryMode::Ghist => self.ghist.bits(),
            HistoryMode::Lghist { .. } => self.context.lghist.visible_bits(),
        }
    }

    /// The four table indices for a branch at `pc` in the current fetch
    /// context.
    fn indices(&self, config: &Ev8Config, pc: Pc) -> Indices {
        let history = self.visible_history(config);
        match config.index {
            IndexScheme::Ev8 { wordline } => {
                let inputs = IndexInputs {
                    pc,
                    history,
                    z: self.context.lghist.z_address().unwrap_or(Pc::new(0)),
                    bank: self.context.current_bank,
                    wordline,
                };
                inputs.indices()
            }
            IndexScheme::CompleteHash => {
                // The §5.2 path patch: a hash of the last three fetch-block
                // addresses, folded into every hashed index.
                let patch = match config.history {
                    HistoryMode::Lghist {
                        path_patch: true, ..
                    } => self
                        .context
                        .lghist
                        .recent_addresses()
                        .fold(0u64, |acc, addr| acc.rotate_left(9) ^ (addr.as_u64() >> 2)),
                    _ => 0,
                };
                let table = |bank: u32, t: &TableConfig| {
                    let idx = InfoVector::new(pc, history, t.history_length, t.index_bits);
                    (idx.index(bank) ^ xor_fold64(patch, t.index_bits)) as usize
                };
                Indices {
                    bim: if config.bim.history_length == 0 {
                        pc.bits(2, config.bim.index_bits) as usize
                    } else {
                        table(0, &config.bim)
                    },
                    g0: table(1, &config.g0),
                    g1: table(2, &config.g1),
                    meta: table(3, &config.meta),
                }
            }
        }
    }

    /// One record through this front end and `tables`: advance through
    /// the record's straight-line gap so the context is the fetch block
    /// holding the branch; for a conditional branch, index, read and
    /// apply the §4.2 update; then apply the branch itself (block
    /// completion, history insertion, bank sequencing). Returns the
    /// branch's [`Provenance`]; the plain steps keep only its prediction,
    /// and once this is inlined into them the rest is never built.
    #[inline(always)]
    pub(crate) fn step(
        &mut self,
        config: &Ev8Config,
        tables: &mut Tables,
        record: &BranchRecord,
    ) -> Option<Provenance> {
        let context = &mut self.context;
        self.fetch.feed_run(record, |b| context.complete(b));
        if let Some(start) = self.fetch.current_start() {
            self.context.enter(start);
        }
        let provenance = if record.kind.is_conditional() {
            let idx = self.indices(config, record.pc);
            let d = tables.read(idx);
            let (action, meta_trained) = tables.update_partial(idx, &d, record.outcome);
            Some(Provenance {
                pc: record.pc,
                outcome: record.outcome,
                bim: d.bim,
                g0: d.g0,
                g1: d.g1,
                majority: d.majority,
                chosen: d.chosen,
                overall: d.overall,
                action,
                meta_trained,
                bank: Some(self.context.current_bank),
            })
        } else {
            None
        };
        let context = &mut self.context;
        self.fetch.feed_branch(record, |b| context.complete(b));
        if let Some(start) = self.fetch.current_start() {
            self.context.enter(start);
        }
        if record.kind.is_conditional() {
            if let HistoryMode::Ghist = config.history {
                self.ghist.push(record.outcome);
            }
        }
        provenance
    }
}

/// The Alpha EV8 conditional branch predictor.
///
/// # Example
///
/// ```
/// use ev8_core::Ev8Predictor;
/// use ev8_predictors::BranchPredictor;
/// use ev8_trace::{BranchRecord, Pc};
///
/// let mut p = Ev8Predictor::ev8();
/// let rec = BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x1100), true);
/// let predicted = p.predict_and_update(&rec);
/// assert!(predicted.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Ev8Predictor {
    config: Ev8Config,
    tables: Tables,
    front: FrontEnd,
}

impl Ev8Predictor {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.index` is [`IndexScheme::Ev8`] but the geometry
    /// is not the Table 1 layout the hardware index functions assume
    /// (16K-entry BIM, 64K-entry G0/G1/Meta).
    pub fn new(config: Ev8Config) -> Self {
        Ev8Predictor {
            tables: Tables::new(config.bim, config.g0, config.g1, config.meta),
            front: FrontEnd::new(&config),
            config,
        }
    }

    /// The shipping EV8 configuration (352 Kbits, all constraints).
    pub fn ev8() -> Self {
        Self::new(Ev8Config::ev8())
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &Ev8Config {
        &self.config
    }

    /// The four tables.
    pub fn tables(&self) -> &Tables {
        &self.tables
    }

    /// The history value visible to the index functions right now.
    pub fn visible_history(&self) -> u64 {
        self.front.visible_history(&self.config)
    }

    /// Computes the four table indices for a branch at `pc` in the current
    /// fetch context.
    pub fn indices(&self, pc: Pc) -> Indices {
        self.front.indices(&self.config, pc)
    }

    /// Reads the tables and combines them per the 2Bc-gskew rule.
    pub fn predict_at(&self, idx: Indices) -> PredictionDetail {
        self.tables.read(idx)
    }

    /// The bank the current fetch block reads from.
    pub fn current_bank(&self) -> BankId {
        self.front.context.current_bank
    }

    /// Successive-fetch-block bank collisions observed by the §6 bank
    /// sequencer — always 0 by construction (the observability layer
    /// asserts this).
    pub fn bank_collisions(&self) -> u64 {
        self.front.context.banks.collisions()
    }

    /// Opt-in observed step: performs exactly the state transition of
    /// [`BranchPredictor::predict_and_update`] and, for conditional
    /// branches, returns the full [`Provenance`] (per-table votes, chooser
    /// decision, §4.2 update action, serving bank).
    #[inline]
    pub fn predict_and_update_observed(&mut self, record: &BranchRecord) -> Option<Provenance> {
        self.front.step(&self.config, &mut self.tables, record)
    }
}

impl BranchPredictor for Ev8Predictor {
    /// Predicts in the *current* fetch context. Exact when called through
    /// [`BranchPredictor::predict_and_update`] (which first advances the
    /// front end through the record's gap); best-effort otherwise.
    fn predict(&self, pc: Pc) -> Outcome {
        self.predict_at(self.indices(pc)).overall
    }

    fn update(&mut self, pc: Pc, outcome: Outcome) {
        // Without the full record we cannot know the branch target; treat
        // it as an in-place conditional (gap 0, fall-through target).
        let record = BranchRecord::conditional(pc, pc.next(), outcome.is_taken());
        self.update_record(&record);
    }

    /// A non-conditional record only moves the front end.
    fn note_noncond(&mut self, record: &BranchRecord) {
        self.update_record(record);
    }

    fn update_record(&mut self, record: &BranchRecord) {
        let _ = self.front.step(&self.config, &mut self.tables, record);
    }

    // Inlined for parity with the observed step: `predict_and_update_observed`
    // carries `#[inline]`, so without this attribute a cross-crate
    // `simulate::<Ev8Predictor>` pays a call per record that the observed
    // loop does not — which made a no-op observer measure *faster* than
    // no observer at all.
    #[inline]
    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        self.front
            .step(&self.config, &mut self.tables, record)
            .map(|p| p.overall)
    }

    fn name(&self) -> String {
        let hist = match self.config.history {
            HistoryMode::Ghist => "ghist".to_owned(),
            HistoryMode::Lghist {
                path_bit,
                three_blocks_old,
                path_patch,
            } => format!(
                "lghist{}{}{}",
                if path_bit { "+path" } else { "" },
                if three_blocks_old { ",3-old" } else { "" },
                if path_patch { ",patched" } else { "" }
            ),
        };
        let index = match self.config.index {
            IndexScheme::CompleteHash => "complete-hash".to_owned(),
            IndexScheme::Ev8 { wordline } => format!("EV8 index ({wordline:?})"),
        };
        format!(
            "EV8 {}Kb [{hist}; {index}]",
            self.config.storage_bits() / 1024
        )
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

/// Fault-array names for the four logical tables: prediction and
/// hysteresis arrays per table, in BIM/G0/G1/Meta order to match the
/// 2Bc-gskew scheme-level layout.
const EV8_FAULT_NAMES: [&str; 8] = [
    "ev8.bim.prediction",
    "ev8.bim.hysteresis",
    "ev8.g0.prediction",
    "ev8.g0.hysteresis",
    "ev8.g1.prediction",
    "ev8.g1.hysteresis",
    "ev8.meta.prediction",
    "ev8.meta.hysteresis",
];

impl FaultTarget for Ev8Predictor {
    /// The eight split arrays of the four tables, named
    /// `ev8.{bim,g0,g1,meta}.{prediction,hysteresis}`. Bit sizes sum to
    /// the configured storage budget (352 Kbit for the Table 1 design),
    /// so SEU campaigns target the full implementation-constrained
    /// predictor, not just the scheme-level model. (The hardware's eight
    /// arrays of §7.1 are per bank, each word line holding all four
    /// tables; the bit total is the same.)
    fn fault_arrays(&self) -> Vec<ArrayInfo> {
        self.tables
            .fault_arrays()
            .into_iter()
            .zip(EV8_FAULT_NAMES)
            .map(|(info, name)| ArrayInfo { name, ..info })
            .collect()
    }

    fn flip_bit(&mut self, array: usize, bit: usize) {
        self.tables.flip_bit(array, bit);
    }

    fn force_bit(&mut self, array: usize, bit: usize, value: u8) {
        self.tables.force_bit(array, bit, value);
    }

    fn flip_word(&mut self, array: usize, word: usize) {
        self.tables.flip_word(array, word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WordlineMode;

    fn taken(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::conditional(Pc::new(pc), Pc::new(target), true)
    }

    fn not_taken(pc: u64) -> BranchRecord {
        BranchRecord::conditional(Pc::new(pc), Pc::new(pc + 64), false)
    }

    #[test]
    fn storage_is_352_kbits() {
        let p = Ev8Predictor::ev8();
        assert_eq!(p.storage_bits(), 352 * 1024);
        assert!(p.name().contains("352Kb"));
    }

    #[test]
    fn learns_a_loop_branch() {
        let mut p = Ev8Predictor::ev8();
        // A tight loop: branch at 0x1010 taken back to 0x1000, 50 times,
        // mispredicted at most during warmup.
        let rec = taken(0x1010, 0x1000).with_gap(3);
        let mut wrong = 0;
        for _ in 0..200 {
            let predicted = p.predict_and_update(&rec).unwrap();
            if predicted != Outcome::Taken {
                wrong += 1;
            }
        }
        assert!(wrong <= 10, "mispredicted {wrong}/200 on a loop branch");
    }

    #[test]
    fn learns_alternation_through_lghist() {
        // Alternating taken/not-taken at one PC: the lghist pattern makes
        // contexts distinguishable even three blocks late, because each
        // iteration produces blocks whose bits encode the phase.
        let mut p = Ev8Predictor::ev8();
        let mut wrong = 0;
        let total = 2000;
        for i in 0..total {
            let rec = if i % 2 == 0 {
                taken(0x2010, 0x3000).with_gap(2)
            } else {
                // After taken to 0x3000, run to a branch there that jumps
                // back; then the NT phase at 0x2010.
                taken(0x3008, 0x2008).with_gap(2)
            };
            let predicted = p.predict_and_update(&rec).unwrap();
            if i > 200 && predicted != Outcome::Taken {
                wrong += 1;
            }
        }
        assert!(
            wrong < total / 10,
            "mispredicted {wrong} of {total} in a regular pattern"
        );
    }

    #[test]
    fn ghist_mode_matches_unconstrained_expectations() {
        let mut p = Ev8Predictor::new(Ev8Config::unconstrained_512k());
        let rec = taken(0x1010, 0x1000).with_gap(3);
        for _ in 0..50 {
            p.predict_and_update(&rec);
        }
        assert_eq!(p.predict(Pc::new(0x1010)), Outcome::Taken);
        // ghist advanced once per conditional branch.
        assert_eq!(p.front.ghist.bits() & 0xF, 0xF);
    }

    #[test]
    fn banks_rotate_across_blocks() {
        let mut p = Ev8Predictor::ev8();
        let mut banks_seen = std::collections::HashSet::new();
        let mut prev_bank = None;
        for i in 0..64u64 {
            let pc = 0x1_0000 + i * 0x40;
            let rec = taken(pc, pc + 0x40);
            p.predict_and_update(&rec);
            let b = p.current_bank();
            if let Some(pb) = prev_bank {
                assert_ne!(b, pb, "successive blocks must use distinct banks");
            }
            prev_bank = Some(b);
            banks_seen.insert(b);
        }
        assert!(banks_seen.len() >= 3, "banks underused: {banks_seen:?}");
    }

    #[test]
    fn delayed_history_is_three_blocks_old() {
        let mut p = Ev8Predictor::ev8();
        // Complete three single-branch blocks (taken branches).
        for i in 0..3u64 {
            let pc = 0x2_0000 + i * 0x100;
            p.predict_and_update(&taken(pc, pc + 0x100));
        }
        // Their bits are still in the delay pipe.
        assert_eq!(p.visible_history(), 0);
        // A fourth block commits the first bit.
        p.predict_and_update(&taken(0x2_0300, 0x2_0400));
        // Branch at 0x2_0000: bit4=0, taken -> lghist bit = 1^0 = 1.
        assert_eq!(p.visible_history() & 1, 1);
    }

    #[test]
    fn immediate_lghist_commits_at_once() {
        let cfg = Ev8Config::lghist_512k(HistoryMode::lghist_path());
        let mut p = Ev8Predictor::new(cfg);
        p.predict_and_update(&taken(0x2_0000, 0x2_0100));
        assert_eq!(p.visible_history() & 1, 1);
    }

    #[test]
    fn not_taken_branches_do_not_end_blocks() {
        let mut p = Ev8Predictor::ev8();
        // Three NT branches inside one aligned region, then a taken one:
        // exactly one block completes, inserting exactly one lghist bit.
        let cfg_hist_before = p.front.context.lghist.visible_bits();
        p.predict_and_update(&not_taken(0x3_0000));
        p.predict_and_update(&not_taken(0x3_0004));
        p.predict_and_update(&not_taken(0x3_0008));
        p.predict_and_update(&taken(0x3_000c, 0x4_0000));
        // Delay pipe has exactly one pending entry so far (one block).
        // Complete three more blocks to flush it out.
        for i in 1..=3u64 {
            p.predict_and_update(&taken(0x4_0000 * i, 0x4_0000 * (i + 1)));
        }
        let h = p.front.context.lghist.visible_bits();
        // Exactly one bit committed, from the first block: its last
        // conditional branch was the taken one at 0x3_000c (pc bit 4 = 0,
        // outcome 1 -> lghist bit 1). Had the NT branches ended blocks,
        // several bits would have committed by now.
        assert_eq!(h, 1);
        assert_eq!(cfg_hist_before, 0);
    }

    #[test]
    fn update_without_record_falls_back() {
        let mut p = Ev8Predictor::ev8();
        p.update(Pc::new(0x5000), Outcome::Taken);
        p.update(Pc::new(0x5000), Outcome::Taken);
        // No panic, state advanced.
        let _ = p.predict(Pc::new(0x5000));
    }

    #[test]
    #[should_panic(expected = "Table 1 geometry")]
    fn ev8_index_requires_table1_geometry() {
        use ev8_predictors::twobcgskew::TableConfig;
        let mut cfg = Ev8Config::ev8();
        cfg.bim = TableConfig::new(10, 4);
        Ev8Predictor::new(cfg);
    }

    #[test]
    fn fig9_variants_produce_different_indices() {
        // The same warmup drives three configs; their table indices for a
        // probe branch should generally differ across index schemes.
        let warm = |cfg: Ev8Config| {
            let mut p = Ev8Predictor::new(cfg);
            for i in 0..40u64 {
                let pc = 0x6_0000 + (i % 7) * 0x30;
                p.predict_and_update(&taken(pc, pc + 0x30));
            }
            p.indices(Pc::new(0x6_0010))
        };
        let ev8 = warm(Ev8Config::ev8());
        let addr_only = warm(Ev8Config::ev8().with_index(IndexScheme::Ev8 {
            wordline: WordlineMode::AddressOnly,
        }));
        assert_ne!(ev8, addr_only);
    }

    #[test]
    fn observed_step_is_state_identical_to_plain_step() {
        let mut plain = Ev8Predictor::ev8();
        let mut observed = Ev8Predictor::ev8();
        let mut x = 0xABCD_EF01u64;
        for i in 0..3000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 0x1_0000 + (i % 61) * 0x20;
            let rec = if x >> 63 != 0 {
                taken(pc, pc + 0x40)
            } else {
                not_taken(pc)
            };
            let p = plain.predict_and_update(&rec);
            let prov = observed.predict_and_update_observed(&rec);
            assert_eq!(p, prov.map(|v| v.overall));
            if let Some(v) = prov {
                // The bank is captured at prediction time (the fetch block
                // containing the branch), before apply_branch advances it.
                assert!(v.bank.expect("EV8 provenance carries a bank") < 4);
            }
        }
        assert_eq!(plain.visible_history(), observed.visible_history());
        assert_eq!(plain.current_bank(), observed.current_bank());
        assert_eq!(observed.bank_collisions(), 0);
    }

    #[test]
    fn observed_noncond_records_yield_no_provenance() {
        let mut p = Ev8Predictor::ev8();
        let rec = BranchRecord::always_taken(
            Pc::new(0x1000),
            Pc::new(0x2000),
            ev8_trace::BranchKind::Unconditional,
        );
        assert!(p.predict_and_update_observed(&rec).is_none());
    }

    #[test]
    fn fault_arrays_cover_the_full_352_kbit_budget() {
        let mut p = Ev8Predictor::ev8();
        let arrays = p.fault_arrays();
        assert_eq!(arrays.len(), 8);
        let total: usize = arrays.iter().map(|a| a.bits).sum();
        assert_eq!(total as u64, 352 * 1024);
        assert_eq!(arrays[0].name, "ev8.bim.prediction");
        assert_eq!(arrays[7].name, "ev8.meta.hysteresis");
        // A double flip through the trait restores the observable state.
        let before = p.tables().counter(1, 17);
        FaultTarget::flip_bit(&mut p, 2, 17);
        assert_ne!(p.tables().counter(1, 17), before);
        FaultTarget::flip_bit(&mut p, 2, 17);
        assert_eq!(p.tables().counter(1, 17), before);
    }

    #[test]
    fn counter_accessor_bounds() {
        let p = Ev8Predictor::ev8();
        let _ = p.tables().counter(0, 0);
        let _ = p.tables().counter(3, 100);
    }

    #[test]
    #[should_panic(expected = "table must be 0..=3")]
    fn counter_accessor_rejects_bad_table() {
        let p = Ev8Predictor::ev8();
        let _ = p.tables().counter(4, 0);
    }
}
