//! The hybrid skewed branch predictor **2Bc-gskew** (Seznec & Michaud
//! \[19\]) — the prediction scheme of the Alpha EV8 (§4).
//!
//! 2Bc-gskew combines e-gskew and a bimodal predictor with a
//! meta-predictor, using four banks of 2-bit counters:
//!
//! * **BIM** — the bimodal bank (also part of the e-gskew majority),
//! * **G0**, **G1** — the two skewed global banks,
//! * **Meta** — the chooser between the bimodal prediction and the
//!   majority vote of (BIM, G0, G1).
//!
//! This implementation exposes the **three degrees of freedom** the paper
//! leverages to fit the EV8 budget (§4.5-4.7): per-table history lengths,
//! per-table sizes, and smaller (shared) hysteresis tables, plus the choice
//! between the paper's partial update policy and a naive total update
//! policy (for the ablation benches).
//!
//! Each table is indexed by a skewing function of its own (PC, history)
//! information vector ([`crate::skew`]). [`TwoBcGskew`] evaluates all
//! four through one tabulated linear map of them ([`crate::linear`]);
//! a geometry the map cannot hold (an index over 16 bits or a history
//! over 32) evaluates the skewing functions themselves.

use std::fmt;
use std::sync::Arc;

use ev8_trace::{BranchRecord, Outcome, Pc};

use crate::counter::Counter2;
use crate::egskew::majority;
use crate::history::GlobalHistory;
use crate::introspect::{ArrayInfo, FaultTarget};
use crate::linear::{self, Span};
use crate::predictor::BranchPredictor;
use crate::provenance::{Provenance, UpdateAction};
use crate::skew::InfoVector;
use crate::table::SplitCounterTable;

/// Geometry of one logical 2Bc-gskew table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableConfig {
    /// `log2` of the number of prediction entries.
    pub index_bits: u32,
    /// Global history length used to index this table.
    pub history_length: u32,
    /// `log2` of the number of hysteresis entries (≤ `index_bits`;
    /// smaller values share hysteresis bits between prediction entries,
    /// §4.4).
    pub hysteresis_index_bits: u32,
}

impl TableConfig {
    /// A table with full-size hysteresis.
    pub const fn new(index_bits: u32, history_length: u32) -> Self {
        TableConfig {
            index_bits,
            history_length,
            hysteresis_index_bits: index_bits,
        }
    }

    /// A table with half-size hysteresis (two prediction entries share one
    /// hysteresis bit, as EV8's G0 and Meta).
    pub const fn with_half_hysteresis(index_bits: u32, history_length: u32) -> Self {
        TableConfig {
            index_bits,
            history_length,
            hysteresis_index_bits: index_bits - 1,
        }
    }
}

/// Update policy for the 2Bc-gskew banks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// The paper's partial update policy (§4.2): don't strengthen when all
    /// three predictors agree; update only participating tables; on a
    /// misprediction retrain the chooser first and re-evaluate.
    #[default]
    Partial,
    /// Naive total update: train every bank toward the outcome on every
    /// branch (the strawman partial update is shown to beat).
    Total,
}

/// Full configuration of a 2Bc-gskew predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoBcGskewConfig {
    /// The bimodal bank.
    pub bim: TableConfig,
    /// Skewed global bank 0 (medium history).
    pub g0: TableConfig,
    /// Skewed global bank 1 (long history).
    pub g1: TableConfig,
    /// The meta-predictor bank.
    pub meta: TableConfig,
    /// Bank update policy.
    pub update_policy: UpdatePolicy,
    /// Commit window in branches: table updates are applied this many
    /// branches after prediction (0 = the paper's immediate-update
    /// methodology). History is always updated speculatively at
    /// prediction time, as on the real EV8; only the counter writes are
    /// delayed. Used by the §8.1.1 methodology-validation experiment.
    pub commit_window: usize,
}

impl TwoBcGskewConfig {
    /// Equal-sized tables with one shared history length — the
    /// "convenient for comparing schemes" academic configuration (§4.6).
    pub const fn equal(index_bits: u32, history_length: u32) -> Self {
        TwoBcGskewConfig {
            bim: TableConfig::new(index_bits, 0),
            g0: TableConfig::new(index_bits, history_length),
            g1: TableConfig::new(index_bits, history_length),
            meta: TableConfig::new(index_bits, history_length),
            update_policy: UpdatePolicy::Partial,
            commit_window: 0,
        }
    }

    /// The paper's 256 Kbit design point: 4×32K entries, history lengths
    /// 0 / 13 / 23 / 16 for BIM / G0 / G1 / Meta (§8.2).
    pub const fn size_256k() -> Self {
        TwoBcGskewConfig {
            bim: TableConfig::new(15, 0),
            g0: TableConfig::new(15, 13),
            g1: TableConfig::new(15, 23),
            meta: TableConfig::new(15, 16),
            update_policy: UpdatePolicy::Partial,
            commit_window: 0,
        }
    }

    /// The paper's 512 Kbit design point: 4×64K entries, history lengths
    /// 0 / 17 / 27 / 20 (§8.2).
    pub const fn size_512k() -> Self {
        TwoBcGskewConfig {
            bim: TableConfig::new(16, 0),
            g0: TableConfig::new(16, 17),
            g1: TableConfig::new(16, 27),
            meta: TableConfig::new(16, 20),
            update_policy: UpdatePolicy::Partial,
            commit_window: 0,
        }
    }

    /// A 512 Kbit design point with a small (16K-entry) BIM — the
    /// "small BIM" configuration of Fig 8.
    pub const fn size_512k_small_bim() -> Self {
        TwoBcGskewConfig {
            bim: TableConfig::new(14, 0),
            g0: TableConfig::new(16, 17),
            g1: TableConfig::new(16, 27),
            meta: TableConfig::new(16, 20),
            update_policy: UpdatePolicy::Partial,
            commit_window: 0,
        }
    }

    /// The EV8's 352 Kbit memory budget (Table 1): BIM 16K (full
    /// hysteresis), G0 64K (half hysteresis), G1 64K (full), Meta 64K
    /// (half); history lengths 4 / 13 / 21 / 15.
    ///
    /// This is the *logical* EV8 configuration with conventional global
    /// history; the physically constrained predictor (lghist, delayed
    /// history, engineered index functions) lives in `ev8-core`.
    pub const fn ev8_size() -> Self {
        TwoBcGskewConfig {
            bim: TableConfig::new(14, 4),
            g0: TableConfig::with_half_hysteresis(16, 13),
            g1: TableConfig::new(16, 21),
            meta: TableConfig::with_half_hysteresis(16, 15),
            update_policy: UpdatePolicy::Partial,
            commit_window: 0,
        }
    }

    /// The 4×1M-entry (2^20) "limits of global history" configuration of
    /// Fig 10. History lengths grow only moderately beyond the 512 Kbit
    /// point (capacity, not history, is what the extra area buys — the
    /// optimal history length saturates once inherent branch entropy
    /// dominates).
    pub const fn size_4x1m() -> Self {
        TwoBcGskewConfig {
            bim: TableConfig::new(20, 0),
            g0: TableConfig::new(20, 19),
            g1: TableConfig::new(20, 27),
            meta: TableConfig::new(20, 22),
            update_policy: UpdatePolicy::Partial,
            commit_window: 0,
        }
    }

    /// Returns a copy using the given update policy.
    pub const fn with_update_policy(mut self, policy: UpdatePolicy) -> Self {
        self.update_policy = policy;
        self
    }

    /// Returns a copy with table updates delayed by `window` branches
    /// (commit-time update; history stays speculative).
    pub const fn with_commit_window(mut self, window: usize) -> Self {
        self.commit_window = window;
        self
    }

    /// Returns a copy with the same geometry but all four tables indexed
    /// with the given history lengths.
    pub const fn with_history_lengths(mut self, bim: u32, g0: u32, g1: u32, meta: u32) -> Self {
        self.bim.history_length = bim;
        self.g0.history_length = g0;
        self.g1.history_length = g1;
        self.meta.history_length = meta;
        self
    }

    /// The longest history any table uses.
    pub fn max_history(&self) -> u32 {
        self.bim
            .history_length
            .max(self.g0.history_length)
            .max(self.g1.history_length)
            .max(self.meta.history_length)
    }

    /// Total storage in bits across the eight physical arrays.
    pub fn storage_bits(&self) -> u64 {
        let table = |t: &TableConfig| (1u64 << t.index_bits) + (1u64 << t.hysteresis_index_bits);
        table(&self.bim) + table(&self.g0) + table(&self.g1) + table(&self.meta)
    }

    /// The four indices of `pc` under the global history `h`, straight
    /// from the definition: the BIM from the PC alone (or, with history,
    /// skewed as bank 0), G0, G1 and Meta as banks 1..3 of the skewing
    /// family over their own information vectors. The reference that
    /// [`IndexMap`] is built from and pinned against, and the index path
    /// of the configs the map cannot hold.
    fn reference_indices(&self, pc: Pc, h: u64) -> Indices {
        let bim = if self.bim.history_length == 0 {
            pc.bits(2, self.bim.index_bits) as usize
        } else {
            InfoVector::new(pc, h, self.bim.history_length, self.bim.index_bits).index(0) as usize
        };
        let g0 =
            InfoVector::new(pc, h, self.g0.history_length, self.g0.index_bits).index(1) as usize;
        let g1 =
            InfoVector::new(pc, h, self.g1.history_length, self.g1.index_bits).index(2) as usize;
        let meta = InfoVector::new(pc, h, self.meta.history_length, self.meta.index_bits).index(3)
            as usize;
        Indices { bim, g0, g1, meta }
    }
}

/// Which component produced the overall prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChosenComponent {
    /// The meta-predictor selected the bimodal prediction.
    Bimodal,
    /// The meta-predictor selected the e-gskew majority vote.
    Majority,
}

/// All per-component predictions for one lookup: what [`Tables::read`]
/// returns, for [`TwoBcGskew`] and for the EV8 predictor in `ev8-core`
/// alike, and what the §4.2 update is applied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictionDetail {
    /// BIM bank prediction.
    pub bim: Outcome,
    /// G0 bank prediction.
    pub g0: Outcome,
    /// G1 bank prediction.
    pub g1: Outcome,
    /// Majority vote of (BIM, G0, G1) — the e-gskew prediction.
    pub majority: Outcome,
    /// Which side the meta-predictor chose.
    pub chosen: ChosenComponent,
    /// The overall prediction.
    pub overall: Outcome,
}

/// Indices into the four tables for one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Indices {
    /// BIM table index.
    pub bim: usize,
    /// G0 table index.
    pub g0: usize,
    /// G1 table index.
    pub g1: usize,
    /// Meta table index.
    pub meta: usize,
}

impl Indices {
    /// The four indices as 16-bit lanes of one `u64`, BIM in the low lane
    /// and then G0, G1 and Meta: the word a tabulated index map
    /// ([`crate::linear`]) stores and XORs.
    ///
    /// # Panics
    ///
    /// Panics if an index does not fit 16 bits.
    pub fn to_lanes(self) -> u64 {
        let lanes = [self.bim, self.g0, self.g1, self.meta];
        assert!(
            lanes.iter().all(|&i| i < 1 << 16),
            "indices must fit 16-bit lanes"
        );
        lanes
            .into_iter()
            .enumerate()
            .fold(0, |word, (lane, i)| word | (i as u64) << (16 * lane))
    }

    /// The indices packed in `word` by [`Indices::to_lanes`].
    #[inline]
    pub fn from_lanes(word: u64) -> Self {
        Indices {
            bim: (word & 0xFFFF) as usize,
            g0: (word >> 16 & 0xFFFF) as usize,
            g1: (word >> 32 & 0xFFFF) as usize,
            meta: (word >> 48) as usize,
        }
    }
}

/// Widest table index [`IndexMap`]'s 16-bit lanes hold.
const MAP_INDEX_BITS: u32 = 16;
/// Longest history [`IndexMap`]'s four history bytes hold.
const MAP_HISTORY: u32 = 32;

/// The four indices of a [`TwoBcGskewConfig`] as one tabulated
/// GF(2)-linear map (see [`crate::linear`]), built from
/// [`TwoBcGskewConfig::reference_indices`].
///
/// Every index bit of the reference is an XOR of PC and history bits:
/// the information vector XOR-folds the masked history onto the PC bits,
/// the halves are bit fields of it, and `H^{k+1}` and `H^{-(k+1)}` shift
/// bits and XOR them in. So the four indices packed by
/// [`Indices::to_lanes`] are a linear function of `a2..` and `h0..`:
/// four byte tables over the PC bits `a2..a33` and four over the history
/// bits `h0..h31`, 16 KB, each entry the reference on unit vectors. A
/// config takes the map when every index fits a lane (at most 16 bits,
/// so no table reads a PC bit above `a33`) and every history length is
/// at most 32; other configs index through the reference.
#[derive(Clone, PartialEq, Eq)]
struct IndexMap {
    /// Images of `a2..a9`, `a10..a17`, `a18..a25` and `a26..a33`.
    pc: [Span<256>; 4],
    /// Images of `h0..h7`, `h8..h15`, `h16..h23` and `h24..h31`.
    history: [Span<256>; 4],
}

impl IndexMap {
    /// Tabulates `config`'s reference indices, or `None` when they do not
    /// fit the map.
    fn new(config: &TwoBcGskewConfig) -> Option<Self> {
        let tables = [config.bim, config.g0, config.g1, config.meta];
        if tables
            .iter()
            .any(|t| t.index_bits > MAP_INDEX_BITS || t.history_length > MAP_HISTORY)
        {
            return None;
        }
        let image = |pc: u64, h: u64| config.reference_indices(Pc::new(pc), h).to_lanes();
        Some(IndexMap {
            pc: linear::byte_spans(|bit| image(1 << (2 + bit), 0)),
            history: linear::byte_spans(|bit| image(0, 1 << bit)),
        })
    }

    /// The four indices of `pc` under the history `h`: eight lookups
    /// XORed together.
    #[inline]
    fn indices(&self, pc: Pc, h: u64) -> Indices {
        let a = pc.as_u64() >> 2;
        Indices::from_lanes(
            self.pc[0].get(a)
                ^ self.pc[1].get(a >> 8)
                ^ self.pc[2].get(a >> 16)
                ^ self.pc[3].get(a >> 24)
                ^ self.history[0].get(h)
                ^ self.history[1].get(h >> 8)
                ^ self.history[2].get(h >> 16)
                ^ self.history[3].get(h >> 24),
        )
    }
}

impl fmt::Debug for IndexMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexMap").finish_non_exhaustive()
    }
}

/// Fault-array names, table-major in EV8 bank order (BIM, G0, G1, Meta),
/// each table contributing its prediction array then its hysteresis
/// array.
const FAULT_NAMES: [&str; 8] = [
    "bim.prediction",
    "bim.hysteresis",
    "g0.prediction",
    "g0.hysteresis",
    "g1.prediction",
    "g1.hysteresis",
    "meta.prediction",
    "meta.hysteresis",
];

/// The four 2Bc-gskew tables and every rule that touches only them: the
/// read that combines BIM, G0, G1 and Meta into a prediction, the §4.2
/// partial update, the total update, write accounting and the flat
/// fault-array view.
///
/// Who computes the indices is the owner's business. [`TwoBcGskew`]
/// hashes the PC with a global history; the EV8 predictor in `ev8-core`
/// uses its fetch-block front end and the §7 index functions, and its SMT
/// form shares one `Tables` between several front ends (§3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tables {
    bim: SplitCounterTable,
    g0: SplitCounterTable,
    g1: SplitCounterTable,
    meta: SplitCounterTable,
}

impl Tables {
    /// Creates the four tables, every counter weakly not taken.
    pub fn new(bim: TableConfig, g0: TableConfig, g1: TableConfig, meta: TableConfig) -> Self {
        let table = |c: TableConfig| SplitCounterTable::new(c.index_bits, c.hysteresis_index_bits);
        Tables {
            bim: table(bim),
            g0: table(g0),
            g1: table(g1),
            meta: table(meta),
        }
    }

    /// The side Meta's counter at `index` selects.
    #[inline]
    fn chooser(&self, index: usize) -> ChosenComponent {
        if self.meta.read(index).prediction().is_taken() {
            ChosenComponent::Majority
        } else {
            ChosenComponent::Bimodal
        }
    }

    /// Reads the four tables at `idx` and combines them per the
    /// 2Bc-gskew rule.
    pub fn read(&self, idx: Indices) -> PredictionDetail {
        let bim = self.bim.read(idx.bim).prediction();
        let g0 = self.g0.read(idx.g0).prediction();
        let g1 = self.g1.read(idx.g1).prediction();
        let maj = majority(bim, g0, g1);
        let chosen = self.chooser(idx.meta);
        let overall = match chosen {
            ChosenComponent::Majority => maj,
            ChosenComponent::Bimodal => bim,
        };
        PredictionDetail {
            bim,
            g0,
            g1,
            majority: maj,
            chosen,
            overall,
        }
    }

    /// Strengthens participating tables after a correct prediction
    /// resolved through `chosen`.
    fn strengthen_participants(
        &mut self,
        idx: Indices,
        d: &PredictionDetail,
        chosen: ChosenComponent,
        outcome: Outcome,
    ) {
        match chosen {
            ChosenComponent::Bimodal => {
                // "strengthen BIM if the bimodal prediction was used"
                self.bim.strengthen(idx.bim);
            }
            ChosenComponent::Majority => {
                // "strengthen all the banks that gave the correct
                // prediction if the majority vote was used"
                if d.bim == outcome {
                    self.bim.strengthen(idx.bim);
                }
                if d.g0 == outcome {
                    self.g0.strengthen(idx.g0);
                }
                if d.g1 == outcome {
                    self.g1.strengthen(idx.g1);
                }
            }
        }
    }

    fn train_all(&mut self, idx: Indices, outcome: Outcome) {
        self.bim.train(idx.bim, outcome);
        self.g0.train(idx.g0, outcome);
        self.g1.train(idx.g1, outcome);
    }

    /// The §4.2 partial update of the branch at `idx`, whose tables
    /// currently read `d`. Returns `(action, meta written)`; a plain step
    /// discards the pair, which costs nothing (both values fall out of
    /// branches the update takes anyway).
    pub fn update_partial(
        &mut self,
        idx: Indices,
        d: &PredictionDetail,
        outcome: Outcome,
    ) -> (UpdateAction, bool) {
        let predictions_differ = d.bim != d.majority;

        if d.overall == outcome {
            // Rationale 1: when BIM, G0 and G1 all agree, do not update —
            // a counter can be stolen without destroying the majority.
            let all_agree = d.bim == d.g0 && d.g0 == d.g1;
            if all_agree {
                return (UpdateAction::StrengthenSkipped, false);
            }
            if predictions_differ {
                // Strengthen Meta toward its (correct) current choice.
                self.meta.strengthen(idx.meta);
            }
            self.strengthen_participants(idx, d, d.chosen, outcome);
            (UpdateAction::Strengthened, predictions_differ)
        } else if predictions_differ {
            // Rationale 2: first update the chooser, then recompute the
            // overall prediction with the new chooser value.
            let majority_was_right = d.majority == outcome;
            self.meta.train(idx.meta, Outcome::from(majority_was_right));
            let new_chosen = self.chooser(idx.meta);
            let new_overall = match new_chosen {
                ChosenComponent::Majority => d.majority,
                ChosenComponent::Bimodal => d.bim,
            };
            if new_overall == outcome {
                // "correct prediction: strengthens all participating
                // tables"
                self.strengthen_participants(idx, d, new_chosen, outcome);
                (UpdateAction::ChooserFirst, true)
            } else {
                // "misprediction: update all banks"
                self.train_all(idx, outcome);
                (UpdateAction::TableCorrected, true)
            }
        } else {
            // Both predictions wrong: nothing for the chooser to
            // learn; retrain all banks toward the outcome.
            self.train_all(idx, outcome);
            (UpdateAction::TableCorrected, false)
        }
    }

    /// The naive total update: every bank trains toward the outcome, and
    /// Meta toward the right side whenever the two sides differ.
    pub fn update_total(
        &mut self,
        idx: Indices,
        d: &PredictionDetail,
        outcome: Outcome,
    ) -> (UpdateAction, bool) {
        let meta_trained = d.bim != d.majority;
        if meta_trained {
            self.meta
                .train(idx.meta, Outcome::from(d.majority == outcome));
        }
        self.train_all(idx, outcome);
        (UpdateAction::TableCorrected, meta_trained)
    }

    /// Total (prediction-array, hysteresis-array) writes across the four
    /// tables — the §4.2 rationales are precisely about limiting these
    /// ("The goal is to limit the number of strengthened counters" /
    /// "...the number of counters written on a wrong prediction").
    pub fn write_traffic(&self) -> (u64, u64) {
        let tables = [&self.bim, &self.g0, &self.g1, &self.meta];
        (
            tables.iter().map(|t| t.prediction_writes()).sum(),
            tables.iter().map(|t| t.hysteresis_writes()).sum(),
        )
    }

    /// Reads the logical counter of one table (0 = BIM, 1 = G0, 2 = G1,
    /// 3 = Meta) at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `table > 3` or the index is out of range.
    pub fn counter(&self, table: usize, index: usize) -> Counter2 {
        match table {
            0 => self.bim.read(index),
            1 => self.g0.read(index),
            2 => self.g1.read(index),
            3 => self.meta.read(index),
            _ => panic!("table must be 0..=3"),
        }
    }

    /// Maps a flat array index (0..8, in [`FAULT_NAMES`] order) onto
    /// (table, sub-array).
    fn array_mut(&mut self, array: usize) -> (&mut SplitCounterTable, usize) {
        let table = match array >> 1 {
            0 => &mut self.bim,
            1 => &mut self.g0,
            2 => &mut self.g1,
            3 => &mut self.meta,
            _ => panic!("2Bc-gskew has eight arrays"),
        };
        (table, array & 1)
    }
}

impl FaultTarget for Tables {
    /// The eight arrays, named `{bim,g0,g1,meta}.{prediction,hysteresis}`.
    fn fault_arrays(&self) -> Vec<ArrayInfo> {
        [&self.bim, &self.g0, &self.g1, &self.meta]
            .into_iter()
            .flat_map(FaultTarget::fault_arrays)
            .zip(FAULT_NAMES)
            .map(|(info, name)| ArrayInfo { name, ..info })
            .collect()
    }

    fn flip_bit(&mut self, array: usize, bit: usize) {
        let (table, sub) = self.array_mut(array);
        FaultTarget::flip_bit(table, sub, bit);
    }

    fn force_bit(&mut self, array: usize, bit: usize, value: u8) {
        let (table, sub) = self.array_mut(array);
        FaultTarget::force_bit(table, sub, bit, value);
    }

    fn flip_word(&mut self, array: usize, word: usize) {
        let (table, sub) = self.array_mut(array);
        FaultTarget::flip_word(table, sub, word);
    }
}

/// The 2Bc-gskew predictor.
///
/// # Example
///
/// ```
/// use ev8_predictors::{twobcgskew::{TwoBcGskew, TwoBcGskewConfig}, BranchPredictor};
/// use ev8_trace::{Outcome, Pc};
///
/// let mut p = TwoBcGskew::new(TwoBcGskewConfig::size_512k());
/// assert_eq!(p.storage_bits(), 512 * 1024);
/// p.update(Pc::new(0x1000), Outcome::Taken);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoBcGskew {
    config: TwoBcGskewConfig,
    tables: Tables,
    history: GlobalHistory,
    /// The config's indices as a tabulated map, shared by clones; `None`
    /// when they do not fit it, and the reference computes them.
    map: Option<Arc<IndexMap>>,
    /// Commit-time update queue: (indices captured at prediction time,
    /// resolved outcome). Empty when `commit_window == 0`.
    pending: std::collections::VecDeque<(Indices, Outcome)>,
}

impl TwoBcGskew {
    /// Creates a 2Bc-gskew predictor from a configuration.
    pub fn new(config: TwoBcGskewConfig) -> Self {
        TwoBcGskew {
            tables: Tables::new(config.bim, config.g0, config.g1, config.meta),
            history: GlobalHistory::new(config.max_history().min(64)),
            map: IndexMap::new(&config).map(Arc::new),
            pending: std::collections::VecDeque::with_capacity(config.commit_window + 1),
            config,
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &TwoBcGskewConfig {
        &self.config
    }

    /// The current global history register (for tests and experiments).
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }

    /// The four tables (for tests and experiments).
    pub fn tables(&self) -> &Tables {
        &self.tables
    }

    /// Total (prediction-array, hysteresis-array) writes across the four
    /// tables; see [`Tables::write_traffic`].
    pub fn write_traffic(&self) -> (u64, u64) {
        self.tables.write_traffic()
    }

    /// The four indices of `pc` under the current history: through the
    /// map when the config has one, else through the reference.
    fn indices(&self, pc: Pc) -> Indices {
        let h = self.history.bits();
        match &self.map {
            Some(map) => map.indices(pc, h),
            None => self.config.reference_indices(pc, h),
        }
    }

    /// The one lookup per branch: the four indices under the current
    /// history and the detail read from them. `predict`, `update`, the
    /// fused step and the observed step all start here, so each computes
    /// the indices once.
    #[inline]
    fn lookup(&self, pc: Pc) -> (Indices, PredictionDetail) {
        let idx = self.indices(pc);
        (idx, self.tables.read(idx))
    }

    /// Computes the full per-component prediction detail for `pc` under
    /// the current history.
    pub fn predict_detail(&self, pc: Pc) -> PredictionDetail {
        self.lookup(pc).1
    }

    /// Applies the configured update policy to the branch at `idx`, whose
    /// tables currently read `d`, and classifies what it did.
    #[inline]
    fn apply_update(
        &mut self,
        idx: Indices,
        d: &PredictionDetail,
        outcome: Outcome,
    ) -> (UpdateAction, bool) {
        match self.config.update_policy {
            UpdatePolicy::Partial => self.tables.update_partial(idx, d, outcome),
            UpdatePolicy::Total => self.tables.update_total(idx, d, outcome),
        }
    }

    /// Opt-in observed update: performs exactly the state transition of
    /// [`BranchPredictor::update`] and returns the full [`Provenance`] of
    /// the branch (votes, chooser decision, §4.2 action).
    ///
    /// Only supported for immediate updates: with a commit window the
    /// update action is unknowable until the delayed commit, so this
    /// asserts `commit_window == 0`.
    #[inline]
    pub fn predict_update_observed(&mut self, pc: Pc, outcome: Outcome) -> Provenance {
        assert_eq!(
            self.config.commit_window, 0,
            "observed updates require immediate (commit_window = 0) updates"
        );
        let (idx, d) = self.lookup(pc);
        let (action, meta_trained) = self.apply_update(idx, &d, outcome);
        self.history.push(outcome);
        Provenance {
            pc,
            outcome,
            bim: d.bim,
            g0: d.g0,
            g1: d.g1,
            majority: d.majority,
            chosen: d.chosen,
            overall: d.overall,
            action,
            meta_trained,
            bank: None,
        }
    }

    /// The state transition of one conditional branch whose
    /// [`lookup`](Self::lookup) gave `idx` and `d`: the table update
    /// (now, or `commit_window` branches later), then the history shift.
    #[inline]
    fn step(&mut self, idx: Indices, d: &PredictionDetail, outcome: Outcome) {
        if self.config.commit_window == 0 {
            // Immediate update — the paper's simulation methodology. The
            // tables still hold what the lookup read.
            let _ = self.apply_update(idx, d, outcome);
        } else {
            // Commit-time update: the indices were computed under the
            // speculative (prediction-time) history; the counter write
            // happens `commit_window` branches later, re-reading the
            // tables as the hardware's commit-time hysteresis read does.
            self.pending.push_back((idx, outcome));
            if self.pending.len() > self.config.commit_window {
                let (cidx, coutcome) = self.pending.pop_front().expect("non-empty");
                let cd = self.tables.read(cidx);
                let _ = self.apply_update(cidx, &cd, coutcome);
            }
        }
        // History is updated speculatively at prediction time on the real
        // EV8 (correct-path traces make the speculative value exact).
        self.history.push(outcome);
    }
}

impl FaultTarget for TwoBcGskew {
    fn fault_arrays(&self) -> Vec<ArrayInfo> {
        self.tables.fault_arrays()
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

impl BranchPredictor for TwoBcGskew {
    fn predict(&self, pc: Pc) -> Outcome {
        self.predict_detail(pc).overall
    }

    fn update(&mut self, pc: Pc, outcome: Outcome) {
        let (idx, d) = self.lookup(pc);
        self.step(idx, &d, outcome);
    }

    /// One lookup per branch: the indices and table reads that make the
    /// prediction also drive the update. Bit-identical to `predict` +
    /// `update_record`, because nothing changes between the two calls'
    /// lookups — the history shifts only after the update.
    #[inline]
    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        if !record.kind.is_conditional() {
            return None;
        }
        let (idx, d) = self.lookup(record.pc);
        self.step(idx, &d, record.outcome);
        Some(d.overall)
    }

    fn name(&self) -> String {
        format!(
            "2Bc-gskew {}Kb (BIM 2^{} h{}, G0 2^{} h{}, G1 2^{} h{}, Meta 2^{} h{})",
            self.config.storage_bits() / 1024,
            self.config.bim.index_bits,
            self.config.bim.history_length,
            self.config.g0.index_bits,
            self.config.g0.history_length,
            self.config.g1.index_bits,
            self.config.g1.history_length,
            self.config.meta.index_bits,
            self.config.meta.history_length,
        )
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_budgets() {
        assert_eq!(TwoBcGskewConfig::size_256k().storage_bits(), 256 * 1024);
        assert_eq!(TwoBcGskewConfig::size_512k().storage_bits(), 512 * 1024);
        // Table 1 / §4.7: 352 Kbits total, 208 Kbits prediction + 144 Kbits
        // hysteresis.
        let ev8 = TwoBcGskewConfig::ev8_size();
        assert_eq!(ev8.storage_bits(), 352 * 1024);
        let pred_bits = (1u64 << 14) + 3 * (1u64 << 16);
        assert_eq!(pred_bits, 208 * 1024);
        let hyst_bits = (1u64 << 14) + (1u64 << 15) + (1u64 << 16) + (1u64 << 15);
        assert_eq!(hyst_bits, 144 * 1024);
    }

    #[test]
    fn ev8_history_lengths_match_table1() {
        let ev8 = TwoBcGskewConfig::ev8_size();
        assert_eq!(ev8.bim.history_length, 4);
        assert_eq!(ev8.g0.history_length, 13);
        assert_eq!(ev8.g1.history_length, 21);
        assert_eq!(ev8.meta.history_length, 15);
        assert_eq!(ev8.max_history(), 21);
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(8, 6));
        let pc = Pc::new(0x1000);
        for _ in 0..8 {
            p.update(pc, Outcome::Taken);
        }
        assert_eq!(p.predict(pc), Outcome::Taken);
    }

    #[test]
    fn learns_history_pattern() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(10, 8));
        let pc = Pc::new(0x1000);
        let mut correct = 0;
        let total = 500;
        for i in 0..total {
            let o = Outcome::from((i / 3) % 2 == 0); // period-6 pattern
            if p.predict(pc) == o {
                correct += 1;
            }
            p.update(pc, o);
        }
        assert!(correct > total * 85 / 100, "got {correct}/{total}");
    }

    #[test]
    fn initial_choice_is_bimodal() {
        // Meta initializes weakly not taken => bimodal side.
        let p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 4));
        let d = p.predict_detail(Pc::new(0x40));
        assert_eq!(d.chosen, ChosenComponent::Bimodal);
        assert_eq!(d.overall, d.bim);
    }

    #[test]
    fn rationale_1_no_update_when_all_agree() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let pc = Pc::new(0x100);
        // Drive all banks to agree taken (updates stop strengthening once
        // they agree).
        for _ in 0..6 {
            p.update(pc, Outcome::Taken);
        }
        let (idx, d) = p.lookup(pc);
        assert_eq!(d.bim, Outcome::Taken);
        assert_eq!(d.g0, Outcome::Taken);
        assert_eq!(d.g1, Outcome::Taken);
        let snapshot = (
            p.tables.bim.read(idx.bim).value(),
            p.tables.g0.read(idx.g0).value(),
            p.tables.g1.read(idx.g1).value(),
            p.tables.meta.read(idx.meta).value(),
        );
        p.update(pc, Outcome::Taken); // correct, all agreeing: no table write
        let after = (
            p.tables.bim.read(idx.bim).value(),
            p.tables.g0.read(idx.g0).value(),
            p.tables.g1.read(idx.g1).value(),
            p.tables.meta.read(idx.meta).value(),
        );
        assert_eq!(snapshot, after, "Rationale 1 violated");
    }

    #[test]
    fn rationale_1_counters_not_saturated_when_agreeing() {
        // Because agreeing correct predictions never strengthen, a branch
        // whose banks all reached "weakly taken" stays weak. This is the
        // designed-for stealability.
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let pc = Pc::new(0x100);
        for _ in 0..20 {
            p.update(pc, Outcome::Taken);
        }
        let idx = p.indices(pc);
        assert!(
            p.tables.g0.read(idx.g0).value() < 3 || p.tables.g1.read(idx.g1).value() < 3,
            "agreeing banks should not all saturate under partial update"
        );
    }

    #[test]
    fn chooser_retrains_before_banks_on_misprediction() {
        // Construct a state where bimodal is right, majority is wrong and
        // meta points at majority. On the misprediction, meta must move
        // toward bimodal; if that flips the choice, banks are only
        // strengthened, not retrained.
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let pc = Pc::new(0x100);
        let idx = p.indices(pc);
        // Hand-set state: BIM strongly taken; G0,G1 strongly not-taken;
        // meta weakly majority (value 2).
        p.tables.bim.write(idx.bim, Counter2::new(3));
        p.tables.g0.write(idx.g0, Counter2::new(0));
        p.tables.g1.write(idx.g1, Counter2::new(0));
        p.tables.meta.write(idx.meta, Counter2::new(2));
        let d = p.predict_detail(pc);
        assert_eq!(d.chosen, ChosenComponent::Majority);
        assert_eq!(d.overall, Outcome::NotTaken);
        // Outcome is taken: misprediction; bimodal side was right.
        p.update(pc, Outcome::Taken);
        // Meta moved toward bimodal (2 -> 1): choice flips, banks only
        // strengthened on the bimodal side (BIM already saturated).
        assert_eq!(p.tables.meta.read(idx.meta).value(), 1);
        assert_eq!(p.tables.bim.read(idx.bim).value(), 3);
        // G0/G1 were NOT retrained (they keep their strong not-taken).
        assert_eq!(p.tables.g0.read(idx.g0).value(), 0);
        assert_eq!(p.tables.g1.read(idx.g1).value(), 0);
    }

    #[test]
    fn all_banks_retrain_when_both_sides_wrong() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let pc = Pc::new(0x100);
        let idx = p.indices(pc);
        p.tables.bim.write(idx.bim, Counter2::new(0));
        p.tables.g0.write(idx.g0, Counter2::new(0));
        p.tables.g1.write(idx.g1, Counter2::new(0));
        let meta_before = p.tables.meta.read(idx.meta).value();
        p.update(pc, Outcome::Taken); // everyone wrong
        assert_eq!(p.tables.bim.read(idx.bim).value(), 1);
        assert_eq!(p.tables.g0.read(idx.g0).value(), 1);
        assert_eq!(p.tables.g1.read(idx.g1).value(), 1);
        // Chooser had nothing to learn (both sides agreed and were wrong).
        assert_eq!(p.tables.meta.read(idx.meta).value(), meta_before);
    }

    #[test]
    fn total_update_trains_everything() {
        let cfg = TwoBcGskewConfig::equal(6, 0).with_update_policy(UpdatePolicy::Total);
        let mut p = TwoBcGskew::new(cfg);
        let pc = Pc::new(0x100);
        let idx = p.indices(pc);
        for _ in 0..10 {
            p.update(pc, Outcome::Taken);
        }
        // Under total update all banks saturate.
        assert_eq!(p.tables.bim.read(idx.bim).value(), 3);
        assert_eq!(p.tables.g0.read(idx.g0).value(), 3);
        assert_eq!(p.tables.g1.read(idx.g1).value(), 3);
    }

    #[test]
    fn per_table_history_lengths_are_used() {
        // G1 (long history) should separate contexts G0 (short) can't.
        let cfg = TwoBcGskewConfig::equal(10, 0).with_history_lengths(0, 2, 16, 8);
        let mut p = TwoBcGskew::new(cfg);
        let pc = Pc::new(0x1000);
        // Two contexts that agree in their 2 most recent bits but differ
        // at bit 8.
        let mut ctx_a = p.clone();
        for bit in [1u64, 0, 0, 0, 0, 0, 0, 0, 1, 1] {
            ctx_a.history.push_bit(bit);
        }
        let mut ctx_b = p.clone();
        for bit in [0u64, 0, 0, 0, 0, 0, 0, 0, 1, 1] {
            ctx_b.history.push_bit(bit);
        }
        let ia = ctx_a.indices(pc);
        let ib = ctx_b.indices(pc);
        assert_eq!(ia.g0, ib.g0, "G0 sees only 2 bits");
        assert_ne!(ia.g1, ib.g1, "G1 sees 16 bits");
        p.update(pc, Outcome::Taken);
    }

    #[test]
    fn history_shifts_once_per_update() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(8, 8));
        let pc = Pc::new(0x40);
        p.update(pc, Outcome::Taken);
        p.update(pc, Outcome::NotTaken);
        p.update(pc, Outcome::Taken);
        assert_eq!(p.history.low_bits(3), 0b101);
    }

    #[test]
    fn commit_window_defers_table_writes() {
        let cfg = TwoBcGskewConfig::equal(6, 0).with_commit_window(4);
        let mut p = TwoBcGskew::new(cfg);
        let pc = Pc::new(0x100);
        let idx = p.indices(pc);
        let before = p.tables.bim.read(idx.bim).value();
        // Four updates fit entirely in the window: no table write yet.
        for _ in 0..4 {
            p.update(pc, Outcome::Taken);
        }
        assert_eq!(p.tables.bim.read(idx.bim).value(), before);
        // The fifth update commits the first one.
        p.update(pc, Outcome::Taken);
        assert_ne!(p.tables.bim.read(idx.bim).value(), before);
    }

    #[test]
    fn commit_window_converges_to_immediate_on_biased_stream() {
        // With speculative history, a delayed-commit predictor should
        // closely track the immediate-update predictor on a strongly
        // biased branch.
        let mut imm = TwoBcGskew::new(TwoBcGskewConfig::equal(8, 8));
        let mut del = TwoBcGskew::new(TwoBcGskewConfig::equal(8, 8).with_commit_window(16));
        let pc = Pc::new(0x1000);
        let mut imm_miss = 0;
        let mut del_miss = 0;
        for i in 0..600u64 {
            let o = Outcome::from(i % 7 != 6);
            if imm.predict(pc) != o {
                imm_miss += 1;
            }
            if del.predict(pc) != o {
                del_miss += 1;
            }
            imm.update(pc, o);
            del.update(pc, o);
        }
        assert!(
            (del_miss as i64 - imm_miss as i64).unsigned_abs() <= 25,
            "immediate {imm_miss} vs delayed {del_miss}"
        );
    }

    #[test]
    fn partial_update_writes_fewer_counters_than_total() {
        // The stated purpose of Rationales 1 and 2 (§4.2): fewer counter
        // writes. Drive both policies with an identical pseudo-random
        // stream and compare write traffic.
        let mut partial = TwoBcGskew::new(TwoBcGskewConfig::equal(10, 10));
        let mut total = TwoBcGskew::new(
            TwoBcGskewConfig::equal(10, 10).with_update_policy(UpdatePolicy::Total),
        );
        let mut x = 0x9E37_79B9u64;
        for i in 0..5000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = Pc::new(0x1000 + (i % 37) * 4);
            let o = Outcome::from((x >> 40) & 0b11 != 0); // ~75% taken
            partial.update(pc, o);
            total.update(pc, o);
        }
        let (pp, ph) = partial.write_traffic();
        let (tp, th) = total.write_traffic();
        assert!(
            pp + ph < tp + th,
            "partial ({pp}+{ph}) must write less than total ({tp}+{th})"
        );
        // And the prediction array specifically sees fewer flips.
        assert!(
            pp <= tp,
            "prediction-array writes: partial {pp} vs total {tp}"
        );
    }

    #[test]
    fn fault_arrays_cover_the_full_352_kbit_budget() {
        use crate::introspect::ArrayClass;
        let p = TwoBcGskew::new(TwoBcGskewConfig::ev8_size());
        let arrays = p.fault_arrays();
        assert_eq!(arrays.len(), 8);
        let total: usize = arrays.iter().map(|a| a.bits).sum();
        assert_eq!(total as u64, p.storage_bits());
        assert_eq!(total, 352 * 1024);
        // Table 1 split: 208 Kbit prediction, 144 Kbit hysteresis.
        let pred: usize = arrays
            .iter()
            .filter(|a| a.class == ArrayClass::Prediction)
            .map(|a| a.bits)
            .sum();
        assert_eq!(pred, 208 * 1024);
        assert_eq!(arrays[2].name, "g0.prediction");
        assert_eq!(arrays[3].name, "g0.hysteresis");
        // G0 has half-size hysteresis.
        assert_eq!(arrays[3].bits, arrays[2].bits / 2);
    }

    #[test]
    fn fault_flip_changes_exactly_one_prediction_bit() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let pc = Pc::new(0x100);
        let idx = p.indices(pc);
        let before = p.predict_detail(pc);
        // Array 4 = g1.prediction.
        FaultTarget::flip_bit(&mut p, 4, idx.g1);
        let after = p.predict_detail(pc);
        assert_ne!(before.g1, after.g1, "g1 vote must invert");
        assert_eq!(before.bim, after.bim);
        assert_eq!(before.g0, after.g0);
    }

    #[test]
    fn observed_update_is_state_identical_to_plain_update() {
        let mut plain = TwoBcGskew::new(TwoBcGskewConfig::equal(8, 6));
        let mut observed = plain.clone();
        let mut x = 0xD1B5_4A32u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = Pc::new(0x1000 + (i % 53) * 4);
            let o = Outcome::from((x >> 33) & 0b111 != 0);
            let before = observed.predict_detail(pc);
            plain.update(pc, o);
            let p = observed.predict_update_observed(pc, o);
            assert_eq!(p.overall, before.overall);
            assert_eq!(p.chosen, before.chosen);
        }
        assert_eq!(plain.history().bits(), observed.history().bits());
        assert_eq!(plain.write_traffic(), observed.write_traffic());
        // Spot-check counter state through a fresh prediction pass.
        for i in 0..53u64 {
            let pc = Pc::new(0x1000 + i * 4);
            assert_eq!(plain.predict_detail(pc), observed.predict_detail(pc));
        }
    }

    #[test]
    fn fused_step_equals_predict_then_update_for_every_policy_and_window() {
        for policy in [UpdatePolicy::Partial, UpdatePolicy::Total] {
            for window in [0, 1, 5] {
                let config = TwoBcGskewConfig::equal(8, 10)
                    .with_update_policy(policy)
                    .with_commit_window(window);
                let mut composed = TwoBcGskew::new(config);
                let mut fused = composed.clone();
                let mut x = 0x2545_F491u64;
                for i in 0..3000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let pc = Pc::new(0x1000 + (i % 61) * 4);
                    let record = BranchRecord::conditional(pc, pc, !(x >> 35).is_multiple_of(3));
                    let want = composed.predict(pc);
                    composed.update_record(&record);
                    assert_eq!(fused.predict_and_update(&record), Some(want));
                }
                assert_eq!(fused, composed, "{policy:?}, window {window}");
            }
        }
    }

    #[test]
    fn observed_actions_classify_the_section_4_2_branches() {
        // Rationale 1: correct + unanimous => strengthen skipped.
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let pc = Pc::new(0x100);
        for _ in 0..6 {
            p.update(pc, Outcome::Taken);
        }
        let prov = p.predict_update_observed(pc, Outcome::Taken);
        assert!(prov.correct());
        assert_eq!(prov.action, UpdateAction::StrengthenSkipped);
        assert!(!prov.meta_trained);

        // Rationale 2 recovery: bimodal right, majority wrong, meta on
        // majority with a weak counter => chooser-first.
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let idx = p.indices(pc);
        p.tables.bim.write(idx.bim, Counter2::new(3));
        p.tables.g0.write(idx.g0, Counter2::new(0));
        p.tables.g1.write(idx.g1, Counter2::new(0));
        p.tables.meta.write(idx.meta, Counter2::new(2));
        let prov = p.predict_update_observed(pc, Outcome::Taken);
        assert!(!prov.correct());
        assert_eq!(prov.action, UpdateAction::ChooserFirst);
        assert!(prov.meta_trained);
        assert!(prov.meta_decisive());

        // Both sides wrong => table-corrected, chooser untouched.
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0));
        let idx = p.indices(pc);
        p.tables.bim.write(idx.bim, Counter2::new(0));
        p.tables.g0.write(idx.g0, Counter2::new(0));
        p.tables.g1.write(idx.g1, Counter2::new(0));
        let prov = p.predict_update_observed(pc, Outcome::Taken);
        assert_eq!(prov.action, UpdateAction::TableCorrected);
        assert!(!prov.meta_trained);
        assert_eq!(prov.vote_pattern(), 0);
    }

    #[test]
    #[should_panic(expected = "commit_window")]
    fn observed_update_rejects_commit_windows() {
        let mut p = TwoBcGskew::new(TwoBcGskewConfig::equal(6, 0).with_commit_window(4));
        p.predict_update_observed(Pc::new(0x100), Outcome::Taken);
    }

    #[test]
    fn name_mentions_all_tables() {
        let p = TwoBcGskew::new(TwoBcGskewConfig::ev8_size());
        let n = p.name();
        assert!(n.contains("BIM") && n.contains("G0") && n.contains("G1") && n.contains("Meta"));
        assert!(n.contains("352Kb"));
    }

    /// Every 2Bc-gskew geometry the tree builds, named by where it is
    /// built, and the server's and the tests' equal-table configs over
    /// every width and history length the map holds.
    fn tree_configs() -> Vec<(String, TwoBcGskewConfig)> {
        let size_512k = TwoBcGskewConfig::size_512k();
        let mut configs = vec![
            ("Fig 5 256K".into(), TwoBcGskewConfig::size_256k()),
            ("Fig 5 512K".into(), size_512k),
            (
                "Fig 6 256K h15".into(),
                TwoBcGskewConfig::size_256k().with_history_lengths(0, 15, 15, 15),
            ),
            (
                "Fig 6 512K h16".into(),
                size_512k.with_history_lengths(0, 16, 16, 16),
            ),
            (
                "Fig 8 small BIM".into(),
                TwoBcGskewConfig::size_512k_small_bim(),
            ),
            ("EV8 size".into(), TwoBcGskewConfig::ev8_size()),
            (
                "ablation h20".into(),
                size_512k.with_history_lengths(0, 20, 20, 20),
            ),
            (
                "ablation private hysteresis".into(),
                TwoBcGskewConfig {
                    g0: TableConfig::new(16, 13),
                    meta: TableConfig::new(16, 15),
                    ..TwoBcGskewConfig::ev8_size()
                },
            ),
            (
                "SEU subject".into(),
                TwoBcGskewConfig {
                    bim: TableConfig::new(10, 0),
                    g0: TableConfig::with_half_hysteresis(10, 8),
                    g1: TableConfig::new(10, 12),
                    meta: TableConfig::with_half_hysteresis(10, 10),
                    update_policy: UpdatePolicy::Partial,
                    commit_window: 0,
                },
            ),
        ];
        // The history-length sweep scales G0 and Meta with G1.
        for h in [0, 4, 8, 12, 16, 20, 24, 27] {
            let (g0, meta) = ((h * 17 / 27).min(h), (h * 20 / 27).min(h));
            configs.push((
                format!("history sweep G1 h{h}"),
                size_512k.with_history_lengths(0, g0, h, meta),
            ));
        }
        // The history-tuning example's G1 lengths that fit the map.
        for h in [0, 4, 8, 12, 16, 20, 24, 27, 32] {
            configs.push((
                format!("history tuning G1 h{h}"),
                size_512k.with_history_lengths(0, 17, h, 20),
            ));
        }
        for index_bits in 1..=MAP_INDEX_BITS {
            for history in 0..=MAP_HISTORY {
                configs.push((
                    format!("equal({index_bits}, {history})"),
                    TwoBcGskewConfig::equal(index_bits, history),
                ));
            }
        }
        // Per-table geometry, as the batched-equivalence suite draws it,
        // within the map's widths.
        let mut xs = lcg_stream(0x5EED_0005);
        for i in 0..64 {
            let mut table = || {
                let x = xs.next().unwrap();
                let (index_bits, history) = (1 + (x % 16) as u32, (x >> 8) as u32 % 33);
                if index_bits > 1 && x >> 20 & 1 == 1 {
                    TableConfig::with_half_hysteresis(index_bits, history)
                } else {
                    TableConfig::new(index_bits, history)
                }
            };
            let config = TwoBcGskewConfig {
                bim: table(),
                g0: table(),
                g1: table(),
                meta: table(),
                ..TwoBcGskewConfig::equal(1, 0)
            };
            configs.push((format!("random geometry {i}: {config:?}"), config));
        }
        configs
    }

    /// A deterministic stream of 64-bit values.
    fn lcg_stream(seed: u64) -> impl Iterator<Item = u64> {
        std::iter::successors(Some(seed), |x| {
            Some(
                x.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            )
        })
        .map(|x| x ^ (x >> 29))
    }

    fn map_of(name: &str, config: &TwoBcGskewConfig) -> IndexMap {
        IndexMap::new(config).unwrap_or_else(|| panic!("{name} must take the map"))
    }

    #[test]
    fn configs_take_the_path_their_widths_allow() {
        for (name, config) in tree_configs() {
            assert!(IndexMap::new(&config).is_some(), "{name}");
        }
        // Fig 10's 20-bit tables, histories past 32 bits and the
        // server's widest equal-table configs keep the reference.
        let wide = [
            TwoBcGskewConfig::size_4x1m(),
            TwoBcGskewConfig::size_512k().with_history_lengths(0, 17, 40, 20),
            TwoBcGskewConfig::equal(17, 0),
            TwoBcGskewConfig::equal(16, 33),
            TwoBcGskewConfig::equal(24, 64),
        ];
        for config in wide {
            assert!(IndexMap::new(&config).is_none(), "{config:?}");
            assert!(TwoBcGskew::new(config).map.is_none());
        }
        assert!(TwoBcGskew::new(TwoBcGskewConfig::size_512k()).map.is_some());
    }

    #[test]
    fn index_map_matches_the_reference_on_every_table_entry() {
        for (name, config) in tree_configs() {
            let map = map_of(&name, &config);
            let check = |pc: u64, h: u64| {
                assert_eq!(
                    map.indices(Pc::new(pc), h),
                    config.reference_indices(Pc::new(pc), h),
                    "{name}: pc {pc:#x} history {h:#x}"
                );
            };
            // Every value of each tabulated byte alone.
            for byte in 0..4 {
                for v in 0..256u64 {
                    check(v << (2 + 8 * byte), 0);
                    check(0, v << (8 * byte));
                }
            }
            // Every single input bit, read by the reference or not.
            for bit in 0..64 {
                check(1 << bit, 0);
                check(0, 1 << bit);
            }
        }
    }

    #[test]
    fn index_map_matches_the_reference_on_random_inputs() {
        let mut xs = lcg_stream(0x5EED_0003);
        for (name, config) in tree_configs() {
            let map = map_of(&name, &config);
            for _ in 0..64 {
                let (pc, h) = (Pc::new(xs.next().unwrap()), xs.next().unwrap());
                assert_eq!(
                    map.indices(pc, h),
                    config.reference_indices(pc, h),
                    "{name}: pc {pc:?} history {h:#x}"
                );
            }
        }
    }

    #[test]
    fn bits_the_reference_does_not_read_never_move_the_map() {
        let mut xs = lcg_stream(0x5EED_0004);
        for (name, config) in tree_configs() {
            let map = map_of(&name, &config);
            let reference = |pc: u64, h: u64| config.reference_indices(Pc::new(pc), h);
            let unread = |pc: u64, h: u64| reference(pc, h) == Indices::from_lanes(0);
            let (pc, h) = (xs.next().unwrap(), xs.next().unwrap());
            let base = map.indices(Pc::new(pc), h);
            for bit in 0..64 {
                if unread(1 << bit, 0) {
                    assert_eq!(
                        map.indices(Pc::new(pc ^ 1 << bit), h),
                        base,
                        "{name}: a{bit}"
                    );
                }
                if unread(0, 1 << bit) {
                    assert_eq!(
                        map.indices(Pc::new(pc), h ^ 1 << bit),
                        base,
                        "{name}: h{bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_round_trip_the_indices() {
        let idx = Indices {
            bim: 0x3FFF,
            g0: 0x8001,
            g1: 0,
            meta: 0xFFFF,
        };
        assert_eq!(idx.to_lanes(), 0xFFFF_0000_8001_3FFF);
        assert_eq!(Indices::from_lanes(idx.to_lanes()), idx);
    }

    #[test]
    #[should_panic(expected = "16-bit lanes")]
    fn lanes_refuse_wide_indices() {
        let _ = Indices {
            bim: 1 << 16,
            g0: 0,
            g1: 0,
            meta: 0,
        }
        .to_lanes();
    }

    #[test]
    fn clones_share_the_map_and_debug_prints_no_tables() {
        let p = TwoBcGskew::new(TwoBcGskewConfig::size_256k());
        let q = p.clone();
        assert!(Arc::ptr_eq(
            p.map.as_ref().expect("map"),
            q.map.as_ref().expect("map")
        ));
        assert_eq!(p, q);
        assert_eq!(format!("{:?}", p.map), "Some(IndexMap { .. })");
    }
}
