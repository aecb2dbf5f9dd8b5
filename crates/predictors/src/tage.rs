//! TAGE — the TAgged GEometric-history-length predictor, the next design
//! generation after the EV8's 2Bc-gskew.
//!
//! The paper's central tradeoff — accuracy per storage bit under
//! implementation constraints — only becomes comparable *across predictor
//! generations* when a tagged geometric predictor competes at the same
//! 352 Kbit budget as the EV8 scheme. [`TageConfig::ev8_budget`] is that
//! design point: its bit accounting sums to **exactly** `352 * 1024`
//! bits, matching `TwoBcGskewConfig::ev8_size` (asserted by the unit
//! suite and by the `FaultTarget` array accounting).
//!
//! The implementation follows the classic Seznec-Michaud structure:
//!
//! * a **base bimodal** table of 2-bit counters (the default prediction);
//! * **N tagged tables**, indexed by PC XOR a fold of the most recent
//!   `L(i)` history bits, where the `L(i)` form a geometric series —
//!   short histories catch loop-like patterns cheaply, long histories
//!   catch deep correlation;
//! * **partial tags** per entry: a lookup only counts as a hit when the
//!   stored tag matches a second, differently-folded hash of (PC,
//!   history);
//! * the **provider** is the matching table with the longest history; the
//!   **alternate** prediction comes from the next-longest match (or the
//!   base table);
//! * **altpred on newly allocated entries**: an entry with a weak counter
//!   and a zero useful counter has proven nothing yet, so a global
//!   `use_alt_on_na` counter decides whether to trust it or the
//!   alternate;
//! * **useful counters** guard entries against replacement, trained only
//!   when provider and alternate disagree (the only time the entry's
//!   existence mattered);
//! * **allocation on misprediction** into a longer-history table with a
//!   free (useful == 0) entry, geometrically favoring shorter tables via
//!   a deterministic LFSR; when no entry is free, the candidates' useful
//!   counters decay instead;
//! * **periodic useful reset**: every [`TageConfig::useful_reset_period`]
//!   conditional branches, one of the two useful bits is cleared
//!   (alternating), so stale entries eventually become replaceable.
//!
//! Like every predictor in this crate the state machine is fully
//! deterministic: the allocation LFSR is seeded by construction and
//! advances only as a function of the branch stream, so serial and
//! batched simulation are bit-identical.
//!
//! **Folded-history registers.** A table's index folds its `L`-bit
//! history window to the index width `n` (`xor_fold64`), and its tag
//! folds the same window twice more (to the tag width and one bit
//! less). Re-folding up to 64 bits three times per table per branch
//! cost about a quarter of the step, so each fold is kept as a register
//! that a history push updates in O(1): rotate left by one within `n`
//! bits, XOR the new bit in at position 0, and XOR the bit leaving the
//! window (history bit `L - 1` before the push) in at position
//! `L mod n`. Every table's index and tag are read from the registers
//! once per branch, and allocation reuses them; the tag compares form
//! one hit mask, so no host branch depends on a compare.
//! [`Tage::table_index`] and [`Tage::table_tag`] still
//! fold the history register from scratch: they are the reference the
//! registers ([`Tage::table_coords`]) are pinned against after every
//! step of arbitrary streams (`tests/tage_properties.rs`).

use ev8_trace::{BranchRecord, Outcome, Pc};

use crate::bitvec::Counter2Table;
use crate::counter::{Counter3, SaturatingCounter};
use crate::history::GlobalHistory;
use crate::introspect::{ArrayClass, ArrayInfo, FaultTarget};
use crate::predictor::BranchPredictor;
use crate::provenance::{Provenance, UpdateAction};
use crate::skew::xor_fold64;
use crate::twobcgskew::ChosenComponent;

/// The 4-bit newly-allocated chooser (`use_alt_on_na`).
type UseAltCounter = SaturatingCounter<4>;

/// The 2-bit useful (replacement-guard) counter.
type UsefulCounter = SaturatingCounter<2>;

/// Maximum number of tagged tables (bounded so fault-array names can be
/// interned statically).
pub const MAX_TABLES: usize = 8;

/// Geometry of one tagged table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedTableConfig {
    /// `2^index_bits` entries.
    pub index_bits: u32,
    /// Partial-tag width in bits (2..=16).
    pub tag_bits: u32,
    /// Global-history bits folded into this table's index and tag.
    pub history_length: u32,
}

impl TaggedTableConfig {
    /// Storage of this table: `entries * (3 ctr + tag + 2 useful)` bits.
    pub fn storage_bits(&self) -> u64 {
        (1u64 << self.index_bits) * (3 + self.tag_bits as u64 + 2)
    }
}

/// Full TAGE configuration: base table plus the tagged-table geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TageConfig {
    /// `2^base_index_bits` 2-bit counters in the base bimodal table.
    pub base_index_bits: u32,
    /// The tagged tables, shortest history first, strictly increasing.
    pub tables: Vec<TaggedTableConfig>,
    /// Conditional branches between useful-bit reset events (0 = never).
    pub useful_reset_period: u64,
}

impl TageConfig {
    /// The EV8-budget design point: storage sums to **exactly 352 Kbit**
    /// (360448 bits), the same budget as `TwoBcGskewConfig::ev8_size`.
    ///
    /// | component | entries | bits/entry | bits |
    /// |---|---|---|---|
    /// | base bimodal | 2^14 | 2 | 32768 |
    /// | T0 (h=5)  | 2^11 | 3+14+2 | 38912 |
    /// | T1 (h=7)  | 2^11 | 3+14+2 | 38912 |
    /// | T2 (h=10) | 2^11 | 3+15+2 | 40960 |
    /// | T3 (h=15) | 2^11 | 3+15+2 | 40960 |
    /// | T4 (h=21) | 2^11 | 3+15+2 | 40960 |
    /// | T5 (h=31) | 2^11 | 3+15+2 | 40960 |
    /// | T6 (h=44) | 2^11 | 3+16+2 | 43008 |
    /// | T7 (h=64) | 2^11 | 3+16+2 | 43008 |
    ///
    /// History lengths are the geometric series `5 * 1.44^i` capped at
    /// the 64-bit global-history register; tag widths grow with history
    /// length (longer-history entries are rarer and must alias less)
    /// within the 16-bit tag-storage word.
    pub fn ev8_budget() -> Self {
        let tags = [14u32, 14, 15, 15, 15, 15, 16, 16];
        let hist = [5u32, 7, 10, 15, 21, 31, 44, 64];
        TageConfig {
            base_index_bits: 14,
            tables: tags
                .iter()
                .zip(hist)
                .map(|(&tag_bits, history_length)| TaggedTableConfig {
                    index_bits: 11,
                    tag_bits,
                    history_length,
                })
                .collect(),
            useful_reset_period: 256 * 1024,
        }
    }

    /// A uniform-geometry configuration for tests and sweeps: `tables`
    /// tagged tables of `2^index_bits` entries with `tag_bits`-bit tags
    /// and history lengths in a geometric series from `min_history` to
    /// `max_history` (strictly increasing, both inclusive).
    ///
    /// # Panics
    ///
    /// Panics on the same geometry violations as [`Tage::new`].
    pub fn geometric(
        base_index_bits: u32,
        tables: usize,
        index_bits: u32,
        tag_bits: u32,
        min_history: u32,
        max_history: u32,
    ) -> Self {
        assert!(tables >= 1, "at least one tagged table");
        assert!(
            min_history >= 1 && min_history <= max_history && max_history <= 64,
            "history series must fit 1..=64"
        );
        let mut lengths = Vec::with_capacity(tables);
        for i in 0..tables {
            let l = if tables == 1 {
                min_history
            } else {
                let ratio =
                    (max_history as f64 / min_history as f64).powf(i as f64 / (tables - 1) as f64);
                (min_history as f64 * ratio).round() as u32
            };
            let prev = lengths.last().copied().unwrap_or(0);
            lengths.push(l.max(prev + 1).min(64));
        }
        TageConfig {
            base_index_bits,
            tables: lengths
                .into_iter()
                .map(|history_length| TaggedTableConfig {
                    index_bits,
                    tag_bits,
                    history_length,
                })
                .collect(),
            useful_reset_period: 256 * 1024,
        }
    }

    /// Total storage in bits (base + every tagged table).
    pub fn storage_bits(&self) -> u64 {
        (1u64 << self.base_index_bits) * 2
            + self.tables.iter().map(|t| t.storage_bits()).sum::<u64>()
    }

    /// The longest configured history length.
    pub fn max_history(&self) -> u32 {
        self.tables.last().map_or(0, |t| t.history_length)
    }
}

/// `xor_fold64(history[0..length], width)`, kept up to date in O(1) per
/// history push instead of re-folded per lookup (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FoldedHistory {
    value: u64,
    /// `width` low bits set.
    mask: u64,
    /// Bit `width - 1`, the one a rotation carries round to bit 0.
    top: u64,
    /// Bit `length mod width`, where the bit leaving the window lands.
    out_bit: u64,
}

impl FoldedHistory {
    fn new(length: u32, width: u32) -> Self {
        assert!((1..=64).contains(&width), "fold width must be 1..=64");
        FoldedHistory {
            value: 0,
            mask: u64::MAX >> (64 - width),
            top: 1 << (width - 1),
            out_bit: 1 << (length % width),
        }
    }

    /// Shifts `new` into the window while `out` (the window's oldest
    /// bit before the push) leaves it. Both are 0 or 1; the precomputed
    /// bits keep variable shifts off the per-branch path.
    #[inline]
    fn push(&mut self, new: u64, out: u64) {
        let v = self.value;
        let rotated = ((v << 1) & self.mask) | u64::from(v & self.top != 0);
        self.value = rotated ^ new ^ (self.out_bit & out.wrapping_neg());
    }
}

/// One tagged bank's state: parallel counter/tag/useful arrays, plus the
/// folded-history registers its index and tag are computed from.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TaggedBank {
    ctr: Vec<Counter3>,
    tag: Vec<u16>,
    useful: Vec<UsefulCounter>,
    index_bits: u32,
    tag_bits: u32,
    history_length: u32,
    /// The history folded to `index_bits`.
    index_fold: FoldedHistory,
    /// The history folded to `tag_bits` and to `tag_bits - 1`.
    tag_folds: [FoldedHistory; 2],
}

impl TaggedBank {
    fn new(config: TaggedTableConfig) -> Self {
        let entries = 1usize << config.index_bits;
        let l = config.history_length;
        TaggedBank {
            ctr: vec![Counter3::weakly_not_taken(); entries],
            tag: vec![0; entries],
            useful: vec![UsefulCounter::new(0); entries],
            index_bits: config.index_bits,
            tag_bits: config.tag_bits,
            history_length: l,
            index_fold: FoldedHistory::new(l, config.index_bits),
            tag_folds: [
                FoldedHistory::new(l, config.tag_bits),
                FoldedHistory::new(l, config.tag_bits - 1),
            ],
        }
    }

    /// The `(index, tag)` of `pc` under the current history, from the
    /// registers: the same values as [`Tage::table_index`] and
    /// [`Tage::table_tag`].
    #[inline]
    fn coords(&self, pc: Pc) -> (usize, u16) {
        let word = pc.as_u64() >> 2;
        let index = (word ^ self.index_fold.value) & self.index_fold.mask;
        let tag = (word ^ self.tag_folds[0].value ^ (self.tag_folds[1].value << 1))
            & self.tag_folds[0].mask;
        (index as usize, tag as u16)
    }

    /// Advances the registers by one history push of `new`, given the
    /// global history before the push.
    #[inline]
    fn push_history(&mut self, new: u64, history_before: u64) {
        let out = (history_before >> (self.history_length - 1)) & 1;
        self.index_fold.push(new, out);
        self.tag_folds[0].push(new, out);
        self.tag_folds[1].push(new, out);
    }
}

/// A (table, entry) coordinate of a tag hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    /// Tagged-table number (0 = shortest history).
    pub table: usize,
    /// Entry index within that table.
    pub index: usize,
}

/// Everything one TAGE lookup decided, before any state changes — exposed
/// for the property suites and the provenance channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TageDetail {
    /// The base bimodal prediction.
    pub base: Outcome,
    /// Longest-history tag hit, if any.
    pub provider: Option<Hit>,
    /// Next-longest tag hit below the provider, if any.
    pub alternate: Option<Hit>,
    /// The provider entry's prediction (= `base` when there is no hit).
    pub provider_pred: Outcome,
    /// The alternate prediction (next hit, else base).
    pub alt_pred: Outcome,
    /// Provider looks newly allocated: weak counter and useful == 0.
    pub newly_allocated: bool,
    /// The newly-allocated override delivered `alt_pred` instead of the
    /// provider's counter.
    pub alt_chosen: bool,
    /// The delivered prediction.
    pub overall: Outcome,
}

/// One full predict+update step's observable outcome.
struct Step {
    detail: TageDetail,
    action: UpdateAction,
    meta_trained: bool,
}

/// The TAGE predictor (see the module docs for the algorithm).
///
/// # Example
///
/// ```
/// use ev8_predictors::tage::{Tage, TageConfig};
/// use ev8_predictors::BranchPredictor;
/// use ev8_trace::{Outcome, Pc};
///
/// let mut p = Tage::new(TageConfig::ev8_budget());
/// assert_eq!(p.storage_bits(), 352 * 1024);
/// p.update(Pc::new(0x1000), Outcome::Taken);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tage {
    base: Counter2Table,
    tables: Vec<TaggedBank>,
    history: GlobalHistory,
    use_alt_on_na: UseAltCounter,
    lfsr: u64,
    /// Conditional branches left until the next useful reset (0 when
    /// the period is 0: never).
    until_reset: u64,
    reset_clears_high_bit: bool,
    base_index_bits: u32,
    useful_reset_period: u64,
}

impl Tage {
    /// Builds a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tagged tables or more than
    /// [`MAX_TABLES`], a tag width outside `2..=16`, or history lengths
    /// that are not strictly increasing within `1..=64`.
    pub fn new(config: TageConfig) -> Self {
        assert!(
            !config.tables.is_empty() && config.tables.len() <= MAX_TABLES,
            "tagged table count must be 1..={MAX_TABLES}"
        );
        let mut prev = 0;
        for t in &config.tables {
            assert!(
                (2..=16).contains(&t.tag_bits),
                "tag width must be 2..=16 bits"
            );
            assert!(
                t.history_length > prev && t.history_length <= 64,
                "history lengths must be strictly increasing within 1..=64"
            );
            prev = t.history_length;
        }
        Tage {
            base: Counter2Table::new(config.base_index_bits),
            tables: config.tables.iter().map(|&t| TaggedBank::new(t)).collect(),
            history: GlobalHistory::new(config.max_history()),
            use_alt_on_na: UseAltCounter::new(8),
            // Fixed non-zero seed: the allocation tie-break stream is part
            // of the deterministic predictor state.
            lfsr: 0x2545_F491_4F6C_DD1D,
            until_reset: config.useful_reset_period,
            reset_clears_high_bit: true,
            base_index_bits: config.base_index_bits,
            useful_reset_period: config.useful_reset_period,
        }
    }

    /// The predictor's configuration, reconstructed from its state.
    pub fn config(&self) -> TageConfig {
        TageConfig {
            base_index_bits: self.base_index_bits,
            tables: self
                .tables
                .iter()
                .map(|t| TaggedTableConfig {
                    index_bits: t.index_bits,
                    tag_bits: t.tag_bits,
                    history_length: t.history_length,
                })
                .collect(),
            useful_reset_period: self.useful_reset_period,
        }
    }

    /// The global-history register (read-only).
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }

    /// The `use_alt_on_na` chooser value (0..=15; >= 8 trusts the
    /// alternate prediction on newly allocated providers).
    pub fn use_alt_counter(&self) -> u8 {
        self.use_alt_on_na.value()
    }

    /// Reads one tagged entry as `(counter, tag, useful)` — diagnostics
    /// and property-test introspection.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `index` is out of range.
    pub fn entry(&self, table: usize, index: usize) -> (u8, u16, u8) {
        let t = &self.tables[table];
        (t.ctr[index].value(), t.tag[index], t.useful[index].value())
    }

    #[inline]
    fn base_index(&self, pc: Pc) -> usize {
        pc.bits(2, self.base_index_bits) as usize
    }

    /// The index of `pc` in tagged table `j` under the current history:
    /// `PC XOR xor_fold(history[0..L])`, gshare-style per table.
    #[inline]
    pub fn table_index(&self, j: usize, pc: Pc) -> usize {
        let t = &self.tables[j];
        let folded = xor_fold64(self.history.low_bits(t.history_length), t.index_bits);
        ((pc.bits(2, t.index_bits) ^ folded) & ((1u64 << t.index_bits) - 1)) as usize
    }

    /// The partial tag of `pc` in tagged table `j` under the current
    /// history — a *different* fold than the index (the classic
    /// double-fold `CSR1 XOR (CSR2 << 1)` decorrelation), so an index
    /// collision rarely implies a tag collision.
    #[inline]
    pub fn table_tag(&self, j: usize, pc: Pc) -> u16 {
        let t = &self.tables[j];
        let h = self.history.low_bits(t.history_length);
        let mask = (1u64 << t.tag_bits) - 1;
        let v = pc.bits(2, t.tag_bits)
            ^ xor_fold64(h, t.tag_bits)
            ^ (xor_fold64(h, t.tag_bits - 1) << 1);
        (v & mask) as u16
    }

    /// The `(index, tag)` of `pc` in tagged table `j` as the step
    /// computes them, from the table's folded-history registers: always
    /// `(table_index(j, pc), table_tag(j, pc))`, without re-folding the
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn table_coords(&self, j: usize, pc: Pc) -> (usize, u16) {
        self.tables[j].coords(pc)
    }

    /// Every tagged table's `(index, tag)` for `pc`, computed once per
    /// branch; entries past the table count are unused.
    #[inline]
    fn all_coords(&self, pc: Pc) -> [(usize, u16); MAX_TABLES] {
        let mut coords = [(0, 0); MAX_TABLES];
        for (c, bank) in coords.iter_mut().zip(&self.tables) {
            *c = bank.coords(pc);
        }
        coords
    }

    /// The full lookup decision under the current history, with no state
    /// change (the prediction path).
    pub fn predict_detail(&self, pc: Pc) -> TageDetail {
        self.lookup(pc, &self.all_coords(pc))
    }

    /// [`Tage::predict_detail`] over precomputed table coordinates.
    #[inline]
    fn lookup(&self, pc: Pc, coords: &[(usize, u16); MAX_TABLES]) -> TageDetail {
        // Every table's tag compare folds into one hit mask, so no host
        // branch depends on a compare.
        let mut hits = 0u32;
        for (j, bank) in self.tables.iter().enumerate() {
            let (index, tag) = coords[j];
            hits |= u32::from(bank.tag[index] == tag) << j;
        }
        let longest = |hits: u32| {
            (hits != 0).then(|| {
                let table = (31 - hits.leading_zeros()) as usize;
                Hit {
                    table,
                    index: coords[table].0,
                }
            })
        };
        let provider = longest(hits);
        let alternate = provider.and_then(|p| longest(hits & !(1 << p.table)));
        let base = self.base.get(self.base_index(pc)).prediction();
        let (provider_pred, newly_allocated) = match provider {
            Some(h) => {
                let bank = &self.tables[h.table];
                let c = bank.ctr[h.index];
                let weak =
                    c.value() == Counter3::WEAK_NOT_TAKEN || c.value() == Counter3::WEAK_TAKEN;
                (c.prediction(), weak && bank.useful[h.index].value() == 0)
            }
            None => (base, false),
        };
        let alt_pred = match alternate {
            Some(h) => self.tables[h.table].ctr[h.index].prediction(),
            None => base,
        };
        let alt_chosen = provider.is_some() && newly_allocated && self.use_alt_on_na.value() >= 8;
        let overall = if provider.is_none() {
            base
        } else if alt_chosen {
            alt_pred
        } else {
            provider_pred
        };
        TageDetail {
            base,
            provider,
            alternate,
            provider_pred,
            alt_pred,
            newly_allocated,
            alt_chosen,
            overall,
        }
    }

    #[inline]
    fn rand_bit(&mut self) -> bool {
        // xorshift64: deterministic, cloneable, never zero.
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 7;
        self.lfsr ^= self.lfsr << 17;
        self.lfsr & 1 == 1
    }

    /// The shared predict+update state transition. The prediction uses
    /// the pre-update history (as in every predictor here, the index of
    /// the update equals the index of the preceding predict).
    fn advance(&mut self, pc: Pc, outcome: Outcome) -> Step {
        let coords = self.all_coords(pc);
        let detail = self.lookup(pc, &coords);
        let mut meta_trained = false;
        let mut wrote = false;

        match detail.provider {
            None => {
                let idx = self.base_index(pc);
                let pre = self.base.get(idx);
                self.base.train(idx, outcome);
                wrote |= self.base.get(idx) != pre;
            }
            Some(p) => {
                // 1. Newly-allocated chooser: trained only when it had a
                //    real decision to make (provider and alternate
                //    disagreed on an unproven entry).
                if detail.newly_allocated && detail.provider_pred != detail.alt_pred {
                    self.use_alt_on_na
                        .train(Outcome::from(detail.alt_pred == outcome));
                    meta_trained = true;
                }
                // 2. An unproven provider (useful == 0) also trains its
                //    alternate, keeping the fallback fresh.
                if self.tables[p.table].useful[p.index].value() == 0 {
                    match detail.alternate {
                        Some(a) => {
                            let pre = self.tables[a.table].ctr[a.index];
                            self.tables[a.table].ctr[a.index].train(outcome);
                            wrote |= self.tables[a.table].ctr[a.index] != pre;
                        }
                        None => {
                            let idx = self.base_index(pc);
                            let pre = self.base.get(idx);
                            self.base.train(idx, outcome);
                            wrote |= self.base.get(idx) != pre;
                        }
                    }
                }
                // 3. Train the provider counter.
                let pre = self.tables[p.table].ctr[p.index];
                self.tables[p.table].ctr[p.index].train(outcome);
                wrote |= self.tables[p.table].ctr[p.index] != pre;
                // 4. Useful counter: only when the provider's existence
                //    mattered (it disagreed with the alternate).
                if detail.provider_pred != detail.alt_pred {
                    let u = &mut self.tables[p.table].useful[p.index];
                    let pre = *u;
                    u.train(Outcome::from(detail.provider_pred == outcome));
                    wrote |= *u != pre;
                }
            }
        }

        // 5. Allocation on misprediction into a longer-history table.
        let mispredicted = detail.overall != outcome;
        if mispredicted {
            let start = detail.provider.map_or(0, |p| p.table + 1);
            if start < self.tables.len() {
                let mut candidates = [(0usize, 0usize); MAX_TABLES];
                let mut n = 0;
                let longer = coords[..self.tables.len()].iter().enumerate().skip(start);
                for (j, &(idx, _)) in longer.clone() {
                    if self.tables[j].useful[idx].value() == 0 {
                        candidates[n] = (j, idx);
                        n += 1;
                    }
                }
                if n == 0 {
                    // Nothing replaceable: decay every candidate's guard
                    // so the entry drought is temporary.
                    for (j, &(idx, _)) in longer {
                        self.tables[j].useful[idx].train(Outcome::NotTaken);
                    }
                } else {
                    // Geometric pick favoring the shortest candidate
                    // (each coin flip moves one table up).
                    let mut pick = 0;
                    while pick + 1 < n && self.rand_bit() {
                        pick += 1;
                    }
                    let (j, idx) = candidates[pick];
                    self.tables[j].tag[idx] = coords[j].1;
                    self.tables[j].ctr[idx] = if outcome.is_taken() {
                        Counter3::weakly_taken()
                    } else {
                        Counter3::weakly_not_taken()
                    };
                    self.tables[j].useful[idx] = UsefulCounter::new(0);
                }
            }
        }

        // 6. Periodic graceful useful reset: clear one of the two bits,
        //    alternating which, so protection decays in two stages. The
        //    countdown stays 0 when the period is 0.
        if self.until_reset != 0 {
            self.until_reset -= 1;
            if self.until_reset == 0 {
                self.until_reset = self.useful_reset_period;
                let mask = if self.reset_clears_high_bit {
                    0b01
                } else {
                    0b10
                };
                for bank in &mut self.tables {
                    for u in &mut bank.useful {
                        *u = UsefulCounter::new(u.value() & mask);
                    }
                }
                self.reset_clears_high_bit = !self.reset_clears_high_bit;
            }
        }

        // 7. Speculative history update (immediate, §8.1.1 methodology),
        //    folded-history registers first: they need the bit that the
        //    push drops from each table's window.
        let (new, before) = (outcome.as_bit(), self.history.bits());
        for bank in &mut self.tables {
            bank.push_history(new, before);
        }
        self.history.push(outcome);

        let action = if mispredicted {
            UpdateAction::TableCorrected
        } else if meta_trained {
            UpdateAction::ChooserFirst
        } else if wrote {
            UpdateAction::Strengthened
        } else {
            UpdateAction::StrengthenSkipped
        };
        Step {
            detail,
            action,
            meta_trained,
        }
    }

    /// The observed predict+update entry point: exactly the state
    /// transition of [`BranchPredictor::predict_and_update`], returning
    /// the full per-branch [`Provenance`].
    ///
    /// The 2Bc-gskew-shaped provenance fields map onto TAGE as follows:
    /// `bim` = base bimodal vote, `g0` = alternate prediction, `g1` =
    /// provider prediction, `majority` = the tagged side's candidate
    /// (provider's counter, or base when no tag hit), `chosen` =
    /// [`ChosenComponent::Majority`] when a tagged entry delivered the
    /// prediction and [`ChosenComponent::Bimodal`] when the base table
    /// did, `meta_trained` = the `use_alt_on_na` chooser was written.
    pub fn predict_update_observed(&mut self, pc: Pc, outcome: Outcome) -> Provenance {
        let step = self.advance(pc, outcome);
        let d = step.detail;
        let served_by_tagged = match d.provider {
            None => false,
            // The override delivered the alternate, which is the base
            // table unless a second tagged hit supplied it.
            Some(_) if d.alt_chosen => d.alternate.is_some(),
            Some(_) => true,
        };
        Provenance {
            pc,
            outcome,
            bim: d.base,
            g0: d.alt_pred,
            g1: d.provider_pred,
            majority: if d.provider.is_some() {
                d.provider_pred
            } else {
                d.base
            },
            chosen: if served_by_tagged {
                ChosenComponent::Majority
            } else {
                ChosenComponent::Bimodal
            },
            overall: d.overall,
            action: step.action,
            meta_trained: step.meta_trained,
            bank: None,
        }
    }
}

impl BranchPredictor for Tage {
    #[inline]
    fn predict(&self, pc: Pc) -> Outcome {
        self.predict_detail(pc).overall
    }

    #[inline]
    fn update(&mut self, pc: Pc, outcome: Outcome) {
        let _ = self.advance(pc, outcome);
    }

    /// One fused lookup per branch; bit-identical to `predict` +
    /// `update` because the update's indices depend only on the history
    /// *before* the push, which is exactly what `predict` saw.
    #[inline]
    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        if !record.kind.is_conditional() {
            return None;
        }
        Some(self.advance(record.pc, record.outcome).detail.overall)
    }

    fn name(&self) -> String {
        format!(
            "TAGE {}x{}K tagged + {}K base, h {}..{}",
            self.tables.len(),
            (1usize << self.tables[0].index_bits) / 1024,
            self.base.entries() / 1024,
            self.tables[0].history_length,
            self.tables
                .last()
                .expect("at least one table")
                .history_length
        )
    }

    fn storage_bits(&self) -> u64 {
        self.config().storage_bits()
    }
}

/// Static fault-array names, indexed by tagged-table number (names must
/// be `'static` for [`ArrayInfo`]).
const CTR_NAMES: [&str; MAX_TABLES] = [
    "tage.t0.ctr",
    "tage.t1.ctr",
    "tage.t2.ctr",
    "tage.t3.ctr",
    "tage.t4.ctr",
    "tage.t5.ctr",
    "tage.t6.ctr",
    "tage.t7.ctr",
];
const TAG_NAMES: [&str; MAX_TABLES] = [
    "tage.t0.tag",
    "tage.t1.tag",
    "tage.t2.tag",
    "tage.t3.tag",
    "tage.t4.tag",
    "tage.t5.tag",
    "tage.t6.tag",
    "tage.t7.tag",
];
const USEFUL_NAMES: [&str; MAX_TABLES] = [
    "tage.t0.useful",
    "tage.t1.useful",
    "tage.t2.useful",
    "tage.t3.useful",
    "tage.t4.useful",
    "tage.t5.useful",
    "tage.t6.useful",
    "tage.t7.useful",
];

/// Which bank-local array and field a (array, bit) fault address maps to.
enum TageArray {
    Base,
    Ctr(usize),
    Tag(usize),
    Useful(usize),
}

impl Tage {
    fn decode_array(&self, array: usize) -> TageArray {
        if array == 0 {
            return TageArray::Base;
        }
        let t = (array - 1) / 3;
        assert!(t < self.tables.len(), "fault array index out of range");
        match (array - 1) % 3 {
            0 => TageArray::Ctr(t),
            1 => TageArray::Tag(t),
            _ => TageArray::Useful(t),
        }
    }

    /// Applies `f` to the addressed stored bit: `f(current) -> new`.
    fn mutate_bit(&mut self, array: usize, bit: usize, f: impl Fn(u8) -> u8) {
        match self.decode_array(array) {
            TageArray::Base => {
                assert!(bit < self.base.bit_len(), "fault bit out of range");
                let cur = (self.base.get(bit / 2).value() >> (bit % 2)) & 1;
                self.base.set_bit(bit, f(cur));
            }
            TageArray::Ctr(t) => {
                let bank = &mut self.tables[t];
                let (entry, b) = (bit / 3, (bit % 3) as u32);
                assert!(entry < bank.ctr.len(), "fault bit out of range");
                let v = bank.ctr[entry].value();
                let cur = (v >> b) & 1;
                bank.ctr[entry] = Counter3::new((v & !(1 << b)) | (f(cur) << b));
            }
            TageArray::Tag(t) => {
                let bank = &mut self.tables[t];
                let tb = bank.tag_bits as usize;
                let (entry, b) = (bit / tb, (bit % tb) as u32);
                assert!(entry < bank.tag.len(), "fault bit out of range");
                let v = bank.tag[entry];
                let cur = ((v >> b) & 1) as u8;
                bank.tag[entry] = (v & !(1 << b)) | (u16::from(f(cur)) << b);
            }
            TageArray::Useful(t) => {
                let bank = &mut self.tables[t];
                let (entry, b) = (bit / 2, (bit % 2) as u32);
                assert!(entry < bank.useful.len(), "fault bit out of range");
                let v = bank.useful[entry].value();
                let cur = (v >> b) & 1;
                bank.useful[entry] = UsefulCounter::new((v & !(1 << b)) | (f(cur) << b));
            }
        }
    }
}

impl FaultTarget for Tage {
    /// Array order: the base counters, then per tagged table its counter,
    /// tag and useful arrays (`1 + 3N` arrays). The bit sizes sum to
    /// [`TageConfig::storage_bits`] exactly — for the
    /// [`TageConfig::ev8_budget`] point, 352 Kbit on the nose.
    fn fault_arrays(&self) -> Vec<ArrayInfo> {
        let mut arrays = vec![ArrayInfo {
            name: "tage.base",
            class: ArrayClass::Counter,
            bits: self.base.bit_len(),
        }];
        for (t, bank) in self.tables.iter().enumerate() {
            let entries = bank.ctr.len();
            arrays.push(ArrayInfo {
                name: CTR_NAMES[t],
                class: ArrayClass::Counter,
                bits: entries * 3,
            });
            arrays.push(ArrayInfo {
                name: TAG_NAMES[t],
                class: ArrayClass::Tag,
                bits: entries * bank.tag_bits as usize,
            });
            arrays.push(ArrayInfo {
                name: USEFUL_NAMES[t],
                class: ArrayClass::Useful,
                bits: entries * 2,
            });
        }
        arrays
    }

    fn flip_bit(&mut self, array: usize, bit: usize) {
        self.mutate_bit(array, bit, |b| b ^ 1);
    }

    fn force_bit(&mut self, array: usize, bit: usize, value: u8) {
        self.mutate_bit(array, bit, |_| value & 1);
    }

    fn flip_word(&mut self, array: usize, word: usize) {
        let bits = self.fault_arrays()[array].bits;
        let lo = word * 64;
        assert!(lo < bits, "fault word out of range");
        for bit in lo..(lo + 64).min(bits) {
            self.mutate_bit(array, bit, |b| b ^ 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_trace::BranchKind;

    fn small() -> TageConfig {
        TageConfig::geometric(8, 4, 7, 8, 3, 24)
    }

    #[test]
    fn ev8_budget_sums_to_exactly_352_kbit() {
        let config = TageConfig::ev8_budget();
        assert_eq!(config.storage_bits(), 352 * 1024);
        let p = Tage::new(config);
        assert_eq!(p.storage_bits(), 352 * 1024);
    }

    #[test]
    fn fault_arrays_cover_the_full_352_kbit_budget() {
        let p = Tage::new(TageConfig::ev8_budget());
        let arrays = p.fault_arrays();
        assert_eq!(arrays.len(), 1 + 3 * 8);
        let total: usize = arrays.iter().map(|a| a.bits).sum();
        assert_eq!(total as u64, 352 * 1024);
        // Names are unique and stable.
        let mut names: Vec<&str> = arrays.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), arrays.len());
        assert_eq!(arrays[0].name, "tage.base");
        assert_eq!(arrays[1].name, "tage.t0.ctr");
        assert_eq!(arrays[2].name, "tage.t0.tag");
        assert_eq!(arrays[3].name, "tage.t0.useful");
        // Class accounting: 3-bit counters + base vs tags vs useful.
        let class_bits = |class: ArrayClass| -> usize {
            arrays
                .iter()
                .filter(|a| a.class == class)
                .map(|a| a.bits)
                .sum()
        };
        assert_eq!(class_bits(ArrayClass::Counter), 32768 + 8 * 2048 * 3);
        assert_eq!(class_bits(ArrayClass::Useful), 8 * 2048 * 2);
        assert_eq!(
            class_bits(ArrayClass::Tag),
            (14 + 14 + 15 + 15 + 15 + 15 + 16 + 16) * 2048
        );
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut p = Tage::new(small());
        let pc = Pc::new(0x1000);
        let total = 300;
        let mut correct = 0;
        for i in 0..total {
            let outcome = Outcome::from(i % 2 == 0);
            if p.predict(pc) == outcome {
                correct += 1;
            }
            p.update(pc, outcome);
        }
        assert!(correct > total - 40, "got {correct}/{total}");
    }

    #[test]
    fn learns_long_period_pattern_beyond_bimodal() {
        // Period-7 pattern: 6 taken, 1 not-taken. A bimodal counter
        // mispredicts the not-taken every time; TAGE's tagged history
        // entries learn the position of the exception.
        let mut p = Tage::new(small());
        let pc = Pc::new(0x2040);
        let mut late_correct = 0;
        let total = 700;
        for i in 0..total {
            let outcome = Outcome::from(i % 7 != 3);
            if p.predict(pc) == outcome && i >= total / 2 {
                late_correct += 1;
            }
            p.update(pc, outcome);
        }
        assert!(
            late_correct > (total / 2) * 9 / 10,
            "late accuracy {late_correct}/{}",
            total / 2
        );
    }

    #[test]
    fn observed_update_is_state_identical_to_plain_update() {
        let mut plain = Tage::new(small());
        let mut observed = plain.clone();
        let mut x = 0xDEAD_BEEF_1234_5678u64;
        for i in 0..4000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = Pc::new(0x1000 + (x % 301) * 4);
            let outcome = Outcome::from((x >> 17) & 0b11 != 0);
            let p = plain.predict(pc);
            plain.update(pc, outcome);
            let prov = observed.predict_update_observed(pc, outcome);
            assert_eq!(p, prov.overall, "step {i}");
            assert_eq!(prov.outcome, outcome);
        }
        assert_eq!(plain, observed, "observed path diverged from plain path");
    }

    #[test]
    fn fused_predict_and_update_matches_default_formulation() {
        let mut fused = Tage::new(small());
        let mut reference = Tage::new(small());
        let mut x = 0xC0FF_EE00u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let record = if i % 9 == 4 {
                BranchRecord::always_taken(Pc::new(0x5000), Pc::new(0x6000), BranchKind::Return)
            } else {
                BranchRecord::conditional(
                    Pc::new(0x400 + (x % 500) * 4),
                    Pc::new(0x2000),
                    x >> 63 != 0,
                )
            };
            let got = fused.predict_and_update(&record);
            let expected = if record.kind.is_conditional() {
                let p = reference.predict(record.pc);
                reference.update_record(&record);
                Some(p)
            } else {
                reference.update_record(&record);
                None
            };
            assert_eq!(got, expected, "record {i}");
        }
        assert_eq!(fused, reference);
    }

    #[test]
    fn provenance_is_internally_consistent() {
        let mut p = Tage::new(small());
        let mut x = 0x1357_9BDFu64;
        for _ in 0..3000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = Pc::new(0x1000 + (x % 97) * 4);
            let outcome = Outcome::from((x >> 11) & 1 == 1);
            let prov = p.predict_update_observed(pc, outcome);
            // The delivered prediction is one of the candidate votes.
            assert!(prov.overall == prov.g1 || prov.overall == prov.g0 || prov.overall == prov.bim);
            // A correct prediction never reports TableCorrected; a wrong
            // one always does.
            assert_eq!(
                prov.action == UpdateAction::TableCorrected,
                prov.overall != prov.outcome
            );
            assert_eq!(prov.bank, None);
        }
    }

    #[test]
    fn allocation_installs_weak_tagged_entry_on_misprediction() {
        // Fresh predictor, empty history: the base table predicts
        // weakly-not-taken, so a taken branch mispredicts; tag-0 entries
        // spuriously hit, so drive a PC whose table-0 tag is nonzero to
        // observe a real allocation.
        let mut p = Tage::new(small());
        let pc = (0..4096u64)
            .map(|i| Pc::new(0x1000 + i * 4))
            .find(|&pc| (0..4).all(|j| p.table_tag(j, pc) != 0))
            .expect("some PC has all-nonzero tags");
        let detail = p.predict_detail(pc);
        assert_eq!(detail.provider, None, "no tag hit before allocation");
        assert_eq!(detail.overall, Outcome::NotTaken);
        // Snapshot candidate coordinates before the history push.
        let coords: Vec<(usize, u16)> = (0..4)
            .map(|j| (p.table_index(j, pc), p.table_tag(j, pc)))
            .collect();
        p.update(pc, Outcome::Taken); // mispredict -> allocate
        let installed: Vec<usize> = (0..4)
            .filter(|&j| {
                let (ctr, tag, useful) = p.entry(j, coords[j].0);
                tag == coords[j].1 && useful == 0 && ctr == Counter3::WEAK_TAKEN
            })
            .collect();
        assert_eq!(installed.len(), 1, "exactly one weak entry allocated");
    }

    #[test]
    fn useful_reset_clears_one_bit_per_period() {
        let mut config = small();
        config.useful_reset_period = 64;
        let mut p = Tage::new(config);
        // Force a useful counter to 3 via fault injection (array 3 is
        // t0.useful), then run one reset period of branches.
        FaultTarget::force_bit(&mut p, 3, 0, 1);
        FaultTarget::force_bit(&mut p, 3, 1, 1);
        assert_eq!(p.entry(0, 0).2, 3);
        let mut x = 7u64;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.update(Pc::new(0x8000 + (x % 64) * 4), Outcome::from(x & 1 == 1));
        }
        // First reset clears the high bit (3 -> 1)... unless branch
        // traffic already trained it; the bound below allows training
        // but the high bit must be gone.
        assert!(p.entry(0, 0).2 <= 1, "high useful bit survived the reset");
    }

    #[test]
    fn zero_reset_period_never_resets() {
        let mut config = small();
        config.useful_reset_period = 0;
        let mut p = Tage::new(config);
        FaultTarget::force_bit(&mut p, 3, 1, 1); // useful[0] high bit
        let before = p.entry(0, 0).2;
        for i in 0..200u64 {
            // A PC far from entry 0's index neighborhood... entry 0 may
            // still be touched by aliasing; accept any value >= 1 is not
            // guaranteed, so just check the reset machinery never ran by
            // driving non-conditional state: branches count, no reset.
            p.update(Pc::new(0x4_0000 + i * 8), Outcome::Taken);
        }
        // The bit can only have been cleared by a (never-run) reset or
        // by useful training, which requires a tag hit on entry 0 with
        // provider/alt disagreement — possible but not with an all-taken
        // stream that trains counters taken-ward monotonically.
        assert!(p.entry(0, 0).2 >= before.min(1));
    }

    #[test]
    fn flip_bit_roundtrips_on_every_array() {
        let mut p = Tage::new(small());
        let pristine = p.clone();
        let arrays = p.fault_arrays();
        for (a, info) in arrays.iter().enumerate() {
            FaultTarget::flip_bit(&mut p, a, info.bits - 1);
            assert_ne!(p, pristine, "flip in {} must change state", info.name);
            FaultTarget::flip_bit(&mut p, a, info.bits - 1);
            assert_eq!(p, pristine, "double flip in {} must restore", info.name);
        }
    }

    #[test]
    fn flip_word_flips_only_live_bits() {
        let mut p = Tage::new(small());
        let pristine = p.clone();
        // Array 2 = t0.tag: 2^7 entries * 8 bits = 1024 bits = 16 words.
        FaultTarget::flip_word(&mut p, 2, 15);
        assert_ne!(p, pristine);
        FaultTarget::flip_word(&mut p, 2, 15);
        assert_eq!(p, pristine);
    }

    #[test]
    fn faulted_tag_breaks_the_match() {
        let mut p = Tage::new(small());
        let pc = Pc::new(0x77C0);
        // Train until some tagged entry provides.
        for i in 0..200u64 {
            p.update(pc, Outcome::from(i % 3 == 0));
        }
        let detail = p.predict_detail(pc);
        if let Some(h) = detail.provider {
            // Flip one tag bit of the provider entry: the hit must vanish
            // (the tag no longer equals the recomputed hash).
            let array = 2 + 3 * h.table; // t{table}.tag
            let tag_bits = p.tables[h.table].tag_bits as usize;
            FaultTarget::flip_bit(&mut p, array, h.index * tag_bits);
            let after = p.predict_detail(pc);
            assert_ne!(after.provider, Some(h), "faulted tag still matches");
        }
    }

    #[test]
    fn name_and_geometry() {
        let p = Tage::new(TageConfig::ev8_budget());
        assert_eq!(p.name(), "TAGE 8x2K tagged + 16K base, h 5..64");
        assert_eq!(p.config().max_history(), 64);
        assert_eq!(p.history().length(), 64);
    }

    #[test]
    fn geometric_series_is_strictly_increasing() {
        for tables in 1..=8usize {
            let c = TageConfig::geometric(6, tables, 6, 7, 2, 48);
            let lengths: Vec<u32> = c.tables.iter().map(|t| t.history_length).collect();
            for w in lengths.windows(2) {
                assert!(w[0] < w[1], "not increasing: {lengths:?}");
            }
            assert_eq!(lengths[0], 2);
            if tables > 1 {
                assert_eq!(*lengths.last().unwrap(), 48);
            }
            Tage::new(c); // must validate
        }
    }

    #[test]
    #[should_panic(expected = "tagged table count")]
    fn empty_table_list_rejected() {
        Tage::new(TageConfig {
            base_index_bits: 8,
            tables: vec![],
            useful_reset_period: 0,
        });
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_history_rejected() {
        Tage::new(TageConfig {
            base_index_bits: 8,
            tables: vec![
                TaggedTableConfig {
                    index_bits: 6,
                    tag_bits: 8,
                    history_length: 10,
                },
                TaggedTableConfig {
                    index_bits: 6,
                    tag_bits: 8,
                    history_length: 10,
                },
            ],
            useful_reset_period: 0,
        });
    }

    #[test]
    #[should_panic(expected = "tag width")]
    fn tag_width_out_of_range_rejected() {
        Tage::new(TageConfig {
            base_index_bits: 8,
            tables: vec![TaggedTableConfig {
                index_bits: 6,
                tag_bits: 1,
                history_length: 5,
            }],
            useful_reset_period: 0,
        });
    }
}
