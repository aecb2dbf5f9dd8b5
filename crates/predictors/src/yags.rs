//! The YAGS predictor (Eden & Mudge \[4\]) — the strongest Fig 5 competitor:
//! "There is no clear winner between the YAGS predictor and 2Bc-gskew.
//! However, the YAGS predictor uses (partially) tagged arrays. Reading and
//! checking 16 of these tags in only one and half cycle would have been
//! difficult to implement." (§8.2)

use ev8_trace::{BranchRecord, Outcome, Pc};

use crate::counter::Counter2;
use crate::history::GlobalHistory;
use crate::predictor::BranchPredictor;
use crate::skew::xor_fold64;

/// One entry of a YAGS direction cache: a partial tag plus a 2-bit
/// counter.
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    tag: u8,
    counter: Counter2,
    valid: bool,
}

impl CacheEntry {
    fn empty() -> Self {
        CacheEntry {
            tag: 0,
            counter: Counter2::default(),
            valid: false,
        }
    }
}

/// What one lookup read, and where: everything the update needs.
#[derive(Clone, Copy, Debug)]
struct Lookup {
    choice_index: usize,
    cache_index: usize,
    tag: u8,
    choice: Outcome,
    /// The searched cache held a valid entry with the branch's tag.
    hit: bool,
    prediction: Outcome,
}

/// The YAGS predictor: a PC-indexed bimodal *choice* table plus two
/// partially tagged *direction caches* that record only the exceptions to
/// the choice. When the choice says taken, the **not-taken cache** is
/// searched (and vice versa); on a tag hit the cache's counter provides
/// the prediction, otherwise the choice does.
///
/// # Example
///
/// ```
/// use ev8_predictors::{yags::Yags, BranchPredictor};
/// use ev8_trace::{Outcome, Pc};
///
/// let mut p = Yags::paper_288k();
/// p.update(Pc::new(0x1000), Outcome::Taken);
/// assert_eq!(p.storage_bits(), 288 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct Yags {
    choice: Vec<Counter2>,
    taken_cache: Vec<CacheEntry>,
    not_taken_cache: Vec<CacheEntry>,
    choice_bits: u32,
    cache_bits: u32,
    tag_bits: u32,
    history: GlobalHistory,
}

impl Yags {
    /// Creates a YAGS predictor with `2^choice_bits` choice counters, two
    /// `2^cache_bits`-entry direction caches with `tag_bits`-bit partial
    /// tags, and `history_length` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not in `1..=30`, `tag_bits` not in `1..=8`, or
    /// `history_length > 64`.
    pub fn new(choice_bits: u32, cache_bits: u32, tag_bits: u32, history_length: u32) -> Self {
        assert!((1..=30).contains(&choice_bits));
        assert!((1..=30).contains(&cache_bits));
        assert!(
            (1..=8).contains(&tag_bits),
            "partial tags limited to 8 bits"
        );
        Yags {
            choice: vec![Counter2::default(); 1 << choice_bits],
            taken_cache: vec![CacheEntry::empty(); 1 << cache_bits],
            not_taken_cache: vec![CacheEntry::empty(); 1 << cache_bits],
            choice_bits,
            cache_bits,
            tag_bits,
            history: GlobalHistory::new(history_length),
        }
    }

    /// The paper's 288 Kbit configuration: 16K-entry bimodal choice and
    /// two 16K-entry direction caches with 6-bit tags, history length 23.
    pub fn paper_288k() -> Self {
        Yags::new(14, 14, 6, 23)
    }

    /// The paper's 576 Kbit configuration (doubled tables), history
    /// length 25.
    pub fn paper_576k() -> Self {
        Yags::new(15, 15, 6, 25)
    }

    fn choice_index(&self, pc: Pc) -> usize {
        pc.bits(2, self.choice_bits) as usize
    }

    fn cache_index(&self, pc: Pc) -> usize {
        let folded = xor_fold64(self.history.bits(), self.cache_bits);
        (pc.bits(2, self.cache_bits) ^ folded) as usize
    }

    fn tag(&self, pc: Pc) -> u8 {
        (pc.bits(2, self.tag_bits)) as u8
    }

    /// The one lookup per branch: `predict`, `update` and the fused step
    /// all start here.
    #[inline]
    fn lookup(&self, pc: Pc) -> Lookup {
        let choice_index = self.choice_index(pc);
        let cache_index = self.cache_index(pc);
        let tag = self.tag(pc);
        let choice = self.choice[choice_index].prediction();
        let cache = if choice.is_taken() {
            &self.not_taken_cache
        } else {
            &self.taken_cache
        };
        let e = &cache[cache_index];
        let hit = e.valid && e.tag == tag;
        Lookup {
            choice_index,
            cache_index,
            tag,
            choice,
            hit,
            prediction: if hit { e.counter.prediction() } else { choice },
        }
    }

    /// The YAGS update of a branch whose lookup was `l`, then the
    /// history shift.
    #[inline]
    fn step(&mut self, l: Lookup, outcome: Outcome) {
        let cache = if l.choice.is_taken() {
            &mut self.not_taken_cache
        } else {
            &mut self.taken_cache
        };
        if l.hit {
            cache[l.cache_index].counter.train(outcome);
        } else if l.choice != outcome {
            // The choice mispredicted with no covering exception entry:
            // allocate one in the cache opposite to the choice.
            cache[l.cache_index] = CacheEntry {
                tag: l.tag,
                counter: if outcome.is_taken() {
                    Counter2::weakly_taken()
                } else {
                    Counter2::weakly_not_taken()
                },
                valid: true,
            };
        }
        // Choice table: train toward the outcome except when the choice
        // was wrong but the exception cache predicted correctly (as in
        // bi-mode, this preserves the bias information).
        let spare_choice = l.choice != outcome && l.hit && l.prediction == outcome;
        if !spare_choice {
            self.choice[l.choice_index].train(outcome);
        }
        self.history.push(outcome);
    }
}

impl BranchPredictor for Yags {
    fn predict(&self, pc: Pc) -> Outcome {
        self.lookup(pc).prediction
    }

    fn update(&mut self, pc: Pc, outcome: Outcome) {
        let l = self.lookup(pc);
        self.step(l, outcome);
    }

    /// One lookup per branch, bit-identical to `predict` +
    /// `update_record`: both would look up under the same history.
    #[inline]
    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        if !record.kind.is_conditional() {
            return None;
        }
        let l = self.lookup(record.pc);
        self.step(l, record.outcome);
        Some(l.prediction)
    }

    fn name(&self) -> String {
        format!(
            "YAGS choice 2^{} + 2x2^{} caches ({}b tags), h={}",
            self.choice_bits,
            self.cache_bits,
            self.tag_bits,
            self.history.length()
        )
    }

    fn storage_bits(&self) -> u64 {
        let choice = self.choice.len() as u64 * 2;
        let caches = (self.taken_cache.len() + self.not_taken_cache.len()) as u64
            * (2 + self.tag_bits as u64);
        choice + caches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budgets() {
        assert_eq!(Yags::paper_288k().storage_bits(), 288 * 1024);
        assert_eq!(Yags::paper_576k().storage_bits(), 576 * 1024);
    }

    #[test]
    fn learns_biased_branch_without_cache_allocation() {
        let mut p = Yags::new(8, 8, 6, 4);
        let pc = Pc::new(0x100);
        for _ in 0..4 {
            p.update(pc, Outcome::Taken);
        }
        assert_eq!(p.predict(pc), Outcome::Taken);
        // No exception entry should have been allocated once the choice
        // settles (updates 3-4 were correct).
        let valid_entries = p
            .taken_cache
            .iter()
            .chain(p.not_taken_cache.iter())
            .filter(|e| e.valid)
            .count();
        assert!(valid_entries <= 2, "only warmup mispredictions allocate");
    }

    #[test]
    fn exception_entry_covers_history_context() {
        // A branch taken except in one history context: YAGS stores the
        // exception in the not-taken cache.
        let mut p = Yags::new(8, 10, 6, 8);
        let pc = Pc::new(0x400);
        let mut correct = 0;
        let total = 600;
        for i in 0..total {
            // Not taken every 8th execution; global history makes the
            // context visible.
            let o = Outcome::from(i % 8 != 7);
            if p.predict(pc) == o {
                correct += 1;
            }
            p.update(pc, o);
        }
        assert!(correct > total * 85 / 100, "got {correct}/{total}");
    }

    #[test]
    fn tag_mismatch_misses() {
        let mut p = Yags::new(6, 6, 6, 0);
        let pc_a = Pc::new(0b0001_0000_0100); // tag from bits 2..8
                                              // Same cache index requires same low bits; craft pc_b with same
                                              // index bits (2..8) impossible while differing tag (also 2..8) —
                                              // so instead verify a hit requires the matching tag.
        let ci = p.cache_index(pc_a);
        p.not_taken_cache[ci] = CacheEntry {
            tag: p.tag(pc_a) ^ 0x1, // wrong tag
            counter: Counter2::new(0),
            valid: true,
        };
        // Choice is weakly not-taken initially; drive it taken so the
        // not-taken cache is searched.
        let chi = p.choice_index(pc_a);
        p.choice[chi] = Counter2::new(3);
        let l = p.lookup(pc_a);
        assert!(!l.hit);
        assert_eq!(l.prediction, Outcome::Taken); // falls back to choice
    }

    #[test]
    fn choice_spared_when_exception_hits() {
        let mut p = Yags::new(6, 6, 6, 0);
        let pc = Pc::new(0x100);
        let ci = p.cache_index(pc);
        let chi = p.choice_index(pc);
        p.choice[chi] = Counter2::new(3); // strongly taken
        p.not_taken_cache[ci] = CacheEntry {
            tag: p.tag(pc),
            counter: Counter2::new(0), // exception: predict not-taken
            valid: true,
        };
        p.update(pc, Outcome::NotTaken);
        assert_eq!(
            p.choice[chi].value(),
            3,
            "choice spared when the exception cache was right"
        );
    }

    #[test]
    fn allocation_on_choice_misprediction() {
        let mut p = Yags::new(6, 6, 6, 0);
        let pc = Pc::new(0x100);
        let chi = p.choice_index(pc);
        p.choice[chi] = Counter2::new(3); // strongly taken
        p.update(pc, Outcome::NotTaken); // choice wrong, no hit: allocate
        let ci = p.cache_index(pc);
        let e = &p.not_taken_cache[ci];
        assert!(e.valid);
        assert_eq!(e.tag, p.tag(pc));
        assert_eq!(e.counter.prediction(), Outcome::NotTaken);
    }

    #[test]
    fn no_allocation_on_correct_choice() {
        let mut p = Yags::new(6, 6, 6, 0);
        let pc = Pc::new(0x100);
        let chi = p.choice_index(pc);
        p.choice[chi] = Counter2::new(3);
        p.update(pc, Outcome::Taken); // choice right: no allocation
        assert!(p.not_taken_cache.iter().all(|e| !e.valid));
        assert!(p.taken_cache.iter().all(|e| !e.valid));
    }

    #[test]
    fn name_nonempty() {
        assert!(Yags::paper_288k().name().contains("YAGS"));
    }
}
