//! Simultaneous multithreading support (§3 of the paper).
//!
//! "A global history register must be maintained per thread, and parallel
//! threads — from the same application — benefit from constructive
//! aliasing." The EV8 predictor tables are shared between threads; only
//! the history/fetch state is per-thread.
//!
//! [`SmtEv8`] models this: the one table set of [`Ev8Predictor`] and one
//! [`Ev8Predictor`] front end (fetch-block formation, lghist, banks) per
//! thread context, each record stepped through the same body as the
//! single-threaded predictor. With one context it predicts exactly as
//! [`Ev8Predictor`] does.
//!
//! [`Ev8Predictor`]: crate::Ev8Predictor

use ev8_predictors::twobcgskew::Tables;
use ev8_trace::{BranchRecord, Outcome};

use crate::config::Ev8Config;
use crate::predictor::FrontEnd;

/// Identifier of a hardware thread context.
pub type ThreadId = usize;

/// An SMT EV8 predictor: shared tables, per-thread history and fetch
/// state.
///
/// # Example
///
/// ```
/// use ev8_core::smt::SmtEv8;
/// use ev8_core::Ev8Config;
/// use ev8_trace::{BranchRecord, Pc};
///
/// let mut p = SmtEv8::new(Ev8Config::ev8(), 4);
/// let rec = BranchRecord::conditional(Pc::new(0x1000), Pc::new(0x2000), true);
/// let _ = p.predict_and_update(2, &rec);
/// ```
#[derive(Clone, Debug)]
pub struct SmtEv8 {
    config: Ev8Config,
    tables: Tables,
    threads: Vec<FrontEnd>,
}

impl SmtEv8 {
    /// Creates an SMT predictor with `threads` hardware contexts sharing
    /// one table set.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, or under the geometry check of
    /// [`crate::Ev8Predictor::new`].
    pub fn new(config: Ev8Config, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread context");
        SmtEv8 {
            tables: Tables::new(config.bim, config.g0, config.g1, config.meta),
            threads: vec![FrontEnd::new(&config); threads],
            config,
        }
    }

    /// Number of thread contexts.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The shared tables.
    pub fn tables(&self) -> &Tables {
        &self.tables
    }

    /// Processes one record on one thread context; returns the prediction
    /// for conditional records.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[inline]
    pub fn predict_and_update(
        &mut self,
        thread: ThreadId,
        record: &BranchRecord,
    ) -> Option<Outcome> {
        self.threads[thread]
            .step(&self.config, &mut self.tables, record)
            .map(|p| p.overall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_trace::Pc;

    fn taken(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::conditional(Pc::new(pc), Pc::new(target), true)
    }

    #[test]
    fn threads_have_independent_history() {
        let mut p = SmtEv8::new(Ev8Config::ev8(), 2);
        // Thread 0 runs a loop; thread 1 stays idle. Thread 0's state must
        // not leak into thread 1's front end.
        for _ in 0..20 {
            p.predict_and_update(0, &taken(0x1010, 0x1000));
        }
        assert_ne!(
            p.threads[0].context.last_block_start,
            p.threads[1].context.last_block_start
        );
        assert_eq!(p.threads[1].context.last_block_start, None);
    }

    #[test]
    fn shared_tables_give_constructive_aliasing() {
        // Two threads running the *same* code learn from each other: after
        // thread 0 trains a branch, thread 1's very first prediction of
        // the same (address, history) pattern benefits.
        let mut p = SmtEv8::new(Ev8Config::ev8(), 2);
        for _ in 0..60 {
            p.predict_and_update(0, &taken(0x1010, 0x1000));
        }
        // Warm thread 1's front end just enough to align its history.
        let mut hits = 0;
        for _ in 0..60 {
            if p.predict_and_update(1, &taken(0x1010, 0x1000)) == Some(Outcome::Taken) {
                hits += 1;
            }
        }
        assert!(
            hits >= 55,
            "thread 1 should inherit learned state: {hits}/60"
        );
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_rejected() {
        SmtEv8::new(Ev8Config::ev8(), 0);
    }
}
