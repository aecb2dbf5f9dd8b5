//! Return-address stack — one of the remaining pieces of the EV8 PC
//! address generator (§2 of the paper):
//!
//! "This includes a conditional branch predictor, a jump predictor, a
//! return address stack predictor, conditional branch target address
//! computation ... and final address selection."
//!
//! The conditional branch predictor lives in [`crate::predictor`]; this
//! module supplies the return address stack. The jump predictor is not
//! modelled: the synthetic workloads emit no indirect jumps, so it would
//! have nothing to learn.

use ev8_trace::Pc;

/// A fixed-depth return address stack (RAS).
///
/// Calls push their return address; returns pop the predicted target.
/// On overflow the oldest entry is overwritten (circular), as in real
/// hardware — deep recursion therefore mispredicts on the way out, which
/// is the behaviour the `li` analogue (recursive interpreter) exercises.
///
/// # Example
///
/// ```
/// use ev8_core::ras::ReturnAddressStack;
/// use ev8_trace::Pc;
///
/// let mut ras = ReturnAddressStack::new(8);
/// ras.push(Pc::new(0x1004));
/// assert_eq!(ras.pop(), Some(Pc::new(0x1004)));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    entries: Vec<Pc>,
    top: usize,
    depth: usize,
    capacity: usize,
    predictions: u64,
    hits: u64,
}

impl ReturnAddressStack {
    /// Creates a RAS with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be positive");
        ReturnAddressStack {
            entries: vec![Pc::new(0); capacity],
            top: 0,
            depth: 0,
            capacity,
            predictions: 0,
            hits: 0,
        }
    }

    /// Pushes a return address (on a call). Overwrites the oldest entry
    /// when full.
    pub fn push(&mut self, return_address: Pc) {
        self.entries[self.top] = return_address;
        self.top = (self.top + 1) % self.capacity;
        self.depth = (self.depth + 1).min(self.capacity);
    }

    /// Pops the predicted return target (on a return); `None` when empty.
    pub fn pop(&mut self) -> Option<Pc> {
        if self.depth == 0 {
            return None;
        }
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.depth -= 1;
        Some(self.entries[self.top])
    }

    /// Predicts a return and scores it against the actual target,
    /// updating the accuracy counters.
    pub fn predict_return(&mut self, actual_target: Pc) -> bool {
        self.predictions += 1;
        let hit = self.pop() == Some(actual_target);
        if hit {
            self.hits += 1;
        }
        hit
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Fraction of scored returns predicted correctly.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.hits as f64 / self.predictions as f64
        }
    }

    /// Number of scored return predictions.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(Pc::new(0x10));
        ras.push(Pc::new(0x20));
        ras.push(Pc::new(0x30));
        assert_eq!(ras.depth(), 3);
        assert_eq!(ras.pop(), Some(Pc::new(0x30)));
        assert_eq!(ras.pop(), Some(Pc::new(0x20)));
        assert_eq!(ras.pop(), Some(Pc::new(0x10)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_wraps_and_loses_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(Pc::new(0x10));
        ras.push(Pc::new(0x20));
        ras.push(Pc::new(0x30)); // overwrites 0x10
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(Pc::new(0x30)));
        assert_eq!(ras.pop(), Some(Pc::new(0x20)));
        assert_eq!(ras.pop(), None, "the overwritten entry must be gone");
    }

    #[test]
    fn balanced_call_return_is_perfect() {
        let mut ras = ReturnAddressStack::new(16);
        for depth in 0..8u64 {
            ras.push(Pc::new(0x1000 + depth * 8));
        }
        for depth in (0..8u64).rev() {
            assert!(ras.predict_return(Pc::new(0x1000 + depth * 8)));
        }
        assert_eq!(ras.accuracy(), 1.0);
        assert_eq!(ras.predictions(), 8);
    }

    #[test]
    fn deep_recursion_mispredicts_past_capacity() {
        let mut ras = ReturnAddressStack::new(4);
        for depth in 0..8u64 {
            ras.push(Pc::new(0x1000 + depth * 8));
        }
        // The innermost 4 returns hit, the outer 4 miss (overwritten).
        let mut hits = 0;
        for depth in (0..8u64).rev() {
            if ras.predict_return(Pc::new(0x1000 + depth * 8)) {
                hits += 1;
            }
        }
        assert_eq!(hits, 4);
        assert!((ras.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "RAS capacity must be positive")]
    fn zero_capacity_rejected() {
        ReturnAddressStack::new(0);
    }
}
