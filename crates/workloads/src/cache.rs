//! Process-wide memoized trace provider.
//!
//! Trace generation is deterministic — a [`ProgramSpec`] and a scale
//! factor fully determine the output — yet the test suite and the
//! experiment drivers used to regenerate the same handful of
//! (benchmark, scale) traces dozens of times per run, dominating
//! tier-1 wall clock. This module memoizes generation behind a global
//! [`TraceCache`]: the first request for a key generates the trace
//! (exactly once, even under concurrent requests), every later request
//! clones an [`Arc`].
//!
//! The cache holds one trace per key, in the packed [`FlatTrace`] form
//! (~10 bytes per record). The AoS [`ev8_trace::Trace`] a miss generates
//! is packed and dropped, so a full suite costs ~2.4x less resident
//! memory than it would as AoS, and every experiment walks the same
//! columns the sweep engines stream.
//!
//! Cached traces are immutable by construction (`Arc<FlatTrace>` hands
//! out shared references only), and packing is lossless, so memoization
//! cannot change simulation results: a cached trace yields, record by
//! record, exactly what a fresh [`ProgramSpec::generate_scaled`] holds.
//! `crates/workloads/tests/generator_properties.rs` checks that equality
//! over every suite benchmark.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ev8_trace::FlatTrace;

use crate::program::ProgramSpec;

/// Cache key: the spec's identity plus the *scaled* instruction count.
///
/// Keying on the resolved `u64` instruction count (instead of the `f64`
/// scale) avoids float keys and collapses distinct scales that round to
/// the same trace length — those produce identical traces anyway.
///
/// `fingerprint` is [`ProgramSpec::fingerprint`] of the *scaled* spec:
/// it covers every generator input (behaviour mix, density, skew, noise,
/// ... plus the generator algorithm version), closing the latent
/// collision where two specs sharing `(name, seed, instructions)` but
/// differing elsewhere — or the same spec across a generator change —
/// would silently shadow each other's cached traces. The readable
/// fields stay in the key for debuggability; the fingerprint is what
/// makes it sound.
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct Key {
    name: String,
    seed: u64,
    instructions: u64,
    fingerprint: u64,
}

impl Key {
    /// The key for `spec` at `scale`, resolved to the dynamic length
    /// [`ProgramSpec::generate_scaled`] generates.
    fn scaled(spec: &ProgramSpec, scale: f64) -> Key {
        let mut scaled = spec.clone();
        scaled.instructions = ((spec.instructions as f64) * scale).max(1.0) as u64;
        Key {
            name: scaled.name.clone(),
            seed: scaled.seed,
            instructions: scaled.instructions,
            fingerprint: scaled.fingerprint(),
        }
    }
}

/// A memoizing trace store keyed by (spec name, seed, scaled length),
/// holding one packed [`FlatTrace`] per key.
///
/// Each entry is an `Arc<OnceLock<..>>` cell: the outer map lock is held
/// only long enough to find or insert the cell, then released, so two
/// threads requesting *different* keys generate in parallel while two
/// threads requesting the *same* key serialize on that key's cell and
/// generate exactly once.
///
/// # Example
///
/// ```
/// use ev8_workloads::cache::TraceCache;
/// use ev8_workloads::spec95;
///
/// let cache = TraceCache::new();
/// let spec = spec95::benchmark("compress").unwrap();
/// let a = cache.get_scaled(&spec, 0.001);
/// let b = cache.get_scaled(&spec, 0.001);
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // second hit is a clone
/// ```
pub struct TraceCache {
    entries: Mutex<HashMap<Key, Arc<OnceLock<Arc<FlatTrace>>>>>,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache {
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the packed trace for `spec` scaled by `scale`, generating
    /// it on the first request and reusing it afterwards.
    ///
    /// A miss runs [`ProgramSpec::generate_scaled`] and packs the result
    /// with [`FlatTrace::from_trace`]; the AoS copy is dropped before the
    /// entry is published, so the cache holds ~10 bytes per record.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn get_scaled(&self, spec: &ProgramSpec, scale: f64) -> Arc<FlatTrace> {
        assert!(scale > 0.0, "scale must be positive");
        let key = Key::scaled(spec, scale);
        let cell = {
            let mut map = self.entries.lock().expect("trace cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        // The map lock is released; generation for this key happens at
        // most once, and other keys proceed concurrently.
        Arc::clone(
            cell.get_or_init(|| Arc::new(FlatTrace::from_trace(&spec.generate_scaled(scale)))),
        )
    }

    /// Number of distinct traces generated so far.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("trace cache poisoned")
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// True when no trace has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TraceCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide cache used by [`crate::spec95::cached`] and
/// [`crate::h2p::cached`].
pub fn global() -> &'static TraceCache {
    static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
    GLOBAL.get_or_init(TraceCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec95;
    use std::thread;

    fn tiny_spec() -> ProgramSpec {
        let mut spec = spec95::benchmark("compress").unwrap();
        spec.instructions = 50_000;
        spec
    }

    #[test]
    fn cached_trace_matches_fresh_generation() {
        let cache = TraceCache::new();
        let spec = tiny_spec();
        let cached = cache.get_scaled(&spec, 0.5);
        let fresh = spec.generate_scaled(0.5);
        assert_eq!(*cached, FlatTrace::from_trace(&fresh));
        assert_eq!(cached.name(), fresh.name());
        assert_eq!(cached.instruction_count(), fresh.instruction_count());
        assert_eq!(cached.iter().collect::<Vec<_>>(), fresh.records());
    }

    #[test]
    fn second_request_reuses_the_allocation() {
        let cache = TraceCache::new();
        let spec = tiny_spec();
        let a = cache.get_scaled(&spec, 1.0);
        let b = cache.get_scaled(&spec, 1.0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_scales_are_distinct_entries() {
        let cache = TraceCache::new();
        let spec = tiny_spec();
        assert!(cache.is_empty());
        let full = cache.get_scaled(&spec, 1.0);
        let half = cache.get_scaled(&spec, 0.5);
        assert!(!Arc::ptr_eq(&full, &half));
        assert_eq!(cache.len(), 2);
        assert!(half.instruction_count() < full.instruction_count());
    }

    #[test]
    fn scales_rounding_to_same_length_share_an_entry() {
        let cache = TraceCache::new();
        let spec = tiny_spec();
        // 50_000 * 0.2 and 50_000 * 0.200_000_1 both round to 10_000.
        let a = cache.get_scaled(&spec, 0.2);
        let b = cache.get_scaled(&spec, 0.200_000_1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_requests_generate_exactly_once() {
        let cache = TraceCache::new();
        let spec = tiny_spec();
        let traces: Vec<Arc<FlatTrace>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.get_scaled(&spec, 0.25)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
    }

    #[test]
    fn global_cache_is_shared() {
        let spec = tiny_spec();
        let a = global().get_scaled(&spec, 0.1);
        let b = global().get_scaled(&spec, 0.1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        TraceCache::new().get_scaled(&tiny_spec(), 0.0);
    }

    #[test]
    fn specs_differing_only_in_mix_get_distinct_entries() {
        // Regression: the key once covered only (name, seed, scaled
        // length), so two specs differing elsewhere — or across a
        // generator version bump — shadowed each other's entries. The
        // fingerprint closes that.
        let cache = TraceCache::new();
        let a = tiny_spec();
        let mut b = a.clone();
        b.noise = (b.noise + 0.3).min(1.0);
        assert_eq!(
            (&a.name, a.seed, a.instructions),
            (&b.name, b.seed, b.instructions)
        );
        let trace_a = cache.get_scaled(&a, 0.5);
        let trace_b = cache.get_scaled(&b, 0.5);
        assert_eq!(cache.len(), 2, "distinct specs must not share a cache slot");
        assert!(!Arc::ptr_eq(&trace_a, &trace_b));
        assert_eq!(
            trace_b.iter().collect::<Vec<_>>(),
            b.generate_scaled(0.5).records()
        );
    }
}
