//! Synthetic program construction and the dynamic walk that produces a
//! branch trace.
//!
//! A [`ProgramSpec`] is compiled (deterministically, from its seed) into a
//! static *program*: a population of conditional branch sites grouped into
//! **chains** (straight-line code runs of 1-4 branches, the analogue of
//! extended basic blocks), laid out contiguously in a synthetic code
//! region. Each chain ends in a *suffix event*: plain fallthrough into the
//! next chain, an unconditional jump, a call (pushing a return address) or
//! a return. Loop chains end in a back-edge branch targeting their own
//! entry.
//!
//! The dynamic walk then follows actual control flow: taken branches jump
//! to their (Zipf-distributed) target chains, not-taken branches fall
//! through the chain. The resulting trace is **coherent** — every
//! instruction between two records occupies consecutive addresses — which
//! the EV8 front-end model (`ev8-core`) relies on to form fetch blocks,
//! and which makes Table 3's "branches per lghist bit" measurement
//! meaningful.

use ev8_util::rng::{DefaultRng, Rng};

use ev8_trace::{BranchKind, BranchRecord, Pc, Trace, TraceBuilder};

use crate::behavior::{Behavior, BehaviorState};
use crate::zipf::Zipf;

/// Relative weights of the hard-to-predict archetype classes
/// (Constantinou/Perais/Sazeides taxonomy) within a [`BehaviorMix`].
///
/// Kept as a separate extension block so the eight calibrated SPECINT95
/// specs — none of which uses these archetypes — read and fingerprint
/// exactly as they did before the H2P workloads existed (see
/// [`ProgramSpec::fingerprint`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct H2pMix {
    /// Hash-of-data branches ([`Behavior::DataDependent`]).
    pub data_dependent: f64,
    /// Entropy-driven bias flips ([`Behavior::InputEntropy`]).
    pub input_entropy: f64,
    /// Jittered loop exits ([`Behavior::TimingJitter`]).
    pub timing: f64,
}

impl H2pMix {
    /// No H2P archetypes at all — the classic mix.
    pub const NONE: H2pMix = H2pMix {
        data_dependent: 0.0,
        input_entropy: 0.0,
        timing: 0.0,
    };

    /// Sum of the H2P weights.
    pub fn total(&self) -> f64 {
        self.data_dependent + self.input_entropy + self.timing
    }
}

/// Relative weights of the behaviour archetypes in a program.
///
/// The weights need not sum to 1; they are normalized when sampling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BehaviorMix {
    /// Strongly biased branches (error checks, guards).
    pub biased: f64,
    /// Loop back-edges.
    pub loops: f64,
    /// Fixed repeating local patterns.
    pub patterns: f64,
    /// Branches correlated with recent global outcomes.
    pub correlated: f64,
    /// Data-dependent, inherently unpredictable branches.
    pub random: f64,
    /// Hard-to-predict archetype extension ([`H2pMix::NONE`] for the
    /// classic workloads).
    pub h2p: H2pMix,
}

impl BehaviorMix {
    /// A generic mix resembling integer codes: mostly biased branches,
    /// some loops and correlation, a little noise.
    pub const fn default_integer() -> Self {
        BehaviorMix {
            biased: 0.45,
            loops: 0.20,
            patterns: 0.10,
            correlated: 0.20,
            random: 0.05,
            h2p: H2pMix::NONE,
        }
    }

    /// Samples a concrete archetype (with randomized parameters).
    ///
    /// `noise` in `[0, 1]` scales the irreducible unpredictability: the
    /// flip probability of biased branches, the noise on correlated
    /// branches, and the share of purely random branches. Benchmarks like
    /// `vortex` (very predictable) use small values; `go` (hard) uses
    /// values near 1.
    fn sample(&self, rng: &mut DefaultRng, noise: f64) -> Behavior {
        let noise = noise.clamp(0.0, 1.0);
        // The random-archetype share scales with the noise level; the
        // remainder falls back to biased branches.
        let random_w = self.random * noise;
        let biased_w = self.biased + self.random - random_w;
        // The H2P weights join the total unscaled (adding their 0.0 for
        // classic mixes is exact, so those mixes draw the same stream as
        // before the extension existed).
        let t = biased_w
            + self.loops
            + self.patterns
            + self.correlated
            + self.h2p.data_dependent
            + self.h2p.input_entropy
            + self.h2p.timing
            + random_w;
        assert!(t > 0.0, "behavior mix must have positive total weight");
        let mut u = rng.gen_f64() * t;
        u -= biased_w;
        if u < 0.0 {
            // Bimodal bias: strongly taken or strongly not-taken. Real
            // integer-code guard branches are very strongly biased
            // (mostly > 95%), which is what lets bimodal components and
            // partial update shine.
            let flip = rng.gen_range(0.0005..(0.0015 + 0.06 * noise));
            let p = if rng.gen_bool(0.5) { 1.0 - flip } else { flip };
            return Behavior::Biased {
                taken_probability: p,
            };
        }
        u -= self.loops;
        if u < 0.0 {
            // Log-uniform trip counts between 2 and 64.
            let exp = rng.gen_range(1.0f64..6.0);
            return Behavior::Loop {
                trip_count: 2f64.powf(exp).round() as u32,
            };
        }
        u -= self.patterns;
        if u < 0.0 {
            let len = rng.gen_range(2..=8);
            let pattern: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
            return Behavior::LocalPattern { pattern };
        }
        u -= self.correlated;
        if u < 0.0 {
            let n = rng.gen_range(1..=3);
            let corr_noise = rng.gen_range(0.0..(0.001 + 0.04 * noise));
            // Part of the correlated population depends on the recent
            // *path* (how control arrived) rather than on raw prior
            // outcomes — the correlation class block-compressed history
            // encodes compactly (§5.1). Path offsets are in chain
            // transitions (several branches each), so they stay short to
            // remain within history reach; offset 0 would be the site's
            // own chain (a constant) and is excluded.
            return if rng.gen_bool(0.3) {
                let offsets: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=3)).collect();
                Behavior::PathCorrelated {
                    offsets,
                    noise: corr_noise,
                }
            } else {
                let offsets: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=14)).collect();
                Behavior::GlobalCorrelated {
                    offsets,
                    noise: corr_noise,
                }
            };
        }
        u -= self.h2p.data_dependent;
        if u < 0.0 {
            // A fresh salt per site; log-uniform periods 2^10..2^20, far
            // past what any history register or tag can memorize.
            let salt = rng.next_u64();
            let exp = rng.gen_range(10.0f64..20.0);
            return Behavior::DataDependent {
                salt,
                period: 2f64.powf(exp).round() as u32,
            };
        }
        u -= self.h2p.input_entropy;
        if u < 0.0 {
            // Flip rates log-uniform in ~5e-4..2e-2 (phases of tens to
            // thousands of executions) with only a moderate within-phase
            // bias: every flip forces relearning and the floor stays
            // high, so these sites mispredict at a large multiple of an
            // ordinary biased branch.
            let flip_rate = 10f64.powf(rng.gen_range(-3.3f64..-1.7));
            let bias = rng.gen_range(0.72..0.90);
            return Behavior::InputEntropy { flip_rate, bias };
        }
        u -= self.h2p.timing;
        if u < 0.0 {
            // Short-to-medium loops whose exit jitters by about as much
            // as the base trip count.
            let base_trip = 2f64.powf(rng.gen_range(1.0f64..4.5)).round() as u32;
            let jitter = rng.gen_range(1..=base_trip.max(2));
            return Behavior::TimingJitter { base_trip, jitter };
        }
        Behavior::Random
    }
}

impl Default for BehaviorMix {
    fn default() -> Self {
        Self::default_integer()
    }
}

/// Specification of a synthetic benchmark program.
///
/// # Example
///
/// ```
/// use ev8_workloads::{BehaviorMix, ProgramSpec};
///
/// let spec = ProgramSpec {
///     name: "demo".into(),
///     seed: 1,
///     static_branches: 64,
///     instructions: 100_000,
///     branch_density: 120.0,
///     mix: BehaviorMix::default_integer(),
///     hotness_skew: 0.8,
///     call_fraction: 0.1,
///     noise: 0.5,
///     chain_length_bias: 0.6,
/// };
/// let trace = spec.generate();
/// assert!(trace.instruction_count() >= 100_000);
/// ```
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    /// Benchmark name (becomes the trace name).
    pub name: String,
    /// RNG seed; the same spec always generates the same trace.
    pub seed: u64,
    /// Number of static conditional branch sites.
    pub static_branches: usize,
    /// Target dynamic instruction count (the walk stops at the first
    /// record boundary at or beyond it).
    pub instructions: u64,
    /// Conditional branches per 1000 instructions (Table 2's density).
    pub branch_density: f64,
    /// Behaviour archetype mix.
    pub mix: BehaviorMix,
    /// Zipf exponent for chain hotness (0 = uniform, ~1 = realistic).
    pub hotness_skew: f64,
    /// Fraction of chains ending in a call (matched by returns).
    pub call_fraction: f64,
    /// Irreducible unpredictability in `[0, 1]` (see
    /// [`BehaviorMix`]'s sampling): ~0.15 for very predictable codes
    /// (vortex-like), ~1.0 for hard ones (go-like).
    pub noise: f64,
    /// Branch clustering in `[0, 1]`: how long the straight-line chains
    /// of conditional branches are. Longer chains put several branches in
    /// one aligned fetch block, raising Table 3's lghist compression
    /// ratio (go ≈ 1.12 wants ~0.2; vortex ≈ 1.59 wants ~0.95).
    pub chain_length_bias: f64,
}

impl ProgramSpec {
    /// Generates the trace for this spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (`static_branches == 0`,
    /// non-positive density, or an empty behaviour mix).
    pub fn generate(&self) -> Trace {
        generate(self)
    }

    /// Generates a trace scaled to `scale × instructions` (e.g. `0.1` for
    /// a fast test run of a 100M-instruction spec).
    pub fn generate_scaled(&self, scale: f64) -> Trace {
        assert!(scale > 0.0, "scale must be positive");
        let mut spec = self.clone();
        spec.instructions = ((self.instructions as f64) * scale).max(1.0) as u64;
        generate(&spec)
    }

    /// A stable 64-bit fingerprint of the *generator identity*: every
    /// spec field (floats by bit pattern) plus [`GENERATOR_VERSION`].
    ///
    /// Two specs generate the same trace only if their fingerprints
    /// match, so this is the key component that prevents a trace cached
    /// or persisted under one spec from shadowing a different spec that
    /// happens to share its `(name, seed, instructions)` triple — the
    /// latent collision the corpus catalog exposed. The trace cache and the
    /// corpus catalog both key on it.
    ///
    /// The hash is FNV-1a over a fixed little-endian field serialization;
    /// it depends only on the spec's values, never on pointer identity or
    /// process state, so fingerprints are comparable across runs and
    /// across machines.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&GENERATOR_VERSION.to_le_bytes());
        eat(self.name.as_bytes());
        eat(&[0]); // terminator so the name cannot bleed into the seed
        eat(&self.seed.to_le_bytes());
        eat(&(self.static_branches as u64).to_le_bytes());
        eat(&self.instructions.to_le_bytes());
        eat(&self.branch_density.to_bits().to_le_bytes());
        eat(&self.mix.biased.to_bits().to_le_bytes());
        eat(&self.mix.loops.to_bits().to_le_bytes());
        eat(&self.mix.patterns.to_bits().to_le_bytes());
        eat(&self.mix.correlated.to_bits().to_le_bytes());
        eat(&self.mix.random.to_bits().to_le_bytes());
        // The H2P extension is hashed only when present, so every spec
        // predating it (all of spec95) keeps its exact fingerprint —
        // cache keys, corpus catalog rows and golden fixtures stay
        // valid. The tag byte keeps an extended spec from colliding with
        // a classic one that happens to share a byte prefix.
        if self.mix.h2p != crate::program::H2pMix::NONE {
            eat(&[1]);
            eat(&self.mix.h2p.data_dependent.to_bits().to_le_bytes());
            eat(&self.mix.h2p.input_entropy.to_bits().to_le_bytes());
            eat(&self.mix.h2p.timing.to_bits().to_le_bytes());
        }
        eat(&self.hotness_skew.to_bits().to_le_bytes());
        eat(&self.call_fraction.to_bits().to_le_bytes());
        eat(&self.noise.to_bits().to_le_bytes());
        eat(&self.chain_length_bias.to_bits().to_le_bytes());
        h
    }
}

/// Version of the trace-generation *algorithm*. Bump this whenever a
/// change to the generator (behaviour sampling, layout, walk order)
/// alters the bytes a given [`ProgramSpec`] produces: fingerprints then
/// change, invalidating stale cache entries and corpus catalog rows
/// instead of letting them shadow regenerated traces.
pub const GENERATOR_VERSION: u32 = 1;

/// One static conditional branch site.
#[derive(Clone, Debug)]
struct Site {
    pc: Pc,
    target: Pc,
    gap_before: u32,
    behavior: Behavior,
    state: BehaviorState,
}

/// What happens when control falls off the end of a chain.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Suffix {
    /// Run straight into the next chain in layout order.
    Fallthrough,
    /// Unconditional jump to another chain.
    Jump { target_chain: usize },
    /// Call another chain (push the return address).
    Call { callee_chain: usize },
    /// Return to the most recent pushed address.
    Return,
}

/// A chain: consecutive sites plus a suffix event.
#[derive(Clone, Debug)]
struct Chain {
    first_site: usize,
    len: usize,
    entry: Pc,
    /// PC of the suffix instruction (if the suffix emits a record).
    suffix_pc: Pc,
    suffix: Suffix,
}

/// The compiled static program.
#[derive(Debug)]
struct Program {
    sites: Vec<Site>,
    chains: Vec<Chain>,
}

const CODE_BASE: u64 = 0x1_0000;
const MAX_CALL_DEPTH: usize = 16;

/// Long-run mean taken probability of an archetype (used to size chain
/// layouts and order sites within a chain).
fn mean_taken(b: &Behavior) -> f64 {
    match b {
        Behavior::Biased { taken_probability } => *taken_probability,
        Behavior::Loop { trip_count } => (*trip_count as f64 - 1.0) / (*trip_count as f64).max(1.0),
        Behavior::LocalPattern { pattern } => {
            pattern.iter().filter(|&&t| t).count() as f64 / pattern.len().max(1) as f64
        }
        Behavior::GlobalCorrelated { .. }
        | Behavior::PathCorrelated { .. }
        | Behavior::Random
        | Behavior::DataDependent { .. }
        | Behavior::InputEntropy { .. } => 0.5,
        Behavior::TimingJitter { base_trip, jitter } => {
            let t = *base_trip as f64 + *jitter as f64 / 2.0;
            (t - 1.0) / t.max(1.0)
        }
    }
}

fn build_program(spec: &ProgramSpec, rng: &mut DefaultRng) -> Program {
    assert!(spec.static_branches > 0, "need at least one static branch");
    assert!(spec.branch_density > 0.0, "branch density must be positive");

    // Mean straight-line gap to hit the requested density; 1.5 accounts
    // for the branch itself and amortized suffix instructions.
    let mean_gap = (1000.0 / spec.branch_density - 1.5).max(0.0);

    // Partition sites into chains; the chain-length bias controls branch
    // clustering (and thereby Table 3's lghist compression ratio).
    let bias = spec.chain_length_bias.clamp(0.0, 1.0);
    let mut chain_sizes = Vec::new();
    let mut remaining = spec.static_branches;
    while remaining > 0 {
        let span = 1.0 + 4.0 * bias;
        let len = ((rng.gen_f64() * span) as usize + 1)
            .clamp(1, 5)
            .min(remaining);
        chain_sizes.push(len);
        remaining -= len;
    }
    let n_chains = chain_sizes.len();
    let zipf = Zipf::new(n_chains, spec.hotness_skew);

    // Lay out chains contiguously; assign behaviours.
    let mut sites: Vec<Site> = Vec::with_capacity(spec.static_branches);
    let mut chains: Vec<Chain> = Vec::with_capacity(n_chains);
    let mut cursor = CODE_BASE;
    for &len in &chain_sizes {
        let first_site = sites.len();
        let entry = Pc::new(cursor);
        let mut behaviors: Vec<Behavior> =
            (0..len).map(|_| spec.mix.sample(rng, spec.noise)).collect();
        // Order sites by taken probability (guards first, loop back-edges
        // last): control usually falls *through* the early branches, so
        // tail sites still execute, and runs of not-taken branches share
        // fetch blocks. A loop back-edge must be last anyway — its taken
        // probability is the highest of the archetypes.
        behaviors.sort_by(|a, b| {
            mean_taken(a)
                .partial_cmp(&mean_taken(b))
                .expect("taken probabilities are finite")
        });
        // Gap layout: branches cluster at the chain tail (consecutive
        // compare-and-branch sequences) behind one leading straight-line
        // run. The leading run is sized from the *expected* number of
        // branches executed per chain entry (early taken exits skip the
        // tail), so the dynamic instruction/branch ratio meets the
        // density target.
        let mut gaps: Vec<u32> = vec![0; len];
        for g in gaps.iter_mut().skip(1) {
            *g = rng.gen_range(0..=2u32);
        }
        let mut p_reach = 1.0f64;
        let mut expected_branches = 0.0f64;
        let mut expected_shorts = 0.0f64;
        for (i, b) in behaviors.iter().enumerate() {
            expected_branches += p_reach;
            if i > 0 {
                expected_shorts += p_reach * gaps[i] as f64;
            }
            p_reach *= 1.0 - mean_taken(b);
        }
        let budget = (mean_gap * expected_branches - expected_shorts).round() as i64;
        gaps[0] = budget.clamp(0, 120) as u32;
        for (i, behavior) in behaviors.into_iter().enumerate() {
            let gap = gaps[i];
            let pc = Pc::new(cursor + 4 * gap as u64);
            cursor = pc.as_u64() + 4;
            let is_last = i == len - 1;
            let is_loop = matches!(behavior, Behavior::Loop { .. });
            let target = if is_last && is_loop {
                entry // back-edge
            } else {
                Pc::new(0) // patched below once all chains exist
            };
            sites.push(Site {
                pc,
                target,
                gap_before: gap,
                behavior,
                state: BehaviorState::default(),
            });
        }
        let suffix_pc = Pc::new(cursor);
        chains.push(Chain {
            first_site,
            len,
            entry,
            suffix_pc,
            suffix: Suffix::Fallthrough, // patched below
        });
        // Reserve the suffix slot; harmless if the suffix ends up as a
        // fallthrough (it reads as one pad instruction).
        cursor += 4;
    }

    // Patch suffixes and taken-branch targets now that chain entries are
    // known.
    let pick_chain = |rng: &mut DefaultRng, self_idx: usize| -> usize {
        let mut c = zipf.sample(rng);
        if c == self_idx {
            c = (c + 1) % n_chains;
        }
        c
    };
    for ci in 0..n_chains {
        let suffix = {
            let u: f64 = rng.gen_f64();
            if u < spec.call_fraction {
                Suffix::Call {
                    callee_chain: pick_chain(rng, ci),
                }
            } else if u < 2.0 * spec.call_fraction {
                Suffix::Return
            } else if u < 2.0 * spec.call_fraction + 0.3 {
                Suffix::Jump {
                    target_chain: pick_chain(rng, ci),
                }
            } else {
                Suffix::Fallthrough
            }
        };
        chains[ci].suffix = suffix;
        #[allow(clippy::needless_range_loop)] // indices also key `chains`
        for si in chains[ci].first_site..chains[ci].first_site + chains[ci].len {
            if sites[si].target == Pc::new(0) {
                let tc = pick_chain(rng, ci);
                sites[si].target = chains[tc].entry;
            }
        }
    }

    Program { sites, chains }
}

/// Finds which chain a PC is the entry of (for tests; linear scan).
#[cfg(test)]
fn chain_of_entry(program: &Program, pc: Pc) -> Option<usize> {
    program.chains.iter().position(|c| c.entry == pc)
}

/// Ground-truth archetype labels for every static conditional branch
/// site of `spec`'s compiled program: `(pc, behavior label)` in layout
/// order.
///
/// Program construction is deterministic from the spec's seed and
/// consumes the same RNG prefix as [`generate`], so the returned PCs are
/// exactly the conditional-branch PCs that appear in the generated
/// trace. This is the oracle the `h2p` experiment classifies
/// top-mispredicting branches against (labels as in
/// [`Behavior::label`]; H2P classes per `Behavior::label_is_h2p`).
pub fn site_labels(spec: &ProgramSpec) -> Vec<(u64, &'static str)> {
    let mut rng = DefaultRng::seed_from_u64(spec.seed);
    let program = build_program(spec, &mut rng);
    program
        .sites
        .iter()
        .map(|s| (s.pc.as_u64(), s.behavior.label()))
        .collect()
}

/// Generates the dynamic trace for a spec.
///
/// The walk starts at chain 0 and follows control flow: not-taken
/// branches fall through their chain, taken branches jump to the target
/// chain, suffix events (fallthrough / jump / call / return) route
/// control between chains. The walk ends at the first record at or beyond
/// the instruction budget.
///
/// # Panics
///
/// Panics on degenerate specs (see [`ProgramSpec::generate`]).
pub fn generate(spec: &ProgramSpec) -> Trace {
    let mut rng = DefaultRng::seed_from_u64(spec.seed);
    let mut program = build_program(spec, &mut rng);
    let n_chains = program.chains.len();
    // Taken branches look up their target chain on every dynamic branch;
    // precompute the entry-PC -> chain map.
    let entry_map: std::collections::HashMap<Pc, usize> = program
        .chains
        .iter()
        .enumerate()
        .map(|(i, c)| (c.entry, i))
        .collect();

    let mut builder = TraceBuilder::with_capacity(
        spec.name.clone(),
        (spec.instructions as f64 * spec.branch_density / 1000.0 * 1.3) as usize,
    );
    let mut global_history = 0u64;
    // One path bit per entered chain: a cheap digest of the control-flow
    // path, mirroring what one fetch block contributes to lghist.
    let mut path_history = 0u64;
    let mut call_stack: Vec<(usize, Pc)> = Vec::new();
    let mut chain_idx = 0usize;

    // A periodic "cold path" sweep guarantees the full static footprint is
    // exercised (real programs touch their cold branches during phase
    // changes): roughly 24 times per run, every chain gets one forced
    // visit, which leaves hot/cold skew intact but makes Table 2's static
    // branch counts observable (tail sites of a chain only execute when
    // the earlier sites fall through, so several visits are needed).
    let sweep_stride = (spec.instructions / (n_chains as u64 * 24 + 1)).max(200);
    let mut next_sweep_at = sweep_stride;
    let mut sweep_counter = 0usize;

    while builder.instruction_count() < spec.instructions {
        if builder.instruction_count() >= next_sweep_at {
            // Cold paths are reached through calls: the sweep calls into
            // the cold chain and returns to the interrupted hot chain,
            // so every sweep also exercises the call/return machinery.
            next_sweep_at += sweep_stride;
            let here = program.chains[chain_idx].clone();
            let cold = sweep_counter % n_chains;
            sweep_counter += 1;
            if call_stack.len() < MAX_CALL_DEPTH / 2 {
                builder.branch(BranchRecord::always_taken(
                    here.suffix_pc,
                    program.chains[cold].entry,
                    BranchKind::Call,
                ));
                call_stack.push((chain_idx, here.suffix_pc.next()));
            } else {
                // Stack already deep: visit the cold chain with a plain
                // jump so the sweep always makes progress.
                builder.branch(BranchRecord::always_taken(
                    here.suffix_pc,
                    program.chains[cold].entry,
                    BranchKind::Unconditional,
                ));
            }
            chain_idx = cold;
        }
        let chain = program.chains[chain_idx].clone();
        path_history = (path_history << 1) | chain.entry.bit(5);
        let mut taken_exit = false;
        for si in chain.first_site..chain.first_site + chain.len {
            let site = &mut program.sites[si];
            builder.run(site.gap_before as u64);
            let taken =
                site.behavior
                    .next_outcome(&mut site.state, global_history, path_history, &mut rng);
            builder.branch(BranchRecord::conditional(site.pc, site.target, taken));
            global_history = (global_history << 1) | taken as u64;
            if taken {
                // Follow the edge: loop back-edges re-enter this chain,
                // other targets enter their chain.
                let target = site.target;
                chain_idx = entry_map
                    .get(&target)
                    .copied()
                    .unwrap_or((chain_idx + 1) % n_chains);
                taken_exit = true;
                break;
            }
        }
        if taken_exit {
            continue;
        }
        // Fell off the chain end: run the suffix event.
        match chain.suffix {
            Suffix::Fallthrough => {
                // One pad instruction occupies the reserved suffix slot.
                builder.run(1);
                chain_idx = (chain_idx + 1) % n_chains;
            }
            Suffix::Jump { target_chain } => {
                builder.branch(BranchRecord::always_taken(
                    chain.suffix_pc,
                    program.chains[target_chain].entry,
                    BranchKind::Unconditional,
                ));
                chain_idx = target_chain;
            }
            Suffix::Call { callee_chain } => {
                if call_stack.len() >= MAX_CALL_DEPTH {
                    // Too deep: degrade to a jump.
                    builder.branch(BranchRecord::always_taken(
                        chain.suffix_pc,
                        program.chains[callee_chain].entry,
                        BranchKind::Unconditional,
                    ));
                } else {
                    builder.branch(BranchRecord::always_taken(
                        chain.suffix_pc,
                        program.chains[callee_chain].entry,
                        BranchKind::Call,
                    ));
                    // Return resumes at the chain after the caller.
                    let resume_chain = (chain_idx + 1) % n_chains;
                    call_stack.push((resume_chain, chain.suffix_pc.next()));
                }
                chain_idx = callee_chain;
            }
            Suffix::Return => {
                if let Some((resume_chain, resume_pc)) = call_stack.pop() {
                    builder.branch(BranchRecord::always_taken(
                        chain.suffix_pc,
                        resume_pc,
                        BranchKind::Return,
                    ));
                    // resume_pc is inside the resume chain's region; the
                    // walk restarts at that chain's entry (the skipped
                    // prefix is negligible and keeps the walk simple).
                    chain_idx = resume_chain;
                } else {
                    // Nothing to return to: fall through.
                    builder.run(1);
                    chain_idx = (chain_idx + 1) % n_chains;
                }
            }
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_trace::{FlatTrace, TraceStats};

    fn small_spec() -> ProgramSpec {
        ProgramSpec {
            name: "unit".into(),
            seed: 7,
            static_branches: 100,
            instructions: 200_000,
            branch_density: 120.0,
            mix: BehaviorMix::default_integer(),
            hotness_skew: 0.9,
            call_fraction: 0.1,
            noise: 0.6,
            chain_length_bias: 0.6,
        }
    }

    fn small_stats() -> TraceStats {
        TraceStats::from_trace(&FlatTrace::from_trace(&small_spec().generate()))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_spec().generate();
        let b = small_spec().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_spec().generate();
        let mut spec = small_spec();
        spec.seed = 8;
        let b = spec.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn instruction_budget_respected() {
        let t = small_spec().generate();
        assert!(t.instruction_count() >= 200_000);
        // Overshoot is at most one chain's worth of instructions.
        assert!(t.instruction_count() < 200_000 + 1000);
    }

    #[test]
    fn density_close_to_requested() {
        let stats = small_stats();
        let density = stats.branch_density();
        assert!(
            (density - 120.0).abs() < 40.0,
            "density {density} too far from 120"
        );
    }

    #[test]
    fn static_footprint_mostly_covered() {
        let stats = small_stats();
        assert!(
            stats.static_conditional as usize > 100 / 2,
            "only {} of 100 sites executed",
            stats.static_conditional
        );
        assert!(stats.static_conditional as usize <= 100);
    }

    #[test]
    fn hotness_is_skewed() {
        let stats = small_stats();
        let mut counts: Vec<u64> = stats.per_branch.values().map(|s| s.executions).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10: u64 = counts.iter().take(counts.len() / 10 + 1).sum();
        assert!(
            top10 as f64 > total as f64 * 0.2,
            "top 10% of branches should dominate: {top10}/{total}"
        );
    }

    #[test]
    fn trace_is_coherent_within_runs() {
        // Each record's straight-line run stays inside the code region.
        // The only exception is the wrap from the last chain back to
        // chain 0, whose fallthrough pad folds into the next record's
        // gap — allow a few instructions of slack for it.
        let t = small_spec().generate();
        for rec in t.iter() {
            let run_start = rec.pc.as_u64() as i64 - 4 * rec.gap as i64;
            assert!(
                run_start >= CODE_BASE as i64 - 64,
                "run start {run_start:#x} far below code base"
            );
            assert!(rec.pc.as_u64() >= CODE_BASE, "branch below code base");
        }
    }

    #[test]
    fn calls_and_returns_present_and_bounded() {
        let stats = small_stats();
        let calls = stats.per_kind.get(&BranchKind::Call).copied().unwrap_or(0);
        let rets = stats
            .per_kind
            .get(&BranchKind::Return)
            .copied()
            .unwrap_or(0);
        assert!(calls > 0, "expected some calls");
        assert!(rets > 0, "expected some returns");
        assert!(rets <= calls, "returns cannot exceed calls");
    }

    #[test]
    fn scaled_generation_shrinks() {
        let full = small_spec().generate();
        let tenth = small_spec().generate_scaled(0.1);
        assert!(tenth.instruction_count() < full.instruction_count() / 5);
        assert!(tenth.instruction_count() >= 20_000);
    }

    #[test]
    fn taken_rate_is_plausible() {
        let stats = small_stats();
        let rate = stats.taken_rate();
        assert!(
            rate > 0.25 && rate < 0.85,
            "conditional taken rate {rate} implausible"
        );
    }

    #[test]
    fn loop_back_edges_target_their_chain_entry() {
        let mut rng = DefaultRng::seed_from_u64(3);
        let spec = small_spec();
        let program = build_program(&spec, &mut rng);
        let mut checked = 0;
        for chain in &program.chains {
            let last = &program.sites[chain.first_site + chain.len - 1];
            if matches!(last.behavior, Behavior::Loop { .. }) {
                assert_eq!(last.target, chain.entry);
                checked += 1;
            }
        }
        assert!(checked > 0, "expected at least one loop chain");
    }

    #[test]
    fn site_targets_are_chain_entries() {
        let mut rng = DefaultRng::seed_from_u64(3);
        let spec = small_spec();
        let program = build_program(&spec, &mut rng);
        for site in &program.sites {
            assert!(
                chain_of_entry(&program, site.target).is_some(),
                "site target {} is not a chain entry",
                site.target
            );
        }
    }

    #[test]
    #[should_panic(expected = "need at least one static branch")]
    fn zero_branches_rejected() {
        let mut spec = small_spec();
        spec.static_branches = 0;
        spec.generate();
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        small_spec().generate_scaled(0.0);
    }
}
