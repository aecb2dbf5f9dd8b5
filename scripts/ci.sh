#!/usr/bin/env bash
# Offline CI gate for the EV8 branch predictor reproduction.
#
# The build is hermetic — every dependency is an in-tree path crate — so
# this script must pass on a machine with no network access at all
# (--offline makes cargo fail fast instead of probing a registry).
#
#   scripts/ci.sh          # tier-1 + lints
#   scripts/ci.sh --quick  # skip the release build (debug test run only)
#
# Tier-1 (ROADMAP.md): cargo build --release && cargo test -q
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: scripts/ci.sh [--quick]" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

if [ "$QUICK" -eq 0 ]; then
    run cargo build --release --offline
fi
run cargo test -q --workspace --offline

# The heaviest tier-1 suite runs against a wall-clock budget. With the
# memoized trace provider and parallel fan-out it finishes in well under
# a minute; the generous default budget only trips on a real regression
# (e.g. the trace cache silently regenerating at every call site).
PAPER_SHAPES_BUDGET="${EV8_PAPER_SHAPES_BUDGET:-180}"
paper_shapes_start=$(date +%s)
run cargo test -q --test paper_shapes --offline
paper_shapes_elapsed=$(( $(date +%s) - paper_shapes_start ))
echo "==> paper_shapes wall-clock: ${paper_shapes_elapsed}s (budget ${PAPER_SHAPES_BUDGET}s)"
if [ "$paper_shapes_elapsed" -gt "$PAPER_SHAPES_BUDGET" ]; then
    echo "error: paper_shapes exceeded its ${PAPER_SHAPES_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# Robustness smoke, also budgeted: ten thousand fixed-seed trace
# corruptions through both decoders (far past the 256-mutation floor the
# fuzz contract requires) plus the SEU fault-injection campaign across
# three benchmarks. Every case replays from a literal seed, so a failure
# here is a one-line reproduction.
FAULTS_BUDGET="${EV8_FAULTS_BUDGET:-120}"
faults_start=$(date +%s)
run cargo test -q --test fault_injection --offline
faults_elapsed=$(( $(date +%s) - faults_start ))
echo "==> fault_injection wall-clock: ${faults_elapsed}s (budget ${FAULTS_BUDGET}s)"
if [ "$faults_elapsed" -gt "$FAULTS_BUDGET" ]; then
    echo "error: fault_injection exceeded its ${FAULTS_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# Observability smoke, budgeted like the suites above: the golden
# misprediction fixture (exact counters for every benchmark × predictor
# pair: EV8, gshare, bimodal and TAGE, then the Fig 5 families 2Bc-gskew
# 512 Kbit, bi-mode and YAGS 288 Kbit — re-bless intended changes with
# EV8_BLESS_GOLDEN=1) plus one
# pass of the attribution experiment at one-sample scale, which
# exercises the observed simulation loop end-to-end and asserts the
# reconciliation and §6 zero-collision invariants in-process.
OBSERVE_BUDGET="${EV8_OBSERVE_BUDGET:-120}"
observe_start=$(date +%s)
run cargo test -q --test golden_misp --offline
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin attribution
observe_elapsed=$(( $(date +%s) - observe_start ))
echo "==> observability wall-clock: ${observe_elapsed}s (budget ${OBSERVE_BUDGET}s)"
if [ "$observe_elapsed" -gt "$OBSERVE_BUDGET" ]; then
    echo "error: observability smoke exceeded its ${OBSERVE_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# Sweep-engine smoke, budgeted: the batched-vs-serial equivalence suite
# (drive over every record source and identity hook, simulate_many,
# simulate_gshare_sweep and windowed splices, bit-identical to serial
# over generated traces, including predictor write-accounting state)
# must stay cheap —
# it guards the sweep engine every experiment run leans on, so a budget
# blowout here means trace memoization or the batched hot loop regressed.
SWEEP_BUDGET="${EV8_SWEEP_BUDGET:-120}"
sweep_start=$(date +%s)
run cargo test -q --test batched_equivalence --offline
sweep_elapsed=$(( $(date +%s) - sweep_start ))
echo "==> batched_equivalence wall-clock: ${sweep_elapsed}s (budget ${SWEEP_BUDGET}s)"
if [ "$sweep_elapsed" -gt "$SWEEP_BUDGET" ]; then
    echo "error: batched_equivalence exceeded its ${SWEEP_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# Cross-generation smoke, budgeted: the TAGE property suite (tagged-table
# invariants under arbitrary streams, with literal-seed replay) plus one
# shootout pass at a small scale — bimodal/gshare/2Bc-gskew/TAGE at the
# EV8 bit budget through the unified predictor trait, the experiment the
# tage-beats-gshare acceptance gate lives in.
SHOOTOUT_BUDGET="${EV8_SHOOTOUT_BUDGET:-120}"
shootout_start=$(date +%s)
run cargo test -q --test tage_properties --offline
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin shootout
shootout_elapsed=$(( $(date +%s) - shootout_start ))
echo "==> shootout wall-clock: ${shootout_elapsed}s (budget ${SHOOTOUT_BUDGET}s)"
if [ "$shootout_elapsed" -gt "$SHOOTOUT_BUDGET" ]; then
    echo "error: shootout smoke exceeded its ${SHOOTOUT_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# Prediction-service smoke, budgeted: the chaos acceptance suite drives
# a live Unix-socket server with 16 well-behaved concurrent clients plus
# injected adversaries (seeded corrupt frame streams, truncated frames,
# mid-stream disconnects, slowloris writers) and asserts no panic, every
# stall reaped by the watchdog, healthy summaries bit-identical to the
# serial simulator, and a clean counter-reconciled drain. The suite
# finishes in a few seconds; the budget trips on supervision regressions
# that turn reaping or draining into waiting.
SERVER_BUDGET="${EV8_SERVER_BUDGET:-120}"
server_start=$(date +%s)
run cargo test -q --test server_chaos --offline
server_elapsed=$(( $(date +%s) - server_start ))
echo "==> server_chaos wall-clock: ${server_elapsed}s (budget ${SERVER_BUDGET}s)"
if [ "$server_elapsed" -gt "$SERVER_BUDGET" ]; then
    echo "error: server_chaos exceeded its ${SERVER_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# Corpus smoke, budgeted: the on-disk container's whole contract — the
# property roundtrip suite (arbitrary traces across chunk sizes), the
# golden byte-level format pin (re-bless intended format changes with
# EV8_BLESS_GOLDEN=1 after bumping CORPUS_VERSION), the corruption sweep
# (10k seeded body mutations, all caught by the chunk CRC), and the
# differential pipeline pin (streaming decode → simulate bit-identical
# to the in-RAM path, cache tier, server BEGIN_WORKLOAD end-to-end).
# Then the builder binary round-trips a real store on disk at smoke
# scale and re-verifies every chunk checksum through the catalog.
CORPUS_BUDGET="${EV8_CORPUS_BUDGET:-120}"
corpus_start=$(date +%s)
run cargo test -q -p ev8-trace --test corpus_roundtrip --offline
run cargo test -q --test corpus_format --offline
run cargo test -q --test corpus_corruption --offline
run cargo test -q --test corpus_pipeline --offline
corpus_smoke_dir="$PWD/target/corpus-smoke"
rm -rf "$corpus_smoke_dir"
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin corpus -- build "$corpus_smoke_dir"
run cargo run -q --release --offline -p ev8-bench --bin corpus -- verify "$corpus_smoke_dir"
rm -rf "$corpus_smoke_dir"
corpus_elapsed=$(( $(date +%s) - corpus_start ))
echo "==> corpus wall-clock: ${corpus_elapsed}s (budget ${CORPUS_BUDGET}s)"
if [ "$corpus_elapsed" -gt "$CORPUS_BUDGET" ]; then
    echo "error: corpus smoke exceeded its ${CORPUS_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# Sampling smoke, budgeted: the phase-sampling estimator's whole
# contract — the integration properties (seeded k-means determinism
# across threads, weights partitioning the intervals, the degenerate
# full-coverage config bit-identical to the serial simulator), the
# golden estimate fixture (re-bless intended estimator changes with
# EV8_BLESS_GOLDEN=1), and one pass of the H2P taxonomy study at smoke
# scale, which reconciles every per-PC histogram in-process.
SAMPLING_BUDGET="${EV8_SAMPLING_BUDGET:-120}"
sampling_start=$(date +%s)
run cargo test -q --test sampling_properties --offline
run cargo test -q --test golden_sampling --offline
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin h2p
sampling_elapsed=$(( $(date +%s) - sampling_start ))
echo "==> sampling wall-clock: ${sampling_elapsed}s (budget ${SAMPLING_BUDGET}s)"
if [ "$sampling_elapsed" -gt "$SAMPLING_BUDGET" ]; then
    echo "error: sampling smoke exceeded its ${SAMPLING_BUDGET}s wall-clock budget" >&2
    exit 1
fi

# The pipeline benchmark is its own package (own workspace and lock
# file) that builds against this repository's crates by path: its smoke
# tests fail here, not at benchmark time, when an API it imports changes.
run cargo test --offline -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# Benches are plain `fn main()` binaries on the in-tree harness: build
# them all, then smoke-run them at one sample per benchmark
# (EV8_BENCH_SAMPLES overrides per-group sample sizes, so this stays
# fast; EV8_BENCH_JSON keeps the smoke from overwriting the committed
# BENCH_sim.json numbers). Proper timing runs remain a manual step.
run cargo build --benches --offline
if [ "$QUICK" -eq 0 ]; then
    # cargo runs bench binaries from the package directory, so the
    # redirect path must be absolute.
    # EV8_SWEEP_SCALE drops the sweep bench to smoke-sized traces; the
    # recorded numbers in BENCH_sim.json come from a manual run at the
    # bench's default scale.
    # EV8_SHOOTOUT_SCALE likewise keeps the accuracy-recording shootout
    # group at smoke size.
    # EV8_CORPUS_SCALE keeps the corpus codec group at smoke size too.
    # EV8_SAMPLING_SCALE keeps the sampling accuracy grid at smoke size
    # (the acceptance envelope only asserts at scale >= 0.5).
    run env EV8_BENCH_SAMPLES=1 EV8_SWEEP_SCALE=0.02 EV8_SHOOTOUT_SCALE=0.002 \
        EV8_CORPUS_SCALE=0.002 EV8_SAMPLING_SCALE=0.002 \
        EV8_BENCH_JSON="$PWD/target/bench-smoke.json" \
        cargo bench --offline -p ev8-bench
    # One pass of the pipeline benchmark's Fig 5 grid at the calibrated
    # seed: run_grid over the whole roster at scale 0.2, every one of its
    # 48 cells checked exactly against the benchmark's reference.tsv.
    run cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        fig5_grid --seed 0 --seconds 1
fi

run cargo clippy --all-targets --offline -- -D warnings
run cargo clippy --all-targets --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- -D warnings
run cargo fmt --check
run cargo fmt --check --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "==> CI OK"
