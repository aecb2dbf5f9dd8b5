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
# Every test binary runs once, here. Without -q cargo names each binary
# ("Running tests/<name>.rs (...)") and libtest closes each with "test
# result: ... finished in <s>s"; the budgeted stages below read their
# suites' times from this log instead of running the suites again.
mkdir -p target
test_log="$PWD/target/ci-workspace-test.log"
echo "==> cargo test --workspace --offline"
cargo test --workspace --offline 2>&1 | tee "$test_log"

# stage_seconds <start> <test binary>...: the seconds libtest reported in
# the workspace run for the named integration-test binaries, plus the wall
# time since <start> (epoch seconds) that the stage's own smokes took.
# Fails if any named binary did not run.
stage_seconds() {
    local start=$1
    shift
    awk -v want="$*" -v smoke="$(($(date +%s) - start))" '
        BEGIN { n = split(want, names, " "); for (i = 1; i <= n; i++) wanted[names[i]] = 1 }
        /^ *Running / {
            cur = $2
            if (!(sub(/^tests\//, "", cur) && sub(/\.rs$/, "", cur) && cur in wanted)) cur = ""
            next
        }
        /^ *Doc-tests / { cur = ""; next }
        cur != "" && /^test result:/ && match($0, /finished in [0-9.]+s/) {
            total += substr($0, RSTART + 12, RLENGTH - 13)
            seen[cur] = 1
            cur = ""
        }
        END {
            for (i = 1; i <= n; i++) if (!(names[i] in seen)) {
                print "error: test binary " names[i] " missing from the workspace run" > "/dev/stderr"
                exit 1
            }
            printf "%.2f\n", total + smoke
        }' "$test_log"
}

# check_budget <stage> <budget s> <elapsed s>: fail the gate when a stage
# overruns its wall-clock budget.
check_budget() {
    echo "==> $1 wall-clock: $3s (budget $2s)"
    if awk -v t="$3" -v b="$2" 'BEGIN { exit !(t > b) }'; then
        echo "error: $1 exceeded its $2s wall-clock budget" >&2
        exit 1
    fi
}

# The heaviest tier-1 suite runs against a wall-clock budget. With the
# memoized trace provider and parallel fan-out it finishes in well under
# a minute; the generous default budget only trips on a real regression
# (e.g. the trace cache silently regenerating at every call site).
PAPER_SHAPES_BUDGET="${EV8_PAPER_SHAPES_BUDGET:-180}"
paper_shapes_elapsed=$(stage_seconds "$(date +%s)" paper_shapes)
check_budget paper_shapes "$PAPER_SHAPES_BUDGET" "$paper_shapes_elapsed"

# Robustness smoke, also budgeted: ten thousand fixed-seed corruptions
# of a session RECORDS payload through frame::decode_records — the wire
# record slice parser corpus chunks share, reached here with no CRC in
# front of it (far past the 256-mutation floor the fuzz contract
# requires) — plus the SEU fault-injection campaign across three
# benchmarks. Every case replays from a literal seed, so a failure here
# is a one-line reproduction. (That the slice parser returns exactly
# what its test-only io::Read twin returns, on the same ten thousand
# mutations and on mutated corpus chunks, is pinned by ev8-trace's unit
# tests in the workspace run above.)
FAULTS_BUDGET="${EV8_FAULTS_BUDGET:-120}"
faults_elapsed=$(stage_seconds "$(date +%s)" fault_injection)
check_budget fault_injection "$FAULTS_BUDGET" "$faults_elapsed"

# Observability smoke, budgeted like the suites above: the golden
# misprediction fixture (exact counters for every benchmark × predictor
# pair: EV8, gshare, bimodal and TAGE, then the Fig 5 families 2Bc-gskew
# 512 Kbit, bi-mode and YAGS 288 Kbit, then the other 2Bc-gskew
# geometries: Fig 5's 256 Kbit, the EV8-budget config, Fig 8's small
# BIM and Fig 10's 4×1M — re-bless intended changes with
# EV8_BLESS_GOLDEN=1) plus one
# pass of the attribution experiment at one-sample scale, which
# exercises the observed simulation loop end-to-end and asserts the
# reconciliation and §6 zero-collision invariants in-process.
OBSERVE_BUDGET="${EV8_OBSERVE_BUDGET:-120}"
observe_start=$(date +%s)
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin experiments -- attribution
observe_elapsed=$(stage_seconds "$observe_start" golden_misp)
check_budget "observability smoke" "$OBSERVE_BUDGET" "$observe_elapsed"

# Sweep-engine smoke, budgeted: the batched-vs-serial equivalence suite
# (drive over every record source and identity hook, simulate_many and
# simulate_gshare_sweep, bit-identical to serial over generated traces,
# including predictor write-accounting state)
# must stay cheap —
# it guards the sweep engine every experiment run leans on, so a budget
# blowout here means trace memoization or the batched hot loop regressed.
SWEEP_BUDGET="${EV8_SWEEP_BUDGET:-120}"
sweep_elapsed=$(stage_seconds "$(date +%s)" batched_equivalence)
check_budget batched_equivalence "$SWEEP_BUDGET" "$sweep_elapsed"

# Cross-generation smoke, budgeted: the TAGE property suite (tagged-table
# invariants under arbitrary streams, with literal-seed replay) plus one
# shootout pass at a small scale — bimodal/gshare/2Bc-gskew/TAGE at the
# EV8 bit budget through the unified predictor trait, the experiment the
# tage-beats-gshare acceptance gate lives in.
SHOOTOUT_BUDGET="${EV8_SHOOTOUT_BUDGET:-120}"
shootout_start=$(date +%s)
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin experiments -- shootout
shootout_elapsed=$(stage_seconds "$shootout_start" tage_properties)
check_budget "shootout smoke" "$SHOOTOUT_BUDGET" "$shootout_elapsed"

# Prediction-service smoke, budgeted: the chaos acceptance suite drives
# a live Unix-socket server with 16 well-behaved concurrent clients plus
# injected adversaries (seeded corrupt frame streams, truncated frames,
# mid-stream disconnects, slowloris writers) and asserts no panic, every
# stall reaped by the watchdog, healthy summaries bit-identical to the
# serial simulator, and a clean counter-reconciled drain. The suite
# finishes in a few seconds; the budget trips on supervision regressions
# that turn reaping or draining into waiting.
SERVER_BUDGET="${EV8_SERVER_BUDGET:-120}"
server_elapsed=$(stage_seconds "$(date +%s)" server_chaos)
check_budget server_chaos "$SERVER_BUDGET" "$server_elapsed"

# Corpus smoke, budgeted: the on-disk container's whole contract — the
# property roundtrip suite (arbitrary traces across chunk sizes), the
# golden byte-level format pin (re-bless intended format changes with
# EV8_BLESS_GOLDEN=1 after bumping CORPUS_VERSION), the corruption sweep
# (10k seeded body mutations, all caught by the slicing-by-8 chunk CRC
# before the block-copy LZ decoder or the slice parser runs), and the
# differential pipeline pin (streaming decode straight into packed
# blocks → simulate bit-identical to the in-RAM path, server
# BEGIN_WORKLOAD end-to-end). Then the builder binary round-trips a real
# store on disk at smoke scale and re-verifies every chunk checksum
# through the catalog.
CORPUS_BUDGET="${EV8_CORPUS_BUDGET:-120}"
corpus_start=$(date +%s)
corpus_smoke_dir="$PWD/target/corpus-smoke"
rm -rf "$corpus_smoke_dir"
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin corpus -- build "$corpus_smoke_dir"
run cargo run -q --release --offline -p ev8-bench --bin corpus -- verify "$corpus_smoke_dir"
rm -rf "$corpus_smoke_dir"
corpus_elapsed=$(stage_seconds "$corpus_start" corpus_roundtrip corpus_format corpus_corruption corpus_pipeline)
check_budget "corpus smoke" "$CORPUS_BUDGET" "$corpus_elapsed"

# Sampling smoke, budgeted: the phase-sampling estimator's whole
# contract — the integration properties (seeded k-means determinism
# across threads, weights partitioning the intervals, the degenerate
# full-coverage config bit-identical to the serial simulator), the
# golden estimate fixture (re-bless intended estimator changes with
# EV8_BLESS_GOLDEN=1), and one pass of the H2P taxonomy study at smoke
# scale, which reconciles every per-PC histogram in-process.
SAMPLING_BUDGET="${EV8_SAMPLING_BUDGET:-120}"
sampling_start=$(date +%s)
run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin experiments -- h2p
sampling_elapsed=$(stage_seconds "$sampling_start" sampling_properties golden_sampling)
check_budget "sampling smoke" "$SAMPLING_BUDGET" "$sampling_elapsed"

# The pipeline benchmark is its own package (own workspace and lock
# file) that builds against this repository's crates by path: its smoke
# tests fail here, not at benchmark time, when an API it imports changes.
run cargo test --offline -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# Benches are plain `fn main()` binaries on ev8_bench::measure: build
# them all, then smoke-run them at one sample per benchmark
# (EV8_BENCH_SAMPLES=1, so this stays fast; EV8_BENCH_JSON keeps the
# smoke from overwriting the committed BENCH_sim.json numbers). Proper
# timing runs remain a manual step.
run cargo build --benches --workspace --offline
if [ "$QUICK" -eq 0 ]; then
    # cargo runs bench binaries from the package directory, so the
    # redirect path must be absolute.
    # EV8_SCALE drops every other bench that takes a trace scale to
    # smoke-sized traces (the sampling group's acceptance envelope only
    # asserts at scale >= 0.5); the recorded numbers in BENCH_sim.json
    # come from manual runs at each bench's default scale.
    run env EV8_BENCH_SAMPLES=1 EV8_SCALE=0.002 \
        EV8_BENCH_JSON="$PWD/target/bench-smoke.json" \
        cargo bench --offline -p ev8-bench \
        --bench predictor_throughput --bench index_functions --bench sim_hot_loop \
        --bench sweep_batched --bench shootout --bench corpus --bench sampling
    # server_load checks each of its 8 sessions against the serial
    # simulation of its trace: it keeps its 0.02 scale (about 62 frames
    # per session) so the check covers many frames.
    run env EV8_BENCH_SAMPLES=1 EV8_SCALE=0.02 \
        EV8_BENCH_JSON="$PWD/target/bench-smoke.json" \
        cargo bench --offline -p ev8-bench --bench server_load
    # One pass of the pipeline benchmark's Fig 5 grid at the calibrated
    # seed: run_grid over the whole roster at scale 0.2, every one of its
    # 48 cells checked exactly against the benchmark's reference.tsv.
    run cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        fig5_grid --seed 0 --seconds 1
    # And one pass of its EV8 workload: the shipping predictor streamed
    # from an on-disk corpus at scale 0.2, all 8 cells checked against
    # reference.tsv and every benchmark checked for zero §6 bank
    # collisions (the goldens pin the EV8 only at scale 0.002).
    run cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        ev8_corpus --seed 0 --seconds 1
    # And one pass of its phase-sampling workload: simulate_sampled with
    # SamplingConfig::auto for the EV8, gshare and TAGE at the EV8 budget
    # over the suite at scale 0.2, all 24 estimates checked against
    # reference.tsv's full runs (instruction and branch counts exact,
    # mispredictions within half to double the full run's).
    run cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        sampled_suite --seed 0 --seconds 1
    # And one pass of its server workload: two closed-loop clients run
    # 400 gshare sessions against a live server over a Unix socket, every
    # session's summary checked against the serial simulation of its
    # trace, and the drain must count zero stalled and zero failed
    # sessions.
    run cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        server_gshare --seed 0 --seconds 1
    # Two examples run end to end, not only compile: the corpus file
    # round trip (asserts the reloaded trace equals the generated one)
    # and the front-end walkthrough (asserts zero successive-block bank
    # conflicts).
    run cargo run -q --release --offline --example custom_workload
    run cargo run -q --release --offline --example frontend_pipeline
fi

run cargo clippy --all-targets --workspace --offline -- -D warnings
run cargo clippy --all-targets --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- -D warnings
# Rustdoc over every member, warnings fatal: broken or private
# intra-doc links (the cross-crate ones included) fail here.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
run cargo fmt --check
run cargo fmt --check --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "==> CI OK"
