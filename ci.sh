#!/usr/bin/env sh
# Offline CI gate: everything runs from the vendored toolchain and the
# in-repo code — no network, no crates.io. Run before every push.
set -eu

cd "$(dirname "$0")"

# The terminal's stderr, for a step whose own stderr goes to a file.
exec 3>&2

# Runs "$@" under a wall-clock limit of $1 seconds, named $2 in the
# error a hang prints: a hang fails CI instead of stalling it. Each
# limit is several times the step's measured wall time (CHANGES.md).
limited() {
    limit=$1
    name=$2
    shift 2
    status=0
    timeout -k 10 "$limit" "$@" || status=$?
    if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
        echo "ERROR: $name did not finish within its ${limit}s limit" >&3
    fi
    return "$status"
}

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
limited 600 "cargo test" cargo test -q --offline

echo "==> E1b group-commit experiment (BENCH_e1_groupcommit.json)"
cargo run --release --offline -p cblog-bench --bin experiments -- \
    --json --only e1b > BENCH_e1_groupcommit.json

echo "==> E1c adaptive group-commit experiment (BENCH_e1c_adaptive.json)"
cargo run --release --offline -p cblog-bench --bin experiments -- \
    --json --only e1c > BENCH_e1c_adaptive.json

echo "==> E7 fault-injection experiment (BENCH_e7_faults.json)"
cargo run --release --offline -p cblog-bench --bin experiments -- \
    --json --only e7b > BENCH_e7_faults.json

echo "==> E8b trace-overhead experiment (BENCH_e8_trace_overhead.json)"
cargo run --release --offline -p cblog-bench --bin experiments -- \
    --json --only e8b > BENCH_e8_trace_overhead.json

echo "==> E9b parallel-recovery experiment (BENCH_e9_parallel_recovery.json)"
cargo run --release --offline -p cblog-bench --bin experiments -- \
    --json --only e9b > BENCH_e9_parallel_recovery.json

echo "==> perf-regression gate (BASELINES.json)"
cargo run --release --offline -p cblog-bench --bin experiments -- \
    --check-baselines BASELINES.json

echo "==> perf-regression gate rejects an injected regression"
# Self-test of the gate itself: perturb one pinned value and assert
# the check exits nonzero. Without this, a gate that silently passes
# everything would look green forever.
sed 's/"expect": 0.125/"expect": 0.225/' BASELINES.json > /tmp/ci_perturbed_baselines.json
if cargo run --release --offline -p cblog-bench --bin experiments -- \
    --check-baselines /tmp/ci_perturbed_baselines.json > /dev/null 2>&1; then
    echo "ERROR: gate accepted a perturbed baseline" >&2
    exit 1
fi
rm -f /tmp/ci_perturbed_baselines.json

echo "==> tracedump smoke: watchdog-verified E5 lineage + Chrome JSON, rt lineage"
# Write to a file first, then grep the file: in a `cmd | grep` pipeline
# the pipeline's exit status is grep's, which would mask a nonzero exit
# from the dump itself (e.g. a watchdog violation).
cargo run --release --offline -p cblog-bench --bin tracedump -- \
    --scenario e5 > /tmp/ci_tracedump.txt
grep "replay-hop" /tmp/ci_tracedump.txt > /dev/null
cargo run --release --offline -p cblog-bench --bin tracedump -- \
    --scenario e5 --json > /tmp/ci_tracedump.json
grep '"traceEvents"' /tmp/ci_tracedump.json > /dev/null
# The threaded engine through the same printing path.
cargo run --release --offline -p cblog-bench --bin tracedump -- \
    --scenario rt > /tmp/ci_tracedump.txt
grep "replay-hop" /tmp/ci_tracedump.txt > /dev/null
rm -f /tmp/ci_tracedump.txt /tmp/ci_tracedump.json

echo "==> tracedump --folded smoke: per-node bucket profiles of both engines"
# Recovery charges the replay bucket on both engines; the threaded
# run profiles both of its workers.
cargo run --release --offline -p cblog-bench --bin tracedump -- \
    --scenario e5 --folded > /tmp/ci_folded.txt
grep ";replay " /tmp/ci_folded.txt > /dev/null
cargo run --release --offline -p cblog-bench --bin tracedump -- \
    --scenario rt --folded > /tmp/ci_folded.txt
grep "^rt;n0;" /tmp/ci_folded.txt > /dev/null
grep "^rt;n0;replay " /tmp/ci_folded.txt > /dev/null
grep "^rt;n1;" /tmp/ci_folded.txt > /dev/null
rm -f /tmp/ci_folded.txt

echo "==> crash-point model checker: bounded CI budget"
# Exhaustively enumerates the CI space (crash points x victim sets x
# torn-tail landings x recovery interruptions x one-step message
# schedules), pruning converged branches by durable-state fingerprint.
# Deterministic, a few thousand branches, seconds of wall clock; any
# violation prints a replayable branch spec and exits nonzero.
limited 60 "checker --ci" cargo run --release --offline -p cblog-bench --bin checker -- \
    --ci > /tmp/ci_checker.txt
grep "violations=0" /tmp/ci_checker.txt > /dev/null
grep "truncated=false" /tmp/ci_checker.txt > /dev/null
cat /tmp/ci_checker.txt
rm -f /tmp/ci_checker.txt

echo "==> crash-point model checker: must-fail self-test"
# Proves the checker can fail: recovery with the undo phase planted
# out must produce violations that shrink to a minimal counterexample.
# A checker that never fails would look green forever.
limited 60 "checker --self-test" cargo run --release --offline -p cblog-bench --bin checker -- \
    --self-test > /tmp/ci_checker_selftest.txt 2>&1
grep "planted undo-skip caught" /tmp/ci_checker_selftest.txt > /dev/null
rm -f /tmp/ci_checker_selftest.txt

echo "==> perf smoke: the benchmark's four workloads at small sizes (perf/run.sh --quick)"
# Structure, correctness and the contract with BENCHMARK.json (names,
# units, directions; zero failed share; one force per 16 commits and
# no message on the grouped pair) — not speed, which the driver
# measures against the parent commit.
bash perf/run.sh --quick > /tmp/ci_perf_quick.txt
rm -f /tmp/ci_perf_quick.txt

echo "==> perf smoke: must-fail self-test"
# One slot of the read-back oracle is falsified; a benchmark whose
# correctness check cannot fail would report every run correct.
if bash perf/run.sh --self-test > /tmp/ci_perf_selftest.txt 2>&1; then
    echo "ERROR: perf read-back accepted a planted corruption" >&2
    exit 1
fi
grep "planted corruption caught" /tmp/ci_perf_selftest.txt > /dev/null
rm -f /tmp/ci_perf_selftest.txt

echo "==> pairs smoke: the checkout against itself (tools/pairs.sh)"
# One pair, one second, one workload: the script builds, alternates,
# checks `correct` and `failed`, and prints a row per gated metric.
bash tools/pairs.sh . . -p 1 -s 1 -w grouped-mem > /tmp/ci_pairs.txt
grep "^commits_per_s " /tmp/ci_pairs.txt > /dev/null
grep "^setup_s .*/1 " /tmp/ci_pairs.txt > /dev/null
rm -f /tmp/ci_pairs.txt

echo "==> same smoke: the simulator's outputs against themselves (tools/same.sh)"
# Builds, runs and compares every deterministic output the script
# covers; a refactor runs it against its parent checkout.
bash tools/same.sh . . > /tmp/ci_same.txt
grep "^same checker-ci$" /tmp/ci_same.txt > /dev/null
rm -f /tmp/ci_same.txt

echo "==> line ledger of HEAD (tools/loc.sh) and the engine's code ceiling"
# The `engine` row's code lines may not exceed this ceiling. A PR may
# raise it only with a CHANGES.md line that says why; a PR that
# shrinks the engine lowers it to the count it leaves.
ENGINE_CODE_CEILING=12585
bash tools/loc.sh > /tmp/ci_loc.txt
cat /tmp/ci_loc.txt
engine_code=$(awk '$1 == "engine" { print $2 }' /tmp/ci_loc.txt)
rm -f /tmp/ci_loc.txt
# A row that does not parse fails too, so a format change cannot turn
# the gate into a pass.
case "$engine_code" in
    '' | *[!0-9]*)
        echo "ERROR: tools/loc.sh printed no numeric engine code row" >&2
        exit 1
        ;;
esac
if [ "$engine_code" -gt "$ENGINE_CODE_CEILING" ]; then
    echo "ERROR: engine code is $engine_code lines, over the ceiling of $ENGINE_CODE_CEILING" >&2
    exit 1
fi

echo "==> backticked names in DESIGN.md and README.md that name nothing (tools/docnames.sh)"
# A doc that cites a name the code no longer has fails the build.
bash tools/docnames.sh > /tmp/ci_docnames.txt
if [ -s /tmp/ci_docnames.txt ]; then
    cat /tmp/ci_docnames.txt >&2
    echo "ERROR: the docs name what the tree does not define" >&2
    exit 1
fi
rm -f /tmp/ci_docnames.txt

echo "==> engine pub fns that only tests reach (tools/deadapi.sh)"
# Every line must be a KEEP entry of the script, with its reason.
bash tools/deadapi.sh > /tmp/ci_deadapi.txt
cat /tmp/ci_deadapi.txt
if grep -v '  # KEEP: ' /tmp/ci_deadapi.txt >&2; then
    echo "ERROR: engine API that only tests reach (delete it, or see tools/deadapi.sh)" >&2
    exit 1
fi
rm -f /tmp/ci_deadapi.txt

echo "==> tools/deadapi.sh: must-fail self-test"
# A planted test-only pub fn must be listed; a list that cannot grow
# would pass forever.
if bash tools/deadapi.sh --self-test > /tmp/ci_deadapi_selftest.txt 2>&1; then
    cat /tmp/ci_deadapi_selftest.txt >&2
    echo "ERROR: tools/deadapi.sh missed a planted test-only pub fn" >&2
    exit 1
fi
grep "planted test-only pub fn caught" /tmp/ci_deadapi_selftest.txt > /dev/null
rm -f /tmp/ci_deadapi_selftest.txt

echo "==> rustdoc: every intra-doc link resolves (cargo doc, warnings denied)"
# A doc link to an item that moved, went private or was deleted fails
# the build instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings, every unsafe block and unsafe fn documented"
# Only cblog-common's CRC kernel may use `unsafe` (every other engine
# crate forbids it); each block there states why it is sound.
cargo clippy --all-targets --offline -- -D warnings \
    -D clippy::undocumented_unsafe_blocks -D clippy::missing_safety_doc

echo "CI OK"
