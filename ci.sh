#!/usr/bin/env sh
# Offline CI gate: everything runs from the vendored toolchain and the
# in-repo code — no network, no crates.io. Run before every push.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

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

echo "==> obsreport smoke: self-contained HTML + folded stacks (OBS_e1.html)"
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --scenario e1 --out OBS_e1.html
grep '<svg' OBS_e1.html > /dev/null
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --scenario e1 --folded > /tmp/ci_obs_folded.txt
grep 'n0;disk ' /tmp/ci_obs_folded.txt > /dev/null
rm -f /tmp/ci_obs_folded.txt

echo "==> obsreport compare smoke: sim vs rt, one seeded workload"
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --compare --out /tmp/ci_obs_compare.html
grep 'Bucket shares' /tmp/ci_obs_compare.html > /dev/null
rm -f /tmp/ci_obs_compare.html

echo "==> crash-point model checker: bounded CI budget"
# Exhaustively enumerates the CI space (crash points x victim sets x
# torn-tail landings x recovery interruptions x one-step message
# schedules), pruning converged branches by durable-state fingerprint.
# Deterministic, a few thousand branches, seconds of wall clock; any
# violation prints a replayable branch spec and exits nonzero.
cargo run --release --offline -p cblog-bench --bin checker -- \
    --ci > /tmp/ci_checker.txt
grep "violations=0" /tmp/ci_checker.txt > /dev/null
grep "truncated=false" /tmp/ci_checker.txt > /dev/null
cat /tmp/ci_checker.txt
rm -f /tmp/ci_checker.txt

echo "==> crash-point model checker: must-fail self-test"
# Proves the checker can fail: recovery with the undo phase planted
# out must produce violations that shrink to a minimal counterexample.
# A checker that never fails would look green forever.
cargo run --release --offline -p cblog-bench --bin checker -- \
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

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "CI OK"
