#!/usr/bin/env bash
# Alternating parent/change pairs of the repo's benchmark (ROADMAP:
# "a gain is ten alternating parent/change pairs").
#
#   tools/pairs.sh PARENT CHANGE [-w W1,W2,..] [-p PAIRS] [-s SECONDS] [-b SEED_BASE]
#
# PARENT and CHANGE are two checkouts of this repository. Each side's
# perf/ package is built from its own sources (a no-op when current) and
# its perf/target/release/cblog-perf is run as the driver runs it, one
# workload at a time: pair i uses seed SEED_BASE+i on both sides, and
# the parent runs first on odd pairs, the change on even ones. A run
# that is not `correct` with `failed` 0 stops the script.
#
# Each workload's header names both checkouts' short commits and the
# host's `nproc`. Per workload and end-to-end metric of CHANGE's
# BENCHMARK.json it prints both medians, their ratio (change/parent),
# the parent's quartile distance as a share of its median, the pairs
# the change won (ties count for neither), and a verdict: `unresolved`
# where the parent's own spread exceeds the metric's bound (then no
# median says anything), `worse` where the change's median is worse by
# more than the bound, `better` where it wins at least nine pairs in
# ten with the medians further apart than the parent's quartiles, else
# `same`.
# Defaults: every workload, 10 pairs, 10 s, seeds from 100.
set -euo pipefail

usage() {
    sed -n '2,6p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workloads= pairs=10 seconds=10 base=100
while getopts "w:p:s:b:" opt; do
    case $opt in
    w) workloads=${OPTARG//,/ } ;;
    p) pairs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    b) base=$OPTARG ;;
    *) usage ;;
    esac
done

bench="$change/BENCHMARK.json"
[ -n "$workloads" ] || workloads=$(awk '
    /"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); print $2 }' "$bench")
# name, direction, bound of every end-to-end metric.
gates=$(awk '
    /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }' "$bench")

for side in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$side/perf/Cargo.toml"
done
# What a pasted table compared: each checkout's commit (`-dirty` when
# what the benchmark builds, its sources under crates/ and perf/ and the
# workspace manifest and lock, has uncommitted changes) and the host's
# processor count. An edit to a document marks nothing.
commit_of() {
    local head
    head=$(git -C "$1" rev-parse --short HEAD 2>/dev/null) || {
        echo unknown
        return
    }
    if [ -n "$(git -C "$1" status --porcelain -- crates perf Cargo.toml Cargo.lock)" ]; then
        head="$head-dirty"
    fi
    echo "$head"
}
sides="parent $(commit_of "$parent"), change $(commit_of "$change"), nproc $(nproc)"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run of workload $2 with seed $3 on the checkout $1, its metrics
# appended to $out/<side>.<workload>.<metric>, one value a line.
run() {
    local side=$1 workload=$2 seed=$3 tag=$4 json
    json=$("${CARGO_TARGET_DIR:-$side/perf/target}/release/cblog-perf" --dir "$side/perf" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    case $json in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
        echo "pairs.sh: $tag run of $workload, seed $seed, is not correct with 0 failed:" >&2
        echo "$json" >&2
        exit 1
        ;;
    esac
    echo "$json" | grep -o '"[a-z0-9_]*": {"value": [^,]*' |
        while read -r name _ value; do
            name=${name//[\":]/}
            echo "$value" >>"$out/$tag.$workload.$name"
        done
}

for workload in $workloads; do
    for i in $(seq 1 "$pairs"); do
        seed=$((base + i))
        if [ $((i % 2)) -eq 1 ]; then
            run "$parent" "$workload" "$seed" parent
            run "$change" "$workload" "$seed" change
        else
            run "$change" "$workload" "$seed" change
            run "$parent" "$workload" "$seed" parent
        fi
    done
    echo "== $workload: $pairs pairs, $seconds s each, seeds $((base + 1))..$((base + pairs)); $sides"
    printf '%-22s %14s %14s %7s %10s %6s  %s\n' metric parent change ratio p-iqr/med won verdict
    echo "$gates" | while read -r name better bound; do
        paste "$out/parent.$workload.$name" "$out/change.$workload.$name" |
            awk -v name="$name" -v better="$better" -v bound="$bound" '
            # Quantile q of the n sorted values v[1..n], interpolated.
            function quantile(v, n, q,    h, lo) {
                h = (n - 1) * q + 1; lo = int(h)
                return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                    }
            }
            {
                n++; p[n] = $1; c[n] = $2
                if (better == "higher" ? $2 > $1 : $2 < $1) won++
            }
            END {
                sorted(p, ps, n); sorted(c, cs, n)
                pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
                spread = pm != 0 ? iqr / pm : 0
                gain = better == "higher" ? cm - pm : pm - cm
                if (spread > bound) verdict = "unresolved"
                else if (pm != 0 && -gain / pm > bound) verdict = "worse"
                else if (won * 10 >= n * 9 && gain > iqr) verdict = "better"
                else verdict = "same"
                printf "%-22s %14.8g %14.8g %7.3f %9.1f%% %3d/%-2d  %s\n",
                    name, pm, cm, pm != 0 ? cm / pm : 0, 100 * spread, won, n, verdict
            }'
    done
done
