#!/usr/bin/env bash
# Byte-identity probe of the deterministic simulator between two
# checkouts (a refactor that claims "same behaviour" proves it here).
#
#   tools/same.sh PARENT CHANGE
#
# PARENT and CHANGE are two checkouts of this repository. Each side's
# cblog-bench binaries are built from its own sources (a no-op when
# current), then these outputs are compared: `experiments`,
# `experiments --json`, `tracedump --scenario e5|e6|e7` and
# `checker --ci` (with its ` in N.Ns` wall-clock suffix stripped).
# Prints `same <output>` or the diff for each, and exits 1 on any
# difference.
set -euo pipefail

[ $# -eq 2 ] || {
    sed -n '2,5p' "$0" >&2
    exit 2
}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

for side in "$parent" "$change"; do
    cargo build --release --offline --quiet -p cblog-bench --manifest-path "$side/Cargo.toml"
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Runs `$2 ...` from side $1's binaries, with the timing stripped.
run() {
    local side=$1 bin=$2
    shift 2
    "$side/target/release/$bin" "$@" | sed -E 's/ in [0-9.]+s$//'
}

status=0
while read -r name bin args; do
    # shellcheck disable=SC2086 # $args is a word list
    run "$parent" "$bin" $args > "$tmp/parent"
    # shellcheck disable=SC2086
    run "$change" "$bin" $args > "$tmp/change"
    if cmp -s "$tmp/parent" "$tmp/change"; then
        echo "same $name"
    else
        echo "DIFFERS $name"
        diff "$tmp/parent" "$tmp/change" | head -40 || true
        status=1
    fi
done <<'EOF'
experiments experiments
experiments-json experiments --json
tracedump-e5 tracedump --scenario e5
tracedump-e6 tracedump --scenario e6
tracedump-e7 tracedump --scenario e7
checker-ci checker --ci
EOF
exit $status
