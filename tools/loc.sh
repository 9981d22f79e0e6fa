#!/usr/bin/env bash
# Line ledger of the Rust workspace (ROADMAP item 12).
#
#   tools/loc.sh [REV]     per-crate table of REV (default HEAD)
#   tools/loc.sh A B       the two tables side by side, with B - A
#
# Counts the committed `.rs` files under crates/, tests/ and examples/.
# `code` and `test` are non-blank lines that are not `//` comments;
# `test` holds the lines of `#[cfg(test)]` items (from the attribute
# to the close of the item) and of every file under a `tests/` or
# `benches/` directory, `code` the rest. `raw` is every line. `engine`
# sums the crates whose non-test lines item 12 targets; `crates` sums
# every crate; `all` adds the root tests/ and examples/. `docs` is the
# prose: its `code` counts the non-blank lines of every committed `.md`
# file, its `raw` all of their lines.
set -euo pipefail

usage() {
    sed -n '2,6p' "$0" >&2
    exit 2
}

[ $# -le 2 ] || usage
cd "$(dirname "$0")/.."
engine="common storage wal locks net core rt sim"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Prints `row code test raw` lines for revision $1.
count() {
    local rev=$1 dir
    dir="$tmp/$(git rev-parse --short "$rev")"
    mkdir -p "$dir"
    git archive "$rev" -- crates tests examples | tar -x -C "$dir"
    {
        git ls-tree -r --name-only "$rev" | grep '\.md$' | while read -r f; do
            git show "$rev:$f"
        done | awk '{ raw++ } /[^ \t]/ { n++ } END { printf "~docs %d 0 %d\n", n, raw }'
        (cd "$dir" && find crates tests examples -name '*.rs' | sort |
        xargs awk -v engine="$engine" -v q="'" '
        FNR == 1 {
            split(FILENAME, p, "/")
            row = p[1] == "crates" ? p[2] : p[1]
            rows[row] = 1
            whole = FILENAME ~ /(^|\/)(tests|benches)\//
            depth = 0; intest = 0; opened = 0; inraw = 0
        }
        { raw[row]++ }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        {
            if (!intest && $0 ~ /^[ \t]*#\[cfg\(test\)\]/) { intest = 1; depth = 0; opened = 0 }
            if (whole || intest) test[row]++; else code[row]++
            if (!intest) next
            # Brace depth of the test item, outside char and string
            # literals (raw strings may span lines).
            line = $0
            if (inraw) {
                if (!match(line, /"#/)) next
                line = substr(line, RSTART + 2); inraw = 0
            }
            gsub(q "\\\\?." q, "", line)
            gsub(/r#+"([^"]|"[^#])*"#+/, "", line)
            if (match(line, /r#+"/)) { line = substr(line, 1, RSTART - 1); inraw = 1 }
            gsub(/"([^"\\]|\\.)*"/, "", line)
            sub(/\/\/.*/, "", line)
            o = gsub(/[{]/, "{", line); c = gsub(/[}]/, "}", line)
            depth += o - c
            if (o > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) intest = 0
        }
        END {
            n = split(engine, e, " ")
            for (i = 1; i <= n; i++) is_engine[e[i]] = 1
            for (r in rows) {
                printf "%s %d %d %d\n", r, code[r], test[r], raw[r]
                if (r == "tests" || r == "examples") grp = ""
                else {
                    grp = "crates"
                    if (r in is_engine) { ec += code[r]; et += test[r]; er += raw[r] }
                }
                if (grp != "") { cc += code[r]; ct += test[r]; cr += raw[r] }
                ac += code[r]; at += test[r]; ar += raw[r]
            }
            printf "~engine %d %d %d\n~crates %d %d %d\n~all %d %d %d\n", ec, et, er, cc, ct, cr, ac, at, ar
        }')
    } | LC_ALL=C sort
}

if [ $# -le 1 ]; then
    count "${1:-HEAD}" | awk '
        BEGIN { printf "%-10s %7s %7s %7s\n", "crate", "code", "test", "raw" }
        { sub(/^~/, "", $1); printf "%-10s %7d %7d %7d\n", $1, $2, $3, $4 }'
    exit 0
fi

count "$1" >"$tmp/a"
count "$2" >"$tmp/b"
LC_ALL=C join -a 1 -a 2 -e 0 -o 0,1.2,1.3,1.4,2.2,2.3,2.4 "$tmp/a" "$tmp/b" | awk '
    BEGIN {
        printf "%-10s %7s %7s %7s  %7s %7s %7s  %7s\n",
            "crate", "code A", "code B", "delta", "test A", "test B", "delta", "raw d"
    }
    {
        sub(/^~/, "", $1)
        printf "%-10s %7d %7d %+7d  %7d %7d %+7d  %+7d\n", $1, $2, $5, $5 - $2, $3, $6, $6 - $3, $7 - $4
    }'
