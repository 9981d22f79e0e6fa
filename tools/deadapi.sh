#!/usr/bin/env bash
# Engine API that only tests reach (ROADMAP item 19).
#
#   tools/deadapi.sh               the list
#   tools/deadapi.sh --self-test   plants two test-only `pub fn`s, one
#                                  named like a field it reads, in a
#                                  copy of HEAD; exits 1 once the list
#                                  has both
#
# Prints `path:line: name` for each `pub` or `pub(crate)` fn of the
# engine crates of tools/loc.sh that nothing outside test code calls,
# and exits 0 either way. Test code is loc.sh's: `#[cfg(test)]` items
# and every file under a `tests/` or `benches/` directory. Everything
# else in crates/, examples/ and perf/src counts as a caller, comments
# and string literals aside. A call is the name before `(` or `::<`,
# or after `::` (a path, or a fn passed by path); a field or a local of
# the same name is not one. The match is by name, not by type: a
# method that shares its name with a called fn is not listed, and a
# listed name has to be checked by hand.
#
# A name in KEEP below is printed with its reason after `# KEEP:`;
# every other line of the list is a finding, and so is a KEEP name the
# list no longer has.
set -euo pipefail

engine="common storage wal locks net core rt sim"

# `name reason`: a paper feature, or a fixture another crate's tests
# need, that only tests reach. At most six.
KEEP='
with_standby paper §2.3 standby-coordinated recovery, pinned by tests/mc_compositions.rs standby_torn_interrupted_recovery_converges
free_page paper §2.1 PSN floor of a reallocated page, pinned by tests/persistence.rs database_space_map_persists_across_alloc_free_cycles
fail_next_syncs fsync-failure fixture of rt a_failed_force_fails_the_run_acks_nothing_and_recovers_to_before_the_batch
locked_pages ShardedLockTable accessor of rt a_lock_lives_at_its_owner and core tests/alloc_budget.rs; ROADMAP item 17 deletes the table
shuffle Rng fixture of crates/access/tests/btree.rs insert_get_matches_btreemap_through_splits
busy SimClock service total the bucket partition is checked against, in simclock buckets_partition_busy_time and tracedump folded_stack_sums_to_total_simulated_time_per_node
'

if [ "${1:-}" = --self-test ]; then
    cd "$(dirname "$0")/.."
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive HEAD -- crates tests examples perf/src | tar -x -C "$tmp"
    mkdir -p "$tmp/tools"
    cp "$0" "$tmp/tools/deadapi.sh"
    cat >>"$tmp/crates/common/src/lib.rs" <<'EOF'

/// Planted by `tools/deadapi.sh --self-test`.
pub struct DeadapiPlanted {
    /// Read by `deadapi_planted_probe`, so the name occurs outside tests.
    pub deadapi_planted_field: u32,
}

impl DeadapiPlanted {
    /// Planted: shares its name with the field.
    pub fn deadapi_planted_field(&self) -> u32 {
        self.deadapi_planted_field
    }
}

/// Planted by `tools/deadapi.sh --self-test`.
pub fn deadapi_planted_probe() -> u32 {
    DeadapiPlanted {
        deadapi_planted_field: 7,
    }
    .deadapi_planted_field
}

#[cfg(test)]
mod deadapi_planted {
    #[test]
    fn probe() {
        let p = super::DeadapiPlanted {
            deadapi_planted_field: super::deadapi_planted_probe(),
        };
        assert_eq!(p.deadapi_planted_field(), 7);
    }
}
EOF
    list=$(bash "$tmp/tools/deadapi.sh")
    if grep -q '^crates/common/src/lib.rs:[0-9]*: deadapi_planted_probe$' <<<"$list" &&
        grep -q '^crates/common/src/lib.rs:[0-9]*: deadapi_planted_field$' <<<"$list"; then
        echo "planted test-only pub fn caught"
        exit 1
    fi
    echo "ERROR: the list missed a planted test-only pub fn" >&2
    echo "$list" >&2
    exit 0
fi

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# `FILE<TAB>LINE<TAB>TEXT` for every line outside test code, with
# char and string literals and `//` comments cut out.
find crates tests examples perf/src -name '*.rs' -not -path '*/target/*' 2>/dev/null | LC_ALL=C sort |
    xargs awk -v q="'" '
    FNR == 1 {
        whole = FILENAME ~ /(^|\/)(tests|benches)\//
        depth = 0; intest = 0; opened = 0; inraw = 0
    }
    whole { next }
    {
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
        if (!intest && line ~ /^[ \t]*#\[cfg\(test\)\]/) { intest = 1; depth = 0; opened = 0 }
        if (!intest) { printf "%s\t%d\t%s\n", FILENAME, FNR, line; next }
        o = gsub(/[{]/, "{", line); c = gsub(/[}]/, "}", line)
        depth += o - c
        if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) intest = 0
    }' >"$tmp/code"

awk -F '\t' -v engine="$engine" -v keep="$KEEP" '
    BEGIN {
        n = split(engine, e, " ")
        for (i = 1; i <= n; i++) is_engine["crates/" e[i] "/"] = 1
        n = split(keep, k, "\n")
        for (i = 1; i <= n; i++) {
            if (k[i] !~ /[^ ]/) continue
            name = k[i]; sub(/ .*/, "", name)
            why = k[i]; sub(/^[^ ]+ +/, "", why)
            reason[name] = why
        }
    }
    {
        text = $3
        # Calls of each word: before `(` or `::<`, or after `::`. A
        # `fn word` definition is not a call of it.
        pos = 1
        while (match(substr(text, pos), /[A-Za-z_][A-Za-z0-9_]*/)) {
            at = pos + RSTART - 1
            word = substr(text, at, RLENGTH)
            pos = at + RLENGTH
            before = substr(text, 1, at - 1)
            if (before ~ /(^|[^A-Za-z0-9_])fn[ \t]+$/) continue
            if (before ~ /::$/ || substr(text, pos) ~ /^(\(|::<)/) called[word]++
        }
        crate = $1; sub(/src\/.*/, "", crate)
        if (!(crate in is_engine)) next
        if (match(text, /^[ \t]*pub(\((crate|super)\))?[ \t]+((const|async|unsafe)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(text, RSTART, RLENGTH); sub(/.*fn[ \t]+/, "", def)
            where[++npub] = $1 ":" $2; pubname[npub] = def
        }
    }
    END {
        for (i = 1; i <= npub; i++) {
            name = pubname[i]
            if (called[name]) continue
            if (name in reason) {
                printf "%s: %s  # KEEP: %s\n", where[i], name, reason[name]
                listed[name] = 1
            } else printf "%s: %s\n", where[i], name
        }
        for (name in reason)
            if (!(name in listed)) printf "tools/deadapi.sh: %s  stale KEEP entry\n", name
    }' "$tmp/code"
