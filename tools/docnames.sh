#!/usr/bin/env bash
# Stale names in the docs (ROADMAP item 15).
#
#   tools/docnames.sh [DOC..]     default: DESIGN.md README.md
#
# Prints `DOC:LINE: name` for each backticked name in the docs that
# names nothing in the tree, and exits 0 either way. A span is checked
# when it has no space and looks like one of:
#
#   - a file: `x.rs`, `dir/x.rs`, `dir/x.rs:12` or `dir/x.rs::test`;
#     some file of the tree must end in that path;
#   - a path `crate::module::item` (first segment a workspace crate,
#     bare or as `cblog_x`, or a module of one) or `Type::member`;
#     every segment must be defined in the Rust sources: an fn,
#     struct, enum, trait, type, mod, const, static, macro, enum
#     variant, field or source file of that name;
#   - a bare `snake_case_name` (with an underscore) or `CamelCase`
#     name; the word must occur in some file of the tree that is not
#     Markdown.
#
# A trailing call, `name(..)`, is dropped first; fenced code blocks
# are not read. A path whose first segment the tree uses but does not
# define (`std::arch`, `Instant::now`) is outside it and not checked.
set -euo pipefail

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- DESIGN.md README.md

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git ls-files --cached --others --exclude-standard | LC_ALL=C sort -u >"$tmp/files"
grep '\.rs$' "$tmp/files" >"$tmp/rs"
ls crates >"$tmp/crates"

# Every name a Rust source defines, plus every source file's stem.
{
    xargs cat <"$tmp/rs" |
        grep -oE '\b(fn|struct|enum|trait|type|mod|const|static|union)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*|macro_rules![[:space:]]*[A-Za-z_][A-Za-z0-9_]*' |
        awk '{ sub(/^macro_rules!/, "macro_rules! "); print $NF }'
    # Enum variants (and whatever else opens a line with a capital),
    # and struct fields (and whatever else opens a line with `name:`).
    xargs cat <"$tmp/rs" |
        sed -nE 's/^[[:space:]]+([A-Z][A-Za-z0-9_]*)[[:space:]]*([({,=]|$).*/\1/p'
    xargs cat <"$tmp/rs" |
        sed -nE 's/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?([a-z_][a-z0-9_]*):([^:]|$).*/\3/p'
    sed -E 's#.*/##; s#\.rs$##' "$tmp/rs"
} | LC_ALL=C sort -u >"$tmp/defined"

# Every word of every file that is not Markdown.
grep -v '\.md$' "$tmp/files" | while read -r f; do [ -f "$f" ] && printf '%s\0' "$f"; done |
    xargs -0 cat | grep -aoE '[A-Za-z_][A-Za-z0-9_]*' | LC_ALL=C sort -u >"$tmp/words"

for doc in "$@"; do
    # `LINE TOKEN` for each backticked span without a space, outside
    # fenced blocks; a span may run over a line break.
    awk '
        /^```/ { fenced = !fenced; next }
        fenced { next }
        {
            line = $0
            while (line != "") {
                at = index(line, "`")
                if (open) {
                    if (at == 0) { span = span " " line; break }
                    span = span substr(line, 1, at - 1)
                    if (span !~ / /) print start, span
                    open = 0
                } else {
                    if (at == 0) break
                    open = 1; span = ""; start = NR
                }
                line = substr(line, at + 1)
            }
        }' "$doc" >"$tmp/spans"

    awk -v doc="$doc" -v tmp="$tmp" '
        BEGIN {
            while ((getline w < (tmp "/files")) > 0) files[++nfiles] = w
            while ((getline w < (tmp "/crates")) > 0) crate[w] = 1
            while ((getline w < (tmp "/defined")) > 0) defined[w] = 1
            while ((getline w < (tmp "/words")) > 0) word[w] = 1
        }
        function has_file(p,    i) {
            for (i = 1; i <= nfiles; i++)
                if (files[i] == p || substr(files[i], length(files[i]) - length(p)) == "/" p)
                    return 1
            return 0
        }
        function stale(t,    n, s, i, first) {
            sub(/\(.*$/, "", t)
            if (t ~ /^[A-Za-z0-9_.\/-]+\.rs(:[0-9]+[^:]*)?(::[A-Za-z0-9_:]+)?$/) {
                sub(/\.rs.*$/, ".rs", t)
                return !has_file(t)
            }
            if (t ~ /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+$/) {
                n = split(t, s, "::")
                first = s[1]
                sub(/^cblog_/, "", first)
                if (!(first in crate) && !(first in defined)) return !(first in word)
                for (i = 2; i <= n; i++) if (!(s[i] in defined)) return 1
                return 0
            }
            if (t ~ /^[a-z][a-z0-9]*(_[a-z0-9]+)+$/ || t ~ /^[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*$/)
                return !(t in word)
            return 0
        }
        stale($2) { printf "%s:%d: %s\n", doc, $1, $2 }' "$tmp/spans"
done
