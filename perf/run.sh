#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. Arguments go to
# the program unchanged; src/main.rs lists them. Run from anywhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/cblog-perf" --dir "$here" "$@"
