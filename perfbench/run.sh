#!/usr/bin/env bash
# The benchmark's one command:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the program under test and the benchmark from the sources of this
# checkout (both are no-ops when nothing changed), then runs one workload.
set -euo pipefail
cd "$(dirname "$0")/.."
# One build tree for both, so that the benchmark finds `genomedsm` next to
# itself, and a relative one, so that socket paths under it stay short.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin genomedsm
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
# Not `exec`: as a child, the benchmark starts with no children of its own,
# so the peak memory it reads back is genomedsm's and not cargo's.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
