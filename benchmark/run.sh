#!/usr/bin/env bash
# The repo benchmark's one command (see README.md beside this file).
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#       one run: prints `name value unit` lines, then the result as one JSON
#       object on the last line of standard output
#   benchmark/run.sh manifest      prints BENCHMARK.json from the metric tables
#   benchmark/run.sh repeat <n>    every workload n times; non-zero exit if an
#                                  end-to-end spread exceeds its bound
#
# Builds the benchmark package (release, offline) on first use. Cargo's
# output goes to standard error so the result stays the last line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Run from the root of the checkout: traces go to benchmark/out/ there.
cd "$here/.."

# Every mode switch is set in code; no process-wide override may change
# what is measured.
for name in $(compgen -e | grep '^STWIG_' || true); do
    unset "$name"
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/stwig-benchmark" "$@"
