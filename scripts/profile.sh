#!/usr/bin/env bash
# Where a benchmark workload's CPU time goes.
#
#   scripts/profile.sh <workload> [passes]
#
# Builds tools/profile (release, offline, into the benchmark's target dir
# so the two share their dependencies) and runs it from the root of this
# checkout: the workload is set up as `benchmark/run.sh` sets it up, then
# `passes` passes (60 unless given) of its request sequence are replayed
# under a SIGPROF sampler (setitimer(ITIMER_PROF)). Prints the share of
# samples per innermost frame, per outermost frame and inclusive, inline
# frames included (addr2line -f -i -C). The kernel's tick sets the rate:
# on a 2-vCPU VM with a 250 Hz tick, 60 serve_zipf passes gave 1,195–1,355
# samples. Exits 1 if a request fails or answers other than the reference.
set -euo pipefail

usage='usage: scripts/profile.sh <workload> [passes]'
workload="${1:?$usage}"
passes="${2:-60}"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

for name in $(compgen -e | grep '^STWIG_' || true); do
    unset "$name"
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/benchmark/target}"
cargo build --release --offline --quiet --manifest-path tools/profile/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/stwig-profile" --workload "$workload" --passes "$passes"
