#!/usr/bin/env bash
# Appends one row per benchmark workload to the trajectory file.
#
#   scripts/record_bench.sh <pr> [seconds]
#
# For each workload BENCHMARK.json declares, runs
# `benchmark/run.sh --workload <name> --seed 1 --seconds <seconds> --trace 0`
# (20 s unless given) from the root of this checkout and appends
#
#   {"pr", "rev", "workload", "nproc", "host_noise_frac", "sequence_hash",
#    "result": <the run's last line, verbatim>}
#
# to BENCH_TRAJECTORY.json there. The file is one JSON array with a row a
# line; rows are appended by concatenation, so no JSON parser is needed
# (`python3 -m json.tool BENCH_TRAJECTORY.json` checks it). `rev` is the
# checked-out commit, suffixed `-dirty` when the tree has changes on top.
set -euo pipefail

pr="${1:?usage: scripts/record_bench.sh <pr> [seconds]}"
seconds="${2:-20}"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

file=BENCH_TRAJECTORY.json
rev="$(git describe --always --dirty --abbrev=7)"
cpus="$(nproc)"
workloads="$(grep -o '{"name": "[^"]*", "why"' BENCHMARK.json | cut -d'"' -f4)"

rows=()
for workload in $workloads; do
    out="$(benchmark/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0)"
    field() { printf '%s\n' "$out" | awk -v name="$1" '$1 == name { print $2 }'; }
    result="$(printf '%s\n' "$out" | tail -n 1)"
    rows+=("{\"pr\": \"$pr\", \"rev\": \"$rev\", \"workload\": \"$workload\", \"nproc\": $cpus, \"host_noise_frac\": $(field host_noise_frac), \"sequence_hash\": \"$(field sequence_hash)\", \"result\": $result}")
    echo "recorded $workload" >&2
done

# The array's closing bracket is its last line: drop it, append the rows
# (each after a comma once the array holds one), close it again.
[ -s "$file" ] || printf '[\n]\n' > "$file"
body="$(head -n -1 "$file")"
{
    printf '%s\n' "$body"
    for row in "${rows[@]}"; do
        if [ "$body" = "[" ]; then
            printf '%s\n' "$row"
            body="$row"
        else
            printf ',%s\n' "$row"
        fi
    done
    printf ']\n'
} > "$file.tmp"
mv "$file.tmp" "$file"
