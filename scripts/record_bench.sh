#!/usr/bin/env bash
# Appends one row per benchmark workload to the trajectory file, or checks
# a fresh run's exact counts against the last rows that carry them.
#
#   scripts/record_bench.sh <pr> [seconds]
#   scripts/record_bench.sh --check
#
# For each workload BENCHMARK.json declares, runs
# `benchmark/run.sh --workload <name> --seed 1 --seconds <seconds> --trace 0`
# (20 s unless given) from the root of this checkout, then one traced run,
# `--seed 1 --seconds 2 --trace 1` (the length CI runs), and appends
#
#   {"pr", "rev", "workload", "nproc", "host_noise_frac", "sequence_hash",
#    "exact": {<name>: <value>, ...},
#    "result": <the untraced run's last line, verbatim>}
#
# to BENCH_TRAJECTORY.json there. "exact" holds the traced run's lines that
# repeat to the digit for a seed whatever the run length (a 2-s and a 4-s
# traced run agree on each): every `storage.*_bytes` line, every
# `transport.*_per_query` line, the `explore.*` and `join.*` counts
# (`roots_scanned`, `cells_loaded`, `label_probes`, `rows_emitted`,
# `rows_pruned_by_bindings`, `rounds`, `rows_per_cell`; `intermediate_rows`,
# `joins_performed`, `rows_pruned_injective`, `pipeline_rounds`,
# `useful_ratio`, `peak_table_bytes`), every `cache.*` line but
# `lookup_hit_ns`, `stream.rows_per_query` and
# `epoch.batches_{applied,refused}`. A change that moves one changed an
# answer, a plan, a charge or a cache decision.
#
# `--check` runs the traced run of every workload and compares each exact
# line with the last row of that workload that has an "exact" object; any
# difference, or a line one side lacks, makes the exit status 1.
#
# Every traced run's whole output is kept in target/record_bench/<name>.trace
# (an invocation first removes those of the one before), so a check that
# pins a line of it reads the file instead of making a traced run of its
# own.
#
# The file is one JSON array with a row a line; rows are appended by
# concatenation, so no JSON parser is needed to write it
# (`python3 -m json.tool BENCH_TRAJECTORY.json` checks it). `rev` is the
# checked-out commit, suffixed `-dirty` when the tree has changes on top.
set -euo pipefail

usage='usage: scripts/record_bench.sh <pr> [seconds] | --check'
pr="${1:?$usage}"
seconds="${2:-20}"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

file=BENCH_TRAJECTORY.json
workloads="$(grep -o '{"name": "[^"]*", "why"' BENCHMARK.json | cut -d'"' -f4)"

traces=target/record_bench
mkdir -p "$traces"
rm -f "$traces"/*.trace

# The exact set, as `name value` lines of a traced run's output; the whole
# output goes to $traces/<workload>.trace.
exact_lines() {
    benchmark/run.sh --workload "$1" --seed 1 --seconds 2 --trace 1 | tee "$traces/$1.trace" | awk '
        NF != 3 { next }
        $1 ~ /^storage\.[a-z_]+_bytes$/ ||
        $1 ~ /^transport\.[a-z_]+_per_query$/ ||
        $1 ~ /^explore\.(roots_scanned|cells_loaded|label_probes|rows_emitted|rows_pruned_by_bindings|rounds|rows_per_cell)$/ ||
        $1 ~ /^join\.(intermediate_rows|joins_performed|rows_pruned_injective|pipeline_rounds|useful_ratio|peak_table_bytes)$/ ||
        ($1 ~ /^cache\./ && $1 != "cache.lookup_hit_ns") ||
        $1 == "stream.rows_per_query" ||
        $1 ~ /^epoch\.batches_(applied|refused)$/ { print $1, $2 }'
}

if [ "$pr" = --check ]; then
    status=0
    for workload in $workloads; do
        exact_lines "$workload" | python3 -c '
import json, sys
workload, path = sys.argv[1], sys.argv[2]
rows = [r for r in json.load(open(path)) if r["workload"] == workload and "exact" in r]
if not rows:
    sys.exit(f"{workload}: no row with exact counts")
recorded, pr = rows[-1]["exact"], rows[-1]["pr"]
fresh = dict(line.split() for line in sys.stdin)
bad = [f"{workload} {name}: recorded {recorded.get(name)}, now {fresh.get(name)}"
       for name in sorted(set(recorded) | set(fresh))
       if name not in recorded or name not in fresh or float(fresh[name]) != recorded[name]]
print("\n".join(bad) if bad else f"{workload}: {len(fresh)} exact lines as recorded (pr {pr})")
sys.exit(1 if bad else 0)
' "$workload" "$file" || status=1
    done
    exit "$status"
fi

rev="$(git describe --always --dirty --abbrev=7)"
cpus="$(nproc)"
rows=()
for workload in $workloads; do
    out="$(benchmark/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0)"
    field() { printf '%s\n' "$out" | awk -v name="$1" '$1 == name { print $2 }'; }
    result="$(printf '%s\n' "$out" | tail -n 1)"
    exact="$(exact_lines "$workload" | awk '{ printf "%s\"%s\": %s", (NR > 1 ? ", " : ""), $1, $2 }')"
    rows+=("{\"pr\": \"$pr\", \"rev\": \"$rev\", \"workload\": \"$workload\", \"nproc\": $cpus, \"host_noise_frac\": $(field host_noise_frac), \"sequence_hash\": \"$(field sequence_hash)\", \"exact\": {$exact}, \"result\": $result}")
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
