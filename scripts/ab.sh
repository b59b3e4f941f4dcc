#!/usr/bin/env bash
# Paired A/B runs of the repo benchmark between two commits.
#
#   scripts/ab.sh <rev-a> <rev-b> [pairs] [seconds]
#
# Exports each rev's tree (`git archive`) into its own directory under
# $TMPDIR, never inside this checkout, and builds its benchmark there once,
# with its own target dir (one build when both revs name the same commit).
# Then runs `pairs` pairs (10 unless given) over every workload
# BENCHMARK.json declares:
#
#   benchmark/run.sh --workload <name> --seed 1 --seconds <seconds> --trace 0
#
# (10 s unless given), alternating which side runs first from one pair to
# the next so a drift of the host does not favour either. Prints, per
# workload and end-to-end metric, each pair's ratio b/a, how many pairs
# b won (k/n, by the metric's direction in BENCHMARK.json), the median
# ratio, and each side's median with its quartiles [q1, q3]. A run that is
# not `"correct": true` with `"failed": 0` is reported and makes the exit
# status 1.
#
# WORKLOADS="explore_128k churn_mix" restricts the workloads. Ten 10-s pairs
# over the four workloads take about 20 minutes on 2 vCPUs, after two
# builds of a few minutes each.
set -euo pipefail

usage() {
    sed -n '2,24p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
}
case "${1:-}" in
    -h | --help) usage; exit 0 ;;
    "") usage >&2; exit 2 ;;
esac
[ $# -ge 2 ] || { usage >&2; exit 2; }

rev_a="$1"
rev_b="$2"
pairs="${3:-10}"
seconds="${4:-10}"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

commit_a="$(git rev-parse --verify "$rev_a^{commit}")"
commit_b="$(git rev-parse --verify "$rev_b^{commit}")"
workloads="${WORKLOADS:-$(grep -o '{"name": "[^"]*", "why"' BENCHMARK.json | cut -d'"' -f4)}"

work="$(mktemp -d "${TMPDIR:-/tmp}/stwig-ab.XXXXXX")"
echo "ab: working in $work" >&2

# Exports and builds `commit` into $work/<side>; echoes the tree's path.
prepare() {
    local side="$1" commit="$2"
    local tree="$work/$side"
    mkdir -p "$tree"
    git archive "$commit" | tar -x -C "$tree"
    echo "ab: building $side (${commit:0:10})" >&2
    (cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2)
    echo "$tree"
}

tree_a="$(prepare a "$commit_a")"
if [ "$commit_a" = "$commit_b" ]; then
    tree_b="$tree_a"
    target_b="$work/target-a"
else
    tree_b="$(prepare b "$commit_b")"
    target_b="$work/target-b"
fi
target_a="$work/target-a"

results="$work/results.tsv"
: > "$results"
status=0

# One run of `workload` on `side`: appends `side pair workload metric value`
# rows for every `name value unit` line of the run.
run_one() {
    local side="$1" pair="$2" workload="$3" tree target out last
    if [ "$side" = a ]; then tree="$tree_a"; target="$target_a"; else tree="$tree_b"; target="$target_b"; fi
    out="$(cd "$tree" && CARGO_TARGET_DIR="$target" \
        benchmark/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 2>/dev/null)" ||
        out=""
    last="$(printf '%s\n' "$out" | tail -n 1)"
    if ! printf '%s' "$last" | grep -q '"correct": true' ||
        ! printf '%s' "$last" | grep -q '"failed": 0,'; then
        echo "ab: $workload on $side (pair $pair) is not correct with 0 failed" >&2
        status=1
    fi
    printf '%s\n' "$out" | awk -v s="$side" -v p="$pair" -v w="$workload" \
        'NF == 3 && $3 != "hash" && $2 ~ /^[-0-9.eE+]+$/ { print s "\t" p "\t" w "\t" $1 "\t" $2 }' >> "$results"
}

for ((pair = 1; pair <= pairs; pair++)); do
    for workload in $workloads; do
        if ((pair % 2)); then order="a b"; else order="b a"; fi
        for side in $order; do
            run_one "$side" "$pair" "$workload"
        done
        echo "ab: pair $pair/$pairs $workload done" >&2
    done
done

echo "a = $rev_a (${commit_a:0:10}), b = $rev_b (${commit_b:0:10}), $pairs pairs of ${seconds}-s runs"
python3 - "$results" BENCHMARK.json <<'EOF'
import json, statistics, sys
from collections import defaultdict

rows = defaultdict(dict)  # (workload, metric) -> {(side, pair): value}
for line in open(sys.argv[1]):
    side, pair, workload, metric, value = line.rstrip("\n").split("\t")
    rows[(workload, metric)][(side, int(pair))] = float(value)
end_to_end = json.load(open(sys.argv[2]))["end_to_end"]
workloads = sorted({w for w, _ in rows}, key=lambda w: [k for k, _ in rows].index(w))
for workload in workloads:
    print(f"\n{workload}")
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = rows.get((workload, name), {})
        pairs = sorted({p for _, p in values if ("a", p) in values and ("b", p) in values})
        if not pairs:
            continue
        ratios = [values[("b", p)] / values[("a", p)] if values[("a", p)] else float("nan") for p in pairs]
        wins = sum((r < 1) if lower else (r > 1) for r in ratios)
        def spread(side):
            xs = [values[(side, p)] for p in pairs]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            return f"{statistics.median(xs):.6g} [{q1:.6g}, {q3:.6g}]"
        print(f"  {name:16} b won {wins}/{len(pairs)}  median b/a {statistics.median(ratios):.4f}"
              f"  a {spread('a')}  b {spread('b')}  pairs " + " ".join(f"{r:.3f}" for r in ratios))
EOF
echo "ab: raw rows in $results" >&2
exit "$status"
