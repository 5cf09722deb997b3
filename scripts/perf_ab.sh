#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (perfbench/) between two
# commits.
#
#   scripts/perf_ab.sh [--base REV] [--head REV] [--workload W]
#                      [--seed S] [--seconds T] [--pairs N]
#                      [--trace 0|1] [--workdir DIR]
#
# Exports BASE (default HEAD~1) and HEAD (default HEAD) with
# `git archive` into DIR/base and DIR/head (default: a new temporary
# directory), builds perfbench in each, then runs N pairs (default 10)
# of
#
#   python3 perfbench/run.py --workload W --seed S --seconds T --trace X
#
# swapping which side runs first in every other pair, so drift in host
# speed hits both sides alike. For every metric the result line
# reports, it prints both sides' median and quartiles, the head/base
# median ratio, in how many pairs the head was better (direction from
# BENCHMARK.json), and two verdicts:
#
#   gain   "yes" when the head won at least 9 of every 10 pairs (ties
#          count for neither side) and its median is better than the
#          base's by more than the base's interquartile range;
#   bound  for metrics with a BENCHMARK.json bound (a fraction of the
#          base median), "WORSE" when the head's median is worse than
#          the base's by more than that bound, else "ok".
#
# It also says whether the `digest` lines, which hash the simulated
# statistics, were identical across all runs.
#
# Exit status: 0 when every run succeeded and the digests match, 2 when
# the digests differ, 1 on a failed build or run. Run logs stay in
# DIR/logs. A temporary DIR is removed at exit; a --workdir DIR is kept,
# and a later call with the same DIR reuses its builds.
#
# Defaults: --workload single-mid --seed 1 --trace 0, and --seconds
# BENCHMARK.json's run_seconds (the benchmark's own run length).

set -euo pipefail

base=HEAD~1
head=HEAD
workload=single-mid
seed=1
seconds=
pairs=10
trace=0
workdir=
keep=0

usage() {
    sed -n '2,/^$/p' "$0" | sed 's/^# \{0,1\}//'
    exit "${1:-0}"
}

while [ $# -gt 0 ]; do
    case "$1" in
      --base) base=$2; shift 2 ;;
      --head) head=$2; shift 2 ;;
      --workload) workload=$2; shift 2 ;;
      --seed) seed=$2; shift 2 ;;
      --seconds) seconds=$2; shift 2 ;;
      --pairs) pairs=$2; shift 2 ;;
      --trace) trace=$2; shift 2 ;;
      --workdir) workdir=$2; keep=1; shift 2 ;;
      -h|--help) usage 0 ;;
      *) echo "perf_ab.sh: unknown argument '$1'" >&2; usage 1 ;;
    esac
done

repo=$(git rev-parse --show-toplevel)
if [ -z "$seconds" ]; then
    seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")
fi
base_sha=$(git -C "$repo" rev-parse --verify "$base^{commit}")
head_sha=$(git -C "$repo" rev-parse --verify "$head^{commit}")

if [ -z "$workdir" ]; then
    workdir=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
fi
mkdir -p "$workdir/logs"
cleanup() {
    if [ "$keep" = 0 ]; then
        rm -rf "$workdir"
    fi
}
trap cleanup EXIT

for side in base head; do
    sha=$base_sha
    [ "$side" = head ] && sha=$head_sha
    tree="$workdir/$side"
    if [ ! -f "$tree/.perf_ab_rev" ] \
       || [ "$(cat "$tree/.perf_ab_rev")" != "$sha" ]; then
        rm -rf "$tree"
        mkdir -p "$tree"
        git -C "$repo" archive "$sha" | tar -x -C "$tree"
        echo "$sha" > "$tree/.perf_ab_rev"
    fi
    if [ ! -f "$tree/perfbench/run.py" ]; then
        echo "perf_ab.sh: $side ($sha) has no perfbench/run.py" >&2
        exit 1
    fi
    # A one-second tiny run builds perfbench before anything is timed.
    echo "building $side ${sha:0:12} in $tree" >&2
    if ! (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
            --seed "$seed" --seconds 1 --trace "$trace" --tiny \
            > "$workdir/logs/$side-build.out" \
            2> "$workdir/logs/$side-build.err"); then
        echo "perf_ab.sh: building $side failed; see" \
             "$workdir/logs/$side-build.err" >&2
        exit 1
    fi
done

run_side() {
    local side=$1 pair=$2
    local out="$workdir/logs/$side-$pair.out"
    if ! (cd "$workdir/$side" && python3 perfbench/run.py \
            --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" > "$out" 2> "$out.err"); then
        echo "perf_ab.sh: $side run $pair failed; see $out.err" >&2
        exit 1
    fi
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) = 1 ]; then
        run_side base "$pair"; run_side head "$pair"
    else
        run_side head "$pair"; run_side base "$pair"
    fi
    echo "pair $pair/$pairs done" >&2
done

echo "A/B: $workload seed $seed, ${seconds}s per run, $pairs pairs," \
     "--trace $trace"
echo "base ${base_sha:0:12} $(git -C "$repo" log -1 --format=%s "$base_sha")"
echo "head ${head_sha:0:12} $(git -C "$repo" log -1 --format=%s "$head_sha")"
python3 - "$workdir/logs" "$pairs" "$workdir/head/BENCHMARK.json" <<'EOF'
import json
import os
import statistics
import sys

logs, pairs, bench_json = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better = {}
bound = {}
if os.path.exists(bench_json):
    with open(bench_json) as f:
        spec = json.load(f)
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        better[m["name"]] = m.get("better", "lower")
        if "bound" in m:
            bound[m["name"]] = m["bound"]


def load(side, pair):
    with open(os.path.join(logs, f"{side}-{pair}.out")) as f:
        lines = f.read().splitlines()
    digests = [l for l in lines if l.startswith("digest ")]
    return json.loads(lines[-1])["metrics"], digests


runs = {s: [load(s, p) for p in range(1, pairs + 1)]
        for s in ("base", "head")}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


names = list(runs["head"][0][0])
gains, over = [], []
print(f"{'metric':<28} {'unit':<9} {'base median [q1, q3]':<38} "
      f"{'head median [q1, q3]':<38} {'ratio':>6} {'wins':>6} "
      f"{'gain':>4} {'bound':>5}")
for name in names:
    if not all(name in m for m, _ in runs["base"]):
        continue
    b = [m[name]["value"] for m, _ in runs["base"]]
    h = [m[name]["value"] for m, _ in runs["head"]]
    unit = runs["head"][0][0][name]["unit"]
    bq, hq = quartiles(b), quartiles(h)
    lower = better.get(name, "lower") == "lower"
    wins = sum((hv < bv) if lower else (hv > bv) for bv, hv in zip(b, h))
    ratio = hq[1] / bq[1] if bq[1] else float("nan")
    # Signed improvement of the head's median over the base's.
    gap = (bq[1] - hq[1]) if lower else (hq[1] - bq[1])
    gain = 10 * wins >= 9 * len(b) and gap > bq[2] - bq[0]
    if gain:
        gains.append(name)
    verdict = "-"
    if name in bound:
        worse = -gap > bound[name] * abs(bq[1])
        verdict = "WORSE" if worse else "ok"
        if worse:
            over.append(name)

    def fmt(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{name:<28} {unit:<9} {fmt(bq):<38} {fmt(hq):<38} "
          f"{ratio:6.3f} {wins:>3}/{len(b)} {'yes' if gain else 'no':>4} "
          f"{verdict:>5}")

print("gain (>= 9/10 pairs, median gap > base IQR): "
      + (", ".join(gains) if gains else "none"))
print("worse than base by more than the bound: "
      + (", ".join(over) if over else "none"))

digests = {s: {tuple(d) for _, d in runs[s]} for s in runs}
for s in runs:
    if len(digests[s]) != 1:
        print(f"digest: {s} runs disagree among themselves")
if digests["base"] == digests["head"] and len(digests["base"]) == 1:
    print("digest: identical in every run")
    sys.exit(0)
print("digest: DIFFERENT between base and head")
for line in sorted(set().union(*digests["base"]) ^ set().union(
        *digests["head"])):
    print("  " + line[:160])
sys.exit(2)
EOF
