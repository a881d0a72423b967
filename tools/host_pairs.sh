#!/usr/bin/env bash
# Compares the host cost of two checkouts on one perfbench workload.
#
#   tools/host_pairs.sh BASE_CHECKOUT HEAD_CHECKOUT WORKLOAD SEED N
#
# Builds perfbench in each checkout (perfbench/run.py, into its own
# .bench_build), runs one traced round per side and fails if any
# virtual-time metric differs (end-to-end and per-layer; host-time
# fields, peak RSS and event counts may differ). Then runs N >= 10
# alternating pairs (base, head, base, head, ...; the first side of each
# pair alternates too) and prints each side's median and quartiles of
# setup_s and host_s, plus how many pairs each side won. Host time on a
# shared VM is noisy: a single pair cannot resolve a 25 % bound, the
# median of alternating pairs can.
set -euo pipefail

if [[ $# -ne 5 ]]; then
  echo "usage: $0 BASE_CHECKOUT HEAD_CHECKOUT WORKLOAD SEED N" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
if ((pairs < 10)); then
  echo "host_pairs: N must be at least 10 (got $pairs)" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in "$base" "$head"; do
  (cd "$side" && env -u CARGO_TARGET_DIR python3 perfbench/run.py \
    --workload "$workload" --seed "$seed" --seconds 1 --trace 0 \
    >/dev/null 2>"$work/build.log") || {
    cat "$work/build.log" >&2
    echo "host_pairs: build or run failed in $side" >&2
    exit 1
  }
done

python3 - "$base" "$head" "$workload" "$seed" "$pairs" "$work" <<'EOF'
import json
import statistics
import subprocess
import sys

base, head, workload, seed, pairs, work = sys.argv[1:]
pairs = int(pairs)
# Fields measured in host time (or host memory, or simulator work); every
# other metric is virtual time or a count the simulation determines.
HOST = {"setup_s", "host_s", "peak_rss_mb", "sim.host_s", "sim.events",
        "sim.events_per_sample", "sim.host_ns_per_event",
        "cluster.mount_host_s", "trace.overhead_frac"}


def run(checkout, tag, traced):
    out = f"{work}/{tag}"
    binary = f"{checkout}/.bench_build/perfbench/dlfs_perfbench"
    res = subprocess.run(
        [binary, "--workload", workload, "--seed", seed, "--seconds", "1",
         "--trace", "1" if traced else "0", "--out", out],
        capture_output=True, text=True, check=False)
    lines = res.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"host_pairs: no result from {checkout}: {res.stderr}")
    last = json.loads(lines[-1])
    name = f"{workload}-seed{seed}" + ("-trace" if traced else "")
    with open(f"{out}/{name}.json") as f:
        report = json.load(f)
    metrics = {k: v.get("value") for k, v in report["end_to_end"].items()}
    if traced:
        metrics.update({k: v["value"] for k, v in last["metrics"].items()})
    metrics["correct"] = last["correct"]
    metrics["failed"] = last["failed"]
    return metrics


a, b = run(base, "base", True), run(head, "head", True)
diffs = [(k, a[k], b.get(k)) for k in sorted(a)
         if k not in HOST and a[k] != b.get(k)]
for k, va, vb in diffs:
    print(f"virtual-time metric differs: {k}: base {va} head {vb}")

samples = {"base": {"setup_s": [], "host_s": []},
           "head": {"setup_s": [], "host_s": []}}
won = {"base": 0, "head": 0}
for i in range(pairs):
    order = [("base", base), ("head", head)]
    if i % 2:
        order.reverse()
    got = {tag: run(checkout, tag, False) for tag, checkout in order}
    for tag in got:
        for k in samples[tag]:
            samples[tag][k].append(got[tag][k])
    won["head" if got["head"]["setup_s"] < got["base"]["setup_s"]
        else "base"] += 1


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


print(f"{workload} seed {seed}, {pairs} alternating pairs")
print(f"{'side':5} {'metric':8} {'q1':>9} {'median':>9} {'q3':>9}")
for tag in ("base", "head"):
    for k in ("setup_s", "host_s"):
        q1, med, q3 = quartiles(samples[tag][k])
        print(f"{tag:5} {k:8} {q1:9.4f} {med:9.4f} {q3:9.4f}")
print(f"setup_s pairs won: head {won['head']}, base {won['base']}")
sys.exit(1 if diffs else 0)
EOF
