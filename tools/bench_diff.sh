#!/usr/bin/env bash
# Byte-compares the stdout of every bench binary between two build trees.
#
#   tools/bench_diff.sh BASE_BUILD HEAD_BUILD
#
# Runs each executable in BASE_BUILD/bench and HEAD_BUILD/bench (the two
# sides concurrently), each in its own temporary working directory so the
# BENCH_*.json files they write never collide, and prints a unified diff
# of stdout per bench. micro_* benches are skipped: they print host time,
# which differs from run to run. The simulator is deterministic, so any
# difference is a behaviour change. The last line summarises the run:
# how many benches were identical and the names of those that differ.
# Exits 1 when any bench differs (or exists on one side only), 0 when
# every stdout is byte-identical.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BASE_BUILD HEAD_BUILD" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Runs bench $2 from build tree $1; stdout goes to $3. A non-zero exit is
# recorded as the last line so it shows up in the diff.
run_bench() {
  local dir
  dir=$(mktemp -d "$work/run.XXXXXX")
  (cd "$dir" && "$1/bench/$2" >"$3" 2>/dev/null) ||
    echo "[exit status $?]" >>"$3"
}

names=$( { ls "$base/bench"; ls "$head/bench"; } | sort -u)
status=0
same=0
differ=""
for name in $names; do
  case $name in micro_*) continue ;; esac
  b="$base/bench/$name" h="$head/bench/$name"
  if [[ ! -f $b || ! -x $b ]] && [[ ! -f $h || ! -x $h ]]; then continue; fi
  if [[ ! -f $b || ! -x $b || ! -f $h || ! -x $h ]]; then
    echo "=== $name: present in one build tree only"
    status=1
    differ+=" $name"
    continue
  fi
  run_bench "$base" "$name" "$work/$name.base" &
  run_bench "$head" "$name" "$work/$name.head" &
  wait
  if diff -u --label "base/$name" --label "head/$name" \
      "$work/$name.base" "$work/$name.head"; then
    echo "=== $name: identical"
    same=$((same + 1))
  else
    status=1
    differ+=" $name"
  fi
done
echo "=== summary: $same identical; differ:${differ:- none}"
exit $status
