#!/usr/bin/env bash
# Performance gate of the working tree against a parent commit: runs the
# end-to-end benchmark, bench/e2e/run.sh, on both trees in alternating
# pairs and judges the two sets of runs with bench/e2e/compare.py.
#
# Usage: tools/ab_gate.sh <parent-ref>
#
# The parent's sources come from `git archive <parent-ref>`
# (tools/parent_tree.sh). Each tree's run.sh builds its own build-bench/
# in Release; the parent's tree, its build and every run's JSON and log
# land under build-ab-gate/ at the repo root. Pair i runs the parent first
# when i is odd and the working tree first when it is even, so a drift of
# the shared host's load reaches both sides alike.
#
# compare.py bounds every workload's end-to-end metrics relative to the
# parent at BENCHMARK.json's bounds; the gate sets no per-stage bound (for
# where a frame's time went, use run.sh --trace and bench/e2e/ledger.py).
# Exits with compare.py's status: 1 on any `regression` or `incorrect`
# row, else 0 (an `unresolved` row does not fail). Exits 2 on a usage
# error, a run that wrote no result, a run that lacks one of
# BENCHMARK.json's workloads (compare.py judges only the workloads every
# run carries), or a build-bench/ that is not Release.
set -euo pipefail

# Three pairs at the benchmark's own run length (BENCHMARK.json
# run_seconds): about 80 s per full run.sh on a 4-vCPU host, so the gate
# costs about 8 minutes after the two builds. At 10-second runs `fleet`'s
# frame_p50_ms spread too widely to resolve a descriptor pass that did its
# work twice, at 3 pairs and at 5; at 25 seconds it fails on that metric,
# while a change that leaves the timed code alone passes (all runs in
# EXPERIMENTS.md).
PAIRS=3
RUN_SECONDS=25

if [ $# -ne 1 ]; then
  echo "usage: tools/ab_gate.sh <parent-ref>" >&2
  exit 2
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/build-ab-gate"
# shellcheck source=tools/parent_tree.sh
source "$root/tools/parent_tree.sh"
extract_parent "$1" "$work/parent"

# run_side <parent|head> <pair>: one full run.sh of that side's tree.
run_side() {
  local tree="$root"
  [ "$1" = parent ] && tree="$work/parent"
  local out="$work/runs/$1/$2.json" log="$work/runs/$1-$2.log"
  # The parent's tree has no .git, so run.sh's commit lookup would climb to
  # this checkout and label the parent's runs with its HEAD; stopped at
  # build-ab-gate/, the lookup fails and run.sh records `unknown`.
  local ceiling=""
  [ "$1" = parent ] && ceiling="$work"
  echo "ab_gate: pair $2/$PAIRS: $1"
  GIT_CEILING_DIRECTORIES="$ceiling" "$tree/bench/e2e/run.sh" \
    --seconds "$RUN_SECONDS" --out "$out" >"$log" 2>&1 || true
  if [ ! -s "$out" ]; then
    tail -n 20 "$log" >&2
    echo "ab_gate: the $1 run wrote no result (log: $log)" >&2
    exit 2
  fi
  local missing
  missing="$(python3 -c '
import json, sys
run = json.load(open(sys.argv[1]))["workloads"]
spec = json.load(open(sys.argv[2]))["workloads"]
print(" ".join(w["name"] for w in spec if w["name"] not in run))
' "$out" "$root/BENCHMARK.json")"
  if [ -n "$missing" ]; then
    echo "ab_gate: the $1 run of pair $2 lacks workload(s): $missing" \
      "(log: $log)" >&2
    exit 2
  fi
  # run.sh configures build-bench/ only once, so an old tree keeps
  # whatever build type it was first configured with.
  if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' \
    "$tree/build-bench/CMakeCache.txt"; then
    echo "ab_gate: $tree/build-bench is not a Release build" >&2
    exit 2
  fi
}

rm -rf "$work/runs"
mkdir -p "$work/runs/parent" "$work/runs/head"
echo "ab_gate: $PAIRS pairs of ${RUN_SECONDS}-second runs, parent $parent_commit"
for ((i = 1; i <= PAIRS; i++)); do
  if ((i % 2 == 1)); then
    run_side parent "$i"
    run_side head "$i"
  else
    run_side head "$i"
    run_side parent "$i"
  fi
done

status=0
python3 "$root/bench/e2e/compare.py" "$work/runs/parent" "$work/runs/head" ||
  status=$?
echo "ab_gate: compare.py exit $status after ${SECONDS} s"
exit "$status"
