#!/usr/bin/env bash
# Byte-identity check of the working tree against a parent commit: for a
# change that must keep every output the same (a refactor, a deletion, a
# same-bytes speedup), run both trees' deterministic surfaces and compare.
#
# Usage: tools/same_bytes.sh <parent-ref>
#
# Both trees build in Release. The parent's sources come from
# `git archive <parent-ref>` (tools/parent_tree.sh); everything lands under
# build-same-bytes/ at the repo root. The compared outputs, in order:
#   smoke-default   `<workload> digest` lines of bench/e2e/run.sh --smoke
#   smoke-scalar    ... the same at BBA_SIMD=scalar
#   ablation_design, stream_robustness, bandwidth, adversarial,
#   fig07_comparison, table1_detection_ap
#                   stdout at BBA_BENCH_PAIRS=6; adversarial's sweep B
#                   prints the validation scores of teleported-box
#                   recoveries, whose BV term is scaled by the stage-1
#                   overlap floor, so it reacts to a drift of that floor;
#                   fig07_comparison runs the VIPS baseline on every pair
#                   and table1_detection_ap the four fusion pipelines
#   quickstart      stdout of example_quickstart
#   cooperative-detection
#                   stdout of example_cooperative_detection over 3 scenes
#                   (fusion and AP through the public API), with the wall
#                   times on its scene lines masked
#   scenario-mini   the CI scenario mini-matrix JSON (--out)
# Every output is compared, and each one that differs is named with the
# head of its diff, so a change expected to move one output still has the
# others checked; the working tree's smoke must also end in `smoke OK`.
# Exits 0 when all are identical and the smoke passed, 1 otherwise (after
# listing every difference), 2 on a usage or build error.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: tools/same_bytes.sh <parent-ref>" >&2
  exit 2
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/build-same-bytes"
parent_src="$work/parent"
jobs="$(nproc 2>/dev/null || echo 1)"
jobs=$(( jobs < 4 ? jobs : 4 ))
benches="ablation_design stream_robustness bandwidth adversarial fig07_comparison table1_detection_ap"
targets="$benches example_quickstart example_cooperative_detection scenario_matrix"

# A second run against the same parent rebuilds nothing.
# shellcheck source=tools/parent_tree.sh
source "$root/tools/parent_tree.sh"
extract_parent "$1" "$parent_src"

# build <src> <build-dir>
build() {
  local log="$2.log"
  { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$2" -j "$jobs" --target $targets; } >"$log" 2>&1 || {
    tail -n 30 "$log" >&2
    echo "same_bytes: build of $1 failed (log: $log)" >&2
    exit 2
  }
}

# collect <src> <build-dir> <out-dir>: every compared output of one tree.
collect() {
  local src="$1" bin="$2" out="$3"
  rm -rf "$out"
  mkdir -p "$out"
  "$src/bench/e2e/run.sh" --smoke >"$out/smoke-default.log" 2>&1 || true
  BBA_SIMD=scalar "$src/bench/e2e/run.sh" --smoke >"$out/smoke-scalar.log" 2>&1 || true
  awk '$2 == "digest"' "$out/smoke-default.log" >"$out/smoke-default"
  awk '$2 == "digest"' "$out/smoke-scalar.log" >"$out/smoke-scalar"
  # A non-zero exit status is appended to the output it belongs to, so it
  # is compared like the rest.
  local b
  for b in $benches; do
    BBA_BENCH_PAIRS=6 "$bin/bench/$b" >"$out/$b" 2>/dev/null ||
      echo "exit $?" >>"$out/$b"
  done
  "$bin/examples/example_quickstart" >"$out/quickstart" 2>/dev/null ||
    echo "exit $?" >>"$out/quickstart"
  "$bin/examples/example_cooperative_detection" 3 2>/dev/null |
    sed -E 's/[0-9.e+-]+ ms: mim [0-9.e+-]+, ransac-bv [0-9.e+-]+/<times>/' \
      >"$out/cooperative-detection" ||
    echo "exit $?" >>"$out/cooperative-detection"
  "$bin/bench/scenario_matrix" --presets=suburban,tunnel \
    --faults=clean,sector --profiles=clear-32 --frames=12 --seed=7 \
    --out="$out/scenario-mini" >/dev/null 2>&1 ||
    echo "exit $?" >>"$out/scenario-mini"
}

echo "same_bytes: building parent $parent_commit and the working tree"
build "$parent_src" "$work/parent-build"
build "$root" "$work/head-build"
# The parent's outputs are a pure function of its commit and of this
# script: collected once per pair of them.
stamp="$parent_commit $(cksum <"${BASH_SOURCE[0]}")"
if [ "$(cat "$work/out-parent/.same_bytes_ref" 2>/dev/null)" != "$stamp" ]; then
  echo "same_bytes: running the parent's outputs"
  collect "$parent_src" "$work/parent-build" "$work/out-parent"
  echo "$stamp" >"$work/out-parent/.same_bytes_ref"
fi
echo "same_bytes: running the working tree's outputs"
collect "$root" "$work/head-build" "$work/out-head"

failed=""
for name in smoke-default smoke-scalar $benches quickstart \
  cooperative-detection scenario-mini; do
  a="$work/out-parent/$name"
  b="$work/out-head/$name"
  if [ ! -s "$a" ] || [ ! -s "$b" ]; then
    echo "same_bytes: FAIL $name: empty output (see $work/out-*/)" >&2
    failed="$failed $name"
  elif ! cmp -s "$a" "$b"; then
    echo "same_bytes: FAIL $name differs:" >&2
    diff "$a" "$b" | head -n 20 >&2 || true
    failed="$failed $name"
  fi
done
for log in smoke-default smoke-scalar; do
  if ! grep -q '^smoke OK$' "$work/out-head/$log.log"; then
    echo "same_bytes: FAIL $log: the working tree's smoke did not pass" >&2
    tail -n 20 "$work/out-head/$log.log" >&2
    failed="$failed $log.log"
  fi
done
cat "$work/out-head/smoke-default"
grep -h 'quality.wrong_pose_frac' "$work/out-head/smoke-default.log" | grep '^reloc' || true
if [ -n "$failed" ]; then
  echo "same_bytes: FAIL against $parent_commit:$failed" >&2
  exit 1
fi
echo "same_bytes: OK, every output matches $parent_commit"
