#!/usr/bin/env bash
# End-to-end benchmark of the cooperation loop (see bench/e2e/README.md).
#
#   bench/e2e/run.sh                      all four workloads, untraced
#   bench/e2e/run.sh --trace              ... traced: per-layer metrics and
#                                         one Chrome trace per workload
#   bench/e2e/run.sh --smoke              short determinism + structure check
#                                         at BBA_THREADS=1 and 4
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload; last stdout line is
#                                         its JSON result
#
# Full runs also take --seed N, --seconds S and --out FILE (the combined
# JSON result, one line). Builds bench/e2e in Release into build-bench/ on
# first use. Exits non-zero when a correctness check fails.
set -u

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
bin="$build/bba_e2e"

# A claim made on the default seed (7) must also hold on the held-out
# seed, 1009.
DEFAULT_SEED=7
DEFAULT_SECONDS=25
WORKLOADS="pair fleet churn reloc"

ncpu="$(nproc 2>/dev/null || echo 1)"
threads=$(( ncpu < 4 ? ncpu : 4 ))

build() {
  if [ ! -f "$root/src/CMakeLists.txt" ]; then
    echo "run.sh: library sources not found at $root/src" >&2
    return 1
  fi
  mkdir -p "$build"
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      >"$build/configure.log" 2>&1 ||
      { tail -n 30 "$build/configure.log" >&2; return 1; }
  fi
  cmake --build "$build" -j "$threads" >"$build/build.log" 2>&1 ||
    { tail -n 30 "$build/build.log" >&2; return 1; }
}

workload="" seed="$DEFAULT_SEED" seconds="$DEFAULT_SECONDS" trace=0
smoke=0 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build || exit 3
mkdir -p "$build/traces"

# One workload: the harness's own output, its JSON result last.
if [ -n "$workload" ]; then
  BBA_THREADS="$threads" exec "$bin" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" \
    --trace-out "$build/traces/$workload-seed$seed.json"
fi

# Smoke: every workload at 1 and at $threads threads; outputs (digests)
# must match and every structural check must pass.
if [ "$smoke" = 1 ]; then
  status=0
  for w in $WORKLOADS; do
    d1="$(BBA_THREADS=1 "$bin" --workload "$w" --seed "$seed" --seconds 1 \
          --trace 0 --smoke)" || status=1
    dn="$(BBA_THREADS="$threads" "$bin" --workload "$w" --seed "$seed" \
          --seconds 1 --trace 0 --smoke)" || status=1
    printf '%s\n' "$dn" | sed '$d'
    g1="$(printf '%s\n' "$d1" | awk '$2 == "digest" {print $3}')"
    gn="$(printf '%s\n' "$dn" | awk '$2 == "digest" {print $3}')"
    if [ -z "$g1" ] || [ "$g1" != "$gn" ]; then
      echo "$w smoke FAILED: digest at 1 thread ($g1) != at $threads ($gn)"
      status=1
    fi
  done
  [ "$status" = 0 ] && echo "smoke OK"
  exit "$status"
fi

# Full run: every workload, human lines, then one combined JSON line. Each
# workload's entry is the harness's JSON result plus its `quality.*` lines,
# which compare.py needs to void a speed gain that costs poses.
status=0
results=""
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
for w in $WORKLOADS; do
  output="$(BBA_THREADS="$threads" "$bin" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" \
            --trace-out "$build/traces/$w-seed$seed.json")" || status=1
  printf '%s\n' "$output" | sed '$d'
  result="$(printf '%s\n' "$output" | tail -n 1)"
  quality="$(printf '%s\n' "$output" | sed '$d' | awk '
    $2 ~ /^quality\./ { printf "%s\"%s\":%s", sep, $2, $3; sep = "," }')"
  results="$results${results:+,}\"$w\":${result%\}},\"quality\":{$quality}}"
done
json="{\"seed\":$seed,\"seconds\":$seconds,\"trace\":$trace,\"threads\":$threads,"
json="$json\"nproc\":$ncpu,\"commit\":\"$commit\",\"workloads\":{$results}}"
[ -n "$out" ] && printf '%s\n' "$json" >"$out"
printf '%s\n' "$json"
exit "$status"
