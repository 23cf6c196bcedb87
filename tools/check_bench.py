#!/usr/bin/env python3
"""CI perf-regression gate: compare a fresh perf_micro run against the
committed per-stage baseline (bench/baseline.json).

Usage:
    check_bench.py raw_benchmark.json [--baseline bench/baseline.json]
                   [--tolerance X]
    check_bench.py --self-test

The run must come from a Release build: perf_micro publishes the bba
library's build type as context.bba_build_type, and any value other than
"release" (a missing key included) fails the gate, since perf numbers
from any other build are noise.

For every stage pinned in the baseline, the gate takes the median of the
run's serial (threads:1) real_time samples (repetitions collapse into one
median) and fails — exit 1, loud table — when median > tolerance x
baseline. The tolerance (default from the baseline file, 1.5x since the
PR-9 re-pin on a gate-class host; 2.5x before that) absorbs shared-vCPU
noise while catching real slips (a debug build sneaking in, an O(n^2)
regression), not 10% drift. Serial benchmarks present in the run but not
pinned are listed under their raw name as untracked, never failed, so
adding a benchmark does not require touching the gate. A baseline stage
MISSING from the run fails: a silently shrunk bench suite must not pass
as green.

The stage table goes to stdout and, when $GITHUB_STEP_SUMMARY is set, is
appended there as a markdown table.

--self-test doctors synthetic runs (one stage 3x regressed, one stage
dropped, a debug build, no build type) and exits 0 only if the gate
fails each of them and passes the clean 1.2x run — the gate gates itself
before gating the build.
"""
import argparse
import json
import os
import statistics
import sys

# perf_micro benchmark name (without its "/threads:1" segment) -> the stage
# name pinned in bench/baseline.json.
STAGE_NAMES = {
    "BM_Fft2d256": "fft2d_256",
    "BM_BvImage": "bv_rasterization",
    "BM_MimComputation": "mim",
    "BM_DescribeBvImage": "descriptors",
    "BM_RansacRigid2D": "ransac",
    "BM_RecoverPose": "recover_pose_end_to_end",
    "BM_ServiceProcessFrame/peers:1": "service_frame_1peer",
    "BM_ServiceProcessFrame/peers:2": "service_frame_2peers",
    "BM_ServiceProcessFrame/peers:4": "service_frame_4peers",
}

SERIAL = "threads:1"


def collect_serial_medians(raw):
    """stage -> median serial (threads:1) real_time in ns. A stage is its
    STAGE_NAMES entry, or the raw benchmark name when it is not pinned."""
    samples = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        parts = bench["name"].split("/")
        if SERIAL not in parts[1:]:
            continue
        name = "/".join(p for p in parts if p != SERIAL)
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        samples.setdefault(STAGE_NAMES.get(name, name), []).append(
            bench["real_time"] * scale
        )
    return {stage: statistics.median(v) for stage, v in samples.items()}


def check(raw, baseline, tolerance=None):
    """Returns (failures, rows, tolerance): failures lists why the run
    fails (empty when it passes); rows are (stage, baseline_ns, median_ns,
    ratio, status) with status in {ok, REGRESSED, MISSING, untracked}."""
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", 2.5))
    failures = []
    build_type = raw.get("context", {}).get("bba_build_type")
    if build_type != "release":
        failures.append(f"bba_build_type is {build_type!r}, not 'release'")
    medians = collect_serial_medians(raw)
    rows = []
    for stage, base_ns in sorted(baseline["stages"].items()):
        med = medians.get(stage)
        if med is None:
            rows.append((stage, base_ns, None, None, "MISSING"))
            failures.append(f"{stage} MISSING")
            continue
        ratio = med / base_ns
        status = "ok" if ratio <= tolerance else "REGRESSED"
        if status == "REGRESSED":
            failures.append(f"{stage} REGRESSED")
        rows.append((stage, base_ns, med, ratio, status))
    for stage in sorted(set(medians) - set(baseline["stages"])):
        rows.append((stage, None, medians[stage], None, "untracked"))
    return failures, rows, tolerance


def fmt_ms(ns):
    return f"{ns / 1e6:.2f}" if ns is not None else "-"


def render(rows, tolerance, markdown=False):
    header = ("stage", "baseline_ms", "median_ms", "ratio", "status")
    table = [header]
    for stage, base_ns, med_ns, ratio, status in rows:
        table.append((
            stage,
            fmt_ms(base_ns),
            fmt_ms(med_ns),
            f"{ratio:.2f}x" if ratio is not None else "-",
            status,
        ))
    lines = [f"perf gate: tolerance {tolerance}x vs committed baseline"]
    if markdown:
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for row in table[1:]:
            lines.append("| " + " | ".join(row) + " |")
    else:
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def run_gate(raw_path, baseline_path, tolerance):
    with open(raw_path) as f:
        raw = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures, rows, tol = check(raw, baseline, tolerance)
    print(render(rows, tol))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write("### Perf gate\n\n" + render(rows, tol, markdown=True))
            f.write("\n\n" + ("PASS\n" if not failures else "**FAIL**\n"))
    if failures:
        print(f"PERF GATE FAILED: {'; '.join(failures)}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


def synthetic_run(regress_stage=None, factor=1.0, build_type="release"):
    """A fake Release google-benchmark JSON over the baseline stages, at
    1.2x the baseline (ordinary noise), with one stage optionally doctored.
    build_type=None leaves the context without a bba_build_type."""
    name_of = {stage: name for name, stage in STAGE_NAMES.items()}
    with open(default_baseline_path()) as f:
        baseline = json.load(f)
    benches = []
    for stage, base_ns in baseline["stages"].items():
        ns = base_ns * (factor if stage == regress_stage else 1.2)
        benches.append({
            "name": f"{name_of[stage]}/{SERIAL}",
            "run_type": "iteration",
            "time_unit": "ns",
            "real_time": ns,
            "cpu_time": ns,
        })
    context = {} if build_type is None else {"bba_build_type": build_type}
    return {"context": context, "benchmarks": benches}, baseline


def default_baseline_path():
    return os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "bench",
        "baseline.json"
    )


def self_test():
    clean, baseline = synthetic_run()
    failures, _, _ = check(clean, baseline)
    if failures:
        print(f"self-test FAILED: clean 1.2x run did not pass: {failures}",
              file=sys.stderr)
        return 1
    doctored, _ = synthetic_run(regress_stage="mim", factor=3.0)
    failures, _, tol = check(doctored, baseline)
    if failures != ["mim REGRESSED"]:
        print("self-test FAILED: expected only mim to regress, got "
              f"{failures}", file=sys.stderr)
        return 1
    missing_run = {
        "context": doctored["context"],
        "benchmarks": [
            b for b in doctored["benchmarks"] if "Mim" not in b["name"]
        ],
    }
    failures, _, _ = check(missing_run, baseline)
    if "mim MISSING" not in failures:
        print("self-test FAILED: dropped stage not flagged MISSING",
              file=sys.stderr)
        return 1
    for build_type in ("debug", None):
        run, _ = synthetic_run(build_type=build_type)
        failures, _, _ = check(run, baseline)
        if len(failures) != 1 or "bba_build_type" not in failures[0]:
            print(f"self-test FAILED: a {build_type!r} build passed the "
                  f"release check: {failures}", file=sys.stderr)
            return 1
    print(f"self-test passed (tolerance {tol}x; 3x regression, dropped "
          "stage, debug and unnamed builds all rejected, 1.2x noise "
          "accepted)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("raw", nargs="?", help="raw google-benchmark JSON")
    parser.add_argument("--baseline", default=default_baseline_path())
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the baseline file's tolerance")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.raw:
        parser.error("raw benchmark JSON required (or --self-test)")
    return run_gate(args.raw, args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
