#!/usr/bin/env python3
"""Per-layer self-time ledger of a traced end-to-end benchmark run.

    bench/e2e/run.sh --trace            # writes build-bench/traces/*.json
    bench/e2e/ledger.py build-bench/traces/*.json

Each trace holds the harness's spans: one `frame` span per timed frame and,
inside it, one span per public call (bev.make_car_data, map.record_keyframe,
service.process_frame, map.coast_with_ego). The frame span's args carry the
recover() busy time of that frame and its stage split, summed over sessions
from the PoseRecoveryReports the calls returned.

For every workload the ledger prints ms per frame and the share of the frame
wall time of each layer's self time: a span's duration minus what its
children cover. The frame's own self time is the harness residual. Under the
service call, recover() busy time is broken into its stages, and the
service's self time (admission, decode, ego features, merge) is the call
minus recover busy time — shown only where at most one session steps per
frame; on `fleet` sessions run in parallel and busy time can exceed wall
time. PoseTracker reports only the last relocalization recover() of a
frame, so on `reloc` the coast call's self time also holds the ego
features, the map query and any earlier candidate's recover(). The last
line is trace.overhead_frac: the time the tracer spent on its own clock
reads and span records inside traced frames, as a share of their wall time.
It must stay under 2%.
"""

import json
import sys
from collections import defaultdict

CALLS = ["bev.make_car_data", "map.record_keyframe", "service.process_frame",
         "map.coast_with_ego"]
STAGES = [
    ("features.mim", "mim_ms"),
    ("features.keypoints", "keypoints_ms"),
    ("features.descriptors", "descriptors_ms"),
    ("match.matching", "matching_ms"),
    ("match.ransac_bv", "ransac_bv_ms"),
    ("core.icp_polish", "icp_polish_ms"),
    ("core.stage2", "stage2_ms"),
]
OVERHEAD_LIMIT = 0.02


def ledger(trace):
    """Rows of (depth, layer, ms per frame) plus the frame count."""
    events = sorted(trace["traceEvents"], key=lambda e: e["ts"])
    frames = [e for e in events if e["name"] == "frame"]
    calls = [e for e in events if e["name"] in CALLS]
    total = defaultdict(float)
    ci = 0
    for f in frames:
        end = f["ts"] + f["dur"]
        while ci < len(calls) and calls[ci]["ts"] < f["ts"]:
            ci += 1  # set-up and warm-up calls precede their frames
        covered = 0.0
        while ci < len(calls) and calls[ci]["ts"] + calls[ci]["dur"] <= end:
            total[calls[ci]["name"]] += calls[ci]["dur"]
            covered += calls[ci]["dur"]
            ci += 1
        total["frame"] += f["dur"]
        total["residual"] += f["dur"] - covered
        for key in ["recover_busy_ms"] + [k for _, k in STAGES]:
            total[key] += f["args"].get(key, 0.0) * 1e3  # -> microseconds
    n = max(len(frames), 1)
    per = {k: v / n / 1e3 for k, v in total.items()}  # ms per frame
    serial = all(f["args"].get("serial_service", 0) for f in frames)
    rows = [(0, "frame (wall)", per["frame"])]
    for name in CALLS:
        if name not in per:
            continue
        service = name in ("service.process_frame", "map.coast_with_ego")
        rows.append((1, name, per[name]))
        if service and per.get("recover_busy_ms", 0.0) > 0.0:
            busy = per["recover_busy_ms"]
            rows.append((2, "core.recover (busy)", busy))
            stages = 0.0
            for label, key in STAGES:
                rows.append((3, label, per[key]))
                stages += per[key]
            rows.append((3, "core.residual (validation, yaw search, scorer)",
                         busy - stages))
            if serial or name == "map.coast_with_ego":
                rows.append((2, f"{name} self", per[name] - busy))
    rows.append((1, "harness residual", per["residual"]))
    return rows, len(frames)


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        with open(path) as f:
            trace = json.load(f)
        meta = trace.get("otherData", {})
        rows, n = ledger(trace)
        wall = rows[0][2]
        print(f"\n{meta.get('workload', path)}: {n} traced frames, seed "
              f"{meta.get('seed')}, {meta.get('threads')} threads")
        print(f"{'layer':<56}{'ms/frame':>10}{'share':>9}")
        for depth, label, ms in rows:
            share = ms / wall if wall else 0.0
            print(f"{'  ' * depth + label:<56}{ms:>10.3f}{share:>9.1%}")
        self_ms = meta.get("trace_self_ms")
        wall_ms = meta.get("traced_wall_ms")
        if self_ms is not None and wall_ms:
            overhead = self_ms / wall_ms
            flag = "" if overhead < OVERHEAD_LIMIT else "  (over 2%)"
            print(f"trace.overhead_frac {overhead:.3%} (span bookkeeping "
                  f"{self_ms:.3f} ms of {wall_ms:.1f} ms traced frame "
                  f"time){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
