#!/usr/bin/env python3
"""Docs-health gate (no network, no deps).

1. Markdown link check: every relative link in the checked documents must
   point at an existing file, and a ``#fragment`` into a Markdown file
   must match a heading in that file (GitHub slug rules).
2. Taxonomy gate: every ``RecoveryFailure`` enumerator (parsed from
   src/obs/report.hpp), every ``wire::DecodeError`` enumerator (parsed
   from src/wire/frame.hpp), every world-preset name (parsed from
   src/sim/presets.cpp), every lidar-profile name (parsed from
   src/lidar/conditions.cpp), every ``SessionAdmission`` outcome (parsed
   from src/service/session_lifecycle.cpp), and every ``stream.*`` /
   ``wire.*`` / ``service.*`` / ``session.*`` / ``health.*`` /
   ``validate.*`` / ``cache.*`` / ``map.*`` metric name (parsed from the
   emitting sources) must appear somewhere in the checked documents — the
   docs may not silently fall behind the code.
3. Generated-block gate: the scenario-matrix block of EXPERIMENTS.md must
   byte-match a render of bench/scenario_baseline.json
   (tools/gen_experiments.py --check).

Exit code 0 when healthy; prints every violation otherwise.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    REPO / "docs" / "ARCHITECTURE.md",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces->dashes."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_slugs(md_path: Path) -> set:
    slugs = set()
    in_fence = False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = re.match(r"^#{1,6}\s+(.*)$", line)
        if m:
            slugs.add(github_slug(m.group(1)))
    return slugs


def check_links(doc: Path, errors: list) -> None:
    in_fence = False
    for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(f"{doc.relative_to(REPO)}:{lineno}: "
                                  f"broken link '{target}' "
                                  f"({resolved} does not exist)")
                    continue
            else:
                resolved = doc
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_slugs(resolved):
                    errors.append(f"{doc.relative_to(REPO)}:{lineno}: "
                                  f"link '{target}' names anchor "
                                  f"'#{fragment}' not found in "
                                  f"{resolved.relative_to(REPO)}")


def recovery_failure_enumerators() -> list:
    """Enumerator names of RecoveryFailure plus their JSON string forms."""
    header = (REPO / "src" / "obs" / "report.hpp").read_text(encoding="utf-8")
    m = re.search(r"enum class RecoveryFailure \{(.*?)\};", header, re.S)
    if not m:
        sys.exit("check_docs: cannot find RecoveryFailure in report.hpp")
    names = re.findall(r"^\s*(\w+),", m.group(1), re.M)
    source = (REPO / "src" / "obs" / "report.cpp").read_text(encoding="utf-8")
    strings = re.findall(
        r"case RecoveryFailure::\w+:\s*return \"(\w+)\";", source)
    return names + strings


def stream_metric_names() -> list:
    source = (REPO / "src" / "stream" / "pose_tracker.cpp").read_text(
        encoding="utf-8")
    return sorted(set(re.findall(r"\"(stream\.\w+)\"", source)))


def decode_error_enumerators() -> list:
    """Enumerator names of wire::DecodeError plus their string forms."""
    header = (REPO / "src" / "wire" / "frame.hpp").read_text(encoding="utf-8")
    m = re.search(r"enum class DecodeError[^{]*\{(.*?)\};", header, re.S)
    if not m:
        sys.exit("check_docs: cannot find DecodeError in frame.hpp")
    names = re.findall(r"^\s*(\w+)\s*[,=]", m.group(1), re.M)
    source = (REPO / "src" / "wire" / "frame.cpp").read_text(encoding="utf-8")
    strings = re.findall(r"case DecodeError::\w+:\s*return \"(\w+)\";", source)
    return names + strings


def wire_metric_names() -> list:
    names = set()
    for src in sorted((REPO / "src" / "wire").glob("*.cpp")):
        names.update(re.findall(r"\"(wire\.\w+)\"", src.read_text(
            encoding="utf-8")))
    return sorted(names)


def service_metric_names() -> list:
    names = set()
    for src in sorted((REPO / "src" / "service").glob("*.cpp")):
        names.update(re.findall(r"\"(service\.\w+)\"", src.read_text(
            encoding="utf-8")))
    return sorted(names)


def session_metric_names() -> list:
    """session.* counters/gauges/histograms (lifecycle layer, PR 10)."""
    names = set()
    for src in sorted((REPO / "src" / "service").glob("*.cpp")):
        names.update(re.findall(r"\"(session\.\w+)\"", src.read_text(
            encoding="utf-8")))
    return sorted(names)


def session_admission_strings() -> list:
    """String forms of the SessionAdmission outcomes (from toString)."""
    source = (REPO / "src" / "service" / "session_lifecycle.cpp").read_text(
        encoding="utf-8")
    names = re.findall(r"case SessionAdmission::\w+:\s*return \"(\w+)\";",
                       source)
    if not names:
        sys.exit("check_docs: cannot find SessionAdmission strings in "
                 "session_lifecycle.cpp")
    return names


def health_metric_names() -> list:
    names = set()
    for src in sorted((REPO / "src" / "service").glob("*.cpp")):
        names.update(re.findall(r"\"(health\.\w+)\"", src.read_text(
            encoding="utf-8")))
    return sorted(names)


def validate_metric_names() -> list:
    names = set()
    for sub in ("core", "stream"):
        for src in sorted((REPO / "src" / sub).glob("*.cpp")):
            names.update(re.findall(r"\"(validate\.\w+)\"", src.read_text(
                encoding="utf-8")))
    return sorted(names)


def cache_metric_names() -> list:
    """cache.* counters (Log-Gabor bank cache + per-frame ego features)."""
    names = set()
    for sub in ("signal", "service"):
        for src in sorted((REPO / "src" / sub).glob("*.cpp")):
            names.update(re.findall(r"\"(cache\.\w+)\"", src.read_text(
                encoding="utf-8")))
    return sorted(names)


def map_metric_names() -> list:
    """map.* counters/gauges/histograms (keyframe store + reloc rung)."""
    names = set()
    for sub in ("map", "stream"):
        for src in sorted((REPO / "src" / sub).glob("*.cpp")):
            names.update(re.findall(r"\"(map\.\w+)\"", src.read_text(
                encoding="utf-8")))
    return sorted(names)


def tracker_outcome_strings() -> list:
    """String forms of the TrackerOutcome ladder rungs (from toString)."""
    source = (REPO / "src" / "stream" / "pose_tracker.cpp").read_text(
        encoding="utf-8")
    m = re.search(r"toString\(TrackerOutcome\b.*?\n\}", source, re.S)
    if not m:
        sys.exit("check_docs: cannot find TrackerOutcome toString in "
                 "pose_tracker.cpp")
    rungs = re.findall(r"case TrackerOutcome::\w+:\s*return \"(\w+)\";",
                       m.group(0))
    if not rungs:
        sys.exit("check_docs: no TrackerOutcome strings parsed")
    return rungs


def world_preset_names() -> list:
    """String forms of the WorldPreset registry (from toString)."""
    source = (REPO / "src" / "sim" / "presets.cpp").read_text(encoding="utf-8")
    m = re.search(r"toString\(WorldPreset\b.*?\n\}", source, re.S)
    if not m:
        sys.exit("check_docs: cannot find WorldPreset toString in presets.cpp")
    names = re.findall(r"case WorldPreset::\w+:\s*return \"([\w-]+)\";",
                       m.group(0))
    if not names:
        sys.exit("check_docs: no WorldPreset names parsed")
    return names


def lidar_profile_names() -> list:
    """Named lidar condition profiles (from allLidarProfileNames)."""
    source = (REPO / "src" / "lidar" / "conditions.cpp").read_text(
        encoding="utf-8")
    m = re.search(r"allLidarProfileNames\(\).*?\n\}", source, re.S)
    if not m:
        sys.exit("check_docs: cannot find allLidarProfileNames in "
                 "conditions.cpp")
    names = re.findall(r"\"((?:clear|rain|fog)-\d+)\"", m.group(0))
    if not names:
        sys.exit("check_docs: no lidar profile names parsed")
    return names


def check_generated_experiments(errors: list) -> None:
    """The EXPERIMENTS.md scenario-matrix block must match the baseline."""
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "gen_experiments.py"),
         "--check"], capture_output=True, text=True)
    if result.returncode != 0:
        detail = (result.stdout + result.stderr).strip().replace("\n", "; ")
        errors.append(f"EXPERIMENTS.md generated block is stale: {detail} "
                      f"(run tools/gen_experiments.py --update)")


def peer_health_states() -> list:
    """String forms of the PeerHealth FSM states (from toString)."""
    source = (REPO / "src" / "service" / "peer_health.cpp").read_text(
        encoding="utf-8")
    states = re.findall(r"case PeerHealth::\w+:\s*return \"(\w+)\";", source)
    if not states:
        sys.exit("check_docs: cannot find PeerHealth states in peer_health.cpp")
    return states


def main() -> int:
    errors = []
    corpus = ""
    for doc in DOCS:
        if not doc.exists():
            errors.append(f"missing required document: {doc.relative_to(REPO)}")
            continue
        corpus += doc.read_text(encoding="utf-8")
        check_links(doc, errors)

    for name in recovery_failure_enumerators():
        if name not in corpus:
            errors.append(
                f"RecoveryFailure value '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in stream_metric_names():
        if name not in corpus:
            errors.append(
                f"stream metric '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in decode_error_enumerators():
        if name not in corpus:
            errors.append(
                f"DecodeError value '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in (wire_metric_names() + service_metric_names()
                 + session_metric_names() + health_metric_names()
                 + validate_metric_names() + cache_metric_names()
                 + map_metric_names()):
        if name not in corpus:
            errors.append(
                f"metric '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in peer_health_states():
        if name not in corpus:
            errors.append(
                f"PeerHealth state '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in session_admission_strings():
        if name not in corpus:
            errors.append(
                f"SessionAdmission outcome '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in tracker_outcome_strings():
        if name not in corpus:
            errors.append(
                f"TrackerOutcome rung '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in world_preset_names():
        if name not in corpus:
            errors.append(
                f"world preset '{name}' is undocumented "
                f"(not found in any checked document)")
    for name in lidar_profile_names():
        if name not in corpus:
            errors.append(
                f"lidar profile '{name}' is undocumented "
                f"(not found in any checked document)")
    check_generated_experiments(errors)

    if errors:
        print("docs-health: FAILED")
        for e in errors:
            print(f"  {e}")
        return 1
    metric_count = (len(stream_metric_names()) + len(wire_metric_names())
                    + len(service_metric_names())
                    + len(session_metric_names()) + len(health_metric_names())
                    + len(validate_metric_names()) + len(cache_metric_names())
                    + len(map_metric_names()))
    print(f"docs-health: OK ({len(DOCS)} documents, "
          f"{len(recovery_failure_enumerators())} failure values, "
          f"{len(decode_error_enumerators())} decode-error values, "
          f"{len(peer_health_states())} health states, "
          f"{len(tracker_outcome_strings())} tracker rungs, "
          f"{len(world_preset_names())} world presets, "
          f"{len(lidar_profile_names())} lidar profiles, "
          f"{metric_count} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
