#!/usr/bin/env python3
"""Docs-health gate (no network, no deps).

1. Markdown link check: every relative link in the checked documents must
   point at an existing file, and a ``#fragment`` into a Markdown file
   must match a heading in that file (GitHub slug rules).
2. Taxonomy gate: every ``RecoveryFailure`` enumerator (parsed from
   src/obs/report.hpp), every ``wire::DecodeError`` enumerator (parsed
   from src/wire/frame.hpp), every world-preset name (parsed from
   src/sim/presets.cpp), every lidar-profile name (parsed from
   src/lidar/conditions.cpp) and every ``SessionAdmission`` outcome
   (parsed from src/service/session_lifecycle.cpp) must appear somewhere
   in the checked documents — the docs may not silently fall behind the
   code.
3. Metric gate: every metric-name string literal in src/**/*.cpp (a
   dotted lower-case name such as ``service.shed``) must appear in the
   checked documents, and no name may be registered as two kinds
   (counter, gauge, histogram).
4. Generated-block gate: the scenario-matrix block of EXPERIMENTS.md must
   byte-match a render of bench/scenario_baseline.json
   (tools/gen_experiments.py --check).

Exit code 0 when healthy; prints every violation otherwise.
``--self-test`` instead feeds the gate doctored inputs built in memory (an
undocumented metric literal, a metric registered as two kinds, a link to
a missing anchor) and fails unless each is rejected; the tree is never
touched.
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
METRIC_NAME = r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+"
METRIC_RE = re.compile(f"\"({METRIC_NAME})\"")
# A registration site names its metric's kind; the service's tally(field,
# name) bumps a counter.
KIND_RE = re.compile(r"\b(BBA_COUNTER_ADD|BBA_GAUGE_SET|BBA_HISTOGRAM_OBSERVE"
                     r"|counter|gauge|histogram|tally)\((?:[^;\"]*?,)?\s*"
                     f"\"({METRIC_NAME})\"")
KIND_OF = {"BBA_COUNTER_ADD": "counter", "counter": "counter",
           "tally": "counter", "BBA_GAUGE_SET": "gauge", "gauge": "gauge",
           "BBA_HISTOGRAM_OBSERVE": "histogram", "histogram": "histogram"}


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


def check_links(doc: Path, errors: list, text: str = None) -> None:
    """Check `doc`'s links; `text` stands in for its content when given."""
    if text is None:
        text = doc.read_text(encoding="utf-8")
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
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


def source_texts() -> dict:
    """Every C++ source under src/, keyed by its repo-relative path."""
    return {str(p.relative_to(REPO)): p.read_text(encoding="utf-8")
            for p in sorted((REPO / "src").rglob("*.cpp"))}


def check_metrics(sources: dict, corpus: str, errors: list) -> int:
    """Every metric literal in `sources` must be documented in `corpus`
    and registered as at most one kind. Returns the number of names."""
    kinds = {}
    for text in sources.values():
        for name in METRIC_RE.findall(text):
            kinds.setdefault(name, set())
        for call, name in KIND_RE.findall(text):
            kinds[name].add(KIND_OF[call])
    for name, found in sorted(kinds.items()):
        if name not in corpus:
            errors.append(f"metric '{name}' is undocumented "
                          f"(not found in any checked document)")
        if len(found) > 1:
            errors.append(f"metric '{name}' is registered as "
                          f"{' and '.join(sorted(found))}")
    return len(kinds)


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


def docs_corpus(errors: list) -> str:
    """The checked documents, concatenated (a missing one is an error)."""
    corpus = ""
    for doc in DOCS:
        if not doc.exists():
            errors.append(f"missing required document: {doc.relative_to(REPO)}")
            continue
        corpus += doc.read_text(encoding="utf-8")
    return corpus


def self_test() -> int:
    """Each doctored input, built in memory, must be rejected."""
    clean = []
    corpus = docs_corpus(clean)
    sources = source_texts()
    check_metrics(sources, corpus, clean)
    readme = REPO / "README.md"
    readme_text = readme.read_text(encoding="utf-8")
    check_links(readme, clean, readme_text)
    if clean:
        print("self-test FAILED: the undoctored tree does not pass: "
              + "; ".join(clean), file=sys.stderr)
        return 1
    def doctored_source(line):
        return lambda errs: check_metrics(
            {**sources, "src/doctored.cpp": line}, corpus, errs)

    doctored = {
        "undocumented metric literal":
            doctored_source('BBA_COUNTER_ADD("doctored.undocumented", 1);'),
        # service.shed is a documented counter; this makes it a gauge too.
        "metric registered as two kinds":
            doctored_source('BBA_GAUGE_SET("service.shed", 1.0);'),
        "broken anchor":
            lambda errs: check_links(
                readme, errs, readme_text + "\n[x](#doctored-anchor)\n"),
    }
    for what, run in doctored.items():
        errs = []
        run(errs)
        if not errs:
            print(f"self-test FAILED: {what} passed the gate",
                  file=sys.stderr)
            return 1
    print(f"self-test passed ({len(doctored)} doctored inputs rejected)")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    errors = []
    corpus = docs_corpus(errors)
    for doc in DOCS:
        if doc.exists():
            check_links(doc, errors)
    metric_count = check_metrics(source_texts(), corpus, errors)

    taxonomies = [
        ("RecoveryFailure value", recovery_failure_enumerators()),
        ("DecodeError value", decode_error_enumerators()),
        ("PeerHealth state", peer_health_states()),
        ("SessionAdmission outcome", session_admission_strings()),
        ("TrackerOutcome rung", tracker_outcome_strings()),
        ("world preset", world_preset_names()),
        ("lidar profile", lidar_profile_names()),
    ]
    for what, names in taxonomies:
        for name in names:
            if name not in corpus:
                errors.append(f"{what} '{name}' is undocumented "
                              f"(not found in any checked document)")
    check_generated_experiments(errors)

    if errors:
        print("docs-health: FAILED")
        for e in errors:
            print(f"  {e}")
        return 1
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
