// Scenario matrix — the cross-environment robustness sweep behind the
// "Scenario matrix" section of EXPERIMENTS.md.
//
// Axes:
//   * world preset      (sim/presets.hpp: suburban/highway/tunnel/...)
//   * link fault preset (clean / drops / sector — FaultConfig archetypes)
//   * lidar profile     (lidar/conditions.hpp: "<weather>-<beams>" on the
//                        REMOTE car; the ego keeps a clear 32-beam sensor)
//
// Every cell plays the same deterministic stream through the PoseTracker
// degradation ladder and distills success rate (Recovered +
// RecoveredRelaxed), coverage, the ladder-rung breakdown and the mean
// translation error of reported poses into one JSON object per cell.
// tools/gen_experiments.py renders the JSON into the paper-style markdown
// tables and gates fresh runs against bench/scenario_baseline.json.
//
// Reproduce:  build/bench/scenario_matrix --out=scenario_fresh.json
// (deterministic for a fixed --frames; see --help for the axis filters).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "dataset/sequence.hpp"
#include "lidar/conditions.hpp"
#include "sim/presets.hpp"
#include "stream/pose_tracker.hpp"

namespace {

using namespace bba;

// ---- link-fault archetypes ------------------------------------------------
// Named FaultConfig combinations, the third axis of the matrix. `clean` is
// the paper's lossless assumption; `drops` loses 30% of payloads outright;
// `sector` blanks a 120-degree azimuth wedge of half the delivered sweeps
// (the regime that pushes the tracker onto its relaxed rung).

struct FaultPreset {
  const char* name;
  FaultConfig config;
};

std::vector<FaultPreset> allFaultPresets() {
  FaultConfig clean;
  FaultConfig drops;
  drops.frameDropProb = 0.3;
  FaultConfig sector;
  sector.sectorDropProb = 0.5;
  sector.sectorWidthDeg = 120.0;
  return {{"clean", clean}, {"drops", drops}, {"sector", sector}};
}

std::optional<FaultPreset> faultPresetFromString(const std::string& name) {
  for (const FaultPreset& f : allFaultPresets())
    if (name == f.name) return f;
  return std::nullopt;
}

// ---- one cell -------------------------------------------------------------

struct CellResult {
  int frames = 0;
  int delivered = 0;
  int recovered = 0;
  int relaxed = 0;
  int extrapolated = 0;
  int lost = 0;
  int covered = 0;
  /// Mean translation error (m) of ACCEPTED MEASUREMENTS (Recovered +
  /// RecoveredRelaxed frames) against the delivered payload's ground
  /// truth. Extrapolated poses are excluded — their drift is visible in
  /// the ladder breakdown instead, and including it would let a cell with
  /// one lucky lock plus eleven coasting frames swamp the measurement
  /// quality the matrix compares across environments.
  double meanTerr = 0.0;
};

CellResult runCell(WorldPreset preset, const FaultPreset& fault,
                   const LidarProfile& profile, int frames,
                   std::uint64_t seed) {
  SequenceConfig sc;
  sc.seed = seed;
  sc.frames = frames;
  sc.scenario = scenarioPreset(preset);
  sc.faults = fault.config;
  sc.faults.seed = 3;
  // The profile under test rides on the remote car; the ego keeps the
  // default clear 32-beam sensor, so every cell degrades exactly one side.
  sc.remoteProfile = profile;
  const SequenceGenerator gen(sc);

  CellResult out;
  out.frames = frames;
  PoseTracker tracker;
  Rng trackRng(11);
  double terrSum = 0.0;
  int measured = 0;
  for (int k = 0; k < frames; ++k) {
    const StreamFrame f = gen.frame(k);
    if (f.remoteReceived) ++out.delivered;
    const TrackerResult t = tracker.processFrame(f, trackRng);
    bool isMeasurement = false;
    switch (t.outcome) {
      case TrackerOutcome::Recovered:
        ++out.recovered;
        isMeasurement = true;
        break;
      case TrackerOutcome::RecoveredRelaxed:
        ++out.relaxed;
        isMeasurement = true;
        break;
      case TrackerOutcome::Extrapolated:
        ++out.extrapolated;
        break;
      case TrackerOutcome::TrackLost:
        ++out.lost;
        break;
      case TrackerOutcome::Bootstrapping:
      case TrackerOutcome::Held:
      case TrackerOutcome::Relocalized:  // unreachable: no map attached
        break;
    }
    if (t.poseValid) ++out.covered;
    if (isMeasurement) {
      ++measured;
      const Pose2& gt =
          f.remoteReceived ? f.gtDeliveredOtherToEgo : f.gtOtherToEgo;
      terrSum += poseError(t.pose, gt).translation;
    }
    std::fprintf(stderr, "\r  %-10s %-7s %-9s  frame %d/%d   ",
                 toString(preset), fault.name, profile.name.c_str(), k + 1,
                 frames);
  }
  std::fprintf(stderr, "\r%*s\r", 60, "");
  if (measured > 0) out.meanTerr = terrSum / measured;
  return out;
}

// ---- CLI ------------------------------------------------------------------

std::vector<std::string> splitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: scenario_matrix [options]\n"
      "  --presets=a,b,..   world presets (default: all)\n"
      "  --faults=a,b,..    fault presets: clean,drops,sector (default: all)\n"
      "  --profiles=a,..    remote lidar profiles, \"<weather>-<beams>\"\n"
      "                     (default: clear-32,clear-16,rain-32,fog-16)\n"
      "  --frames=N         frames per cell (default: 12)\n"
      "  --seed=N           scenario/sensing seed (default: 7)\n"
      "  --out=FILE         write the per-cell JSON here\n"
      "  --list             print the registries and exit\n");
  std::exit(code);
}

struct Options {
  std::vector<WorldPreset> presets;
  std::vector<FaultPreset> faults;
  std::vector<LidarProfile> profiles;
  int frames = 12;
  std::uint64_t seed = 7;
  std::string outPath;
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (const WorldPreset p : allWorldPresets()) opt.presets.push_back(p);
  opt.faults = allFaultPresets();
  for (const char* name : {"clear-32", "clear-16", "rain-32", "fog-16"})
    opt.profiles.push_back(*lidarProfileFromString(name));

  auto value = [](const char* arg, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = value(arg, "--presets=")) {
      opt.presets.clear();
      for (const std::string& name : splitCsv(v)) {
        const auto p = worldPresetFromString(name);
        if (!p) {
          std::fprintf(stderr, "unknown world preset: %s\n", name.c_str());
          usage(2);
        }
        opt.presets.push_back(*p);
      }
    } else if (const char* v = value(arg, "--faults=")) {
      opt.faults.clear();
      for (const std::string& name : splitCsv(v)) {
        const auto f = faultPresetFromString(name);
        if (!f) {
          std::fprintf(stderr, "unknown fault preset: %s\n", name.c_str());
          usage(2);
        }
        opt.faults.push_back(*f);
      }
    } else if (const char* v = value(arg, "--profiles=")) {
      opt.profiles.clear();
      for (const std::string& name : splitCsv(v)) {
        const auto p = lidarProfileFromString(name);
        if (!p) {
          std::fprintf(stderr, "unknown lidar profile: %s\n", name.c_str());
          usage(2);
        }
        opt.profiles.push_back(*p);
      }
    } else if (const char* v = value(arg, "--frames=")) {
      opt.frames = std::atoi(v);
      if (opt.frames < 1) usage(2);
    } else if (const char* v = value(arg, "--seed=")) {
      opt.seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value(arg, "--out=")) {
      opt.outPath = v;
    } else if (std::strcmp(arg, "--list") == 0) {
      std::printf("world presets:");
      for (const WorldPreset p : allWorldPresets())
        std::printf(" %s", toString(p));
      std::printf("\nfault presets:");
      for (const FaultPreset& f : allFaultPresets())
        std::printf(" %s", f.name);
      std::printf("\nlidar profiles:");
      for (const char* name : allLidarProfileNames())
        std::printf(" %s", name);
      std::printf("\n");
      std::exit(0);
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      usage(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  bench::printHeader(
      std::cout, "Scenario matrix — preset x link fault x lidar profile",
      "pose recovery degrades gracefully, and predictably per environment, "
      "as geometry, link quality and sensing conditions worsen");

  std::printf(
      "\n%-10s %-7s %-9s | %-5s %-5s | %-4s %-4s %-4s %-4s | %-8s\n",
      "preset", "fault", "profile", "succ", "deliv", "rec", "rlx", "ext",
      "lost", "terr-m");
  std::printf("%.*s\n", 78,
              "--------------------------------------------------------------"
              "----------------");

  FILE* json = nullptr;
  if (!opt.outPath.empty()) {
    json = std::fopen(opt.outPath.c_str(), "w");
    if (!json) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opt.outPath.c_str());
      return 1;
    }
    std::fprintf(json,
                 "{\n  \"schema\": \"bba-scenario-matrix-v1\",\n"
                 "  \"frames\": %d,\n  \"seed\": %llu,\n  \"cells\": {",
                 opt.frames, static_cast<unsigned long long>(opt.seed));
  }

  bool firstCell = true;
  for (const WorldPreset preset : opt.presets) {
    for (const FaultPreset& fault : opt.faults) {
      for (const LidarProfile& profile : opt.profiles) {
        const CellResult r =
            runCell(preset, fault, profile, opt.frames, opt.seed);
        const int success = r.recovered + r.relaxed;
        std::printf(
            "%-10s %-7s %-9s | %2d/%-2d %2d/%-2d | %-4d %-4d %-4d %-4d | "
            "%-8.3f\n",
            toString(preset), fault.name, profile.name.c_str(), success,
            r.frames, r.delivered, r.frames, r.recovered, r.relaxed,
            r.extrapolated, r.lost, r.meanTerr);
        if (json) {
          std::fprintf(
              json,
              "%s\n    \"%s/%s/%s\": {\"frames\": %d, \"delivered\": %d, "
              "\"recovered\": %d, \"relaxed\": %d, \"extrapolated\": %d, "
              "\"lost\": %d, \"covered\": %d, \"success_rate\": %.6f, "
              "\"mean_terr\": %.6f}",
              firstCell ? "" : ",", toString(preset), fault.name,
              profile.name.c_str(), r.frames, r.delivered, r.recovered,
              r.relaxed, r.extrapolated, r.lost, r.covered,
              static_cast<double>(success) / r.frames, r.meanTerr);
          firstCell = false;
        }
      }
    }
  }
  if (json) {
    std::fprintf(json, "\n  }\n}\n");
    std::fclose(json);
    std::printf("\nWrote %s\n", opt.outPath.c_str());
  }
  std::printf(
      "\nsucc = frames ending on a measurement rung (Recovered + Relaxed); "
      "terr-m = mean\ntranslation error of those measurements vs the "
      "delivered payload's ground truth.\nThe remote car carries the listed "
      "profile while the ego keeps a clear 32-beam\nsensor.  Regenerate "
      "EXPERIMENTS.md tables:  tools/gen_experiments.py --update "
      "<out.json>\n");
  return 0;
}
