#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "lidar/lidar_model.hpp"
#include "pointcloud/point_cloud.hpp"

namespace bba {

/// Atmospheric degradation of a captured sweep: rain/fog attenuation plus
/// range-dependent dropout and extra range noise. Applied to an already
/// simulated cloud, and — like FaultInjector — every realization is a pure
/// function of (seed, frame, point index, channel): two applications with
/// the same config and frame are byte-identical in any call order, and the
/// dropout and noise channels draw from independent streams, so enabling
/// one never re-randomizes the other (tests/scenario_test.cpp pins both).
///
/// The model degrades the *cloud* (and therefore the BV image stage 1
/// matches on); the simulated box detector is driven by its own
/// DetectorProfile error model and is not rerouted through the weather —
/// stage 2's box input degrades via FaultConfig's box channels instead.
struct WeatherConfig {
  /// Seed of the weather stream. Independent of the scene seed so the same
  /// scenario can be replayed under different weather realizations.
  std::uint64_t seed = 0x5EA5071;

  /// Beer–Lambert extinction coefficient (1/m): a return at range r
  /// survives with probability exp(-2 * attenuationPerMeter * r) — the
  /// out-and-back optical path through the medium.
  double attenuationPerMeter = 0.0;

  /// Extra range-dependent dropout on top of the attenuation: per-return
  /// drop probability ramping linearly from 0 at range 0 to
  /// `dropoutAtRampRange` at `dropoutRampRange` meters (clamped beyond) —
  /// receiver dynamic-range loss on weak far returns.
  double dropoutAtRampRange = 0.0;
  double dropoutRampRange = 100.0;

  /// Additional Gaussian range jitter (meters, along the return ray) —
  /// backscatter from airborne droplets.
  double rangeNoiseSigma = 0.0;

  /// True when any degradation channel is enabled.
  [[nodiscard]] bool active() const;
};

/// Apply the weather realization of frame `frameIndex` to a sweep, in
/// place. Surviving points keep their relative order; an inactive config
/// is a strict no-op (the cloud is untouched, bitwise).
void applyWeather(PointCloud& cloud, int frameIndex,
                  const WeatherConfig& config);

/// Named weather archetypes for the condition-profile registry.
enum class Weather { Clear, Rain, Fog };

inline constexpr int kWeatherCount = 3;

/// "clear" / "rain" / "fog".
[[nodiscard]] const char* toString(Weather w);

/// The pinned degradation parameters of each archetype (clear = inactive;
/// rain = mild extinction + far dropout; fog = heavy extinction that
/// effectively shortens the usable range).
[[nodiscard]] WeatherConfig weatherPreset(Weather w);

/// One car's sensing condition: a beam-count preset (16/32/64 channels,
/// the heterogeneous-resolution axis of paper Figs. 11–12) combined with a
/// weather archetype. Profiles are per-car, so a 64-beam ego can pair with
/// a 16-beam remote car in fog (SequenceConfig::remoteProfile).
struct LidarProfile {
  std::string name = "clear-32";
  LidarConfig sensor = LidarConfig::hdl32();
  WeatherConfig weather;  ///< inactive by default
};

inline constexpr int kLidarProfileCount = 9;  ///< 3 weathers x 3 beam counts

/// Compose a profile from its two axes. `beams` must be 16, 32 or 64.
[[nodiscard]] LidarProfile makeLidarProfile(int beams, Weather w);

/// Look up "<weather>-<beams>" ("clear-32", "rain-16", "fog-64", ...);
/// nullopt for unknown names.
[[nodiscard]] std::optional<LidarProfile> lidarProfileFromString(
    std::string_view name);

/// All profile names, registry order (weather-major: clear-16 ... fog-64).
[[nodiscard]] std::array<const char*, kLidarProfileCount>
allLidarProfileNames();

}  // namespace bba
