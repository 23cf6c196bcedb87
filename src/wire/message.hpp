#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/obb.hpp"
#include "geom/pose2.hpp"
#include "signal/image.hpp"
#include "wire/frame.hpp"

namespace bba::wire {

/// Encoder-side knobs of the V2V wire format. The decoder needs none of
/// them: resolutions and intensity depth travel inside the message, so a
/// payload is self-describing and two endpoints never have to agree on a
/// quantization profile out of band.
struct WireConfig {
  /// Fixed-point resolution of every metric quantity (box centers and half
  /// extents, pose-prior translation), meters per LSB.
  double positionResolution = 0.01;
  /// Fixed-point resolution of angles (box yaw, pose-prior yaw), radians
  /// per LSB (0.001 rad ≈ 0.057°).
  double yawResolution = 0.001;
  /// BV pixel intensities ([0,1] floats) are quantized to this many levels
  /// (1..255); level 0 pixels are not transmitted at all.
  int bvIntensityLevels = 255;
  /// Transmit the BV height image (sparse, delta-indexed). Without it the
  /// message is the boxes-only extreme of the paper's bandwidth argument —
  /// but stage 1 of BB-Align cannot run on the receiving side.
  bool includeBvImage = true;
  /// Soft byte budget (0 = unlimited): the encoder drops trailing boxes
  /// until the frame fits, and sets CooperativeMessage::truncated. The BV
  /// image is never truncated — a partial height map is worse than none.
  std::size_t maxMessageBytes = 0;
};

/// The over-the-air V2V payload (Algorithm 1 lines 1–3 of the paper): what
/// one car transmits so a peer can recover the relative pose. Mirrors
/// CarPerceptionData (src/core) plus link metadata; conversion is direct
/// member-wise assignment, kept out of this module so `wire` depends only
/// on geom/signal.
struct CooperativeMessage {
  std::uint64_t senderId = 0;
  std::uint32_t frameIndex = 0;
  /// Capture (sweep-end) time of the payload, microseconds since the
  /// sender's epoch.
  std::int64_t captureTimeMicros = 0;

  /// Sender's own estimate of the relative pose (e.g. from GPS or a
  /// previous lock) — quantized like everything else. The service uses it
  /// to warm-start a bootstrapping track (ServiceConfig::usePosePriors),
  /// in the admission pre-gate and in the cross-peer consistency vote.
  bool hasPosePrior = false;
  Pose2 posePrior;

  /// Set by the encoder when the byte budget forced it to drop boxes.
  bool truncated = false;

  /// BV height image (empty when the encoder skipped it).
  ImageF bvImage;
  /// BV-projected detection boxes.
  std::vector<OrientedBox2> boxes;
};

/// Encoder-side accounting of one encode() call.
struct EncodeStats {
  std::size_t bytes = 0;
  int boxesEncoded = 0;
  /// Boxes dropped to satisfy WireConfig::maxMessageBytes.
  int boxesDropped = 0;
  /// Realized worst-case quantization error across every encoded metric
  /// field (meters) / angle field (radians); bounded by resolution / 2.
  double maxPositionError = 0.0;
  double maxYawErrorRad = 0.0;
};

/// Encode one message. Infallible: any message encodes (the budget drops
/// boxes, never fails the call). Emits wire.* metrics when a registry is
/// installed.
[[nodiscard]] std::vector<std::uint8_t> encode(const CooperativeMessage& msg,
                                               const WireConfig& cfg,
                                               EncodeStats* stats = nullptr);

/// Outcome of one decode() call. `message` is meaningful only when
/// `error == DecodeError::None`; `bytesConsumed` is the full frame size on
/// success (a buffer may then carry further frames) and 0 on failure.
struct DecodeResult {
  DecodeError error = DecodeError::BufferTooSmall;
  CooperativeMessage message;
  std::size_t bytesConsumed = 0;
};

/// Strict decode of one frame from `data`. Never throws, never reads out
/// of bounds, returns a typed error for every malformed input (fuzzed in
/// tests/wire_test.cpp). Emits wire.* metrics when a registry is
/// installed.
[[nodiscard]] DecodeResult decode(const std::uint8_t* data,
                                  std::size_t size);
[[nodiscard]] DecodeResult decode(const std::vector<std::uint8_t>& bytes);

/// Cheap prefix view of one frame: link metadata plus the optional
/// pose-prior claim. The payload is laid out claim-first precisely so an
/// admission stage (CooperationService's spatial pre-gate) can read the
/// claim without decoding — or allocating — the BV image and boxes that
/// dominate the payload. `valid` requires intact framing (magic, version,
/// length, CRC) and a well-formed prefix; the BV/box tail is NOT
/// validated here, so the full decode() stays authoritative for accepted
/// messages.
struct MessagePeek {
  DecodeError error = DecodeError::BufferTooSmall;
  /// Prefix fields (meaningful only when error == DecodeError::None).
  std::uint64_t senderId = 0;
  std::uint32_t frameIndex = 0;
  std::int64_t captureTimeMicros = 0;
  bool hasPosePrior = false;
  Pose2 posePrior;
};

/// Peek one frame's prefix. Same safety contract as decode(): never
/// throws, never reads out of bounds (fuzzed in tests/wire_test.cpp).
[[nodiscard]] MessagePeek peek(const std::uint8_t* data, std::size_t size);
[[nodiscard]] MessagePeek peek(const std::vector<std::uint8_t>& bytes);

}  // namespace bba::wire
