#include "wire/message.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "wire/bytes.hpp"
#include "wire/quantize.hpp"

namespace bba::wire {

namespace {

constexpr char kMagic[4] = {'B', 'B', 'A', 'W'};
constexpr std::uint8_t kVersion = 1;

// Flag bits of the payload flags byte.
constexpr std::uint8_t kFlagPosePrior = 0x01;
constexpr std::uint8_t kFlagTruncated = 0x02;
constexpr std::uint8_t kFlagBvImage = 0x04;

// Semantic sanity caps enforced by the decoder. A payload that passes the
// CRC can still be garbage (an encoder bug, or a corruption the CRC
// happened to miss); these bounds keep such a payload from turning into a
// multi-gigabyte allocation or a physically absurd scene.
constexpr std::uint64_t kMaxImageDim = 4096;
constexpr std::uint64_t kMaxImagePixels = 1u << 22;  // 4M px = 16 MB floats
constexpr double kMaxAbsPosition = 1.0e5;            // meters
constexpr double kMaxHalfExtent = 1.0e3;             // meters
constexpr double kMaxAbsYaw = 16.0;                  // radians (unwrapped)

#if defined(BBA_OBSERVABILITY_ENABLED)
const char* rejectCounterName(DecodeError e) {
  switch (e) {
    case DecodeError::None:
      return nullptr;
    case DecodeError::BufferTooSmall:
      return "wire.reject_buffer_too_small";
    case DecodeError::BadMagic:
      return "wire.reject_bad_magic";
    case DecodeError::UnsupportedVersion:
      return "wire.reject_unsupported_version";
    case DecodeError::TruncatedPayload:
      return "wire.reject_truncated_payload";
    case DecodeError::CrcMismatch:
      return "wire.reject_crc_mismatch";
    case DecodeError::MalformedPayload:
      return "wire.reject_malformed_payload";
    case DecodeError::ValueOutOfRange:
      return "wire.reject_value_out_of_range";
  }
  return nullptr;
}
#endif

/// Encode with the first `boxCount` boxes. The budget logic re-runs this
/// with smaller counts; stats reflect the final call.
std::vector<std::uint8_t> encodeWithBoxCount(const CooperativeMessage& msg,
                                             const WireConfig& cfg,
                                             int boxCount, bool truncated,
                                             EncodeStats* stats) {
  // Normalize the resolutions through their on-wire micro-unit form so the
  // encoder quantizes with exactly the resolution the decoder will
  // reconstruct (1e4 µm * 1e-6 is not the same double as 0.01).
  const Quantizer pos =
      Quantizer::fromMicroUnits(Quantizer{cfg.positionResolution}.microUnits());
  const Quantizer yaw =
      Quantizer::fromMicroUnits(Quantizer{cfg.yawResolution}.microUnits());
  const int levels = std::clamp(cfg.bvIntensityLevels, 1, 255);

  EncodeStats st;
  st.boxesEncoded = boxCount;
  st.boxesDropped = static_cast<int>(msg.boxes.size()) - boxCount;
  auto trackPos = [&st, &pos](double v) {
    st.maxPositionError = std::max(st.maxPositionError, pos.error(v));
    return pos.quantize(v);
  };
  auto trackYaw = [&st, &yaw](double v) {
    st.maxYawErrorRad = std::max(st.maxYawErrorRad, yaw.error(v));
    return yaw.quantize(v);
  };

  std::vector<std::uint8_t> out;
  out.reserve(64 + msg.bvImage.size() / 8 +
              static_cast<std::size_t>(boxCount) * 12);
  FrameBuilder frame(out, kMagic, kVersion);
  ByteWriter w(frame.buffer());

  w.varint(msg.senderId);
  w.varint(msg.frameIndex);
  w.svarint(msg.captureTimeMicros);

  const bool hasImage = cfg.includeBvImage && !msg.bvImage.empty();
  std::uint8_t flags = 0;
  if (msg.hasPosePrior) flags |= kFlagPosePrior;
  if (truncated || msg.truncated) flags |= kFlagTruncated;
  if (hasImage) flags |= kFlagBvImage;
  w.u8(flags);

  w.varint(pos.microUnits());
  w.varint(yaw.microUnits());

  if (msg.hasPosePrior) {
    w.svarint(trackPos(msg.posePrior.t.x));
    w.svarint(trackPos(msg.posePrior.t.y));
    w.svarint(trackYaw(msg.posePrior.theta));
  }

  if (hasImage) {
    w.varint(static_cast<std::uint64_t>(msg.bvImage.width()));
    w.varint(static_cast<std::uint64_t>(msg.bvImage.height()));
    w.varint(static_cast<std::uint64_t>(levels));
    // Sparse pixels: delta-coded linear indices + quantized level. Level-0
    // pixels (free space, the overwhelming majority of a BV image) cost
    // nothing — this is the "sparse image compresses to ~nonzero pixels"
    // model of CarPerceptionData::approxPayloadBytes, made real.
    const std::vector<float>& px = msg.bvImage.data();
    std::uint64_t nonzero = 0;
    for (float v : px) {
      if (std::llround(std::clamp(v, 0.0f, 1.0f) * levels) > 0) ++nonzero;
    }
    w.varint(nonzero);
    std::int64_t prev = -1;
    for (std::size_t i = 0; i < px.size(); ++i) {
      const long long q =
          std::llround(std::clamp(px[i], 0.0f, 1.0f) * levels);
      if (q <= 0) continue;
      w.varint(static_cast<std::uint64_t>(static_cast<std::int64_t>(i) -
                                          prev));
      prev = static_cast<std::int64_t>(i);
      w.u8(static_cast<std::uint8_t>(q));
    }
  }

  w.varint(static_cast<std::uint64_t>(boxCount));
  for (int b = 0; b < boxCount; ++b) {
    const OrientedBox2& box = msg.boxes[static_cast<std::size_t>(b)];
    w.svarint(trackPos(box.center.x));
    w.svarint(trackPos(box.center.y));
    // Half extents are strictly positive: quantize, then clamp to one LSB
    // so a sliver box never degenerates to zero width on the wire.
    w.varint(static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, trackPos(box.halfExtent.x))));
    w.varint(static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, trackPos(box.halfExtent.y))));
    w.svarint(trackYaw(box.yaw));
  }

  frame.finish();
  st.bytes = out.size();
  if (stats) *stats = st;
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode(const CooperativeMessage& msg,
                                 const WireConfig& cfg, EncodeStats* stats) {
  BBA_ASSERT(cfg.positionResolution > 0.0 && cfg.yawResolution > 0.0);
  const int total = static_cast<int>(msg.boxes.size());
  EncodeStats st;
  std::vector<std::uint8_t> out =
      encodeWithBoxCount(msg, cfg, total, false, &st);
  if (cfg.maxMessageBytes > 0 && out.size() > cfg.maxMessageBytes &&
      total > 0) {
    // Largest prefix of boxes that fits the budget (encoded size is
    // monotonic in the box count, so binary search works). Callers order
    // boxes by importance before encoding if they care which survive.
    int lo = 0, hi = total - 1;  // highest count known over budget: total
    while (lo < hi) {
      const int mid = lo + (hi - lo + 1) / 2;
      const std::vector<std::uint8_t> probe =
          encodeWithBoxCount(msg, cfg, mid, true, nullptr);
      if (probe.size() <= cfg.maxMessageBytes) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    out = encodeWithBoxCount(msg, cfg, lo, true, &st);
  }
  BBA_COUNTER_ADD("wire.messages_encoded", 1);
  BBA_COUNTER_ADD("wire.bytes_encoded",
                  static_cast<std::int64_t>(out.size()));
  BBA_COUNTER_ADD("wire.boxes_truncated", st.boxesDropped);
  BBA_HISTOGRAM_OBSERVE("wire.message_bytes",
                        static_cast<double>(out.size()));
  BBA_HISTOGRAM_OBSERVE("wire.quant_error_position", st.maxPositionError);
  BBA_HISTOGRAM_OBSERVE("wire.quant_error_yaw_deg",
                        st.maxYawErrorRad * kRadToDeg);
  if (stats) *stats = st;
  return out;
}

namespace {

/// Quantizers + image flag carried from the payload prefix to the tail
/// parser.
struct PayloadPrefix {
  Quantizer pos;
  Quantizer yaw;
  bool hasImage = false;
};

/// Parse the payload prefix: link metadata, flags, quantizers and the
/// optional pose-prior claim. Shared verbatim by the full decode and by
/// peek(), so the two can never disagree on what a claim says.
DecodeError parsePrefix(ByteReader& r, CooperativeMessage& msg,
                        PayloadPrefix& prefix) {
  std::uint64_t u = 0;
  std::int64_t s = 0;

  if (!r.varint(u)) return DecodeError::MalformedPayload;
  msg.senderId = u;
  if (!r.varint(u)) return DecodeError::MalformedPayload;
  if (u > 0xFFFFFFFFu) return DecodeError::ValueOutOfRange;
  msg.frameIndex = static_cast<std::uint32_t>(u);
  if (!r.svarint(s)) return DecodeError::MalformedPayload;
  msg.captureTimeMicros = s;

  std::uint8_t flags = 0;
  if (!r.u8(flags)) return DecodeError::MalformedPayload;
  if ((flags & ~(kFlagPosePrior | kFlagTruncated | kFlagBvImage)) != 0)
    return DecodeError::ValueOutOfRange;
  msg.hasPosePrior = (flags & kFlagPosePrior) != 0;
  msg.truncated = (flags & kFlagTruncated) != 0;
  prefix.hasImage = (flags & kFlagBvImage) != 0;

  std::uint64_t posMicro = 0, yawMicro = 0;
  if (!r.varint(posMicro) || !r.varint(yawMicro))
    return DecodeError::MalformedPayload;
  if (posMicro == 0 || posMicro > 100'000'000ull || yawMicro == 0 ||
      yawMicro > 100'000'000ull)
    return DecodeError::ValueOutOfRange;
  prefix.pos = Quantizer::fromMicroUnits(posMicro);
  prefix.yaw = Quantizer::fromMicroUnits(yawMicro);

  if (msg.hasPosePrior) {
    std::int64_t qx = 0, qy = 0, qt = 0;
    if (!r.svarint(qx) || !r.svarint(qy) || !r.svarint(qt))
      return DecodeError::MalformedPayload;
    msg.posePrior.t.x = prefix.pos.dequantize(qx);
    msg.posePrior.t.y = prefix.pos.dequantize(qy);
    msg.posePrior.theta = prefix.yaw.dequantize(qt);
    if (std::abs(msg.posePrior.t.x) > kMaxAbsPosition ||
        std::abs(msg.posePrior.t.y) > kMaxAbsPosition ||
        std::abs(msg.posePrior.theta) > kMaxAbsYaw)
      return DecodeError::ValueOutOfRange;
  }
  return DecodeError::None;
}

/// Payload parser (framing already validated). Returns the first error
/// encountered; on success `msg` is fully populated.
DecodeError parsePayload(const std::uint8_t* payload, std::size_t size,
                         CooperativeMessage& msg) {
  ByteReader r(payload, size);
  PayloadPrefix prefix;
  if (const DecodeError err = parsePrefix(r, msg, prefix);
      err != DecodeError::None)
    return err;
  const Quantizer& pos = prefix.pos;
  const Quantizer& yaw = prefix.yaw;

  if (prefix.hasImage) {
    std::uint64_t w = 0, h = 0, levels = 0, nonzero = 0;
    if (!r.varint(w) || !r.varint(h) || !r.varint(levels) ||
        !r.varint(nonzero))
      return DecodeError::MalformedPayload;
    if (w == 0 || h == 0 || w > kMaxImageDim || h > kMaxImageDim ||
        w * h > kMaxImagePixels)
      return DecodeError::ValueOutOfRange;
    if (levels == 0 || levels > 255) return DecodeError::ValueOutOfRange;
    if (nonzero > w * h) return DecodeError::ValueOutOfRange;
    // Each sparse pixel costs at least 2 bytes — a count beyond that is
    // structurally impossible, and checking before the image allocation
    // keeps a lying count from becoming a giant reserve.
    if (nonzero > r.remaining() / 2) return DecodeError::MalformedPayload;
    msg.bvImage = ImageF(static_cast<int>(w), static_cast<int>(h));
    std::int64_t prev = -1;
    const auto pixels = static_cast<std::int64_t>(w * h);
    for (std::uint64_t i = 0; i < nonzero; ++i) {
      std::uint64_t gap = 0;
      std::uint8_t level = 0;
      if (!r.varint(gap) || !r.u8(level))
        return DecodeError::MalformedPayload;
      if (gap == 0 || gap > static_cast<std::uint64_t>(pixels))
        return DecodeError::ValueOutOfRange;
      const std::int64_t idx = prev + static_cast<std::int64_t>(gap);
      if (idx >= pixels) return DecodeError::ValueOutOfRange;
      if (level == 0 || level > levels) return DecodeError::ValueOutOfRange;
      msg.bvImage.data()[static_cast<std::size_t>(idx)] =
          static_cast<float>(level) / static_cast<float>(levels);
      prev = idx;
    }
  }

  std::uint64_t boxCount = 0;
  if (!r.varint(boxCount)) return DecodeError::MalformedPayload;
  // Each box is at least 5 bytes on the wire.
  if (boxCount > r.remaining()) return DecodeError::MalformedPayload;
  msg.boxes.reserve(static_cast<std::size_t>(boxCount));
  for (std::uint64_t b = 0; b < boxCount; ++b) {
    std::int64_t qcx = 0, qcy = 0, qyaw = 0;
    std::uint64_t qhx = 0, qhy = 0;
    if (!r.svarint(qcx) || !r.svarint(qcy) || !r.varint(qhx) ||
        !r.varint(qhy) || !r.svarint(qyaw))
      return DecodeError::MalformedPayload;
    OrientedBox2 box;
    box.center.x = pos.dequantize(qcx);
    box.center.y = pos.dequantize(qcy);
    box.halfExtent.x = pos.dequantize(static_cast<std::int64_t>(qhx));
    box.halfExtent.y = pos.dequantize(static_cast<std::int64_t>(qhy));
    box.yaw = yaw.dequantize(qyaw);
    if (std::abs(box.center.x) > kMaxAbsPosition ||
        std::abs(box.center.y) > kMaxAbsPosition)
      return DecodeError::ValueOutOfRange;
    if (box.halfExtent.x <= 0.0 || box.halfExtent.x > kMaxHalfExtent ||
        box.halfExtent.y <= 0.0 || box.halfExtent.y > kMaxHalfExtent)
      return DecodeError::ValueOutOfRange;
    if (std::abs(box.yaw) > kMaxAbsYaw) return DecodeError::ValueOutOfRange;
    msg.boxes.push_back(box);
  }

  // Strict: a well-formed payload is consumed exactly.
  if (r.remaining() != 0) return DecodeError::MalformedPayload;
  return DecodeError::None;
}

}  // namespace

DecodeResult decode(const std::uint8_t* data, std::size_t size) {
  DecodeResult res;
  FrameView view;
  res.error = unframe(data, size, kMagic, kVersion, view);
  if (res.error == DecodeError::None) {
    res.error = parsePayload(view.payload, view.payloadSize, res.message);
  }
  if (res.error != DecodeError::None) {
    res.message = CooperativeMessage{};
    res.bytesConsumed = 0;
    BBA_COUNTER_ADD("wire.messages_rejected", 1);
#if defined(BBA_OBSERVABILITY_ENABLED)
    if (obs::MetricsRegistry* reg = obs::metricsRegistry()) {
      if (const char* name = rejectCounterName(res.error))
        reg->counter(name).increment();
    }
#endif
    return res;
  }
  res.bytesConsumed = view.frameSize;
  BBA_COUNTER_ADD("wire.messages_decoded", 1);
  BBA_COUNTER_ADD("wire.bytes_decoded",
                  static_cast<std::int64_t>(view.frameSize));
  return res;
}

DecodeResult decode(const std::vector<std::uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}

MessagePeek peek(const std::uint8_t* data, std::size_t size) {
  MessagePeek out;
  FrameView view;
  out.error = unframe(data, size, kMagic, kVersion, view);
  if (out.error == DecodeError::None) {
    ByteReader r(view.payload, view.payloadSize);
    CooperativeMessage msg;
    PayloadPrefix prefix;
    out.error = parsePrefix(r, msg, prefix);
    if (out.error == DecodeError::None) {
      out.senderId = msg.senderId;
      out.frameIndex = msg.frameIndex;
      out.captureTimeMicros = msg.captureTimeMicros;
      out.hasPosePrior = msg.hasPosePrior;
      out.posePrior = msg.posePrior;
    }
  }
  if (out.error != DecodeError::None) {
    MessagePeek clean;
    clean.error = out.error;
    out = clean;
  }
  BBA_COUNTER_ADD("wire.peeks", 1);
  return out;
}

MessagePeek peek(const std::vector<std::uint8_t>& bytes) {
  return peek(bytes.data(), bytes.size());
}

}  // namespace bba::wire
