// wire module: byte primitives, framing, the V2V message codec, and the
// malformed-input fuzz contract (typed error or valid message — never a
// crash, never an out-of-bounds read).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/bb_align.hpp"
#include "dataset/fault.hpp"
#include "dataset/generator.hpp"
#include "geom/pose2.hpp"
#include "service/cooperation_service.hpp"
#include "wire/bytes.hpp"
#include "wire/crc32.hpp"
#include "wire/frame.hpp"
#include "wire/message.hpp"
#include "wire/quantize.hpp"

namespace bba::wire {
namespace {

// ---- byte primitives ------------------------------------------------------

TEST(Bytes, ZigzagRoundTripsExtremes) {
  for (std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::int64_t{INT64_MAX}, std::int64_t{INT64_MIN},
        std::int64_t{-123456789}, std::int64_t{123456789}}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  // Small magnitudes map to small codes (what makes svarint compact).
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

TEST(Bytes, VarintRoundTripsBoundaries) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const std::vector<std::uint64_t> values = {
      0,    1,    127,        128,        16383, 16384,
      (1ull << 32) - 1, 1ull << 32, UINT64_MAX};
  for (std::uint64_t v : values) w.varint(v);
  ByteReader r(buf.data(), buf.size());
  for (std::uint64_t v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(r.varint(got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, VarintRejectsOverlongAndTruncated) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  std::vector<std::uint8_t> overlong(11, 0x80);
  ByteReader r1(overlong.data(), overlong.size());
  std::uint64_t v = 0;
  EXPECT_FALSE(r1.varint(v));
  EXPECT_EQ(r1.offset(), 0u);  // failed read does not advance

  // 10th byte carrying more than the single remaining bit overflows.
  std::vector<std::uint8_t> overflow(10, 0x80);
  overflow[9] = 0x02;
  ByteReader r2(overflow.data(), overflow.size());
  EXPECT_FALSE(r2.varint(v));

  // Truncated mid-value.
  std::vector<std::uint8_t> cut = {0x80, 0x80};
  ByteReader r3(cut.data(), cut.size());
  EXPECT_FALSE(r3.varint(v));
  EXPECT_EQ(r3.offset(), 0u);
}

TEST(Bytes, FixedWidthReadsAreBoundsChecked) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.f64le(-3.25);
  w.f32le(7.5f);
  w.u64le(0x0123456789ABCDEFull);
  ByteReader r(buf.data(), buf.size());
  double d = 0;
  float f = 0;
  std::uint64_t u = 0;
  ASSERT_TRUE(r.f64le(d));
  ASSERT_TRUE(r.f32le(f));
  ASSERT_TRUE(r.u64le(u));
  EXPECT_EQ(d, -3.25);
  EXPECT_EQ(f, 7.5f);
  EXPECT_EQ(u, 0x0123456789ABCDEFull);
  EXPECT_FALSE(r.f32le(f));  // exhausted
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Quantizer, ErrorBoundedByHalfResolution) {
  Rng rng(11);
  for (double res : {0.001, 0.01, 0.1}) {
    const Quantizer q =
        Quantizer::fromMicroUnits(Quantizer{res}.microUnits());
    for (int i = 0; i < 200; ++i) {
      const double v = rng.uniform(-500.0, 500.0);
      EXPECT_LE(q.error(v), res / 2 + 1e-12);
      EXPECT_EQ(q.quantize(q.roundTrip(v)), q.quantize(v));
    }
  }
}

// ---- framing --------------------------------------------------------------

TEST(Frame, RoundTripsAndRejectsEachDamageMode) {
  const char magic[4] = {'T', 'E', 'S', 'T'};
  std::vector<std::uint8_t> buf;
  FrameBuilder fb(buf, magic, 1);
  ByteWriter w(fb.buffer());
  w.varint(424242);
  fb.finish();
  ASSERT_EQ(buf.size(), kFrameOverheadBytes + 3);

  FrameView view;
  ASSERT_EQ(unframe(buf.data(), buf.size(), magic, 1, view),
            DecodeError::None);
  EXPECT_EQ(view.version, 1);
  EXPECT_EQ(view.frameSize, buf.size());
  ByteReader r(view.payload, view.payloadSize);
  std::uint64_t v = 0;
  ASSERT_TRUE(r.varint(v));
  EXPECT_EQ(v, 424242u);

  EXPECT_EQ(unframe(buf.data(), 5, magic, 1, view),
            DecodeError::BufferTooSmall);
  std::vector<std::uint8_t> bad = buf;
  bad[0] ^= 0xFF;
  EXPECT_EQ(unframe(bad.data(), bad.size(), magic, 1, view),
            DecodeError::BadMagic);
  bad = buf;
  bad[4] = 9;
  EXPECT_EQ(unframe(bad.data(), bad.size(), magic, 1, view),
            DecodeError::UnsupportedVersion);
  bad = buf;
  bad[5] = 0xFF;  // declared length far beyond the buffer
  EXPECT_EQ(unframe(bad.data(), bad.size(), magic, 1, view),
            DecodeError::TruncatedPayload);
  bad = buf;
  bad[kFrameOverheadBytes - 4] ^= 0x01;  // payload byte
  EXPECT_EQ(unframe(bad.data(), bad.size(), magic, 1, view),
            DecodeError::CrcMismatch);
}

TEST(Frame, DecodeErrorNamesAreStable) {
  for (int i = 0; i < kDecodeErrorCount; ++i) {
    const char* name = toString(static_cast<DecodeError>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
  }
  EXPECT_STREQ(toString(DecodeError::CrcMismatch), "crc_mismatch");
}

// ---- message codec --------------------------------------------------------

CooperativeMessage randomMessage(Rng& rng, int imageSize = 32) {
  CooperativeMessage msg;
  msg.senderId = static_cast<std::uint64_t>(rng.uniformInt(0, 1 << 30));
  msg.frameIndex = static_cast<std::uint32_t>(rng.uniformInt(0, 100000));
  msg.captureTimeMicros = rng.uniformInt(-1000000, 1000000);
  msg.hasPosePrior = rng.bernoulli(0.5);
  msg.posePrior = Pose2{{rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)},
                        rng.uniform(-3.1, 3.1)};
  msg.bvImage = ImageF(imageSize, imageSize);
  const int nonzero = rng.uniformInt(0, imageSize * imageSize / 4);
  for (int i = 0; i < nonzero; ++i) {
    msg.bvImage(rng.uniformInt(0, imageSize - 1),
                rng.uniformInt(0, imageSize - 1)) =
        static_cast<float>(rng.uniform(0.0, 1.0));
  }
  const int boxes = rng.uniformInt(0, 12);
  for (int i = 0; i < boxes; ++i) {
    OrientedBox2 box;
    box.center = {rng.uniform(-90.0, 90.0), rng.uniform(-90.0, 90.0)};
    box.halfExtent = {rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)};
    box.yaw = rng.uniform(-3.1, 3.1);
    msg.boxes.push_back(box);
  }
  return msg;
}

TEST(Message, RoundTripPreservesFieldsWithinQuantization) {
  Rng rng(2024);
  WireConfig cfg;
  for (int trial = 0; trial < 50; ++trial) {
    const CooperativeMessage msg = randomMessage(rng);
    EncodeStats stats;
    const std::vector<std::uint8_t> bytes = encode(msg, cfg, &stats);
    EXPECT_EQ(stats.bytes, bytes.size());
    EXPECT_LE(stats.maxPositionError, cfg.positionResolution / 2 + 1e-12);
    EXPECT_LE(stats.maxYawErrorRad, cfg.yawResolution / 2 + 1e-12);

    const DecodeResult res = decode(bytes);
    ASSERT_EQ(res.error, DecodeError::None) << toString(res.error);
    EXPECT_EQ(res.bytesConsumed, bytes.size());
    const CooperativeMessage& got = res.message;
    EXPECT_EQ(got.senderId, msg.senderId);
    EXPECT_EQ(got.frameIndex, msg.frameIndex);
    EXPECT_EQ(got.captureTimeMicros, msg.captureTimeMicros);
    EXPECT_EQ(got.hasPosePrior, msg.hasPosePrior);
    EXPECT_FALSE(got.truncated);
    if (msg.hasPosePrior) {
      EXPECT_NEAR(got.posePrior.t.x, msg.posePrior.t.x,
                  cfg.positionResolution / 2 + 1e-12);
      EXPECT_NEAR(got.posePrior.t.y, msg.posePrior.t.y,
                  cfg.positionResolution / 2 + 1e-12);
      EXPECT_NEAR(got.posePrior.theta, msg.posePrior.theta,
                  cfg.yawResolution / 2 + 1e-12);
    }
    ASSERT_EQ(got.boxes.size(), msg.boxes.size());
    for (std::size_t i = 0; i < msg.boxes.size(); ++i) {
      EXPECT_NEAR(got.boxes[i].center.x, msg.boxes[i].center.x,
                  cfg.positionResolution / 2 + 1e-12);
      EXPECT_NEAR(got.boxes[i].center.y, msg.boxes[i].center.y,
                  cfg.positionResolution / 2 + 1e-12);
      EXPECT_NEAR(got.boxes[i].halfExtent.x, msg.boxes[i].halfExtent.x,
                  cfg.positionResolution / 2 + 1e-12);
      EXPECT_NEAR(got.boxes[i].yaw, msg.boxes[i].yaw,
                  cfg.yawResolution / 2 + 1e-12);
    }
    // BV pixels: quantized to 1/levels steps, zeros stay exactly zero.
    ASSERT_EQ(got.bvImage.width(), msg.bvImage.width());
    ASSERT_EQ(got.bvImage.height(), msg.bvImage.height());
    for (std::size_t i = 0; i < msg.bvImage.data().size(); ++i) {
      const float orig = msg.bvImage.data()[i];
      const float dec = got.bvImage.data()[i];
      if (orig == 0.0f) {
        EXPECT_EQ(dec, 0.0f);
      } else {
        EXPECT_NEAR(dec, orig, 0.5f / cfg.bvIntensityLevels + 1e-6f);
      }
    }
  }
}

TEST(Message, EncodeIsDeterministic) {
  Rng rng(7);
  const CooperativeMessage msg = randomMessage(rng);
  const WireConfig cfg;
  EXPECT_EQ(encode(msg, cfg), encode(msg, cfg));
}

TEST(Message, CoarseResolutionsShrinkTheMessage) {
  Rng rng(5);
  const CooperativeMessage msg = randomMessage(rng, 64);
  WireConfig fine;
  fine.positionResolution = 0.001;
  WireConfig coarse;
  coarse.positionResolution = 0.1;
  coarse.bvIntensityLevels = 15;
  EXPECT_LT(encode(msg, coarse).size(), encode(msg, fine).size());
}

TEST(Message, BoxOnlyPayloadIsTiny) {
  Rng rng(6);
  CooperativeMessage msg = randomMessage(rng, 64);
  WireConfig cfg;
  cfg.includeBvImage = false;
  const std::vector<std::uint8_t> bytes = encode(msg, cfg);
  const DecodeResult res = decode(bytes);
  ASSERT_EQ(res.error, DecodeError::None);
  EXPECT_TRUE(res.message.bvImage.empty());
  EXPECT_EQ(res.message.boxes.size(), msg.boxes.size());
  EXPECT_LT(bytes.size(), kFrameOverheadBytes + 16 + msg.boxes.size() * 20);
}

TEST(Message, TruncatedFlagSurvivesEncodeAndDecode) {
  // The encoder never drops boxes itself; a sender that cut its box list
  // marks the message, and the mark must reach the receiver.
  Rng rng(9);
  CooperativeMessage msg = randomMessage(rng, 16);
  for (const bool truncated : {false, true}) {
    msg.truncated = truncated;
    const DecodeResult res = decode(encode(msg, WireConfig{}));
    ASSERT_EQ(res.error, DecodeError::None);
    EXPECT_EQ(res.message.truncated, truncated);
    EXPECT_EQ(res.message.boxes.size(), msg.boxes.size());
  }
}

TEST(Message, ConcatenatedFramesDecodeSequentially) {
  Rng rng(13);
  const CooperativeMessage a = randomMessage(rng);
  const CooperativeMessage b = randomMessage(rng);
  const WireConfig cfg;
  std::vector<std::uint8_t> stream = encode(a, cfg);
  const std::vector<std::uint8_t> second = encode(b, cfg);
  stream.insert(stream.end(), second.begin(), second.end());

  const DecodeResult first = decode(stream);
  ASSERT_EQ(first.error, DecodeError::None);
  EXPECT_EQ(first.message.senderId, a.senderId);
  const DecodeResult rest = decode(stream.data() + first.bytesConsumed,
                                   stream.size() - first.bytesConsumed);
  ASSERT_EQ(rest.error, DecodeError::None);
  EXPECT_EQ(rest.message.senderId, b.senderId);
  EXPECT_EQ(first.bytesConsumed + rest.bytesConsumed, stream.size());
}

TEST(Message, FutureVersionIsRejectedNotMisparsed) {
  Rng rng(17);
  std::vector<std::uint8_t> bytes = encode(randomMessage(rng), WireConfig{});
  bytes[4] = 2;  // version byte
  EXPECT_EQ(decode(bytes).error, DecodeError::UnsupportedVersion);
}

// ---- malformed-input fuzz -------------------------------------------------

/// Re-frame `bytes` with a freshly computed CRC so payload mutations reach
/// the parser instead of dying at the CRC gate.
void fixCrc(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFrameOverheadBytes) return;
  const std::size_t payloadLen = bytes.size() - kFrameOverheadBytes;
  bytes[5] = static_cast<std::uint8_t>(payloadLen);
  bytes[6] = static_cast<std::uint8_t>(payloadLen >> 8);
  bytes[7] = static_cast<std::uint8_t>(payloadLen >> 16);
  bytes[8] = static_cast<std::uint8_t>(payloadLen >> 24);
  const std::uint32_t crc = crc32(bytes.data() + 9, payloadLen);
  bytes[bytes.size() - 4] = static_cast<std::uint8_t>(crc);
  bytes[bytes.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
  bytes[bytes.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
  bytes[bytes.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
}

/// 10k deterministic seeded mutations of valid messages. The contract
/// under test: decode() never crashes, never reads out of bounds (ASan/
/// UBSan run this in CI), and returns either a typed error or a valid
/// message. A share of the mutations re-seal the CRC so deep payload
/// parse paths are reached, not just the framing gates.
TEST(WireFuzz, TenThousandMutationsNeverCrash) {
  Rng rng(0xF077);
  // A pool of valid messages across configs, as mutation bases.
  std::vector<std::vector<std::uint8_t>> pool;
  for (int i = 0; i < 8; ++i) {
    WireConfig cfg;
    cfg.includeBvImage = (i % 2 == 0);
    cfg.bvIntensityLevels = (i % 3 == 0) ? 15 : 255;
    cfg.positionResolution = (i % 4 == 0) ? 0.1 : 0.01;
    pool.push_back(encode(randomMessage(rng, 16 + 8 * (i % 3)), cfg));
  }

  int rejected = 0, accepted = 0;
  std::vector<int> byCause(kDecodeErrorCount, 0);
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<std::uint8_t> bytes =
        pool[static_cast<std::size_t>(rng.uniformInt(0, 7))];
    const int mode = rng.uniformInt(0, 5);
    switch (mode) {
      case 0: {  // raw bit flips
        const int flips = rng.uniformInt(1, 8);
        for (int f = 0; f < flips; ++f) {
          const int bit =
              rng.uniformInt(0, static_cast<int>(bytes.size()) * 8 - 1);
          bytes[static_cast<std::size_t>(bit / 8)] ^=
              static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      }
      case 1:  // truncation
        bytes.resize(static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bytes.size()))));
        break;
      case 2: {  // random garbage
        bytes.resize(static_cast<std::size_t>(rng.uniformInt(0, 64)));
        for (auto& b : bytes)
          b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        break;
      }
      case 3: {  // splice two messages
        const std::vector<std::uint8_t>& other =
            pool[static_cast<std::size_t>(rng.uniformInt(0, 7))];
        const std::size_t cut = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bytes.size())));
        const std::size_t cut2 = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(other.size())));
        bytes.resize(cut);
        bytes.insert(bytes.end(), other.begin() + static_cast<long>(cut2),
                     other.end());
        break;
      }
      case 4: {  // payload mutation with a re-sealed CRC: reaches the parser
        const int flips = rng.uniformInt(1, 12);
        for (int f = 0; f < flips; ++f) {
          const int bit =
              rng.uniformInt(0, static_cast<int>(bytes.size()) * 8 - 1);
          bytes[static_cast<std::size_t>(bit / 8)] ^=
              static_cast<std::uint8_t>(1u << (bit % 8));
        }
        fixCrc(bytes);
        break;
      }
      default:  // truncation with a re-sealed CRC
        bytes.resize(static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bytes.size()))));
        fixCrc(bytes);
        break;
    }

    const DecodeResult res = decode(bytes);
    const int cause = static_cast<int>(res.error);
    ASSERT_GE(cause, 0);
    ASSERT_LT(cause, kDecodeErrorCount);
    if (res.error == DecodeError::None) {
      ++accepted;
      // A mutation that still decodes must yield a sane message.
      EXPECT_LE(res.bytesConsumed, bytes.size());
      EXPECT_LE(res.message.boxes.size(), 1u << 20);
      EXPECT_LE(res.message.bvImage.size(), 1u << 22);
    } else {
      ++rejected;
      ++byCause[static_cast<std::size_t>(cause)];
      EXPECT_EQ(res.bytesConsumed, 0u);
      EXPECT_TRUE(res.message.boxes.empty());
    }
  }
  // The loop must actually exercise rejection, and the CRC-sealed modes
  // must push some inputs past the framing gates into the parser.
  EXPECT_GT(rejected, 5000);
  EXPECT_GT(byCause[static_cast<int>(DecodeError::MalformedPayload)] +
                byCause[static_cast<int>(DecodeError::ValueOutOfRange)],
            100);
}

// ---- payload fault channel ------------------------------------------------

TEST(PayloadFaults, DeterministicPerFrameAndRejectedTyped) {
  Rng rng(21);
  const std::vector<std::uint8_t> clean =
      encode(randomMessage(rng), WireConfig{});

  FaultConfig fc;
  fc.seed = 99;
  fc.payloadBitFlipProb = 1.0;
  EXPECT_TRUE(fc.any());
  const FaultInjector injector(fc);
  const FaultInjector twin(fc);
  for (int frame = 0; frame < 16; ++frame) {
    std::vector<std::uint8_t> a = clean;
    std::vector<std::uint8_t> b = clean;
    injector.applyPayloadFaults(a, frame);
    twin.applyPayloadFaults(b, frame);
    EXPECT_EQ(a, b);  // pure function of (seed, frame, size)
    EXPECT_NE(a, clean);
    const DecodeResult res = decode(a);
    EXPECT_NE(res.error, DecodeError::None);
  }
}

TEST(PayloadFaults, TruncationChannelShortensTheBuffer) {
  Rng rng(22);
  const std::vector<std::uint8_t> clean =
      encode(randomMessage(rng), WireConfig{});
  FaultConfig fc;
  fc.seed = 5;
  fc.payloadTruncateProb = 1.0;
  const FaultInjector injector(fc);
  int shorter = 0;
  for (int frame = 0; frame < 16; ++frame) {
    std::vector<std::uint8_t> bytes = clean;
    injector.applyPayloadFaults(bytes, frame);
    ASSERT_LE(bytes.size(), clean.size());
    if (bytes.size() < clean.size()) {
      ++shorter;
      EXPECT_NE(decode(bytes).error, DecodeError::None);
    }
  }
  EXPECT_GT(shorter, 8);

  // Enabling the payload channel must not re-randomize the others.
  FaultConfig base;
  base.seed = 5;
  base.frameDropProb = 0.3;
  FaultConfig withPayload = base;
  withPayload.payloadTruncateProb = 1.0;
  const FaultInjector a(base), b(withPayload);
  for (int frame = 0; frame < 32; ++frame) {
    EXPECT_EQ(a.frameFaults(frame).dropped, b.frameFaults(frame).dropped);
  }
}

// ---- end-to-end acceptance ------------------------------------------------

/// The recovery-grade contract of the codec: running BB-Align on a payload
/// that went through encode → decode at default quantization must land
/// within 2 cm (translation) of the direct in-memory path, on pinned
/// pairs the direct path is known to recover (same fixture family as
/// tests/obs_test.cpp).
TEST(Acceptance, RecoveryThroughCodecMatchesDirectPath) {
  DatasetConfig dcfg;
  dcfg.seed = 4242;
  const DatasetGenerator gen(dcfg);
  const BBAlign aligner;
  const WireConfig wcfg;  // default quantization

  // Pinned pairs: both paths are known to succeed on these (pair 1's wire
  // path loses the success criterion to quantization at the inlier
  // threshold; pair 3 does not recover directly either).
  for (const int pairIndex : {0, 2, 4}) {
    const auto pair = gen.generatePair(pairIndex);
    ASSERT_TRUE(pair.has_value());
    const CarPerceptionData ego =
        aligner.makeCarData(pair->egoCloud, pair->egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(pair->otherCloud, pair->otherDets);

    Rng rngDirect(3);
    const PoseRecoveryResult direct =
        aligner.recover(other, ego, rngDirect);
    ASSERT_TRUE(direct.success) << "pair " << pairIndex;

    const std::vector<std::uint8_t> bytes = encode(
        service::toMessage(other, /*senderId=*/7,
                           static_cast<std::uint32_t>(pairIndex)),
        wcfg);
    const DecodeResult res = decode(bytes);
    ASSERT_EQ(res.error, DecodeError::None);
    const CarPerceptionData otherWire = service::toCarData(res.message);

    Rng rngWire(3);
    const PoseRecoveryResult throughCodec =
        aligner.recover(otherWire, ego, rngWire);
    ASSERT_TRUE(throughCodec.success) << "pair " << pairIndex;

    const PoseError errDirect = poseError(direct.estimate, pair->gtOtherToEgo);
    const PoseError errWire =
        poseError(throughCodec.estimate, pair->gtOtherToEgo);
    EXPECT_LE(errWire.translation, errDirect.translation + 0.02)
        << "pair " << pairIndex;
  }
}

}  // namespace
}  // namespace bba::wire
