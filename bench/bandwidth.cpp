// Bandwidth — bytes per frame over the V2V link, across payload choices
// and quantization settings, plus the accuracy cost of the codec.
//
// Paper: BB-Align transmits BV images + boxes instead of raw point clouds;
// the box-only payload is orders of magnitude below a raw cloud, and the
// quantized codec adds centimeter-scale error at most.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/bb_align.hpp"
#include "service/cooperation_service.hpp"
#include "wire/message.hpp"

namespace {

struct Profile {
  const char* name;
  bba::wire::WireConfig cfg;
};

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

int main() {
  using namespace bba;
  bench::printHeader(
      std::cout, "Bandwidth — V2V payload size vs raw-sensor sharing",
      "box payload is >= 50x smaller than a raw cloud; codec adds <= 2 cm");

  const int n = bench::pairCount(8);
  const BBAlign aligner;
  const DatasetGenerator generator(bench::standardConfig(4242));

  // Quantization sweep: position resolution (m), yaw resolution (rad),
  // BV intensity depth. "default" is WireConfig{}.
  std::vector<Profile> profiles = {
      {"coarse", {0.1, 0.01, 15, true}},
      {"default", {}},
      {"fine", {0.001, 0.0001, 255, true}},
  };

  // Per-frame byte accounting, meaned over the pool's "other" vehicles.
  std::vector<double> rawCloud, denseBv, boxes;
  std::vector<std::vector<double>> wireBytes(profiles.size());
  std::vector<std::vector<double>> posErr(profiles.size());

  // Codec accuracy: recovered pose from the decoded message vs the same
  // recovery run directly on the sender-side CarPerceptionData.
  std::vector<double> errDirect, errWire;

  int generated = 0, pairIndex = 0, recovered = 0;
  while (generated < n && pairIndex < 4 * n) {
    const auto pair = generator.generatePair(pairIndex++);
    if (!pair) continue;
    ++generated;

    const CarPerceptionData other =
        aligner.makeCarData(pair->otherCloud, pair->otherDets);
    const CarPerceptionData ego =
        aligner.makeCarData(pair->egoCloud, pair->egoDets);

    // Raw-sensor sharing baseline: xyz + intensity as float32 (the usual
    // over-the-air lidar packing), and the dense float BV image.
    rawCloud.push_back(static_cast<double>(pair->otherCloud.size()) * 16.0);
    denseBv.push_back(static_cast<double>(other.bvImage.width()) *
                      other.bvImage.height() * 4.0);

    const wire::CooperativeMessage msg = service::toMessage(
        other, /*senderId=*/2, static_cast<std::uint32_t>(pair->pairIndex));

    for (std::size_t p = 0; p < profiles.size(); ++p) {
      wire::EncodeStats stats;
      const auto bytes = wire::encode(msg, profiles[p].cfg, &stats);
      wireBytes[p].push_back(static_cast<double>(bytes.size()));
      posErr[p].push_back(stats.maxPositionError);
    }

    // Boxes-only extreme (no BV image): the lower bound of the paper's
    // bandwidth argument.
    wire::WireConfig boxOnly;
    boxOnly.includeBvImage = false;
    boxes.push_back(
        static_cast<double>(wire::encode(msg, boxOnly).size()));

    // Recovery through the codec (default quantization) vs direct, on the
    // first few pairs only — recover() dominates the bench runtime.
    if (recovered < 3) {
      ++recovered;
      const auto decoded = wire::decode(wire::encode(msg, wire::WireConfig{}));
      if (decoded.error == wire::DecodeError::None) {
        Rng rngA(3), rngB(3);
        const auto direct = aligner.recover(other, ego, rngA);
        const auto viaWire =
            aligner.recover(service::toCarData(decoded.message), ego, rngB);
        if (direct.success && viaWire.success) {
          errDirect.push_back(
              poseError(direct.estimate, pair->gtOtherToEgo).translation);
          errWire.push_back(
              poseError(viaWire.estimate, pair->gtOtherToEgo).translation);
        }
      }
    }
  }
  std::cout << "pairs=" << generated << "\n\n";

  Table sizes({"Payload", "Mean bytes/frame", "vs raw cloud"});
  const double raw = mean(rawCloud);
  sizes.addRow({"raw cloud (f32 xyz+i)", fmt(raw, 0), "1.0x"});
  sizes.addRow({"dense BV image (f32)", fmt(mean(denseBv), 0),
                fmt(raw / mean(denseBv), 1) + "x smaller"});
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    sizes.addRow({std::string("wire msg (") + profiles[p].name + ")",
                  fmt(mean(wireBytes[p]), 0),
                  fmt(raw / mean(wireBytes[p]), 1) + "x smaller"});
  }
  sizes.addRow({"boxes only (default)", fmt(mean(boxes), 0),
                fmt(raw / mean(boxes), 1) + "x smaller"});
  std::cout << "Bytes per transmitted frame\n";
  sizes.print(std::cout);
  std::cout << "\n";

  Table quant({"Profile", "pos res (m)", "yaw res (rad)",
               "max quant err (m)"});
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    quant.addRow({profiles[p].name, fmt(profiles[p].cfg.positionResolution, 3),
                  fmt(profiles[p].cfg.yawResolution, 4),
                  fmt(mean(posErr[p]), 4)});
  }
  std::cout << "Realized quantization error\n";
  quant.print(std::cout);
  std::cout << "\n";

  std::cout << "Codec accuracy (default profile, " << errDirect.size()
            << " recovered pairs): mean translation error direct="
            << fmt(mean(errDirect), 4)
            << " m, via wire=" << fmt(mean(errWire), 4)
            << " m, added=" << fmt(mean(errWire) - mean(errDirect), 4)
            << " m\n";
  return 0;
}
