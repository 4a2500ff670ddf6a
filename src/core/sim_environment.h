// AdvertisementEnvironment backed by the simulated Internet.
//
// This is the reproduction's stand-in for the paper's PEERING/Vultr prototype
// (§4): executing a configuration really announces each prefix into the
// AS-level BGP simulation, the interdomain outcome decides each UG's ingress,
// and TM-Edges measure the resulting RTT with min-of-N pings against the
// ground-truth oracle. The orchestrator never sees the oracle directly.
#pragma once

#include "core/orchestrator.h"
#include "cloudsim/ingress.h"
#include "measure/latency.h"

namespace painter::core {

class SimEnvironment final : public AdvertisementEnvironment {
 public:
  // Throws std::invalid_argument if ping_count < 1.
  SimEnvironment(const cloudsim::IngressResolver& resolver,
                 const measure::LatencyOracle& oracle, util::Rng rng,
                 int ping_count = 7, int day = 0);

  [[nodiscard]] std::vector<PrefixObservation> Execute(
      const AdvertisementConfig& config) override;

  void set_day(int day) { day_ = day; }

 private:
  const cloudsim::IngressResolver* resolver_;
  const measure::LatencyOracle* oracle_;
  util::Rng rng_;
  int ping_count_;
  int day_;
};

}  // namespace painter::core
