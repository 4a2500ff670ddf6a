#include "core/sim_environment.h"

#include <stdexcept>
#include <string>

namespace painter::core {

SimEnvironment::SimEnvironment(const cloudsim::IngressResolver& resolver,
                               const measure::LatencyOracle& oracle,
                               util::Rng rng, int ping_count, int day)
    : resolver_(&resolver),
      oracle_(&oracle),
      rng_(rng),
      ping_count_(ping_count),
      day_(day) {
  if (ping_count < 1) {
    throw std::invalid_argument(
        "SimEnvironment: ping_count must be >= 1, got " +
        std::to_string(ping_count));
  }
}

std::vector<AdvertisementEnvironment::PrefixObservation>
SimEnvironment::Execute(const AdvertisementConfig& config) {
  std::vector<PrefixObservation> out;
  out.reserve(config.PrefixCount());
  const std::size_t n_ug = oracle_->deployment().ugs().size();

  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    PrefixObservation obs;
    obs.ingress_of_ug =
        resolver_->Resolve(config.Sessions(p), config.NeighborAttrs(p));
    obs.rtt_ms_of_ug.assign(n_ug, 0.0);
    for (std::uint32_t u = 0; u < n_ug; ++u) {
      if (obs.ingress_of_ug[u].has_value()) {
        obs.rtt_ms_of_ug[u] =
            oracle_
                ->MeasureMin(util::UgId{u}, *obs.ingress_of_ug[u], rng_,
                             ping_count_, day_)
                .count();
      }
    }
    out.push_back(std::move(obs));
  }
  return out;
}

}  // namespace painter::core
