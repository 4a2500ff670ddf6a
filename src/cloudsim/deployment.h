// Cloud deployment model: PoPs, peerings, transit providers, user groups.
//
// Mirrors the structure the paper describes for Azure (§4): ~200 PoPs in major
// metros, peering routers connecting thousands of networks, a handful of
// transit providers, and user groups (UG = AS × metro) weighted by traffic
// volume. The deployment is attached to a generated Internet: the cloud AS is
// inserted into the AS graph as a peer / customer of networks co-located at
// its PoP metros.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topo/generator.h"
#include "util/ids.h"
#include "util/rng.h"

namespace painter::cloudsim {

struct Pop {
  util::PopId id;
  util::MetroId metro;
  std::string name;
};

// One interconnection between the cloud and a neighbor AS at a PoP. The same
// neighbor may peer at several PoPs ("some networks connect at multiple PoPs,
// most only at one", §4).
struct Peering {
  util::PeeringId id;
  util::AsId peer;
  util::PopId pop;
  // True if this session is with a transit provider of the cloud (the cloud
  // is the customer). Transit announcements reach the whole Internet; peer
  // announcements reach only the peer's customer cone.
  bool transit = false;
};

struct UserGroup {
  util::UgId id;
  util::AsId as;
  util::MetroId metro;
  // Traffic volume weight w(UG) in Eq. 1.
  double traffic_weight = 1.0;
};

struct DeploymentConfig {
  std::uint64_t seed = 7;
  // Number of PoPs; placed in the highest-weight metros, one per metro, so
  // it must lie in [1, internet.metros.size()].
  std::size_t pop_count = 24;
  // Number of distinct transit providers (tier-1s the cloud buys from).
  std::size_t transit_provider_count = 3;
  // Probability that a transit/regional AS present at a PoP metro peers
  // there. Regional peering is sparse — most enterprises reach the cloud
  // through a transit ("most benefit was through transit providers", §5.1.2).
  double transit_peer_prob = 0.85;
  double regional_peer_prob = 0.15;
  // Probability that a stub AS at a PoP metro connects directly.
  double stub_peer_prob = 0.02;
  // Traffic heavy-tail shape for UG volumes.
  double ug_volume_pareto_alpha = 1.2;
};

class Deployment {
 public:
  Deployment(util::AsId cloud_as, std::vector<Pop> pops,
             std::vector<Peering> peerings, std::vector<UserGroup> ugs);

  [[nodiscard]] util::AsId cloud_as() const { return cloud_as_; }
  [[nodiscard]] const std::vector<Pop>& pops() const { return pops_; }
  [[nodiscard]] const std::vector<Peering>& peerings() const {
    return peerings_;
  }
  [[nodiscard]] const std::vector<UserGroup>& ugs() const { return ugs_; }

  [[nodiscard]] const Pop& pop(util::PopId id) const;
  [[nodiscard]] const Peering& peering(util::PeeringId id) const;
  [[nodiscard]] const UserGroup& ug(util::UgId id) const;

  // All peering sessions with a given neighbor AS (possibly several PoPs).
  [[nodiscard]] std::span<const util::PeeringId> PeeringsOfAs(
      util::AsId as) const;

  // Peering session ids marked as transit.
  [[nodiscard]] const std::vector<util::PeeringId>& TransitPeerings() const {
    return transit_peerings_;
  }

  [[nodiscard]] double TotalTrafficWeight() const { return total_weight_; }

 private:
  util::AsId cloud_as_;
  std::vector<Pop> pops_;
  std::vector<Peering> peerings_;
  std::vector<UserGroup> ugs_;
  std::unordered_map<util::AsId, std::vector<util::PeeringId>> by_as_;
  std::vector<util::PeeringId> transit_peerings_;
  double total_weight_ = 0.0;
};

// Inserts the cloud into `internet` (mutating its AS graph) and returns the
// deployment. PoPs are placed in the top-weight metros; sessions are created
// with co-located networks; UGs are derived from stub ASes. Throws
// std::invalid_argument, leaving `internet` untouched, when config.pop_count
// is 0 or exceeds the number of metros.
[[nodiscard]] Deployment BuildDeployment(topo::Internet& internet,
                                         const DeploymentConfig& config);

}  // namespace painter::cloudsim
