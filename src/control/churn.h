// Churn-injecting advertisement environment.
//
// Wraps any AdvertisementEnvironment and perturbs the world the way live
// deployments see it perturbed: peering sessions flap (announcements over a
// down session silently disappear from the fabric) and user-group latencies
// drift (diurnal swings, path changes). Every perturbation is double-entry:
// it changes what Execute() observes AND publishes a typed record on the
// DeltaBus, so the ControlPlaneService learns about the change the same way
// it would from real telemetry — never by peeking at this object.
//
// Used by the control-plane bench/tests and perfbench as the ground-truth
// churn source. It is the only in-tree producer: no data-path component
// publishes on the bus.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "control/delta_bus.h"
#include "core/orchestrator.h"
#include "netsim/sim.h"

namespace painter::control {

class ChurnEnvironment : public core::AdvertisementEnvironment {
 public:
  // `inner` must outlive this object. `sim` timestamps published deltas and
  // `bus` receives them; both may be null (no publishing, pure perturbation).
  ChurnEnvironment(core::AdvertisementEnvironment& inner, std::size_t ug_count,
                   netsim::Simulator* sim = nullptr, DeltaBus* bus = nullptr);

  // Marks a peering session down/up. While down, announcements over the
  // session are stripped from every prefix before the inner environment
  // resolves — exactly a session whose BGP adjacency dropped. Publishes a
  // kSession record on each transition (value 1 = down, 0 = restored).
  void SetPeeringDown(util::PeeringId session, bool down);

  // Adds `delta_ms` to the RTT every prefix observation reports for `ug`
  // (cumulative across calls; negative deltas allowed, observed RTTs are
  // clamped at 0). Publishes a kUgLatency record with value |delta_ms|.
  void AddUgLatencyOffset(util::UgId ug, double delta_ms);

  [[nodiscard]] bool AnyPeeringDown() const { return !down_.empty(); }
  [[nodiscard]] bool IsDown(util::PeeringId session) const {
    return down_.count(session.value()) != 0;
  }

  [[nodiscard]] std::vector<PrefixObservation> Execute(
      const core::AdvertisementConfig& config) override;

 private:
  core::AdvertisementEnvironment* inner_;
  netsim::Simulator* sim_;
  DeltaBus* bus_;
  std::unordered_map<std::uint32_t, bool> down_;  // key: session id, all down
  std::vector<double> rtt_offset_ms_;             // indexed by UG id
};

}  // namespace painter::control
