#include "tests/celf_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "core/config_io.h"

namespace painter::test {

using core::AdvertisedOption;
using core::AdvertisementConfig;
using core::IngressOption;
using core::SessionAttr;

AdvertisementConfig ReferenceComputeConfig(
    const core::ProblemInstance& instance, const core::RoutingModel& model,
    const core::OrchestratorConfig& config) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const core::ExpectationParams params = config.Expectation();
  const std::size_t n_ug = instance.UgCount();
  // Marginals sum over a peering's UGs in this index's order, the order the
  // engine sums in; floating-point addition is not associative.
  const core::FlatPeeringIndex flat{instance};

  // The variant table, in the engine's order: prepend levels, then
  // lower-pref, then no-export. A variant's index is its heap tie-break.
  const core::ActionSpaceConfig& aspace = config.action_space;
  std::vector<SessionAttr> variants;
  for (std::uint8_t pl = 0; pl <= aspace.max_prepend; ++pl) {
    variants.push_back(SessionAttr{.prepend = pl});
  }
  if (aspace.enable_lower_pref) {
    variants.push_back(
        SessionAttr{.community = bgpsim::Community::kLowerPref});
  }
  if (aspace.enable_no_export) {
    variants.push_back(
        SessionAttr{.community = bgpsim::Community::kNoExportUp});
  }
  const bool wide = variants.size() > 1;

  AdvertisementConfig out;
  std::vector<double> base_best(instance.anycast_rtt_ms);
  std::vector<double> cur_e(n_ug, kInf);
  // Per-UG candidates of the in-progress prefix, in commit order.
  std::vector<std::vector<AdvertisedOption>> cands(n_ug);

  // Eq. 2 mean for UG `u` if `probe` joined its candidates, evaluated from
  // the whole list. The attributed evaluation drops no-export candidates the
  // UG cannot hear, so an out-of-cone probe leaves the mean unchanged.
  auto expected_with = [&](std::uint32_t u, const AdvertisedOption& probe) {
    std::vector<AdvertisedOption> trial = cands[u];
    trial.push_back(probe);
    core::PrefixExpectation e;
    if (wide) {
      e = core::ComputeExpectationAttributed(model, u, trial, params);
    } else {
      std::vector<const IngressOption*> plain;
      for (const AdvertisedOption& a : trial) plain.push_back(a.opt);
      e = core::ComputeExpectationFromCandidates(model, u, plain, params);
    }
    return e.usable ? e.mean_rtt : kInf;
  };
  auto as_advertised = [](const IngressOption* opt, const SessionAttr& a) {
    return AdvertisedOption{
        .opt = opt,
        .prepend = a.prepend,
        .lower_pref = a.community == bgpsim::Community::kLowerPref,
        .no_export = a.community == bgpsim::Community::kNoExportUp};
  };
  // Eq. 1 marginal benefit of adding peering `g` under `attr`.
  auto marginal_of = [&](std::uint32_t g, const SessionAttr& attr) {
    double delta = 0.0;
    for (std::size_t i = flat.offset[g]; i < flat.offset[g + 1]; ++i) {
      const std::uint32_t u = flat.ug[i];
      const double new_e =
          expected_with(u, as_advertised(flat.option[i], attr));
      const double old_best = std::min(base_best[u], cur_e[u]);
      const double new_best = std::min(base_best[u], new_e);
      delta += instance.ug_weight[u] * (old_best - new_best);
    }
    return delta;
  };

  struct Scored {
    double delta;
    std::uint64_t round;  // commit round the delta was computed at
    std::uint32_t peering;
    std::uint32_t variant;
    bool operator<(const Scored& o) const {
      if (delta != o.delta) return delta < o.delta;
      if (peering != o.peering) return o.peering < peering;  // lower id 1st
      return o.variant < variant;  // then plainest attributes first
    }
  };

  for (std::size_t p = 0; p < config.prefix_budget; ++p) {
    std::fill(cur_e.begin(), cur_e.end(), kInf);
    for (auto& c : cands) c.clear();
    std::vector<util::PeeringId> sessions;
    std::vector<SessionAttr> attrs;  // parallel to `sessions`

    std::priority_queue<Scored> heap;
    std::uint64_t round = 0;
    for (std::uint32_t g = 0; g < instance.peering_count; ++g) {
      for (std::uint32_t v = 0; v < variants.size(); ++v) {
        const double delta = marginal_of(g, variants[v]);
        if (delta > 0.0) heap.push(Scored{delta, round, g, v});
      }
    }
    while (!heap.empty()) {
      const Scored top = heap.top();
      heap.pop();
      const util::PeeringId gid{top.peering};
      if (std::binary_search(sessions.begin(), sessions.end(), gid)) continue;
      if (top.round != round) {
        const double fresh = marginal_of(top.peering, variants[top.variant]);
        if (fresh > 0.0) {
          heap.push(Scored{fresh, round, top.peering, top.variant});
        }
        continue;
      }
      ++round;
      const SessionAttr attr = variants[top.variant];
      const auto pos = std::lower_bound(sessions.begin(), sessions.end(), gid);
      attrs.insert(attrs.begin() + (pos - sessions.begin()), attr);
      sessions.insert(pos, gid);
      for (std::size_t i = flat.offset[top.peering];
           i < flat.offset[top.peering + 1]; ++i) {
        const std::uint32_t u = flat.ug[i];
        const AdvertisedOption adv = as_advertised(flat.option[i], attr);
        cur_e[u] = expected_with(u, adv);
        cands[u].push_back(adv);
      }
      if (!config.enable_reuse) break;
    }

    if (sessions.empty()) break;
    out.AddPrefix(std::move(sessions), std::move(attrs));
    for (std::uint32_t u = 0; u < n_ug; ++u) {
      if (cur_e[u] < base_best[u]) base_best[u] = cur_e[u];
    }
  }
  return out;
}

void ExpectEngineMatchesReference(const core::ProblemInstance& instance,
                                  const core::RoutingModel& model,
                                  const core::OrchestratorConfig& config,
                                  const std::string& what) {
  const std::string want =
      core::ConfigToString(ReferenceComputeConfig(instance, model, config));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    core::OrchestratorConfig cfg = config;
    cfg.num_threads = threads;
    core::Orchestrator orch{instance, cfg};
    orch.mutable_model() = model;
    EXPECT_EQ(core::ConfigToString(orch.ComputeConfig()), want)
        << what << " threads=" << threads;
  }
}

}  // namespace painter::test
