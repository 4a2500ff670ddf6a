#include "measure/latency.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace painter::measure {

LatencyOracle::LatencyOracle(const topo::Internet& internet,
                             const cloudsim::Deployment& deployment,
                             OracleConfig config)
    : internet_(&internet), deployment_(&deployment), config_(config) {}

double LatencyOracle::LastMileMs(util::UgId ug) const {
  util::Rng rng{MixSeed(config_.seed, 0x11, ug.value())};
  return rng.LogNormal(config_.last_mile_mu, config_.last_mile_sigma);
}

double LatencyOracle::InflationFactor(util::UgId ug,
                                      util::PeeringId peering) const {
  const cloudsim::Peering& sess = deployment_->peering(peering);
  const topo::AsInfo& entry = internet_->graph.info(sess.peer);

  // Bimodal per-(UG, entry AS): a few direct ("good") paths, the rest
  // mediocre. Mediocre paths share a per-UG level (the region's interdomain
  // detours are common to most of its paths) with a small per-AS jitter, so
  // bouncing between mediocre ASes gains almost nothing. A small per-session
  // component differentiates a given AS's PoPs.
  util::Rng as_rng{MixSeed(config_.seed, 0x22, ug.value(), sess.peer.value())};
  const bool good = as_rng.Bernoulli(config_.good_path_prob);
  double mu = 0.0;
  double sigma = 0.0;
  if (good) {
    mu = config_.good_inflation_mu;
    sigma = config_.good_inflation_sigma;
  } else {
    util::Rng ug_rng{MixSeed(config_.seed, 0x77, ug.value())};
    // The per-UG mediocre level, identical across this UG's mediocre ASes.
    mu = config_.inflation_mu +
         ug_rng.Normal(0.0, config_.inflation_sigma);
    sigma = config_.mediocre_as_jitter_sigma;
  }
  if (entry.tier == topo::AsTier::kTier1 ||
      entry.tier == topo::AsTier::kTransit) {
    mu += config_.transit_inflation_bonus_mu;
  }
  if (entry.exit_policy == topo::ExitPolicy::kFixedExit) {
    mu += config_.fixed_exit_bonus_mu;
  }
  util::Rng sess_rng{MixSeed(config_.seed, 0x33, ug.value(), peering.value())};
  const double as_part = as_rng.LogNormal(mu, sigma);
  const double sess_part = sess_rng.LogNormal(0.0, 0.08);
  return std::max(1.0, as_part * sess_part);
}

util::Millis LatencyOracle::TrueRtt(util::UgId ug,
                                    util::PeeringId peering) const {
  const cloudsim::Peering& sess = deployment_->peering(peering);
  const cloudsim::UserGroup& user = deployment_->ug(ug);
  const auto& metros = internet_->metros;
  const topo::GeoPoint& a = metros[user.metro.value()].location;
  const topo::GeoPoint& b =
      metros[deployment_->pop(sess.pop).metro.value()].location;
  const double fiber_rtt = util::FiberRtt(topo::Distance(a, b)).count();
  return util::Millis{LastMileMs(ug) + fiber_rtt * InflationFactor(ug, peering) +
                      config_.session_overhead_ms};
}

util::Millis LatencyOracle::TrueRttOnDay(util::UgId ug,
                                         util::PeeringId peering,
                                         int day) const {
  double rtt = TrueRtt(ug, peering).count();
  if (day <= 0) return util::Millis{rtt};

  // A degraded regime starting on day s covers [s, s + duration). Scan the
  // possible start days that could still be active; durations are geometric
  // with a short mean, so a bounded lookback window (covering >99.9% of the
  // mass) is enough and keeps the query O(window).
  const int lookback =
      static_cast<int>(std::ceil(config_.shift_mean_duration_days * 6.0));
  for (int s = std::max(1, day - lookback); s <= day; ++s) {
    util::Rng rng{MixSeed(config_.seed, 0x44, MixSeed(ug.value(), peering.value()),
                          static_cast<std::uint64_t>(s))};
    if (!rng.Bernoulli(config_.daily_shift_prob)) continue;
    const double duration =
        1.0 + rng.Exponential(1.0 / config_.shift_mean_duration_days);
    if (day < s + static_cast<int>(duration)) {
      const double penalty =
          rng.LogNormal(config_.shift_penalty_mu, config_.shift_penalty_sigma);
      rtt *= std::max(1.0, penalty);
      break;  // one active regime at a time
    }
  }
  return util::Millis{rtt};
}

namespace {

// Queueing/processing noise of one ping: exponential tail, occasionally a
// large spike. Always >= 0, so a ping never beats the truth.
double PingNoise(util::Rng& rng) {
  double noise = rng.Exponential(1.0 / 1.5);
  if (rng.Bernoulli(0.05)) noise += rng.Exponential(1.0 / 20.0);
  return noise;
}

}  // namespace

util::Millis LatencyOracle::ProbeOnce(util::UgId ug, util::PeeringId peering,
                                      util::Rng& rng, int day) const {
  const double truth = TrueRttOnDay(ug, peering, day).count();
  return util::Millis{truth + PingNoise(rng)};
}

util::Millis LatencyOracle::MeasureMin(util::UgId ug, util::PeeringId peering,
                                       util::Rng& rng, int count,
                                       int day) const {
  if (count < 1) {
    throw std::invalid_argument("MeasureMin: ping count must be >= 1, got " +
                                std::to_string(count));
  }
  // The truth is pure in (ug, peering, day): compute it once and draw only
  // the per-ping noise, in the same order and with the same `truth + noise`
  // arithmetic as `count` ProbeOnce calls.
  const double truth = TrueRttOnDay(ug, peering, day).count();
  double best = truth + PingNoise(rng);
  for (int i = 1; i < count; ++i) best = std::min(best, truth + PingNoise(rng));
  return util::Millis{best};
}

}  // namespace painter::measure
