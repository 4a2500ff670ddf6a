#include "core/routing_model.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace painter::core {
RoutingModel::RoutingModel(std::size_t ug_count) : store_(ug_count) {}

std::uint32_t RoutingModel::Intern(UgStore& s, util::PeeringId peering) {
  const std::uint64_t key = std::uint64_t{peering.value()} << 32;
  const auto it = std::lower_bound(s.index.begin(), s.index.end(), key);
  if (it != s.index.end() && (*it >> 32) == peering.value()) {
    return static_cast<std::uint32_t>(*it);
  }
  const auto n = static_cast<std::uint32_t>(s.rtt.size());
  s.index.insert(it, key | n);
  s.rtt.emplace_back();
  if (n == std::size_t{s.words} * 64) {
    // Column n does not fit: lay the rows out again one word wider.
    std::vector<std::uint64_t> wider(std::size_t{n} * (s.words + 1), 0);
    for (std::size_t r = 0; r < n; ++r) {
      std::copy_n(s.beats.begin() + r * s.words, s.words,
                  wider.begin() + r * (s.words + 1));
    }
    s.beats = std::move(wider);
    ++s.words;
  }
  s.beats.resize(std::size_t{n + 1} * s.words, 0);
  return n;
}

bool RoutingModel::ObservePreference(
    std::uint32_t ug, util::PeeringId chosen,
    std::span<const util::PeeringId> candidates) {
  static obs::Counter& learned =
      obs::Metrics().GetCounter("model.preferences_learned");
  UgStore& s = store_.at(ug);
  bool changed = false;
  std::uint32_t ci = kNoIndex;
  for (util::PeeringId other : candidates) {
    if (other == chosen) continue;
    if (ci == kNoIndex) ci = Intern(s, chosen);
    const std::uint32_t oi = Intern(s, other);
    std::uint64_t& win = s.beats[std::size_t{ci} * s.words + oi / 64];
    const std::uint64_t win_bit = std::uint64_t{1} << (oi % 64);
    if (!(win & win_bit)) {
      win |= win_bit;
      ++s.pairs;
      ++preference_count_;
      learned.Add();
      changed = true;
    }
    // Observations are ground truth; retract any stale opposite belief.
    std::uint64_t& lose = s.beats[std::size_t{oi} * s.words + ci / 64];
    const std::uint64_t lose_bit = std::uint64_t{1} << (ci % 64);
    if (lose & lose_bit) {
      lose &= ~lose_bit;
      --s.pairs;
      --preference_count_;
      changed = true;
    }
  }
  return changed;
}

bool RoutingModel::ObserveLatency(std::uint32_t ug, util::PeeringId ingress,
                                  double rtt_ms, double epsilon_ms) {
  static obs::Counter& observed =
      obs::Metrics().GetCounter("model.rtt_observations");
  observed.Add();
  UgStore& s = store_.at(ug);
  std::optional<double>& stored = s.rtt[Intern(s, ingress)];
  if (!stored) {
    stored = rtt_ms;
    return true;
  }
  // A re-measurement within the noise floor keeps the stored value: storing
  // every sub-epsilon wiggle would re-dirty the cross-call seed cache each
  // round from ping jitter alone. epsilon 0 = any change counts (legacy).
  if (std::abs(*stored - rtt_ms) <= epsilon_ms) return false;
  stored = rtt_ms;
  return true;
}

bool RoutingModel::IsDominated(
    std::uint32_t ug, util::PeeringId candidate,
    std::span<const util::PeeringId> active) const {
  if (store_.at(ug).pairs == 0) return false;
  const std::uint32_t ci = PrefIndex(ug, candidate);
  if (ci == kNoIndex) return false;
  // No peering beats itself (the diagonal is never set), so `candidate`
  // appearing in `active` cannot dominate it.
  for (util::PeeringId other : active) {
    if (PrefersAt(ug, PrefIndex(ug, other), ci)) return true;
  }
  return false;
}

std::optional<double> RoutingModel::MeasuredRtt(std::uint32_t ug,
                                                util::PeeringId ingress) const {
  (void)store_.at(ug);  // an out-of-range UG throws std::out_of_range
  return MeasuredRttAt(ug, PrefIndex(ug, ingress));
}

void ExpectationParams::Validate() const {
  // Written so that NaN fails both tests.
  if (!(d_reuse_km >= 0.0)) {
    throw std::invalid_argument{"ExpectationParams: d_reuse_km must be >= 0"};
  }
  if (!(inflation_decay_km > 0.0)) {
    throw std::invalid_argument{
        "ExpectationParams: inflation_decay_km must be > 0"};
  }
}

PrefixExpectation ComputeExpectationFromCandidates(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const IngressOption* const> candidates,
    const ExpectationParams& params) {
  PrefixExpectation out;
  if (candidates.empty()) return out;

  struct Cand {
    const IngressOption* opt;
    double rtt;
    std::uint32_t pref;  // RoutingModel::PrefIndex of the option's peering
    bool dominated;
  };
  // Reused scratch: the greedy inner loop calls this millions of times.
  thread_local std::vector<Cand> cands;
  cands.clear();
  for (const IngressOption* opt : candidates) {
    const std::uint32_t pref = model.PrefIndex(ug, opt->peering);
    const double rtt = model.MeasuredRttAt(ug, pref).value_or(opt->rtt_ms);
    cands.push_back(Cand{opt, rtt, pref, false});
  }

  // Preference exclusion: drop candidates dominated by another candidate the
  // UG is known to prefer. Dominance is judged against the full list, so
  // every flag is set before any candidate is dropped.
  if (cands.size() > 1 && model.HasPreferences(ug)) {
    for (Cand& c : cands) {
      for (const Cand& other : cands) {
        if (model.PrefersAt(ug, other.pref, c.pref)) {
          c.dominated = true;
          break;
        }
      }
    }
    std::erase_if(cands, [](const Cand& c) { return c.dominated; });
    if (cands.empty()) return out;
  }

  // D_reuse exclusion: drop candidates whose PoP is more than D_reuse km
  // farther from the UG than the closest surviving candidate PoP.
  if (cands.size() > 1) {
    double min_km = cands.front().opt->distance_km;
    for (const Cand& c : cands) min_km = std::min(min_km, c.opt->distance_km);
    std::erase_if(cands, [&](const Cand& c) {
      return c.opt->distance_km - min_km > params.d_reuse_km;
    });
  }

  out.usable = true;
  out.candidate_count = cands.size();
  out.lower_rtt = cands.front().rtt;
  out.upper_rtt = cands.front().rtt;
  double sum = 0.0;
  double wsum = 0.0;
  double wnorm = 0.0;
  double min_km = cands.front().opt->distance_km;
  for (const Cand& c : cands) min_km = std::min(min_km, c.opt->distance_km);
  for (const Cand& c : cands) {
    out.lower_rtt = std::min(out.lower_rtt, c.rtt);
    out.upper_rtt = std::max(out.upper_rtt, c.rtt);
    sum += c.rtt;
    const double w =
        std::exp(-(c.opt->distance_km - min_km) / params.inflation_decay_km);
    wsum += w * c.rtt;
    wnorm += w;
  }
  out.mean_rtt = sum / static_cast<double>(cands.size());
  out.estimated_rtt = wnorm == 0.0 ? out.mean_rtt : wsum / wnorm;
  return out;
}

PrefixExpectation ComputeExpectationAttributed(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const AdvertisedOption> candidates,
    const ExpectationParams& params) {
  if (candidates.empty()) return {};

  // Attribute tiering: drop no-export candidates the UG cannot hear, then
  // keep only the best (lower-pref, prepend) tier present. Both passes
  // leave all-default candidate lists untouched, so the legacy action space
  // delegates unchanged.
  thread_local std::vector<const IngressOption*> surviving;
  surviving.clear();
  int best_tier = INT_MAX;
  for (const AdvertisedOption& a : candidates) {
    if (a.no_export && !a.opt->in_peer_cone) continue;
    const int tier = (a.lower_pref ? 1 : 0) * 256 + a.prepend;
    best_tier = std::min(best_tier, tier);
  }
  for (const AdvertisedOption& a : candidates) {
    if (a.no_export && !a.opt->in_peer_cone) continue;
    const int tier = (a.lower_pref ? 1 : 0) * 256 + a.prepend;
    if (tier == best_tier) surviving.push_back(a.opt);
  }
  return ComputeExpectationFromCandidates(model, ug, surviving, params);
}

PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    const ExpectationParams& params) {
  const auto& opts = instance.options.at(ug);
  if (opts.empty() || advertised_sessions.empty()) return {};

  // Candidates: compliant options ∩ advertised sessions (both sorted by id).
  thread_local std::vector<const IngressOption*> isect;
  isect.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < opts.size() && j < advertised_sessions.size()) {
    if (opts[i].peering < advertised_sessions[j]) {
      ++i;
    } else if (advertised_sessions[j] < opts[i].peering) {
      ++j;
    } else {
      isect.push_back(&opts[i]);
      ++i;
      ++j;
    }
  }
  return ComputeExpectationFromCandidates(model, ug, isect, params);
}

PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    std::span<const SessionAttr> attrs, const ExpectationParams& params) {
  if (attrs.empty()) {
    return ComputeExpectation(instance, model, ug, advertised_sessions,
                              params);
  }
  const auto& opts = instance.options.at(ug);
  if (opts.empty() || advertised_sessions.empty()) return {};

  thread_local std::vector<AdvertisedOption> isect;
  isect.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < opts.size() && j < advertised_sessions.size()) {
    if (opts[i].peering < advertised_sessions[j]) {
      ++i;
    } else if (advertised_sessions[j] < opts[i].peering) {
      ++j;
    } else {
      const SessionAttr& a = attrs[j];
      isect.push_back(AdvertisedOption{
          .opt = &opts[i],
          .prepend = a.prepend,
          .lower_pref = a.community == bgpsim::Community::kLowerPref,
          .no_export = a.community == bgpsim::Community::kNoExportUp});
      ++i;
      ++j;
    }
  }
  return ComputeExpectationAttributed(model, ug, isect, params);
}

}  // namespace painter::core
