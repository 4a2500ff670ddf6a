// The routing model: what the orchestrator believes about UG routing.
//
// §3.1: "we make assumptions about UG ingresses and, in cases with
// uncertainty, assume all policy-compliant ingresses are equally likely. We
// then learn from incorrect assumptions over time."
//
// The model holds, per UG:
//  - learned pairwise ingress preferences: when a prefix was advertised via a
//    candidate set and the UG was observed entering via ingress i*, then i*
//    is preferred over every other candidate. Future expectations exclude
//    candidates dominated by an active preferred ingress (the paper's
//    Tokyo-vs-Miami example).
//  - measured RTT corrections: once a UG was actually observed on an
//    ingress, the measured RTT replaces the heuristic estimate.
//
// ComputeExpectation evaluates Eq. 2's inner expectation for one UG and one
// prefix: candidates = compliant options ∩ advertised sessions, minus
// preference-dominated ingresses, minus ingresses more than D_reuse km
// farther than the closest candidate PoP. It reports the full benefit range
// the evaluation uses (Fig. 14): lower/upper bound RTTs, the unweighted mean
// (Eq. 2's equal-likelihood expectation), and the inflation-probability
// weighted estimate (§5.1.2 — "inflated paths to far-away PoPs are less
// likely", weights decay with excess distance).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/advertisement.h"
#include "core/problem.h"

namespace painter::core {

// Thread-safety contract: the const methods (Prefers, PrefersAt,
// PrefIndex, IsDominated, HasPreferences, MeasuredRtt, MeasuredRttAt,
// PreferenceCount) and the ComputeExpectation* helpers below only read
// shared state, so any number of threads may call them concurrently —
// PredictBenefit's parallel loop relies on this. The Observe* mutators
// require exclusive access (they run in the serial Absorb phase of the
// learning loop, never concurrently with evaluations). All evaluation
// scratch is thread_local.
class RoutingModel {
 public:
  // PrefIndex's answer for a peering the model knows nothing about for a UG.
  static constexpr std::uint32_t kNoIndex = UINT32_MAX;

  explicit RoutingModel(std::size_t ug_count);

  // Records an observed routing choice: `ug` entered via `chosen` while all
  // of `candidates` (compliant sessions the prefix was advertised on) were
  // available. Every non-chosen candidate becomes dominated by `chosen`.
  // Returns true when any pair was learned or retracted — i.e. the UG's
  // expectations may now evaluate differently (the orchestrator's cross-call
  // seed cache keys its dirtiness off this).
  bool ObservePreference(std::uint32_t ug, util::PeeringId chosen,
                         std::span<const util::PeeringId> candidates);

  // Records a measured RTT for a (ug, ingress) pair, correcting estimates.
  // Returns true when the stored value changed (first measurement, or a move
  // larger than `epsilon_ms` since last time — smaller moves are treated as
  // measurement noise and leave the stored value untouched).
  bool ObserveLatency(std::uint32_t ug, util::PeeringId ingress, double rtt_ms,
                      double epsilon_ms = 0.0);

  // The UG's dense index of `peering` (kNoIndex when no observation named
  // it). Indices are stable: they only grow, as the Observe* calls meet new
  // peerings. One binary search over the UG's known peerings.
  [[nodiscard]] std::uint32_t PrefIndex(std::uint32_t ug,
                                        util::PeeringId peering) const {
    const UgStore& s = store_[ug];
    const std::uint64_t key = std::uint64_t{peering.value()} << 32;
    const auto it = std::lower_bound(s.index.begin(), s.index.end(), key);
    if (it == s.index.end() || (*it >> 32) != peering.value()) return kNoIndex;
    return static_cast<std::uint32_t>(*it);
  }

  // Prefers over PrefIndex results: one bit test, inline because the CELF
  // probe asks it up to 2k times per marginal term. kNoIndex on either side
  // is never preferred.
  [[nodiscard]] bool PrefersAt(std::uint32_t ug, std::uint32_t winner,
                               std::uint32_t loser) const {
    if (winner == kNoIndex || loser == kNoIndex) return false;
    const UgStore& s = store_[ug];
    return (s.beats[std::size_t{winner} * s.words + loser / 64] >>
            (loser % 64)) & 1;
  }

  // True if `ug` is known to prefer ingress `winner` over `loser`: an
  // observation put `ug` on `winner` while `loser` was also available, and
  // no later observation retracted it.
  [[nodiscard]] bool Prefers(std::uint32_t ug, util::PeeringId winner,
                             util::PeeringId loser) const {
    return PrefersAt(ug, PrefIndex(ug, winner), PrefIndex(ug, loser));
  }

  // True if some *other* candidate in `active` is known-preferred over
  // `candidate` for this UG (then `candidate` has zero likelihood, §3.1).
  [[nodiscard]] bool IsDominated(std::uint32_t ug, util::PeeringId candidate,
                                 std::span<const util::PeeringId> active) const;

  // True once any pairwise preference has been observed for `ug`. The
  // orchestrator's incremental fast path keys off this: with no preferences,
  // the dominance exclusion can never fire for the UG.
  [[nodiscard]] bool HasPreferences(std::uint32_t ug) const {
    return store_[ug].pairs != 0;
  }

  [[nodiscard]] std::optional<double> MeasuredRtt(std::uint32_t ug,
                                                  util::PeeringId ingress) const;

  // MeasuredRtt over a PrefIndex result.
  [[nodiscard]] std::optional<double> MeasuredRttAt(std::uint32_t ug,
                                                    std::uint32_t i) const {
    if (i == kNoIndex) return std::nullopt;
    return store_[ug].rtt[i];
  }

  // Total learned pairs, maintained as a running count by ObservePreference
  // (this is polled per learning iteration for a gauge; walking every UG's
  // store there would be O(UGs) per poll).
  [[nodiscard]] std::size_t PreferenceCount() const {
    return preference_count_;
  }

 private:
  // One UG's learned state, dense over the peerings it has observed. A
  // peering's index is its arrival order; `index` maps peering ids to it.
  // Preferences are an n x n bit matrix rather than a set of pairs, so a
  // dominance question costs one bit test however many pairs the UG has
  // learned. Everything here grows only in the Observe* calls.
  struct UgStore {
    // Sorted (peering id << 32 | index) keys, one per known peering.
    std::vector<std::uint64_t> index;
    // Row w (`words` words from w * words) holds the indices w beats.
    std::vector<std::uint64_t> beats;
    // Measured RTT per index, when one was observed.
    std::vector<std::optional<double>> rtt;
    std::uint32_t words = 0;  // words per row of `beats`
    std::uint32_t pairs = 0;  // set bits of `beats`
  };
  // Index of `peering` in `s`, appending a new row and column when it is new.
  static std::uint32_t Intern(UgStore& s, util::PeeringId peering);

  std::vector<UgStore> store_;
  std::size_t preference_count_ = 0;
};

struct ExpectationParams {
  // Minimum reuse distance D_reuse (km): candidates whose PoP is more than
  // this much farther than the closest candidate PoP are assumed unused.
  double d_reuse_km = 3000.0;
  // Decay constant for the inflation-likelihood weights of the "estimated"
  // range: weight ∝ exp(-excess_km / this).
  double inflation_decay_km = 4000.0;

  // Throws std::invalid_argument unless d_reuse_km >= 0 and
  // inflation_decay_km > 0 (NaN fails both). A negative D_reuse would drop
  // every candidate of a multi-candidate list, including the closest one.
  // The Orchestrator constructor and the evaluate.h entry points validate;
  // the per-UG ComputeExpectation* helpers below assume valid params.
  void Validate() const;
};

struct PrefixExpectation {
  bool usable = false;     // UG has at least one surviving candidate
  double lower_rtt = 0.0;  // best case (min over candidates)
  double mean_rtt = 0.0;   // Eq. 2 equal-likelihood expectation
  double estimated_rtt = 0.0;  // inflation-probability weighted
  double upper_rtt = 0.0;  // worst case (max over candidates)
  std::size_t candidate_count = 0;
};

// Evaluates the expectation for `ug` of a prefix advertised via
// `advertised_sessions` (sorted by id). O(|options(ug)| + |advertised|).
[[nodiscard]] PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    const ExpectationParams& params);

// Same evaluation from an already-intersected candidate list (the UG's
// compliant options among the advertised sessions). Costs one PrefIndex
// binary search per candidate plus, once the UG has learned preferences, up
// to |candidates|^2 PrefersAt bit tests. This is the reference
// semantics of the orchestrator's O(|candidates|) incremental probe
// (DESIGN.md §8), which keeps per-candidate dominance flags instead.
[[nodiscard]] PrefixExpectation ComputeExpectationFromCandidates(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const IngressOption* const> candidates,
    const ExpectationParams& params);

// A candidate ingress with the advertisement attributes it was announced
// under (core::SessionAttr projected onto the option).
struct AdvertisedOption {
  const IngressOption* opt = nullptr;
  std::uint8_t prepend = 0;
  bool lower_pref = false;
  bool no_export = false;
};

// Attributed Eq. 2 evaluation. Two model refinements on top of the
// equal-likelihood prior (both are priors the learning loop corrects):
//  - a kNoExportUp candidate is unreachable for UGs outside the session
//    peer's customer cone (IngressOption::in_peer_cone) and is dropped;
//  - candidates are tiered by (lower-pref, prepend) — the lexicographic
//    order BGP applies before hop count — and only the best tier present
//    survives, mirroring how the resolver's per-AS aggregation keys work.
// With all-default attributes this is bit-for-bit
// ComputeExpectationFromCandidates.
[[nodiscard]] PrefixExpectation ComputeExpectationAttributed(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const AdvertisedOption> candidates,
    const ExpectationParams& params);

// Attributed overload of ComputeExpectation: `attrs` parallels
// `advertised_sessions` (empty = all-default, identical to the legacy path).
[[nodiscard]] PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    std::span<const SessionAttr> attrs, const ExpectationParams& params);

}  // namespace painter::core
