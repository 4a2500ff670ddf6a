// Deterministic random number generation.
//
// All stochastic pieces of the reproduction (topology generation, latency
// inflation draws, probe jitter, flow arrivals) draw from an Rng that is
// explicitly seeded. There is no global RNG and no time-based seeding, so a
// given seed reproduces an experiment bit-for-bit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace painter::util {

// MT19937-64 producing exactly std::mt19937_64's output sequence, but with
// lazy state. std initializes all 312 state words at construction and twists
// all 312 on the first draw; most Rngs here are one-shot `Rng{MixSeed(...)}`
// streams that use 1-4 outputs, so that work dominated their cost. This
// engine computes seed words only as far as the next twist reads them
// (output k of the first block needs words k, k+1 and k+156) and twists one
// word per output. Twisting word k in place, in order, reads exactly the
// values the batch twist reads at step k, so the sequence is unchanged.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) { x_[0] = seed; }

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kN) next_ = 0;
    if (seeded_ < kN) SeedThrough(std::min(kN, next_ + kM + 1));
    const std::size_t k = next_++;
    const result_type y =
        (x_[k] & kUpperMask) | (x_[k + 1 == kN ? 0 : k + 1] & kLowerMask);
    result_type z = x_[k < kN - kM ? k + kM : k + kM - kN] ^ (y >> 1) ^
                    ((y & 1) * kMatrixA);
    x_[k] = z;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;

  // Extends the seed state (std's initialization recurrence) to words
  // [seeded_, end).
  void SeedThrough(std::size_t end) {
    result_type prev = x_[seeded_ - 1];
    for (std::size_t i = seeded_; i < end; ++i) {
      prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
      x_[i] = prev;
    }
    seeded_ = end;
  }

  std::array<result_type, kN> x_{};  // value-initialized: copies are defined
  std::size_t next_ = 0;    // index of the next word to twist and emit
  std::size_t seeded_ = 1;  // words [0, seeded_) hold seed or twisted state
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Derive an independent child stream; used so that sub-generators (e.g. one
  // per UG) do not perturb each other when call order changes.
  [[nodiscard]] Rng Fork() { return Rng{engine_()}; }

  [[nodiscard]] double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  [[nodiscard]] double Uniform01() { return Uniform(0.0, 1.0); }

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  [[nodiscard]] std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  [[nodiscard]] bool Bernoulli(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  [[nodiscard]] double Exponential(double rate) {
    return std::exponential_distribution<double>{rate}(engine_);
  }

  [[nodiscard]] double Normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  [[nodiscard]] double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  // Pareto variate with scale x_m and shape alpha; heavy-tailed volumes and
  // flow durations use this.
  [[nodiscard]] double Pareto(double x_m, double alpha) {
    const double u = Uniform01();
    return x_m / std::pow(1.0 - u, 1.0 / alpha);
  }

  // Sample an index proportionally to non-negative weights. Returns n if all
  // weights are zero (caller decides the fallback).
  [[nodiscard]] std::size_t WeightedIndex(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return weights.size();
    double x = Uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x <= 0.0) return i;
    }
    return weights.size() - 1;
  }

  template <typename T>
  void Shuffle(std::span<T> items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace painter::util
