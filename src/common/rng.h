// Deterministic pseudo-random number generation.
//
// All randomness in Phoebe flows through Rng so that every experiment is
// reproducible from a single seed. The generator is xoshiro256++ seeded via
// SplitMix64, which is fast, has a 2^256-1 period, and passes BigCrush.
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace phoebe {

/// \brief Deterministic random number generator with common distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached spare).
  double Normal();
  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);
  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);
  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);
  /// Pareto with scale xm > 0 and shape alpha > 0.
  double Pareto(double xm, double alpha);
  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  int64_t Poisson(double mean);
  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  /// Sample an index in [0, weights.size()) proportionally to weights.
  size_t Categorical(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derive an independent child generator (for per-job / per-day streams).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace phoebe
