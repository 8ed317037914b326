#include "common/rng.h"

#include <cmath>

namespace phoebe {

namespace {
inline uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PHOEBE_CHECK(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  // Lemire's rejection method for unbiased bounded integers.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < range) {
    uint64_t t = (~range + 1) % range;
    while (l < t) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<uint64_t>(m);
    }
  }
  return lo + static_cast<int64_t>(m >> 64);
}

double Rng::Normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = Uniform();
  double u2 = Uniform();
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double rate) {
  PHOEBE_CHECK(rate > 0.0);
  double u = 0.0;
  while (u <= 1e-300) u = Uniform();
  return -std::log(u) / rate;
}

double Rng::Pareto(double xm, double alpha) {
  PHOEBE_CHECK(xm > 0.0 && alpha > 0.0);
  double u = 0.0;
  while (u <= 1e-300) u = Uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

int64_t Rng::Poisson(double mean) {
  PHOEBE_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for workload
    // generation where mean counts are large.
    double v = Normal(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<int64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = Uniform();
  int64_t n = 0;
  while (prod > limit) {
    prod *= Uniform();
    ++n;
  }
  return n;
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  PHOEBE_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PHOEBE_CHECK(w >= 0.0);
    total += w;
  }
  PHOEBE_CHECK(total > 0.0);
  double u = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (acc >= u) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace phoebe
