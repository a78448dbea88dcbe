#include "common/rng.hpp"

#include <cmath>

#include "common/log.hpp"

namespace rb {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64: used only to expand the seed into the 256-bit state.
inline uint64_t SplitMix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) { Seed(seed); }

void Rng::Seed(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  RB_CHECK(bound > 0);
  // Lemire's method with rejection for exact uniformity.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

uint64_t Rng::NextRange(uint64_t lo, uint64_t hi) {
  RB_CHECK(lo <= hi);
  return lo + NextBounded(hi - lo + 1);
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextExponential(double mean) {
  RB_CHECK(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

double Rng::NextPareto(double xm, double alpha) {
  RB_CHECK(xm > 0 && alpha > 0);
  double u = NextDouble();
  if (u >= 1.0) {
    u = 1.0 - 0x1.0p-53;
  }
  return xm / std::pow(1.0 - u, 1.0 / alpha);
}

CumulativeWeights::CumulativeWeights(const std::vector<double>& weights) {
  RB_CHECK(!weights.empty());
  sums_.reserve(weights.size());
  double total = 0;
  for (double w : weights) {
    total += w;
    sums_.push_back(total);
  }
  RB_CHECK(total > 0);
}

size_t Rng::NextWeighted(const CumulativeWeights& weights) {
  const std::vector<double>& sums = weights.sums();
  const double r = NextDouble() * sums.back();
  for (size_t i = 0; i < sums.size(); ++i) {
    if (r < sums[i]) {
      return i;
    }
  }
  return sums.size() - 1;
}

}  // namespace rb
