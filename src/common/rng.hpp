// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the library (workload generation, VLB
// intermediate-node selection, prefix-table synthesis) flows through Rng so
// that experiments are reproducible from a seed. The generator is
// xoshiro256** (Blackman/Vigna), which is fast, has 256-bit state, and
// passes BigCrush; we avoid <random> engines in the data path because their
// distributions are not stable across standard-library implementations.
#ifndef RB_COMMON_RNG_HPP_
#define RB_COMMON_RNG_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rb {

// Sampling weights (need not be normalized) as their running sums, summed
// once so that each Rng::NextWeighted draw is one compare per index.
class CumulativeWeights {
 public:
  explicit CumulativeWeights(const std::vector<double>& weights);

  // sums()[i] = weights[0] + ... + weights[i], added in that order.
  const std::vector<double>& sums() const { return sums_; }

 private:
  std::vector<double> sums_;
};

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform over all 64-bit values.
  uint64_t Next();

  // Uniform in [0, bound). bound must be > 0. Uses Lemire's multiply-shift
  // rejection method to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  uint64_t NextRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p.
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  // Pareto distributed with scale xm > 0 and shape alpha > 0. Heavy-tailed;
  // used for flow sizes.
  double NextPareto(double xm, double alpha);

  // Samples an index with probability proportional to its weight.
  size_t NextWeighted(const CumulativeWeights& weights);

  // Re-seeds the generator (same as constructing anew).
  void Seed(uint64_t seed);

 private:
  uint64_t s_[4];
};

}  // namespace rb

#endif  // RB_COMMON_RNG_HPP_
