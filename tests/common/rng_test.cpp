#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace rb {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng a(7);
  uint64_t first = a.Next();
  a.Next();
  a.Seed(7);
  EXPECT_EQ(a.Next(), first);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(5);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    counts[rng.NextBounded(8)]++;
  }
  for (int c : counts) {
    // Each residue should appear roughly 1000 times; 3-sigma band.
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(2.5);
  }
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.NextPareto(3.0, 1.5), 3.0);
  }
}

TEST(RngTest, ParetoMeanApproximatesTheory) {
  Rng rng(23);
  // Pareto(xm, alpha) mean = alpha*xm/(alpha-1) for alpha > 1. Use alpha
  // 2.5 to keep the variance finite enough for a stable test.
  double xm = 1.0;
  double alpha = 2.5;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextPareto(xm, alpha);
  }
  EXPECT_NEAR(sum / n, alpha * xm / (alpha - 1), 0.05);
}

TEST(RngTest, BoolProbability) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(RngTest, WeightedSamplingFollowsWeights) {
  Rng rng(31);
  const CumulativeWeights weights({1.0, 3.0, 6.0});
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[rng.NextWeighted(weights)]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

// Property sweep: bounded sampling is unbiased across a range of bounds.
class RngBoundedProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngBoundedProperty, MeanIsHalfBound) {
  uint64_t bound = GetParam();
  Rng rng(bound * 977 + 1);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.NextBounded(bound));
  }
  double expected = (static_cast<double>(bound) - 1) / 2.0;
  EXPECT_NEAR(sum / n, expected, std::max(1.0, expected * 0.03));
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundedProperty,
                         ::testing::Values(2, 3, 7, 10, 64, 1000, 1 << 20));

}  // namespace
}  // namespace rb
