#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rb {
namespace {

TEST(MeanVarTest, BasicMoments) {
  MeanVar mv;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    mv.Add(x);
  }
  EXPECT_EQ(mv.count(), 8u);
  EXPECT_DOUBLE_EQ(mv.mean(), 5.0);
  EXPECT_DOUBLE_EQ(mv.variance(), 4.0);
  EXPECT_DOUBLE_EQ(mv.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(mv.min(), 2.0);
  EXPECT_DOUBLE_EQ(mv.max(), 9.0);
  EXPECT_DOUBLE_EQ(mv.sum(), 40.0);
}

TEST(MeanVarTest, EmptyIsZero) {
  MeanVar mv;
  EXPECT_EQ(mv.count(), 0u);
  EXPECT_EQ(mv.mean(), 0.0);
  EXPECT_EQ(mv.variance(), 0.0);
}

TEST(MeanVarTest, MergeEqualsCombined) {
  MeanVar a;
  MeanVar b;
  MeanVar all;
  for (int i = 0; i < 100; ++i) {
    double x = i * 0.37;
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(MeanVarTest, MergeIntoEmpty) {
  MeanVar a;
  MeanVar b;
  b.Add(3.0);
  b.Add(5.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(HistogramTest, PercentilesOfUniformRamp) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.Percentile(50), 50, 2.0);
  EXPECT_NEAR(h.Percentile(95), 95, 2.0);
  EXPECT_NEAR(h.Percentile(99), 99, 2.0);
}

TEST(HistogramTest, OverflowAndUnderflowCounted) {
  Histogram h(0, 10, 10);
  h.Add(-5);
  h.Add(100);
  h.Add(5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  // A rank in the underflow bucket reports the observed min, not lo.
  EXPECT_DOUBLE_EQ(h.Percentile(10), -5.0);
}

TEST(HistogramTest, AllSamplesInUnderflowBucket) {
  Histogram h(0, 10, 10);
  h.Add(-3);
  h.Add(-7);
  h.Add(-1);
  EXPECT_EQ(h.underflow(), 3u);
  // Every rank is clipped below range: all percentiles report min().
  EXPECT_DOUBLE_EQ(h.Percentile(1), -7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), -7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), -7.0);
}

TEST(HistogramTest, AllSamplesInOverflowBucket) {
  Histogram h(0, 10, 10);
  h.Add(20);
  h.Add(50);
  h.Add(30);
  EXPECT_EQ(h.overflow(), 3u);
  // Every rank is clipped above range: all percentiles report max().
  EXPECT_DOUBLE_EQ(h.Percentile(1), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 50.0);
}

TEST(HistogramTest, SummaryReportsClippedCounts) {
  Histogram h(0, 10, 10);
  h.Add(5);
  EXPECT_EQ(h.Summary().find("uf="), std::string::npos);
  h.Add(-1);
  h.Add(100);
  h.Add(200);
  std::string s = h.Summary();
  EXPECT_NE(s.find("uf=1"), std::string::npos);
  EXPECT_NE(s.find("of=2"), std::string::npos);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram h(0, 1, 10);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h(0, 10, 10);
  h.Add(3);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h(0, 10, 10);
  h.Add(1);
  h.Add(2);
  EXPECT_NE(h.Summary().find("n=2"), std::string::npos);
}

TEST(RateTest, FromCounts) {
  Rate r = Rate::FromCounts(1000, 64000, 0.001);
  EXPECT_DOUBLE_EQ(r.pps, 1e6);
  EXPECT_DOUBLE_EQ(r.bps, 64000 * 8 / 0.001);
  EXPECT_DOUBLE_EQ(r.mpps(), 1.0);
}

TEST(RateTest, ZeroSecondsGivesZero) {
  Rate r = Rate::FromCounts(5, 100, 0);
  EXPECT_EQ(r.pps, 0.0);
  EXPECT_EQ(r.bps, 0.0);
}

TEST(JainTest, PerfectFairness) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5, 5, 5, 5}), 1.0);
}

TEST(JainTest, TotalUnfairness) {
  // One user hogging everything among n users scores 1/n.
  EXPECT_NEAR(JainFairnessIndex({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainTest, EmptyAndZeroAreFair) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0, 0}), 1.0);
}

TEST(PortCountersTest, AddPacketAndDrop) {
  PortCounters c;
  c.Add(2, 64 + 128);
  c.Add(1, 1500, 1);
  c.Add(0, 0, 2);
  EXPECT_EQ(c.packets, 3u);
  EXPECT_EQ(c.bytes, 64u + 128u + 1500u);
  EXPECT_EQ(c.drops, 3u);
}

}  // namespace
}  // namespace rb
