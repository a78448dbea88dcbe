#include "lookup/table_gen.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "lookup/dir24_8.hpp"

namespace rb {
namespace {

TEST(TableGenTest, GeneratesRequestedCount) {
  TableGenConfig cfg;
  cfg.num_routes = 5000;
  auto routes = GenerateRoutingTable(cfg);
  EXPECT_EQ(routes.size(), 5000u);
}

TEST(TableGenTest, RoutesAreDistinct) {
  TableGenConfig cfg;
  cfg.num_routes = 10000;
  auto routes = GenerateRoutingTable(cfg);
  std::set<uint64_t> keys;
  for (const auto& r : routes) {
    keys.insert((static_cast<uint64_t>(r.prefix) << 8) | r.length);
  }
  EXPECT_EQ(keys.size(), routes.size());
}

TEST(TableGenTest, Deterministic) {
  TableGenConfig cfg;
  cfg.num_routes = 1000;
  cfg.seed = 9;
  auto a = GenerateRoutingTable(cfg);
  auto b = GenerateRoutingTable(cfg);
  EXPECT_EQ(a, b);
}

TEST(TableGenTest, NextHopsInRange) {
  TableGenConfig cfg;
  cfg.num_routes = 2000;
  cfg.num_next_hops = 4;
  auto routes = GenerateRoutingTable(cfg);
  for (const auto& r : routes) {
    EXPECT_GE(r.next_hop, 1u);
    EXPECT_LE(r.next_hop, 4u);
  }
}

TEST(TableGenTest, PrefixesAreNormalized) {
  TableGenConfig cfg;
  cfg.num_routes = 2000;
  auto routes = GenerateRoutingTable(cfg);
  for (const auto& r : routes) {
    EXPECT_EQ(r.prefix, NormalizePrefix(r.prefix, r.length));
  }
}

TEST(TableGenTest, NoMulticastOrReservedPrefixes) {
  TableGenConfig cfg;
  cfg.num_routes = 5000;
  auto routes = GenerateRoutingTable(cfg);
  for (const auto& r : routes) {
    EXPECT_LT(r.prefix >> 28, 0xeu);
  }
}

TEST(TableGenTest, Slash24Dominates) {
  // The realistic shape: /24 is the most common length (roughly half).
  TableGenConfig cfg;
  cfg.num_routes = 30000;
  auto routes = GenerateRoutingTable(cfg);
  std::map<uint8_t, int> by_length;
  for (const auto& r : routes) {
    by_length[r.length]++;
  }
  double frac24 = by_length[24] / static_cast<double>(routes.size());
  EXPECT_GT(frac24, 0.40);
  EXPECT_LT(frac24, 0.60);
  // A small but nonzero share of >24 prefixes exercises tbl_long.
  int longer = 0;
  for (auto& [len, count] : by_length) {
    if (len > 24) {
      longer += count;
    }
  }
  EXPECT_GT(longer, 0);
  EXPECT_LT(longer / static_cast<double>(routes.size()), 0.05);
}

// FNV-1a over each route's prefix, length and next hop: a fingerprint of
// the whole list, order included.
uint64_t RouteListFnv1a(const std::vector<RouteEntry>& routes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const RouteEntry& r : routes) {
    mix(r.prefix, 4);
    mix(r.length, 1);
    mix(r.next_hop, 4);
  }
  return h;
}

// The table perfbench's routers install (seed 42, 256K routes, one next
// hop per port): the dedup may get faster, but the RNG stream and the
// route list it yields must not change.
TEST(TableGenTest, PerfbenchTableIsPinned) {
  TableGenConfig cfg;
  cfg.num_routes = 256 * 1024;
  cfg.num_next_hops = 2;
  cfg.seed = 42;
  const std::vector<RouteEntry> routes = GenerateRoutingTable(cfg);
  ASSERT_EQ(routes.size(), 262144u);
  EXPECT_EQ(RouteListFnv1a(routes), 0xa7580e0839ca5892ULL);
}

TEST(TableGenTest, WeightsCoverDocumentedLengths) {
  auto weights = DefaultPrefixLengthWeights();
  EXPECT_EQ(weights.front().first, 8);
  EXPECT_EQ(weights.back().first, 32);
  EXPECT_EQ(weights.size(), 25u);
}

TEST(PrefixSamplerTest, EveryDstMatchesItsTable) {
  // The whole point: sampled addresses are routable in an LPM built from
  // the same table, with no reject-sampling against that LPM.
  TableGenConfig cfg;
  cfg.num_routes = 4096;
  auto routes = GenerateRoutingTable(cfg);
  Dir24_8 table;
  table.InsertAll(routes);
  PrefixSampler sampler(routes);
  EXPECT_EQ(sampler.num_prefixes(), routes.size());
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_NE(table.Lookup(sampler.NextDst(&rng)), LpmTable::kNoRoute);
  }
}

TEST(PrefixSamplerTest, ConfigConstructorMatchesRouterTable) {
  // Same config + seed => the sampler covers exactly the routes a router
  // built from that config installed.
  TableGenConfig cfg;
  cfg.num_routes = 2048;
  cfg.seed = 1234;
  Dir24_8 table;
  table.InsertAll(GenerateRoutingTable(cfg));
  PrefixSampler sampler(cfg);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(table.Lookup(sampler.NextDst(&rng)), LpmTable::kNoRoute);
  }
}

TEST(PrefixSamplerTest, RandomizesHostBits) {
  // A /8 route leaves 24 host bits free; the sampler must actually spread
  // over them (cache-thrash workloads depend on destination entropy).
  std::vector<RouteEntry> routes;
  RouteEntry r;
  r.prefix = 0x0a000000;
  r.length = 8;
  r.next_hop = 1;
  routes.push_back(r);
  PrefixSampler sampler(routes);
  Rng rng(7);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint32_t dst = sampler.NextDst(&rng);
    EXPECT_EQ(dst >> 24, 0x0au);
    seen.insert(dst);
  }
  EXPECT_GT(seen.size(), 900u);
}

TEST(PrefixSamplerTest, HostRouteIsExact) {
  std::vector<RouteEntry> routes;
  RouteEntry r;
  r.prefix = 0xc0a80101;
  r.length = 32;
  r.next_hop = 2;
  routes.push_back(r);
  PrefixSampler sampler(routes);
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(sampler.NextDst(&rng), 0xc0a80101u);
  }
}

}  // namespace
}  // namespace rb
