#include "lookup/dir24_8.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "lookup/radix_trie.hpp"
#include "lookup/table_gen.hpp"

namespace rb {
namespace {

uint32_t Ip(const char* s) {
  uint32_t a = 0;
  EXPECT_TRUE(ParseIpv4(s, &a));
  return a;
}

// tbl24 is never cleared: an unloaded table, and one loaded from an empty
// list, read kNoRoute in every slot because the kernel zeroed them.
TEST(Dir24_8Test, EmptyReturnsNoRoute) {
  Dir24_8 unloaded;
  EXPECT_EQ(unloaded.Lookup(Ip("1.2.3.4")), LpmTable::kNoRoute);
  Dir24_8 empty;
  empty.InsertAll({});
  EXPECT_EQ(empty.size(), 0u);
  std::vector<uint32_t> addrs(4096);
  std::vector<uint32_t> hops(addrs.size());
  for (uint64_t slot = 0; slot < (uint64_t{1} << 24); slot += addrs.size()) {
    for (size_t i = 0; i < addrs.size(); ++i) {
      addrs[i] = static_cast<uint32_t>(((slot + i) << 8) | (i & 0xff));
    }
    for (const Dir24_8* t : {&unloaded, &empty}) {
      t->LookupBatch(addrs.data(), hops.data(), addrs.size());
      for (size_t i = 0; i < hops.size(); ++i) {
        ASSERT_EQ(hops[i], LpmTable::kNoRoute) << Ipv4ToString(addrs[i]);
      }
    }
  }
}

TEST(Dir24_8Test, ShortPrefixFillsRange) {
  Dir24_8 t;
  t.InsertAll({{Ip("10.0.0.0"), 8, 7}});
  EXPECT_EQ(t.Lookup(Ip("10.0.0.0")), 7u);
  EXPECT_EQ(t.Lookup(Ip("10.255.255.255")), 7u);
  EXPECT_EQ(t.Lookup(Ip("11.0.0.0")), LpmTable::kNoRoute);
  EXPECT_EQ(t.num_long_segments(), 0u);
}

TEST(Dir24_8Test, LongPrefixAllocatesSegment) {
  Dir24_8 t;
  t.InsertAll({{Ip("10.1.2.128"), 25, 3}});
  EXPECT_EQ(t.num_long_segments(), 1u);
  EXPECT_EQ(t.Lookup(Ip("10.1.2.129")), 3u);
  EXPECT_EQ(t.Lookup(Ip("10.1.2.127")), LpmTable::kNoRoute);
}

TEST(Dir24_8Test, LongPrefixInheritsCoveringShort) {
  Dir24_8 t;
  t.InsertAll({{Ip("10.0.0.0"), 8, 1}, {Ip("10.1.2.0"), 26, 2}});
  // Inside the /26.
  EXPECT_EQ(t.Lookup(Ip("10.1.2.63")), 2u);
  // Same /24, outside the /26: falls back to the /8.
  EXPECT_EQ(t.Lookup(Ip("10.1.2.64")), 1u);
  // Different /24 entirely.
  EXPECT_EQ(t.Lookup(Ip("10.9.9.9")), 1u);
}

TEST(Dir24_8Test, ShortInsertedAfterLongDoesNotClobber) {
  Dir24_8 t;
  t.InsertAll({{Ip("10.1.2.0"), 26, 2}, {Ip("10.0.0.0"), 8, 1}});  // shorter, listed later
  EXPECT_EQ(t.Lookup(Ip("10.1.2.10")), 2u) << "longer prefix must survive";
  EXPECT_EQ(t.Lookup(Ip("10.1.2.200")), 1u);
}

TEST(Dir24_8Test, Slash32Works) {
  Dir24_8 t;
  t.InsertAll({{Ip("1.2.3.4"), 32, 9}});
  EXPECT_EQ(t.Lookup(Ip("1.2.3.4")), 9u);
  EXPECT_EQ(t.Lookup(Ip("1.2.3.5")), LpmTable::kNoRoute);
}

TEST(Dir24_8Test, Slash24BoundaryExact) {
  Dir24_8 t;
  t.InsertAll({{Ip("192.168.5.0"), 24, 4}});
  EXPECT_EQ(t.Lookup(Ip("192.168.5.0")), 4u);
  EXPECT_EQ(t.Lookup(Ip("192.168.5.255")), 4u);
  EXPECT_EQ(t.Lookup(Ip("192.168.4.255")), LpmTable::kNoRoute);
  EXPECT_EQ(t.Lookup(Ip("192.168.6.0")), LpmTable::kNoRoute);
}

TEST(Dir24_8Test, DefaultRoute) {
  Dir24_8 t;
  t.InsertAll({{0, 0, 5}});
  EXPECT_EQ(t.Lookup(Ip("200.100.50.25")), 5u);
}

TEST(Dir24_8Test, SizeCountsDistinctRoutes) {
  Dir24_8 t;
  t.InsertAll({
      {Ip("10.0.0.0"), 8, 1},
      {Ip("10.0.0.0"), 8, 2},  // replace
      {Ip("10.0.0.0"), 9, 3},  // different length -> new route
  });
  EXPECT_EQ(t.size(), 2u);
}

// A prefix/length listed twice, with other routes between, resolves to its
// last entry and counts once, in either order of its two next hops and
// whether it lands in tbl24 or tbl_long — as RadixTrie::InsertAll leaves it.
TEST(Dir24_8Test, RepeatedRouteKeepsLastEntry) {
  const std::pair<const char*, uint8_t> repeated[] = {{"10.1.2.0", 24}, {"10.1.2.128", 26}};
  const std::pair<uint32_t, uint32_t> hop_orders[] = {{3, 4}, {4, 3}};
  for (const auto& [prefix, length] : repeated) {
    for (const auto& [first, last] : hop_orders) {
      const std::vector<RouteEntry> routes = {
          {Ip(prefix), length, first},
          {Ip("10.0.0.0"), 8, 1},
          {Ip("10.1.2.192"), 27, 2},
          {Ip(prefix) | 1, length, last},  // same route: host bits ignored
          {Ip("10.1.3.0"), 24, 5},
      };
      Dir24_8 dut;
      RadixTrie ref;
      dut.InsertAll(routes);
      ref.InsertAll(routes);
      EXPECT_EQ(dut.size(), 4u);
      EXPECT_EQ(ref.size(), 4u);
      EXPECT_EQ(dut.Lookup(Ip(prefix) + 1), last);
      for (uint32_t a = Ip("10.1.2.0") - 1; a <= Ip("10.1.3.0"); ++a) {
        ASSERT_EQ(dut.Lookup(a), ref.Lookup(a)) << Ipv4ToString(a);
      }
    }
  }
}

TEST(Dir24_8DeathTest, SecondInsertAllAborts) {
  Dir24_8 t;
  t.InsertAll({{Ip("10.0.0.0"), 8, 1}});
  EXPECT_DEATH(t.InsertAll({{Ip("11.0.0.0"), 8, 2}}), "built once");
}

TEST(Dir24_8Test, MemoryFootprintMatchesLayout) {
  Dir24_8 empty;
  size_t base = empty.memory_bytes();
  EXPECT_GE(base, (1u << 24) * sizeof(uint16_t));
  Dir24_8 t;
  t.InsertAll({{Ip("10.1.2.128"), 25, 3}});
  EXPECT_EQ(t.memory_bytes() - base, 256 * sizeof(uint16_t) + sizeof(uint32_t));
}

// The load-bearing property test: DIR-24-8 agrees with the reference trie
// on random tables (repeated prefixes included) and random lookups.
class Dir24CrossValidation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Dir24CrossValidation, MatchesRadixTrie) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  // Random routes with lengths biased toward the interesting 20-32 band.
  const int kRoutes = 400;
  std::vector<RouteEntry> routes;
  for (int i = 0; i < kRoutes; ++i) {
    uint8_t length = static_cast<uint8_t>(8 + rng.NextBounded(25));  // 8..32
    uint32_t prefix = static_cast<uint32_t>(rng.Next());
    uint32_t next_hop = 1 + static_cast<uint32_t>(rng.NextBounded(50));
    routes.push_back({prefix, length, next_hop});
  }
  RadixTrie reference;
  Dir24_8 dut;
  reference.InsertAll(routes);
  dut.InsertAll(routes);
  EXPECT_EQ(dut.size(), reference.size());
  // Random probes plus probes near inserted prefixes.
  for (int i = 0; i < 20000; ++i) {
    uint32_t addr = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(dut.Lookup(addr), reference.Lookup(addr)) << "addr=" << Ipv4ToString(addr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Dir24CrossValidation, ::testing::Range<uint64_t>(1, 9));

TEST(Dir24_8Test, FullGeneratedTableAgreesWithTrie) {
  TableGenConfig cfg;
  cfg.num_routes = 20000;  // scaled-down 256K table for test speed
  cfg.seed = 77;
  auto routes = GenerateRoutingTable(cfg);
  RadixTrie reference;
  Dir24_8 dut;
  reference.InsertAll(routes);
  dut.InsertAll(routes);
  EXPECT_EQ(dut.size(), routes.size());
  Rng rng(78);
  for (int i = 0; i < 50000; ++i) {
    uint32_t addr = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(dut.Lookup(addr), reference.Lookup(addr));
  }
  // Also probe addresses that definitely hit routes.
  for (size_t i = 0; i < routes.size(); i += 7) {
    uint32_t addr = routes[i].prefix | static_cast<uint32_t>(rng.NextBounded(256));
    ASSERT_EQ(dut.Lookup(addr), reference.Lookup(addr));
  }
}

}  // namespace
}  // namespace rb
