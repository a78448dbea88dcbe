// S2 differential suite: Dir24_8 and RadixTrie must agree everywhere —
// scalar Lookup and the prefetch-pipelined LookupBatch, over randomized
// generated tables and adversarial prefix layouts (/0, the /24 boundary,
// /25../32 spill into tbl_long, overlapping covers). The batch path gets
// its own coverage because it is the data-plane entry point (IpLookup
// resolves whole bursts through it) and its prefetch pipelining must not
// change a single result.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "lookup/dir24_8.hpp"
#include "lookup/radix_trie.hpp"
#include "lookup/table_gen.hpp"

namespace rb {
namespace {

// Boundary addresses for a route: just below, first, inside, last, just
// above.
std::vector<uint32_t> EdgeProbes(const RouteEntry& r) {
  uint32_t first = NormalizePrefix(r.prefix, r.length);
  uint32_t span = r.length >= 32 ? 0 : (0xffffffffu >> r.length);
  uint32_t last = first | span;
  return {first - 1, first, first + span / 2, last, last + 1};
}

void ExpectAllAgree(const Dir24_8& dut, const RadixTrie& ref,
                    const std::vector<uint32_t>& addrs) {
  // Scalar agreement.
  std::vector<uint32_t> want(addrs.size());
  for (size_t i = 0; i < addrs.size(); ++i) {
    want[i] = ref.Lookup(addrs[i]);
    ASSERT_EQ(dut.Lookup(addrs[i]), want[i]) << "addr " << addrs[i];
  }
  // Batch agreement for both structures, across sizes that straddle the
  // prefetch depth (empty, shorter, equal, longer, full bursts).
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{8}, size_t{9}, addrs.size()}) {
    if (n > addrs.size()) {
      continue;
    }
    std::vector<uint32_t> got(n + 1, 0xdeadbeefu);
    dut.LookupBatch(addrs.data(), got.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "Dir24_8 batch[" << i << "] of " << n;
    }
    ASSERT_EQ(got[n], 0xdeadbeefu) << "batch wrote past n";
    ref.LookupBatch(addrs.data(), got.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "RadixTrie batch[" << i << "] of " << n;
    }
  }
}

TEST(LpmDifferentialTest, AdversarialPrefixLayouts) {
  // Overlapping covers across the /24 boundary: a default route, nested
  // shorts, a /24, and /25../32 spills inside and outside the same /24.
  const std::vector<RouteEntry> routes = {
      {0x00000000u, 0, 1},   // default route
      {0x0a000000u, 8, 2},   // 10/8
      {0x0a010000u, 16, 3},  // 10.1/16 (inside the /8)
      {0x0a010200u, 24, 4},  // 10.1.2/24
      {0x0a010280u, 25, 5},  // 10.1.2.128/25 (spills the /24's slot)
      {0x0a0102c0u, 26, 6},  // 10.1.2.192/26 (nested in the /25)
      {0x0a0102ffu, 32, 7},  // one host inside everything above
      {0x0a010300u, 24, 8},  // adjacent /24
      {0xc0a80500u, 24, 9},  // isolated /24 elsewhere
      {0xc0a80501u, 32, 10},  // /32 under it
      {0xffffff00u, 24, 11},  // top of the address space
      {0xffffffffu, 32, 12},
  };
  // Every list order must build the same table; try a few.
  Rng rng(7);
  for (int order = 0; order < 6; ++order) {
    std::vector<RouteEntry> shuffled = routes;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    Dir24_8 dut;
    RadixTrie ref;
    dut.InsertAll(shuffled);
    ref.InsertAll(shuffled);

    std::vector<uint32_t> probes;
    for (const RouteEntry& r : routes) {
      for (uint32_t a : EdgeProbes(r)) {
        probes.push_back(a);
      }
    }
    for (int i = 0; i < 2000; ++i) {
      probes.push_back(static_cast<uint32_t>(rng.Next()));
    }
    ExpectAllAgree(dut, ref, probes);
  }
}

TEST(LpmDifferentialTest, ReplacementAndShadowedInsertOrderAgree) {
  // List long before short, replace a next hop, then pile a longer prefix
  // on top — slot precedence must match the trie's.
  const std::vector<RouteEntry> routes = {
      {0x0a010280u, 25, 5},
      {0x0a000000u, 8, 2},
      {0x0a010280u, 25, 6},  // replace
      {0x0a010200u, 24, 4},  // shorter, later
      {0x0a0102a0u, 27, 7},  // longer, last
  };
  Dir24_8 dut;
  RadixTrie ref;
  dut.InsertAll(routes);
  ref.InsertAll(routes);
  std::vector<uint32_t> probes;
  for (uint32_t a = 0x0a010200u - 2; a <= 0x0a010300u + 2; ++a) {
    probes.push_back(a);  // exhaustive sweep of the contested /24
  }
  ExpectAllAgree(dut, ref, probes);
}

// Builds both structures from `routes` and checks that they agree on
// every route's edges and on random addresses, and count the same routes.
void ExpectSameTable(const std::vector<RouteEntry>& routes, uint64_t seed) {
  Dir24_8 dut;
  RadixTrie ref;
  dut.InsertAll(routes);
  ref.InsertAll(routes);
  ASSERT_EQ(dut.size(), ref.size());
  std::vector<uint32_t> probes = {0u, 255u, 256u, 0xffffff00u, 0xfffffffeu, 0xffffffffu};
  for (const RouteEntry& r : routes) {
    for (uint32_t a : EdgeProbes(r)) {
      probes.push_back(a);
    }
  }
  Rng rng(seed);
  for (int i = 0; i < 4000; ++i) {
    probes.push_back(static_cast<uint32_t>(rng.Next()));
  }
  ExpectAllAgree(dut, ref, probes);
}

// The cases the address-order build handles at its edges: the sweep's
// first and last slot, its stack of open prefixes at its deepest and at
// the end of the address space, repeated entries, segments seeded under
// every covering length, and lists too long for a narrow index field.
TEST(LpmDifferentialTest, AddressOrderBuildEdgeCases) {
  {
    SCOPED_TRACE("empty list");
    ExpectSameTable({}, 1);
  }
  {
    SCOPED_TRACE("a /0 alone, and under /8 and /32 routes");
    ExpectSameTable({{0, 0, 3}}, 2);
    ExpectSameTable({{0x0a000000u, 8, 4}, {0, 0, 3}, {0x0a000001u, 32, 5}}, 3);
  }
  {
    SCOPED_TRACE("one prefix/length listed three times, other routes between");
    for (uint8_t length : {uint8_t{0}, uint8_t{16}, uint8_t{24}, uint8_t{28}}) {
      const uint32_t prefix = NormalizePrefix(0x0a0102c0u, length);
      ExpectSameTable({{prefix, length, 7},
                       {0x0a000000u, 8, 1},
                       {prefix | 1, length, 8},
                       {0x0a0102f0u, 30, 2},
                       {prefix, length, 9}},
                      4 + length);
    }
  }
  {
    SCOPED_TRACE("nested runs ending at 2^24: one prefix of each length 1..32 at the top");
    std::vector<RouteEntry> routes;
    for (uint8_t length = 1; length <= 32; ++length) {
      routes.push_back({0xffffffffu, length, length});
    }
    ExpectSameTable(routes, 5);
    routes.push_back({0, 0, 99});
    ExpectSameTable(routes, 6);
  }
  {
    SCOPED_TRACE("/32s at 0.0.0.0 and 255.255.255.255");
    ExpectSameTable({{0, 32, 1}, {0xffffffffu, 32, 2}}, 7);
    ExpectSameTable({{0xffffffffu, 32, 2}, {0, 0, 3}, {0, 32, 1}, {0xff000000u, 8, 4}}, 8);
  }
  {
    SCOPED_TRACE("a /24 with all its /25-/32 children");
    std::vector<RouteEntry> routes = {{0x0a010200u, 24, 1}, {0x0a000000u, 8, 2}};
    uint32_t hop = 3;
    for (uint8_t length = 25; length <= 32; ++length) {
      for (uint32_t host = 0; host < 256; host += 1u << (32 - length)) {
        routes.push_back({0x0a010200u | host, length, hop++ % 40 + 3});
      }
    }
    ExpectSameTable(routes, 9);
    Dir24_8 dut;
    dut.InsertAll(routes);
    EXPECT_EQ(dut.num_long_segments(), 1u);
  }
  {
    SCOPED_TRACE("more than 2^18 routes, one repeated across the 2^18th entry");
    TableGenConfig cfg;
    cfg.num_routes = (size_t{1} << 18) + 4096;
    cfg.num_next_hops = 40;
    cfg.seed = 11;
    std::vector<RouteEntry> routes = GenerateRoutingTable(cfg);
    RouteEntry repeated = routes[5];
    repeated.next_hop = repeated.next_hop % 40 + 1;  // a different hop, listed last
    routes.push_back(repeated);
    ExpectSameTable(routes, 10);
  }
}

class LpmDifferentialRandomTables : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LpmDifferentialRandomTables, GeneratedTableBatchAgreesEverywhere) {
  TableGenConfig cfg;
  cfg.num_routes = 6000;
  cfg.seed = GetParam();
  auto routes = GenerateRoutingTable(cfg);
  Dir24_8 dut;
  RadixTrie ref;
  dut.InsertAll(routes);
  ref.InsertAll(routes);

  Rng rng(GetParam() * 31 + 1);
  // Random probes plus route-edge probes, resolved through full bursts.
  std::vector<uint32_t> probes;
  for (int i = 0; i < 6000; ++i) {
    probes.push_back(static_cast<uint32_t>(rng.Next()));
  }
  for (size_t i = 0; i < routes.size(); i += 11) {
    for (uint32_t a : EdgeProbes(routes[i])) {
      probes.push_back(a);
    }
  }
  std::vector<uint32_t> want(probes.size());
  std::vector<uint32_t> got(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    want[i] = ref.Lookup(probes[i]);
  }
  // One LookupBatch per burst-sized slice, as the data plane issues them.
  for (size_t at = 0; at < probes.size(); at += 256) {
    size_t n = std::min<size_t>(256, probes.size() - at);
    dut.LookupBatch(probes.data() + at, got.data() + at, n);
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "addr " << probes[i];
    ASSERT_EQ(dut.Lookup(probes[i]), want[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmDifferentialRandomTables, ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace rb
