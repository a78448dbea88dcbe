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
