#include "lookup/table_gen.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "common/page_buffer.hpp"

namespace rb {
namespace {

// Open-addressed set of route keys, sized once for `n` keys at a load
// factor of at most one half. Its slots come zeroed from the kernel and
// go back to it, so the set neither fills them first nor leaves heap
// behind; a key carries kOccupied, so no key reads as an empty slot.
class RouteKeySet {
 public:
  explicit RouteKeySet(size_t n)
      : shift_(64 - std::countr_zero(std::bit_ceil(std::max<size_t>(2 * n, 2)))),
        slots_buffer_((size_t{1} << (64 - shift_)) * sizeof(uint64_t)),
        slots_(slots_buffer_.As<uint64_t>()) {}

  // Adds `prefix`/`length`; false when it was already present.
  bool Insert(uint32_t prefix, uint8_t length) {
    const uint64_t key = (uint64_t{prefix} << 8) | kOccupied | length;
    const size_t mask = (size_t{1} << (64 - shift_)) - 1;
    for (size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;; i = (i + 1) & mask) {
      if (slots_[i] == key) {
        return false;
      }
      if (slots_[i] == 0) {
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  static constexpr uint64_t kOccupied = 0x80;  // above any length (<= 32)
  int shift_;
  PageBuffer slots_buffer_;
  uint64_t* slots_;
};

}  // namespace

std::vector<std::pair<uint8_t, double>> DefaultPrefixLengthWeights() {
  // Approximate RouteViews global-table shares, late-2008 vintage.
  return {
      {8, 0.1},  {9, 0.1},  {10, 0.2}, {11, 0.3}, {12, 0.5},  {13, 0.9},
      {14, 1.8}, {15, 3.0}, {16, 5.5}, {17, 3.5}, {18, 6.0},  {19, 9.5},
      {20, 9.0}, {21, 8.5}, {22, 10.0}, {23, 8.0}, {24, 53.0}, {25, 0.4},
      {26, 0.4}, {27, 0.3}, {28, 0.2}, {29, 0.2}, {30, 0.1},  {31, 0.02},
      {32, 0.3},
  };
}

std::vector<RouteEntry> GenerateRoutingTable(const TableGenConfig& config) {
  RB_CHECK(config.num_next_hops >= 1);
  Rng rng(config.seed);
  const auto weight_pairs = DefaultPrefixLengthWeights();
  std::vector<double> weights;
  weights.reserve(weight_pairs.size());
  for (const auto& [len, w] : weight_pairs) {
    weights.push_back(w);
  }
  const CumulativeWeights length_weights(weights);

  std::vector<RouteEntry> routes;
  routes.reserve(config.num_routes);
  RouteKeySet seen(config.num_routes);

  while (routes.size() < config.num_routes) {
    uint8_t length = weight_pairs[rng.NextWeighted(length_weights)].first;
    uint32_t prefix = NormalizePrefix(static_cast<uint32_t>(rng.Next()), length);
    // Keep addresses out of multicast/reserved space so generated traffic
    // looks like unicast.
    if ((prefix >> 28) >= 0xe) {
      continue;
    }
    if (!seen.Insert(prefix, length)) {
      continue;
    }
    RouteEntry r;
    r.prefix = prefix;
    r.length = length;
    r.next_hop = 1 + static_cast<uint32_t>(rng.NextBounded(config.num_next_hops));
    routes.push_back(r);
  }
  return routes;
}

PrefixSampler::PrefixSampler(const std::vector<RouteEntry>& routes) {
  RB_CHECK_MSG(!routes.empty(), "PrefixSampler needs at least one route");
  prefixes_.reserve(routes.size());
  for (const RouteEntry& r : routes) {
    MaskedPrefix mp;
    mp.prefix = NormalizePrefix(r.prefix, r.length);
    mp.host_mask = r.length >= 32 ? 0 : (r.length == 0 ? 0xffffffffu : (1u << (32 - r.length)) - 1);
    prefixes_.push_back(mp);
  }
}

PrefixSampler::PrefixSampler(const TableGenConfig& config)
    : PrefixSampler(GenerateRoutingTable(config)) {}

uint32_t PrefixSampler::NextDst(Rng* rng) const {
  const MaskedPrefix& mp = prefixes_[rng->NextBounded(prefixes_.size())];
  return mp.prefix | (static_cast<uint32_t>(rng->Next()) & mp.host_mask);
}

}  // namespace rb
