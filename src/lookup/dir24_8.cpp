#include "lookup/dir24_8.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/log.hpp"
#include "common/prefetch.hpp"

namespace rb {

Dir24_8::Dir24_8() : tbl24_(1u << 24, 0) {
  next_hops_.push_back(kNoRoute);  // index 0 reserved
}

void Dir24_8::InsertAll(std::vector<RouteEntry> routes) {
  RB_CHECK_MSG(size_ == 0, "Dir24_8 is built once: InsertAll on a loaded table");
  for (RouteEntry& r : routes) {
    RB_CHECK(r.length <= 32);
    r.prefix = NormalizePrefix(r.prefix, r.length);
  }
  // Shortest prefix first, so each route overwrites the shorter ones it
  // covers. The sort is stable: a repeated prefix/length keeps its list
  // order, and its last entry is written last.
  std::stable_sort(routes.begin(), routes.end(), [](const RouteEntry& a, const RouteEntry& b) {
    return a.length != b.length ? a.length < b.length : a.prefix < b.prefix;
  });

  std::unordered_map<uint32_t, uint16_t> hop_index;
  for (size_t i = 0; i < routes.size(); ++i) {
    const RouteEntry& r = routes[i];
    if (i == 0 || r.length != routes[i - 1].length || r.prefix != routes[i - 1].prefix) {
      size_++;
    }
    uint16_t hop = 0;  // kNoRoute keeps index 0
    if (r.next_hop != kNoRoute) {
      auto [it, added] =
          hop_index.try_emplace(r.next_hop, static_cast<uint16_t>(next_hops_.size()));
      if (added) {
        RB_CHECK_MSG(next_hops_.size() < kMaxNextHops,
                     "too many distinct next hops for 15-bit index");
        next_hops_.push_back(r.next_hop);
      }
      hop = it->second;
    }

    uint16_t& slot = tbl24_[r.prefix >> 8];
    if (r.length <= 24) {
      std::fill_n(&slot, size_t{1} << (24 - r.length), hop);
      continue;
    }
    if (!(slot & kExtendedBit)) {
      // The slot's first /25-/32. Every <= /24 route is already in place,
      // so the segment starts as the slot's final short-prefix hop.
      size_t seg = tbl_long_.size() / kSegmentSize;
      RB_CHECK_MSG(seg < kMaxNextHops, "too many tbl_long segments for 15-bit index");
      tbl_long_.insert(tbl_long_.end(), kSegmentSize, slot);
      slot = static_cast<uint16_t>(kExtendedBit | seg);
    }
    size_t base = static_cast<size_t>(slot & ~kExtendedBit) * kSegmentSize;
    std::fill_n(&tbl_long_[base + (r.prefix & 0xff)], size_t{1} << (32 - r.length), hop);
  }
  // Growth slack would be heap that memory_bytes() does not count.
  tbl_long_.shrink_to_fit();
  next_hops_.shrink_to_fit();
}

uint32_t Dir24_8::ResolveNextHop(uint16_t index) const { return next_hops_[index]; }

uint32_t Dir24_8::Lookup(uint32_t addr) const {
  uint16_t entry = tbl24_[addr >> 8];
  if (entry & kExtendedBit) {
    uint32_t seg = entry & ~kExtendedBit;
    entry = tbl_long_[static_cast<size_t>(seg) * kSegmentSize + (addr & 0xff)];
  }
  return ResolveNextHop(entry);
}

void Dir24_8::LookupBatch(const uint32_t* addrs, uint32_t* hops, size_t n) const {
  const uint16_t* t24 = tbl24_.data();
  // Prime the pipeline: the first kPrefetchAhead lines are in flight
  // before any resolution starts.
  const size_t lead = std::min(kPrefetchAhead, n);
  for (size_t i = 0; i < lead; ++i) {
    PrefetchForRead(&t24[addrs[i] >> 8]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      PrefetchForRead(&t24[addrs[i + kPrefetchAhead] >> 8]);
    }
    uint16_t entry = t24[addrs[i] >> 8];
    if (entry & kExtendedBit) {
      // The tbl_long second access stays serialized (it depends on the
      // tbl24 load); long prefixes are the rare case by construction.
      uint32_t seg = entry & ~kExtendedBit;
      entry = tbl_long_[static_cast<size_t>(seg) * kSegmentSize + (addrs[i] & 0xff)];
    }
    hops[i] = next_hops_[entry];
  }
}

size_t Dir24_8::memory_bytes() const {
  return tbl24_.size() * sizeof(uint16_t) + tbl_long_.size() * sizeof(uint16_t) +
         next_hops_.size() * sizeof(uint32_t);
}

}  // namespace rb
