#include "lookup/dir24_8.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "common/prefetch.hpp"

namespace rb {
namespace {

// One sort key per route: the normalized prefix in the top 32 bits, the
// length below it, and the route's index in the list in the low bits.
// Ascending keys are address order with a covering prefix first (same
// start, shorter length), and a repeated prefix/length in list order.
constexpr int kIndexBits = 26;
constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;

uint64_t RouteKey(uint32_t prefix, uint8_t length, size_t index) {
  return (uint64_t{prefix} << 32) | (uint64_t{length} << kIndexBits) | index;
}
uint32_t KeyPrefix(uint64_t key) { return static_cast<uint32_t>(key >> 32); }
uint32_t KeyLength(uint64_t key) { return static_cast<uint32_t>(key >> kIndexBits) & 63; }
size_t KeyIndex(uint64_t key) { return static_cast<size_t>(key & kIndexMask); }
bool SameRoute(uint64_t a, uint64_t b) { return (a >> kIndexBits) == (b >> kIndexBits); }

// Sorts keys[0, n) by route (the bits above the index), least
// significant digit first, one stable counting scatter per digit. The
// keys start in index order and every pass is stable, so a repeated
// prefix/length stays in list order without a pass over the index bits.
// Returns whichever of `keys` and `scratch` (room for n keys) holds the
// result.
uint64_t* SortByRoute(uint64_t* keys, uint64_t* scratch, size_t n) {
  constexpr int kDigitBits = 11;
  constexpr int kPasses = (64 - kIndexBits + kDigitBits - 1) / kDigitBits;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  auto digit = [](uint64_t key, int pass) {
    return static_cast<size_t>(key >> (kIndexBits + pass * kDigitBits)) & (kBuckets - 1);
  };
  std::array<std::array<uint32_t, kBuckets>, kPasses> counts{};
  for (size_t i = 0; i < n; ++i) {
    for (int pass = 0; pass < kPasses; ++pass) {
      counts[pass][digit(keys[i], pass)]++;
    }
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    std::array<uint32_t, kBuckets>& next = counts[pass];
    uint32_t at = 0;
    for (uint32_t& c : next) {
      at += std::exchange(c, at);
    }
    for (size_t i = 0; i < n; ++i) {
      scratch[next[digit(keys[i], pass)]++] = keys[i];
    }
    std::swap(keys, scratch);
  }
  return keys;
}

// std::fill of 16-bit slots, four to a 64-bit store: a 256K-route
// table fills about 14M slots, and -O2 leaves std::fill one store a slot.
void FillSlots(uint16_t* slots, size_t n, uint16_t hop) {
  const uint64_t four = hop * 0x0001000100010001ULL;
  for (; n >= 4; n -= 4, slots += 4) {
    std::memcpy(slots, &four, sizeof(four));
  }
  for (; n > 0; --n) {
    *slots++ = hop;
  }
}

}  // namespace

Dir24_8::Dir24_8()
    : tbl24_buffer_(kTbl24Entries * sizeof(uint16_t)), tbl24_(tbl24_buffer_.As<uint16_t>()) {
  next_hops_.push_back(kNoRoute);  // index 0 reserved
}

void Dir24_8::InsertAll(const std::vector<RouteEntry>& routes) {
  RB_CHECK_MSG(size_ == 0, "Dir24_8 is built once: InsertAll on a loaded table");
  const size_t n = routes.size();
  RB_CHECK_MSG(n <= kIndexMask + 1, "too many routes for Dir24_8's sort key");

  // The build's scratch: two key arrays and each route's hop index. It
  // comes from the kernel and goes back to it, so the build leaves
  // nothing behind in the heap.
  PageBuffer scratch(n * (2 * sizeof(uint64_t) + sizeof(uint16_t)));
  uint64_t* keys = scratch.As<uint64_t>();
  uint16_t* hop_of = reinterpret_cast<uint16_t*>(keys + 2 * n);

  // Hops are interned once per route, in list order. Tables have few
  // distinct next hops, so a direct-mapped cache keeps the map off the
  // common path.
  std::unordered_map<uint32_t, uint16_t> hop_index;
  std::array<std::pair<uint32_t, uint16_t>, 64> recent{};  // {hop, index}; hop 0: empty
  for (size_t i = 0; i < n; ++i) {
    const RouteEntry& r = routes[i];
    RB_CHECK(r.length <= 32);
    keys[i] = RouteKey(NormalizePrefix(r.prefix, r.length), r.length, i);
    uint16_t hop = 0;  // kNoRoute keeps index 0
    if (r.next_hop != kNoRoute) {
      auto& cached = recent[r.next_hop % recent.size()];
      if (cached.first != r.next_hop) {
        auto [it, added] =
            hop_index.try_emplace(r.next_hop, static_cast<uint16_t>(next_hops_.size()));
        if (added) {
          RB_CHECK_MSG(next_hops_.size() < kMaxNextHops,
                       "too many distinct next hops for 15-bit index");
          next_hops_.push_back(r.next_hop);
        }
        cached = {r.next_hop, it->second};
      }
      hop = cached.second;
    }
    hop_of[i] = hop;
  }
  keys = SortByRoute(keys, keys + n, n);

  // tbl_long gets one segment per slot that holds a /25-/32; the sorted
  // keys list each slot's routes together.
  size_t segments = 0;
  for (size_t i = 0, last_slot = kTbl24Entries; i < n; ++i) {
    if (KeyLength(keys[i]) > 24 && KeyPrefix(keys[i]) >> 8 != last_slot) {
      last_slot = KeyPrefix(keys[i]) >> 8;
      segments++;
    }
  }
  RB_CHECK_MSG(segments <= kMaxNextHops, "too many tbl_long segments for 15-bit index");
  tbl_long_.reserve(segments * kSegmentSize);

  // The sweep. tbl24 slots [0, done) are final. `open` holds the <= /24
  // prefixes that cover slot `done`, innermost on top: nested prefixes
  // differ in length, so there are at most 25 of them. Hop 0 is never
  // written: the kernel-zeroed slot already reads kNoRoute.
  struct Open {
    uint32_t end;  // one past the prefix's last slot
    uint16_t hop;
  };
  std::array<Open, 25> open{};
  size_t depth = 0;
  uint32_t done = 0;
  auto fill_to = [&](uint32_t end, uint16_t hop) {
    if (hop != 0) {
      FillSlots(tbl24_ + done, end - done, hop);
    }
    done = end;
  };
  // Finishes every slot before `slot`: each prefix that ends by then
  // fills up to its end and closes, innermost first, and the prefix left
  // on top (if any) fills the rest.
  auto sweep_to = [&](uint32_t slot) {
    while (depth > 0 && open[depth - 1].end <= slot) {
      fill_to(open[depth - 1].end, open[depth - 1].hop);
      depth--;
    }
    fill_to(slot, depth > 0 ? open[depth - 1].hop : 0);
  };

  for (size_t i = 0; i < n;) {
    // A repeated prefix/length is one route: its last entry wins.
    size_t last = i;
    while (last + 1 < n && SameRoute(keys[last + 1], keys[i])) {
      last++;
    }
    const uint64_t key = keys[last];
    i = last + 1;
    size_++;
    const uint32_t prefix = KeyPrefix(key);
    const uint32_t length = KeyLength(key);
    const uint16_t hop = hop_of[KeyIndex(key)];
    const uint32_t slot = prefix >> 8;
    if (length <= 24) {
      sweep_to(slot);
      open[depth++] = {slot + (1u << (24 - length)), hop};
      continue;
    }
    if (slot >= done) {
      // The slot's first /25-/32. Every <= /24 route that covers the slot
      // sorts before it, so the segment starts as the slot's final hop.
      sweep_to(slot);
      const size_t seg = tbl_long_.size() / kSegmentSize;
      tbl_long_.insert(tbl_long_.end(), kSegmentSize, depth > 0 ? open[depth - 1].hop : 0);
      tbl24_[slot] = static_cast<uint16_t>(kExtendedBit | seg);
      done = slot + 1;
    }
    // A route inside this segment sorts after every route that covers it.
    uint16_t* segment = &tbl_long_[tbl_long_.size() - kSegmentSize];
    std::fill_n(segment + (prefix & 0xff), size_t{1} << (32 - length), hop);
  }
  sweep_to(static_cast<uint32_t>(kTbl24Entries));
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
  const uint16_t* t24 = tbl24_;
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
  return kTbl24Entries * sizeof(uint16_t) + tbl_long_.size() * sizeof(uint16_t) +
         next_hops_.size() * sizeof(uint32_t);
}

}  // namespace rb
