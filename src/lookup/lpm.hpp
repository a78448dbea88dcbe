// Longest-prefix-match lookup interface shared by the lookup structures.
// It is lookup-only: each structure is loaded through its own InsertAll
// (Dir24_8 builds once from the whole route list; RadixTrie, the mutable
// reference, also takes Insert and Remove).
#ifndef RB_LOOKUP_LPM_HPP_
#define RB_LOOKUP_LPM_HPP_

#include <cstddef>
#include <cstdint>

namespace rb {

// A route: prefix/len -> next hop. next_hop 0 is reserved for "no route".
struct RouteEntry {
  uint32_t prefix = 0;   // host order, low bits beyond `length` ignored
  uint8_t length = 0;    // 0..32
  uint32_t next_hop = 0;

  bool operator==(const RouteEntry&) const = default;
};

class LpmTable {
 public:
  virtual ~LpmTable() = default;

  // Returns the next hop for `addr`, or kNoRoute when nothing matches.
  virtual uint32_t Lookup(uint32_t addr) const = 0;

  // Resolves a whole burst: hops[i] = Lookup(addrs[i]). The batch form is
  // the data-plane entry point (IpLookup gathers a burst of destinations
  // and resolves them in one virtual call); implementations with random-
  // access tables override it to pipeline software prefetches across the
  // burst (Dir24_8 prefetches the TBL24 lines for packets i+1..i+k while
  // resolving packet i). Default: a plain per-address loop.
  virtual void LookupBatch(const uint32_t* addrs, uint32_t* hops, size_t n) const {
    for (size_t i = 0; i < n; ++i) {
      hops[i] = Lookup(addrs[i]);
    }
  }

  virtual size_t size() const = 0;

  static constexpr uint32_t kNoRoute = 0;
};

// Normalizes a prefix: zeroes bits beyond `length`.
inline uint32_t NormalizePrefix(uint32_t prefix, uint8_t length) {
  if (length == 0) {
    return 0;
  }
  uint32_t mask = length >= 32 ? 0xffffffffu : ~((1u << (32 - length)) - 1);
  return prefix & mask;
}

}  // namespace rb

#endif  // RB_LOOKUP_LPM_HPP_
