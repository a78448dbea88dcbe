// DIR-24-8-BASIC — the "D-lookup" algorithm of Gupta, Lin and McKeown
// ("Routing Lookups in Hardware at Memory Access Speeds", INFOCOM 1998),
// which is what the Click distribution's IP-routing element uses and what
// the paper's IP-routing application runs (§5.1).
//
// Layout (faithful to the original):
//  * tbl24: 2^24 16-bit entries indexed by the top 24 address bits. The
//    top bit selects the interpretation: 0 -> the remaining 15 bits are a
//    next-hop index; 1 -> they are a segment number in tbl_long.
//  * tbl_long: 256-entry segments of 16-bit next-hop indices, one segment
//    per tbl24 entry covered by any prefix longer than /24.
//
// Lookups therefore cost one memory access for prefixes up to /24 (the
// vast majority in real tables) and two for longer ones.
//
// The table is built once, from the whole route list: routes sorted by
// (length, prefix) fill tbl24 shortest prefix first, so a longer prefix
// simply overwrites the slots it covers, and the /25-/32 routes go last,
// each tbl_long segment seeded from its slot's final <= /24 hop. Nothing
// but the lookup arrays outlives the build. RadixTrie stays the mutable
// reference; the property tests check the two agree.
#ifndef RB_LOOKUP_DIR24_8_HPP_
#define RB_LOOKUP_DIR24_8_HPP_

#include <vector>

#include "lookup/lpm.hpp"

namespace rb {

class Dir24_8 : public LpmTable {
 public:
  Dir24_8();

  // Builds the table from `routes`, in any order. A prefix/length listed
  // more than once resolves to its last entry and counts once in size(),
  // as RadixTrie::InsertAll would leave it. The table is built once: a
  // second InsertAll on a loaded table fails an RB_CHECK.
  void InsertAll(std::vector<RouteEntry> routes);

  uint32_t Lookup(uint32_t addr) const override;
  // Batch lookup with TBL24 prefetch pipelining: random destinations make
  // every tbl24 access a likely cache miss into a 32 MB array, so the line
  // for address i+kPrefetchAhead is requested while address i resolves,
  // overlapping up to kPrefetchAhead misses instead of serializing them.
  void LookupBatch(const uint32_t* addrs, uint32_t* hops, size_t n) const override;
  size_t size() const override { return size_; }

  // Introspection for tests and the memory-footprint report.
  size_t num_long_segments() const { return tbl_long_.size() / kSegmentSize; }
  size_t memory_bytes() const;

 private:
  static constexpr uint16_t kExtendedBit = 0x8000;
  static constexpr size_t kSegmentSize = 256;
  static constexpr uint16_t kMaxNextHops = 0x7fff;
  // Lookup distance covered by software prefetch in LookupBatch: deep
  // enough to overlap a DRAM miss, shallow enough to stay within a burst.
  static constexpr size_t kPrefetchAhead = 8;

  uint32_t ResolveNextHop(uint16_t index) const;

  std::vector<uint16_t> tbl24_;      // 2^24 entries
  std::vector<uint16_t> tbl_long_;   // segments of 256
  std::vector<uint32_t> next_hops_;  // index -> value; [0] == kNoRoute
  size_t size_ = 0;
};

}  // namespace rb

#endif  // RB_LOOKUP_DIR24_8_HPP_
