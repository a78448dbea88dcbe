// IPLookup: longest-prefix-match on the destination address, with an
// explicit, validated next-hop -> output-port map. The default map sends
// next_hop h (1-based, as TableGen emits) to output h - 1; a next hop the
// map does not cover is a *misconfigured table*, counted in the `bad_hop`
// bucket and dropped — never silently wrapped onto a valid port.
//
// The paper's IP-routing application uses the D-lookup structure (Dir24_8)
// over a 256 K-entry table; the element accepts any LpmTable so tests can
// swap in the reference trie. Batch-native and batch-oriented end to end:
// PushBatch gathers the burst's destination addresses, resolves them in
// one LpmTable::LookupBatch call (which pipelines TBL24 prefetches), then
// partitions onto the per-output lanes. One lpm_lookup profiler scope
// covers the whole burst of table walks.
#ifndef RB_CLICK_ELEMENTS_IP_LOOKUP_HPP_
#define RB_CLICK_ELEMENTS_IP_LOOKUP_HPP_

#include <vector>

#include "click/element.hpp"
#include "lookup/lpm.hpp"

namespace rb {

class IpLookup : public Element {
 public:
  // Identity map: next_hop h in [1, n_next_hops] exits output h - 1.
  // `table` is borrowed and must outlive the element.
  IpLookup(const LpmTable* table, int n_next_hops);

  // Explicit map: port_for_hop[h] is the output port for next-hop value h,
  // or -1 for "not a valid hop" (counted as bad_hop). Entry 0 (kNoRoute)
  // must be -1. Every port must be in [0, n_outputs); RB_CHECKed at build.
  IpLookup(const LpmTable* table, int n_outputs, std::vector<int32_t> port_for_hop);

  const char* class_name() const override { return "IPLookup"; }
  void PushBatch(int port, PacketBatch& batch) override;
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

  uint64_t no_route() const { return no_route_.load(std::memory_order_relaxed); }
  // Lookups that returned a next hop the port map does not cover — a
  // misconfigured table (satellite of DESIGN.md §16; previously these
  // wrapped silently onto (hop - 1) % n_outputs).
  uint64_t bad_hop() const { return bad_hop_.load(std::memory_order_relaxed); }

 private:
  const LpmTable* table_;
  std::vector<int32_t> port_for_hop_;  // hop value -> output port, -1 = invalid
  // Relaxed atomics: bumped by the owning core, read by control handlers.
  std::atomic<uint64_t> no_route_{0};
  std::atomic<uint64_t> bad_hop_{0};
  // Per-output fan-out lanes. Member scratch is safe: an element runs on
  // exactly one core and the graph is acyclic (no re-entrant PushBatch).
  std::vector<PacketBatch> lanes_;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_IP_LOOKUP_HPP_
