// Nat: batch-native source NAPT backed by the stateful plane's flow
// table (DESIGN.md §17).
//
// Input 0 carries inside->outside traffic: the first packet of a flow
// allocates a mapping (external_ip, base_port + index) and every packet
// gets its source address/port rewritten with RFC 1624 incremental
// checksum patches (IP header always; TCP checksum always; UDP checksum
// only when nonzero — an all-zero UDP checksum means "not computed").
// Input 1 carries outside->inside replies addressed to the external
// ip/port: the mapping index is the port offset, and the destination is
// rewritten back to the original inside address/port.
//
// Robustness contract: the table never grows past its configured
// capacity — overload evicts least-recently-seen flows at the watermark
// (their mapping ports return to the free list via the table's evict
// callback, so ports can never leak) and the element keeps forwarding.
// Drops land in dedicated buckets: `flow_table_full` (insert refused,
// eviction disabled; the table's own insert_fail count), `no_mapping`
// (reply for a dead/evicted mapping), `malformed` (not IPv4 / truncated).
//
// Outputs: 0 = translated inside->outside, 1 = translated
// outside->inside.
#ifndef RB_CLICK_ELEMENTS_NAT_HPP_
#define RB_CLICK_ELEMENTS_NAT_HPP_

#include <array>
#include <vector>

#include "click/element.hpp"
#include "flow/flow_table.hpp"

namespace rb {

struct NatOptions {
  uint32_t external_ip = 0xc6336401;  // 198.51.100.1 (TEST-NET-2)
  uint16_t base_port = 1024;
  size_t capacity = 4096;  // flow-table slot budget == mapping ports
  int shards = 4;
  int max_probe_buckets = 8;
  double hi_watermark = 0.85;
  double lo_watermark = 0.70;
  uint32_t idle_timeout_ms = 0;  // 0 = mappings never idle out
  bool evict_on_full = true;     // false: full window -> flow_table_full drop
};

class Nat : public Element {
 public:
  explicit Nat(const NatOptions& options = NatOptions{});

  const char* class_name() const override { return "Nat"; }

  void PushBatch(int port, PacketBatch& batch) override;

  // Adds readers of the per-cause drop counts ("elem/<name>/drops/
  // {flow_table_full,no_mapping,malformed}") and the table's flow/eviction
  // gauges.
  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "") override;

  // The stateful handler plane: the table's `.flows`/`.occupancy`/
  // `.evictions`/`.replays`/`.probe_p99` reads and the live-writable
  // `.hi`/`.lo` watermarks, plus `.table_full`/`.no_mapping` drop reads.
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

  // Millisecond tick source for LRU/idle bookkeeping; defaults to the
  // steady clock. Tests and DES-driven graphs inject a deterministic
  // source. Call before traffic flows.
  using ClockFn = double (*)();
  void set_clock(ClockFn clock) { clock_ = clock; }

  FlowTable& table() { return table_; }
  const NatOptions& options() const { return opt_; }
  uint64_t table_full_drops() const { return table_.stats().insert_fail; }
  uint64_t no_mapping_drops() const { return no_mapping_.load(std::memory_order_relaxed); }
  uint64_t malformed_drops() const { return malformed_.load(std::memory_order_relaxed); }
  size_t mappings_in_use() const { return reverse_.size() - free_list_.size(); }

 private:
  struct ReverseEntry {
    uint32_t inside_ip = 0;
    uint16_t inside_port = 0;
    bool in_use = false;
  };

  void PushOutbound(PacketBatch& batch, uint32_t tick);
  void PushInbound(PacketBatch& batch, uint32_t tick);
  uint32_t NowTick() const { return static_cast<uint32_t>(clock_() * 1e3); }
  void Housekeep(uint32_t tick);

  NatOptions opt_;
  FlowTable table_;
  std::vector<ReverseEntry> reverse_;   // mapping index -> inside addr
  std::vector<uint32_t> free_list_;     // available mapping indices
  // PushOutbound's burst: the keys it hands the table, and their packets.
  std::array<FlowKey, PacketBatch::kCapacity> keys_;
  std::array<Packet*, PacketBatch::kCapacity> keyed_{};
  ClockFn clock_;
  uint32_t batches_ = 0;  // housekeeping cadence
  std::atomic<uint64_t> no_mapping_{0};
  std::atomic<uint64_t> malformed_{0};
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_NAT_HPP_
