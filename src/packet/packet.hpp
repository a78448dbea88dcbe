// Packet representation.
//
// A Packet owns a contiguous byte buffer (up to kMaxCapacity) plus the
// metadata ("annotations" in Click terminology) that the RouteBricks data
// path needs: arrival timestamp, input port, RSS flow hash, the VLB phase
// tag, the encoded output node, and a per-flow sequence number used by the
// reordering detector. Packets are pool-allocated (see pool.hpp) and moved
// by raw pointer through rings and elements, exactly as in a real driver;
// ownership is explicit: whoever drops a packet returns it to its pool.
//
// The buffer keeps headroom at the front so that encapsulating elements
// (EtherEncap, ESP) can prepend headers without copying the payload.
//
// Layout (cache-honest, pinned by static_asserts below): the hot
// annotations — length/offset, the flow fields, the VLB phase, the pool
// back-pointer — occupy the *first* cache line of the object, so touching
// a packet's metadata costs one line, not one line 2 KiB past the object
// start. The buffer itself is cache-line aligned, and the object is padded
// so the pool stride is an odd number of cache lines: consecutive packets
// in a pool therefore map their data() bytes to different L1/L2 sets
// instead of aliasing on a power-of-two stride.
#ifndef RB_PACKET_PACKET_HPP_
#define RB_PACKET_PACKET_HPP_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/log.hpp"
#include "common/prefetch.hpp"
#include "common/time.hpp"

namespace rb {

class PacketPool;

// VLB routing phase of a packet inside the cluster.
enum class VlbPhase : uint8_t {
  kNone = 0,    // not yet classified / external traffic
  kPhase1 = 1,  // input node -> intermediate node
  kPhase2 = 2,  // intermediate node -> output node
  kDirect = 3,  // directly routed (Direct VLB shortcut)
};

class Packet {
 public:
  static constexpr uint32_t kMaxCapacity = 2048;
  static constexpr uint32_t kDefaultHeadroom = 128;

  Packet() = default;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  // --- buffer ---
  uint8_t* data() { return buf_ + offset_; }
  const uint8_t* data() const { return buf_ + offset_; }
  uint32_t length() const { return length_; }
  uint32_t headroom() const { return offset_; }
  uint32_t tailroom() const { return kMaxCapacity - offset_ - length_; }

  // Copies `len` bytes into the buffer (after default headroom) and sets
  // the length. len must fit.
  void SetPayload(const uint8_t* src, uint32_t len);

  // Sets the length without writing bytes (payload contents are whatever
  // was in the buffer); used by generators that only care about sizes.
  void SetLength(uint32_t len);

  // The four framing ops below are inline: encapsulation runs them per
  // packet. Each keeps its check; only the failure report is out of line.

  // Grows the packet by `n` bytes at the front (prepending a header).
  // Consumes headroom; RB_CHECKs if none is left. Returns the new front.
  uint8_t* Push(uint32_t n) {
    RB_CHECK_MSG(offset_ >= n, "no headroom left");
    offset_ -= n;
    length_ += n;
    return buf_ + offset_;
  }
  // Removes `n` bytes from the front.
  void Pull(uint32_t n) {
    RB_CHECK(n <= length_);
    offset_ += n;
    length_ -= n;
  }
  // Appends `n` bytes at the tail (uninitialized); returns the first one.
  uint8_t* Put(uint32_t n) {
    RB_CHECK_MSG(tailroom() >= n, "no tailroom left");
    uint8_t* p = buf_ + offset_ + length_;
    length_ += n;
    return p;
  }
  // Truncates `n` bytes from the tail.
  void Trim(uint32_t n) {
    RB_CHECK(n <= length_);
    length_ -= n;
  }

  // --- annotations ---
  SimTime arrival_time() const { return arrival_time_; }
  void set_arrival_time(SimTime t) { arrival_time_ = t; }

  uint32_t flow_hash() const { return flow_hash_; }
  void set_flow_hash(uint32_t h) { flow_hash_ = h; }

  VlbPhase vlb_phase() const { return vlb_phase_; }
  void set_vlb_phase(VlbPhase p) { vlb_phase_ = p; }

  // Output node of the cluster, encoded at the input node (the paper's
  // MAC-address trick, §6.1). kNoNode when unset.
  static constexpr uint16_t kNoNode = 0xffff;
  uint16_t output_node() const { return output_node_; }
  void set_output_node(uint16_t n) { output_node_ = n; }

  uint64_t flow_id() const { return flow_id_; }
  void set_flow_id(uint64_t id) { flow_id_ = id; }
  uint64_t flow_seq() const { return flow_seq_; }
  void set_flow_seq(uint64_t s) { flow_seq_ = s; }

  // Color annotation for Paint/CheckPaint-style elements.
  uint8_t paint() const { return paint_; }
  void set_paint(uint8_t c) { paint_ = c; }

  // Telemetry trace handle (telemetry::PathTracer); 0 = not sampled.
  uint64_t trace_handle() const { return trace_handle_; }
  void set_trace_handle(uint64_t h) { trace_handle_ = h; }

  // Ingress cycle stamp (telemetry::ReadCycles at NicPort delivery);
  // 0 = not stamped. Read out at ToDevice/drop to feed the measured
  // latency plane's log-bucketed histograms.
  uint64_t ingress_cycles() const { return ingress_cycles_; }
  void set_ingress_cycles(uint64_t c) { ingress_cycles_ = c; }

  // Queue-enqueue timestamp (seconds; steady clock in the threaded graph,
  // SimTime in the DES) stamped by AQM-enabled queues so the dequeue side
  // can measure sojourn time (CoDel). 0 = never enqueued.
  double enqueue_time() const { return enqueue_time_; }
  void set_enqueue_time(double t) { enqueue_time_ = t; }

  // Frame bytes as counted on the wire per the paper's convention
  // (no preamble/IFG accounting).
  uint32_t wire_bytes() const { return length_; }

  // Clears annotations and resets headroom; called by the pool on release.
  // Writes both metadata lines.
  void ResetMetadata() {
    length_ = 0;
    offset_ = kDefaultHeadroom;
    arrival_time_ = 0;
    flow_hash_ = 0;
    vlb_phase_ = VlbPhase::kNone;
    output_node_ = kNoNode;
    flow_id_ = 0;
    flow_seq_ = 0;
    paint_ = 0;
    trace_handle_ = 0;
    ingress_cycles_ = 0;
    enqueue_time_ = 0;
  }

  PacketPool* origin_pool() const { return origin_pool_; }

  // Frame start assuming the default headroom. Forms the address from
  // `this` plus compile-time constants — no metadata load — so it is safe
  // to use as a software-prefetch target for a packet that is not in cache
  // yet. Every generator materializes frames at the default headroom;
  // encapsulation changes offset_ only after the headers have been
  // touched (and thus cached) anyway.
  const void* default_data() const { return buf_ + kDefaultHeadroom; }

 private:
  friend class PacketPool;
  friend struct PacketLayoutCheck;

  // --- hot annotation line (first cache line of the object) ---
  // Everything the forwarding path reads or writes per packet outside the
  // payload bytes lives here: buffer geometry, steering/flow fields, the
  // VLB phase, and the pool back-pointer for Free().
  uint32_t length_ = 0;
  uint32_t offset_ = kDefaultHeadroom;
  uint32_t flow_hash_ = 0;
  uint16_t output_node_ = kNoNode;
  VlbPhase vlb_phase_ = VlbPhase::kNone;
  uint8_t paint_ = 0;
  // Maintained by PacketPool to reject double-frees (two owners aliasing
  // one buffer).
  bool in_pool_ = false;
  uint64_t flow_id_ = 0;
  uint64_t flow_seq_ = 0;
  PacketPool* origin_pool_ = nullptr;
  SimTime arrival_time_ = 0;
  double enqueue_time_ = 0;

  // --- cold annotations (second line) ---
  // "Cold" here means cold for the forwarding fast path: the latency
  // plane touches these once at ingress (stamp) and once at egress/drop
  // (readout), never per element.
  uint64_t trace_handle_ = 0;
  uint64_t ingress_cycles_ = 0;

  // Cache-line-aligned so header accesses never straddle lines; the
  // alignment also pads the cold annotation area to a full line.
  alignas(kCacheLineBytes) uint8_t buf_[kMaxCapacity];

  // Stride pad: with the two metadata lines plus the 2 KiB buffer the
  // object would span an even number of cache lines (and the buffer alone
  // a power of two), so packets carved back-to-back from a pool would put
  // their headers in the same handful of cache sets. One extra line makes
  // the stride an odd line count — gcd(stride_lines, num_sets) == 1 — so
  // consecutive packets walk every set.
  [[maybe_unused]] uint8_t stride_pad_[kCacheLineBytes];
};

// Pins the cache-honest layout at compile time; a field added or moved
// carelessly fails the build, not a perf bisect three PRs later.
struct PacketLayoutCheck {
  static_assert(offsetof(Packet, length_) < kCacheLineBytes);
  static_assert(offsetof(Packet, offset_) < kCacheLineBytes);
  static_assert(offsetof(Packet, flow_hash_) < kCacheLineBytes);
  static_assert(offsetof(Packet, output_node_) < kCacheLineBytes);
  static_assert(offsetof(Packet, vlb_phase_) < kCacheLineBytes);
  static_assert(offsetof(Packet, paint_) < kCacheLineBytes);
  static_assert(offsetof(Packet, flow_id_) + sizeof(uint64_t) <= kCacheLineBytes);
  static_assert(offsetof(Packet, flow_seq_) + sizeof(uint64_t) <= kCacheLineBytes);
  static_assert(offsetof(Packet, origin_pool_) + sizeof(void*) <= kCacheLineBytes);
  // The latency-plane annotations stay off the hot line (stamped once at
  // ingress, read once at egress) but within the second line.
  static_assert(offsetof(Packet, trace_handle_) >= kCacheLineBytes);
  static_assert(offsetof(Packet, ingress_cycles_) + sizeof(uint64_t) <=
                2 * kCacheLineBytes);
  // The buffer starts on a cache line of its own.
  static_assert(offsetof(Packet, buf_) % kCacheLineBytes == 0);
  // Pool stride: whole cache lines, an odd number of them.
  static_assert(sizeof(Packet) % kCacheLineBytes == 0);
  static_assert((sizeof(Packet) / kCacheLineBytes) % 2 == 1,
                "pool stride must be an odd cache-line count to avoid set aliasing");
};

// Prefetches the two lines the batch elements touch per packet: the hot
// annotation line and the (default-headroom) header bytes.
inline void PrefetchPacketHeaders(const Packet* p) {
  PrefetchForRead(p);
  PrefetchForRead(p->default_data());
}

// Write-prefetches both metadata lines: the hot annotation line and the
// cold line that holds the latency stamps (pinned by PacketLayoutCheck).
// NIC delivery stamps both, and the pool's free resets both.
inline void PrefetchMetadataForWrite(Packet* p) {
  PrefetchForWrite(p);
  PrefetchForWrite(reinterpret_cast<uint8_t*>(p) + kCacheLineBytes);
}

}  // namespace rb

#endif  // RB_PACKET_PACKET_HPP_
