// Fixed-capacity packet pool (freelist allocator).
//
// Real packet-processing systems never malloc per packet; they recycle
// buffers from a pre-allocated pool ("socket-buffer descriptors" in the
// paper). PacketPool mirrors that: AllocBulk() carves a burst from the
// freelist tail and FreeBulk() pushes a burst back, each in one pass;
// Alloc() and Free() are their one-packet cases. The pool is not
// thread-safe by itself; each worker thread owns its own pool in
// multi-threaded runs (per-core pools), matching the lock-free driver
// design of §4.2. Packet::origin_pool() lets any element return a packet
// to the pool it came from via PacketPool::Release().
#ifndef RB_PACKET_POOL_HPP_
#define RB_PACKET_POOL_HPP_

#include <cstddef>
#include <memory>

#include "packet/packet.hpp"

namespace rb {

class PacketPool {
 public:
  // Pre-allocates `capacity` packets.
  explicit PacketPool(size_t capacity);
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns nullptr when the pool is exhausted (the caller should count a
  // drop, as a NIC would when it has no free descriptors).
  Packet* Alloc() {
    Packet* p = nullptr;
    AllocBulk(&p, 1);
    return p;
  }

  // Bulk freelist carve: pops up to `n` packets into `out` in one pass and
  // returns how many were carved. A partial carve (return < n) means the
  // pool ran dry mid-burst; the shortfall is counted into
  // alloc_failures(), one per missing packet, so bulk and per-packet
  // accounting agree. The caller owns the carved packets.
  size_t AllocBulk(Packet** out, size_t n);

  // Returns a packet to this pool. The packet must have come from here.
  void Free(Packet* p) { FreeBulk(&p, 1); }

  // Bulk return of `n` packets, in order. Each packet is checked (not
  // null, from this pool, not already in it: a packet listed twice in one
  // burst is a double free) and its metadata reset; the freelist grows
  // by exactly n.
  void FreeBulk(Packet* const* pkts, size_t n);

  // Returns `p` to whichever pool allocated it.
  static void Release(Packet* p);

  // Index of `p` in this pool's backing array (0 .. capacity-1). The
  // packet must belong to this pool. Lets callers keep side-car state per
  // buffer (e.g. the injector's zero-extent watermark) without widening
  // Packet itself.
  size_t SlotIndex(const Packet* p) const;

  size_t capacity() const { return capacity_; }
  size_t available() const { return free_count_; }
  size_t in_use() const { return capacity_ - free_count_; }
  uint64_t alloc_failures() const { return alloc_failures_; }

 private:
  size_t capacity_;
  std::unique_ptr<Packet[]> storage_;
  // The freelist: free_[0, free_count_) are in the pool, the top last.
  // It has room for every packet, so a checked free never overflows it.
  std::unique_ptr<Packet*[]> free_;
  size_t free_count_ = 0;
  uint64_t alloc_failures_ = 0;
};

}  // namespace rb

#endif  // RB_PACKET_POOL_HPP_
