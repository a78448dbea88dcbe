#include "packet/pool.hpp"

#include "common/log.hpp"
#include "common/prefetch.hpp"

namespace rb {

namespace {

// How many packets ahead a bulk pass prefetches the metadata lines it
// writes: far enough to cover an L2/L3 miss with the work on the packets
// in between.
constexpr size_t kPrefetchAhead = 8;

}  // namespace

PacketPool::PacketPool(size_t capacity)
    : capacity_(capacity),
      storage_(std::make_unique<Packet[]>(capacity)),
      free_(std::make_unique<Packet*[]>(capacity)),
      free_count_(capacity) {
  for (size_t i = 0; i < capacity; ++i) {
    storage_[i].origin_pool_ = this;
    storage_[i].in_pool_ = true;
    free_[i] = &storage_[i];
  }
}

PacketPool::~PacketPool() {
  if (free_count_ != capacity_) {
    RB_LOG_WARN("PacketPool destroyed with %zu packets still in use", in_use());
  }
}

size_t PacketPool::AllocBulk(Packet** out, size_t n) {
  const size_t got = n < free_count_ ? n : free_count_;
  // Carve from the freelist tail in one splice instead of n pops.
  const size_t base = free_count_ - got;
  for (size_t i = 0; i < got; ++i) {
    if (i + kPrefetchAhead < got) {
      // Clearing in_pool_ is the first touch of a long-evicted metadata
      // line; ask for ownership a few packets ahead of the store.
      PrefetchForWrite(free_[base + i + kPrefetchAhead]);
    }
    Packet* p = free_[base + i];
    p->in_pool_ = false;
    out[i] = p;
  }
  free_count_ = base;
  alloc_failures_ += n - got;
  return got;
}

void PacketPool::FreeBulk(Packet* const* pkts, size_t n) {
  Packet** top = free_.get() + free_count_;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      // The reset below writes both metadata lines, which by drain time
      // have long been evicted: ask for ownership of both ahead of it.
      PrefetchMetadataForWrite(pkts[i + kPrefetchAhead]);
    }
    Packet* p = pkts[i];
    RB_CHECK_MSG(p != nullptr, "freeing null packet");
    RB_CHECK_MSG(p->origin_pool_ == this, "packet returned to the wrong pool");
    // Freeing a packet twice would put it on the freelist twice, letting
    // two later allocations hand out the same buffer. The flag is set per
    // packet, so a packet listed twice in one burst trips this too; and
    // every packet that passes is distinct and was out of the pool, so
    // `top` never runs past the freelist's room.
    RB_CHECK_MSG(!p->in_pool_, "double free: packet is already in the pool");
    p->ResetMetadata();
    p->in_pool_ = true;
    top[i] = p;
  }
  free_count_ += n;
}

size_t PacketPool::SlotIndex(const Packet* p) const {
  RB_CHECK_MSG(p != nullptr && p->origin_pool() == this,
               "slot index asked for a foreign packet");
  return static_cast<size_t>(p - storage_.get());
}

void PacketPool::Release(Packet* p) {
  RB_CHECK(p != nullptr && p->origin_pool() != nullptr);
  p->origin_pool()->Free(p);
}

}  // namespace rb
