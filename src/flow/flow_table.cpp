#include "flow/flow_table.hpp"

#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/log.hpp"
#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"

namespace rb {
namespace {

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// last_seen comparison tolerant of 32-bit tick wraparound.
bool TickBefore(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }

// Hash bits 32-47: the shard takes bits 48 and up, the bucket low bits.
// 0 marks an empty slot, so a key whose bits read 0 is tagged 1.
uint16_t TagOf(uint64_t hash) {
  const uint16_t tag = static_cast<uint16_t>(hash >> 32);
  return tag == 0 ? 1 : tag;
}

// A count with one writer at a time: a relaxed load and store.
void Bump(std::atomic<uint64_t>& counter, int64_t delta = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + static_cast<uint64_t>(delta),
                std::memory_order_relaxed);
}

struct TagScan {
  uint32_t match;  // lanes holding `tag`
  uint32_t empty;  // lanes holding 0
};

// Compares the 16 tags at `tags` with `tag` and with 0, one bit per lane.
TagScan ScanTags(const uint16_t* tags, uint16_t tag) {
#if defined(__SSE2__)
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + 8));
  const __m128i want = _mm_set1_epi16(static_cast<short>(tag));
  const __m128i zero = _mm_setzero_si128();
  const auto lanes = [](__m128i a, __m128i b) {
    return static_cast<uint32_t>(_mm_movemask_epi8(_mm_packs_epi16(a, b)));
  };
  return {lanes(_mm_cmpeq_epi16(lo, want), _mm_cmpeq_epi16(hi, want)),
          lanes(_mm_cmpeq_epi16(lo, zero), _mm_cmpeq_epi16(hi, zero))};
#else
  TagScan scan{0, 0};
  for (uint32_t i = 0; i < 16; ++i) {
    scan.match |= static_cast<uint32_t>(tags[i] == tag) << i;
    scan.empty |= static_cast<uint32_t>(tags[i] == 0) << i;
  }
  return scan;
#endif
}

// The least-recently-seen lane of `live` (nonzero): a walk in lane order
// that moves its pick only to a strictly older tick, so ties keep the
// lower lane — the choice a walk over the entries makes.
uint32_t LruLane(const uint32_t* ticks, uint32_t live) {
  uint32_t lru = static_cast<uint32_t>(std::countr_zero(live));
  uint32_t oldest = ticks[lru];
  for (uint32_t rest = live & (live - 1); rest != 0; rest &= rest - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(rest));
    if (TickBefore(ticks[lane], oldest)) {
      lru = lane;
      oldest = ticks[lane];
    }
  }
  return lru;
}

// Stores `value` at `slot` and at each of its mirrors past the end.
template <typename T>
void StoreLane(std::vector<T>& lanes, size_t slot, size_t slots, T value) {
  for (size_t i = slot; i < lanes.size(); i += slots) {
    lanes[i] = value;
  }
}

}  // namespace

FlowTable::FlowTable(const FlowTableConfig& config) : config_(config) {
  RB_CHECK(config_.capacity > 0);
  RB_CHECK(config_.shards >= 1);
  RB_CHECK_MSG(config_.max_probe_buckets >= 1 && config_.max_probe_buckets <= kMaxWindowBuckets,
               "max_probe_buckets must be 1-8");
  const size_t n_shards = NextPow2(static_cast<size_t>(config_.shards));
  shard_mask_ = n_shards - 1;
  const size_t buckets_per_shard =
      std::max(NextPow2((config_.capacity + 2 * n_shards - 1) / (2 * n_shards)),
               static_cast<size_t>(config_.max_probe_buckets));
  bucket_mask_ = buckets_per_shard - 1;
  slots_per_shard_ = buckets_per_shard * 2;
  slot_mask_ = slots_per_shard_ - 1;
  window_mask_ = (1u << (2 * config_.max_probe_buckets)) - 1;
  shards_.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->buckets.resize(buckets_per_shard);
    s->tags.resize(slots_per_shard_ + kWindowSlots);
    s->ticks.resize(slots_per_shard_ + kWindowSlots);
    shards_.push_back(std::move(s));
  }
  idle_timeout_.store(config_.idle_timeout, std::memory_order_relaxed);
  RB_CHECK_MSG(SetWatermarks(config_.hi_watermark, config_.lo_watermark),
               "invalid flow-table watermarks");
}

bool FlowTable::SetWatermarks(double hi, double lo) {
  if (!(hi > 0.0) || hi > 1.0 || !(lo > 0.0) || lo >= hi) {
    return false;
  }
  hi_watermark_.store(hi, std::memory_order_relaxed);
  lo_watermark_.store(lo, std::memory_order_relaxed);
  // hi == 1.0 disables watermark eviction entirely: occupancy can never
  // exceed capacity anyway, so "evict at 100%" would just override the
  // evict_on_full policy that is supposed to govern a full table.
  hi_slots_per_shard_.store(
      hi >= 1.0 ? UINT64_MAX
                : static_cast<uint64_t>(hi * static_cast<double>(slots_per_shard_)),
      std::memory_order_relaxed);
  return true;
}

bool FlowTable::IdleExpired(uint32_t tick, uint32_t now) const {
  const uint32_t timeout = idle_timeout_.load(std::memory_order_relaxed);
  return timeout != 0 && (now - tick) > timeout;
}

void FlowTable::ClearSlot(Shard& s, size_t slot) {
  Entry(s, slot) = FlowEntry{};
  StoreLane<uint16_t>(s.tags, slot & slot_mask_, slots_per_shard_, 0);
  Bump(s.occupancy, -1);
}

void FlowTable::EvictSlot(Shard& s, size_t slot, std::atomic<uint64_t> Shard::* counter) {
  if (on_evict_) {
    on_evict_(Entry(s, slot));
  }
  ClearSlot(s, slot);
  Bump(s.*counter);
}

FlowEntry* FlowTable::Hit(Shard& s, size_t start, int lane, uint32_t now) {
  const size_t slot = (start + static_cast<size_t>(lane)) & slot_mask_;
  FlowEntry& e = Entry(s, slot);
  e.last_seen = now;
  StoreLane(s.ticks, slot, slots_per_shard_, now);
  Bump(s.hits);
  Bump(s.probe_hist[static_cast<size_t>(lane) / 2]);
  return &e;
}

int FlowTable::MatchLane(Shard& s, const FlowKey& key, size_t start, uint32_t match) {
  for (uint32_t m = match & window_mask_; m != 0; m &= m - 1) {
    const int lane = std::countr_zero(m);
    if (Entry(s, start + static_cast<size_t>(lane)).Matches(key)) {
      return lane;
    }
  }
  return -1;
}

int FlowTable::Probe(Shard& s, const FlowKey& key, uint64_t hash, size_t start, uint32_t now,
                     uint32_t* live) {
  const TagScan scan = ScanTags(&s.tags[start], TagOf(hash));
  const int lane = MatchLane(s, key, start, scan.match);
  uint32_t occupied = ~scan.empty & window_mask_;
  const uint32_t timeout = idle_timeout_.load(std::memory_order_relaxed);
  if (timeout != 0) {
    const uint32_t passed = lane < 0 ? occupied : occupied & ((1u << lane) - 1);
    for (uint32_t m = passed; m != 0; m &= m - 1) {
      const uint32_t l = static_cast<uint32_t>(std::countr_zero(m));
      if (now - s.ticks[start + l] > timeout) {
        EvictSlot(s, start + l, &Shard::evict_idle);
        occupied &= ~(1u << l);
      }
    }
  }
  *live = occupied;
  return lane;
}

FlowEntry* FlowTable::FindOrInsertIn(Shard& s, const FlowKey& key, uint64_t hash,
                                     uint32_t now, bool* inserted) {
  const size_t start = BucketIndex(hash) * 2;
  uint32_t live = 0;
  const int lane = Probe(s, key, hash, start, now, &live);
  if (lane >= 0) {
    if (inserted != nullptr) {
      *inserted = false;
    }
    return Hit(s, start, lane, now);
  }

  // Miss: pick the insertion lane. Above the high watermark a live LRU
  // entry is replaced even when a free slot exists, so occupancy
  // plateaus at the watermark instead of marching to table-full.
  const uint32_t free_lanes = ~live & window_mask_;
  const bool over = s.occupancy.load(std::memory_order_relaxed) >=
                    hi_slots_per_shard_.load(std::memory_order_relaxed);
  uint32_t target = 0;
  if (over && live != 0) {
    target = LruLane(&s.ticks[start], live);
    EvictSlot(s, start + target, &Shard::evict_watermark);
  } else if (free_lanes != 0) {
    target = static_cast<uint32_t>(std::countr_zero(free_lanes));
  } else if (config_.evict_on_full) {
    target = LruLane(&s.ticks[start], live);
    EvictSlot(s, start + target, &Shard::evict_full);
  } else {
    Bump(s.insert_fail);
    if (inserted != nullptr) {
      *inserted = false;
    }
    return nullptr;
  }

  const size_t slot = (start + target) & slot_mask_;
  FlowEntry& e = Entry(s, slot);
  e = FlowEntry{key.src_ip, key.dst_ip, key.src_port, key.dst_port, key.protocol,
                FlowEntry::kOccupied, /*pad=*/0, /*last_seen=*/now};
  StoreLane(s.tags, slot, slots_per_shard_, TagOf(hash));
  StoreLane(s.ticks, slot, slots_per_shard_, now);
  Bump(s.occupancy);
  Bump(s.inserts);
  Bump(s.probe_hist[target / 2]);
  if (inserted != nullptr) {
    *inserted = true;
  }
  return &e;
}

FlowEntry* FlowTable::FindOrInsert(const FlowKey& key, uint32_t now, bool* inserted) {
  const uint64_t hash = FlowHash64(key);
  return FindOrInsertIn(ShardFor(hash), key, hash, now, inserted);
}

void FlowTable::PrefetchChunk(const FlowKey* keys, uint32_t n, uint64_t* hashes) {
  for (uint32_t i = 0; i < n; ++i) {
    hashes[i] = FlowHash64(keys[i]);
    const Shard& s = ShardFor(hashes[i]);
    const size_t start = BucketIndex(hashes[i]) * 2;
    __builtin_prefetch(&s.tags[start]);
    __builtin_prefetch(&s.tags[start + kWindowSlots - 1]);
    __builtin_prefetch(&s.ticks[start]);
    __builtin_prefetch(&s.ticks[start + kWindowSlots - 1]);
  }
  // The entry line each key will most likely touch: its first tag match,
  // else the slot an insert would take. Earlier keys of the chunk may
  // change the window first; a wrong guess costs only the prefetch.
  for (uint32_t i = 0; i < n; ++i) {
    Shard& s = ShardFor(hashes[i]);
    const size_t start = BucketIndex(hashes[i]) * 2;
    const TagScan scan = ScanTags(&s.tags[start], TagOf(hashes[i]));
    const uint32_t match = scan.match & window_mask_;
    const uint32_t live = ~scan.empty & window_mask_;
    const uint32_t free_lanes = scan.empty & window_mask_;
    uint32_t lane = 0;
    if (match != 0) {
      lane = static_cast<uint32_t>(std::countr_zero(match));
    } else if (live != 0 && (free_lanes == 0 || s.occupancy.load(std::memory_order_relaxed) >=
                                                    hi_slots_per_shard_.load(
                                                        std::memory_order_relaxed))) {
      lane = LruLane(&s.ticks[start], live);
    } else {
      lane = static_cast<uint32_t>(std::countr_zero(free_lanes));
    }
    __builtin_prefetch(&Entry(s, start + lane), 1);
  }
}

FlowEntry* FlowTable::Find(const FlowKey& key, uint32_t now) {
  const uint64_t hash = FlowHash64(key);
  Shard& s = ShardFor(hash);
  const size_t start = BucketIndex(hash) * 2;
  uint32_t live = 0;
  const int lane = Probe(s, key, hash, start, now, &live);
  if (lane < 0) {
    return nullptr;
  }
  const size_t slot = start + static_cast<size_t>(lane);
  if (IdleExpired(s.ticks[slot], now)) {
    EvictSlot(s, slot, &Shard::evict_idle);
    return nullptr;
  }
  return Hit(s, start, lane, now);
}

bool FlowTable::Erase(const FlowKey& key) {
  const uint64_t hash = FlowHash64(key);
  Shard& s = ShardFor(hash);
  const size_t start = BucketIndex(hash) * 2;
  const int lane = MatchLane(s, key, start, ScanTags(&s.tags[start], TagOf(hash)).match);
  if (lane < 0) {
    return false;
  }
  ClearSlot(s, start + static_cast<size_t>(lane));
  Bump(s.erases);
  return true;
}

void FlowTable::FindOrInsertLocked(
    const FlowKey& key, uint32_t now,
    const std::function<void(FlowEntry*, bool inserted)>& fn) {
  const uint64_t hash = FlowHash64(key);
  Shard& s = ShardFor(hash);
  while (s.lock.test_and_set(std::memory_order_acquire)) {
  }
  bool inserted = false;
  FlowEntry* e = FindOrInsertIn(s, key, hash, now, &inserted);
  fn(e, inserted);
  s.lock.clear(std::memory_order_release);
}

size_t FlowTable::SweepIdle(uint32_t now, size_t max_slots) {
  if (idle_timeout_.load(std::memory_order_relaxed) == 0 || max_slots == 0) {
    return 0;
  }
  size_t reclaimed = 0;
  size_t budget = std::max<size_t>(1, max_slots / shards_.size());
  for (auto& sp : shards_) {
    Shard& s = *sp;
    for (size_t i = 0; i < budget; ++i) {
      const size_t slot = s.sweep_cursor;
      s.sweep_cursor = (s.sweep_cursor + 1) % slots_per_shard_;
      if (s.tags[slot] != 0 && IdleExpired(s.ticks[slot], now)) {
        EvictSlot(s, slot, &Shard::evict_idle);
        ++reclaimed;
      }
    }
  }
  return reclaimed;
}

void FlowTable::Clear() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    ClearShard(static_cast<int>(i));
  }
}

void FlowTable::ClearShard(int shard) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  for (size_t slot = 0; slot < slots_per_shard_; ++slot) {
    if (s.tags[slot] != 0) {
      if (on_evict_) {
        on_evict_(Entry(s, slot));
      }
      ClearSlot(s, slot);
    }
  }
  s.sweep_cursor = 0;
}

size_t FlowTable::ShardOccupancy(int shard) const {
  return shards_[static_cast<size_t>(shard)]->occupancy.load(std::memory_order_relaxed);
}

void FlowTable::ForEachInShard(int shard,
                               const std::function<void(const FlowEntry&)>& fn) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  for (const Bucket& bucket : s.buckets) {
    for (const FlowEntry& e : bucket.slot) {
      if (e.occupied()) {
        fn(e);
      }
    }
  }
}

FlowEntry* FlowTable::Restore(int shard, const FlowEntry& entry) {
  const FlowKey key = entry.key();
  const uint64_t hash = FlowHash64(key);
  RB_CHECK_MSG(ShardIndex(hash) == static_cast<size_t>(shard),
               "Restore: entry does not hash to the named shard");
  Shard& s = *shards_[static_cast<size_t>(shard)];
  bool inserted = false;
  FlowEntry* slot = FindOrInsertIn(s, key, hash, entry.last_seen, &inserted);
  if (slot == nullptr) {
    return nullptr;
  }
  // FindOrInsertIn stamped last_seen (and the slot's tick) with
  // entry.last_seen already.
  slot->flags = entry.flags;
  slot->state0 = entry.state0;
  slot->state1 = entry.state1;
  Bump(s.replays);
  return slot;
}

size_t FlowTable::occupancy() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->occupancy.load(std::memory_order_relaxed);
  }
  return static_cast<size_t>(total);
}

FlowTableStats FlowTable::stats() const {
  FlowTableStats out;
  for (const auto& s : shards_) {
    out.hits += s->hits.load(std::memory_order_relaxed);
    out.inserts += s->inserts.load(std::memory_order_relaxed);
    out.evict_idle += s->evict_idle.load(std::memory_order_relaxed);
    out.evict_watermark += s->evict_watermark.load(std::memory_order_relaxed);
    out.evict_full += s->evict_full.load(std::memory_order_relaxed);
    out.insert_fail += s->insert_fail.load(std::memory_order_relaxed);
    out.erases += s->erases.load(std::memory_order_relaxed);
    out.replays += s->replays.load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<uint64_t> FlowTable::ProbeLengthHistogram() const {
  std::vector<uint64_t> hist(static_cast<size_t>(config_.max_probe_buckets), 0);
  for (const auto& s : shards_) {
    for (size_t b = 0; b < hist.size(); ++b) {
      hist[b] += s->probe_hist[b].load(std::memory_order_relaxed);
    }
  }
  return hist;
}

int FlowTable::ProbeLengthPercentile(double p) const {
  const std::vector<uint64_t> hist = ProbeLengthHistogram();
  uint64_t total = 0;
  for (uint64_t n : hist) {
    total += n;
  }
  if (total == 0) {
    return 0;
  }
  const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
  uint64_t seen = 0;
  for (size_t b = 0; b < hist.size(); ++b) {
    seen += hist[b];
    if (seen > rank) {
      return static_cast<int>(b) + 1;
    }
  }
  return static_cast<int>(hist.size());
}

void FlowTable::AddHandlers(telemetry::HandlerRegistry* handlers,
                            const std::string& owner) {
  handlers->AddRead(owner + ".flows", [this] { return std::to_string(occupancy()); });
  handlers->AddRead(owner + ".occupancy",
                    [this] { return std::to_string(occupancy()); });
  handlers->AddRead(owner + ".capacity",
                    [this] { return std::to_string(capacity_slots()); });
  handlers->AddRead(owner + ".evictions",
                    [this] { return std::to_string(stats().evictions()); });
  handlers->AddRead(owner + ".replays",
                    [this] { return std::to_string(stats().replays); });
  handlers->AddRead(owner + ".insert_fail",
                    [this] { return std::to_string(stats().insert_fail); });
  handlers->AddRead(owner + ".probe_p99",
                    [this] { return std::to_string(ProbeLengthPercentile(0.99)); });
  handlers->AddRead(owner + ".hi", [this] { return std::to_string(hi_watermark()); });
  handlers->AddWrite(owner + ".hi",
                     [this](const std::string& value) -> telemetry::HandlerResult {
                       double hi = 0;
                       if (!telemetry::ParseHandlerDouble(value, &hi)) {
                         return telemetry::HandlerResult::Error("not a number");
                       }
                       if (!SetWatermarks(hi, lo_watermark())) {
                         return telemetry::HandlerResult::Error(
                             "watermarks must satisfy 0 < lo < hi <= 1");
                       }
                       return telemetry::HandlerResult::Ok();
                     });
  handlers->AddRead(owner + ".lo", [this] { return std::to_string(lo_watermark()); });
  handlers->AddWrite(owner + ".lo",
                     [this](const std::string& value) -> telemetry::HandlerResult {
                       double lo = 0;
                       if (!telemetry::ParseHandlerDouble(value, &lo)) {
                         return telemetry::HandlerResult::Error("not a number");
                       }
                       if (!SetWatermarks(hi_watermark(), lo)) {
                         return telemetry::HandlerResult::Error(
                             "watermarks must satisfy 0 < lo < hi <= 1");
                       }
                       return telemetry::HandlerResult::Ok();
                     });
  handlers->AddRead(owner + ".idle_ticks",
                    [this] { return std::to_string(idle_timeout()); });
  handlers->AddWrite(owner + ".idle_ticks",
                     [this](const std::string& value) -> telemetry::HandlerResult {
                       uint64_t ticks = 0;
                       if (!telemetry::ParseHandlerU64(value, &ticks) ||
                           ticks > UINT32_MAX) {
                         return telemetry::HandlerResult::Error(
                             "idle_ticks must be a u32");
                       }
                       set_idle_timeout(static_cast<uint32_t>(ticks));
                       return telemetry::HandlerResult::Ok();
                     });
}

void FlowTable::BindTelemetry(telemetry::MetricRegistry* registry,
                              const std::string& prefix, const std::string& name) {
  if (registry == nullptr) {
    return;
  }
  // The shards' single-writer counters feed the handler plane and these
  // readers alike; the hot path pays for no second copy.
  const std::string base = prefix + "flow/" + name;
  registry->AddGaugeReader(base + "/flows", [this] { return static_cast<double>(occupancy()); });
  registry->AddGaugeReader(base + "/evictions",
                           [this] { return static_cast<double>(stats().evictions()); });
  registry->AddGaugeReader(base + "/replays",
                           [this] { return static_cast<double>(stats().replays); });
  registry->AddGaugeReader(base + "/insert_fail",
                           [this] { return static_cast<double>(stats().insert_fail); });
}

}  // namespace rb
