// The flow table's scalar scan, kept as the differential reference for
// FlowTable (tests/flow/flow_table_differential_test.cpp).
//
// Same geometry, hashing, eviction tiers and counters as FlowTable, but a
// probe walks the window's entries in slot order: each occupied slot is
// compared by full key, reclaimed when idle, and otherwise weighed for
// LRU by its entry's last_seen. FlowTable must make every decision this
// walk makes: same hit, insert and victim, same eviction callbacks in the
// same order, same counts and the same slots at the end.
#ifndef RB_TESTS_FLOW_REFERENCE_FLOW_TABLE_HPP_
#define RB_TESTS_FLOW_REFERENCE_FLOW_TABLE_HPP_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "flow/flow_table.hpp"

namespace rb {

class ReferenceFlowTable {
 public:
  explicit ReferenceFlowTable(const FlowTableConfig& config) : config_(config) {
    const size_t n_shards = NextPow2(static_cast<size_t>(config_.shards));
    shard_mask_ = n_shards - 1;
    buckets_per_shard_ = NextPow2((config_.capacity + 2 * n_shards - 1) / (2 * n_shards));
    buckets_per_shard_ =
        std::max(buckets_per_shard_, static_cast<size_t>(config_.max_probe_buckets));
    bucket_mask_ = buckets_per_shard_ - 1;
    slots_per_shard_ = buckets_per_shard_ * 2;
    shards_.resize(n_shards);
    for (Shard& s : shards_) {
      s.slots.resize(slots_per_shard_);
    }
    probe_hist_.assign(static_cast<size_t>(config_.max_probe_buckets), 0);
    hi_slots_per_shard_ =
        config_.hi_watermark >= 1.0
            ? UINT64_MAX
            : static_cast<uint64_t>(config_.hi_watermark * static_cast<double>(slots_per_shard_));
  }

  void set_on_evict(FlowTable::EvictFn fn) { on_evict_ = std::move(fn); }

  FlowEntry* FindOrInsert(const FlowKey& key, uint32_t now, bool* inserted = nullptr) {
    const uint64_t hash = FlowHash64(key);
    return FindOrInsertIn(ShardFor(hash), key, hash, now, inserted);
  }

  FlowEntry* Find(const FlowKey& key, uint32_t now) {
    const uint64_t hash = FlowHash64(key);
    Shard& s = ShardFor(hash);
    for (int b = 0; b < config_.max_probe_buckets; ++b) {
      for (int k = 0; k < 2; ++k) {
        FlowEntry& e = SlotAt(s, hash, b, k);
        if (!e.occupied()) {
          continue;
        }
        if (e.Matches(key)) {
          if (IdleExpired(e, now)) {
            EvictSlot(s, &e, &FlowTableStats::evict_idle);
            return nullptr;
          }
          e.last_seen = now;
          s.stats.hits++;
          probe_hist_[static_cast<size_t>(b)]++;
          return &e;
        }
        if (IdleExpired(e, now)) {
          EvictSlot(s, &e, &FlowTableStats::evict_idle);
        }
      }
    }
    return nullptr;
  }

  bool Erase(const FlowKey& key) {
    const uint64_t hash = FlowHash64(key);
    Shard& s = ShardFor(hash);
    for (int b = 0; b < config_.max_probe_buckets; ++b) {
      for (int k = 0; k < 2; ++k) {
        FlowEntry& e = SlotAt(s, hash, b, k);
        if (e.occupied() && e.Matches(key)) {
          e = FlowEntry{};
          s.occupancy--;
          s.stats.erases++;
          return true;
        }
      }
    }
    return false;
  }

  size_t SweepIdle(uint32_t now, size_t max_slots) {
    if (config_.idle_timeout == 0 || max_slots == 0) {
      return 0;
    }
    size_t reclaimed = 0;
    const size_t budget = std::max<size_t>(1, max_slots / shards_.size());
    for (Shard& s : shards_) {
      for (size_t i = 0; i < budget; ++i) {
        FlowEntry& e = s.slots[s.sweep_cursor];
        s.sweep_cursor = (s.sweep_cursor + 1) % slots_per_shard_;
        if (e.occupied() && IdleExpired(e, now)) {
          EvictSlot(s, &e, &FlowTableStats::evict_idle);
          ++reclaimed;
        }
      }
    }
    return reclaimed;
  }

  FlowEntry* Restore(int shard, const FlowEntry& entry) {
    const FlowKey key = entry.key();
    const uint64_t hash = FlowHash64(key);
    Shard& s = shards_[static_cast<size_t>(shard)];
    FlowEntry* slot = FindOrInsertIn(s, key, hash, entry.last_seen, nullptr);
    if (slot == nullptr) {
      return nullptr;
    }
    slot->flags = entry.flags;
    slot->last_seen = entry.last_seen;
    slot->state0 = entry.state0;
    slot->state1 = entry.state1;
    s.stats.replays++;
    return slot;
  }

  void ClearShard(int shard) {
    Shard& s = shards_[static_cast<size_t>(shard)];
    for (FlowEntry& e : s.slots) {
      if (e.occupied()) {
        if (on_evict_) {
          on_evict_(e);
        }
        e = FlowEntry{};
        s.occupancy--;
      }
    }
    s.sweep_cursor = 0;
  }

  void ForEachInShard(int shard, const std::function<void(const FlowEntry&)>& fn) const {
    for (const FlowEntry& e : shards_[static_cast<size_t>(shard)].slots) {
      if (e.occupied()) {
        fn(e);
      }
    }
  }

  int shards() const { return static_cast<int>(shards_.size()); }
  size_t ShardOccupancy(int shard) const { return shards_[static_cast<size_t>(shard)].occupancy; }

  FlowTableStats stats() const {
    FlowTableStats out;
    for (const Shard& s : shards_) {
      out.hits += s.stats.hits;
      out.inserts += s.stats.inserts;
      out.evict_idle += s.stats.evict_idle;
      out.evict_watermark += s.stats.evict_watermark;
      out.evict_full += s.stats.evict_full;
      out.insert_fail += s.stats.insert_fail;
      out.erases += s.stats.erases;
      out.replays += s.stats.replays;
    }
    return out;
  }

  int ProbeLengthPercentile(double p) const {
    uint64_t total = 0;
    for (uint64_t c : probe_hist_) {
      total += c;
    }
    if (total == 0) {
      return 0;
    }
    const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
    uint64_t seen = 0;
    for (size_t b = 0; b < probe_hist_.size(); ++b) {
      seen += probe_hist_[b];
      if (seen > rank) {
        return static_cast<int>(b) + 1;
      }
    }
    return static_cast<int>(probe_hist_.size());
  }

 private:
  struct Shard {
    std::vector<FlowEntry> slots;
    uint64_t occupancy = 0;
    size_t sweep_cursor = 0;
    FlowTableStats stats;
  };

  static size_t NextPow2(size_t v) {
    size_t p = 1;
    while (p < v) {
      p <<= 1;
    }
    return p;
  }

  static bool TickBefore(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }

  Shard& ShardFor(uint64_t hash) { return shards_[(hash >> 48) & shard_mask_]; }

  // Slot k of the b'th bucket of `hash`'s window.
  FlowEntry& SlotAt(Shard& s, uint64_t hash, int b, int k) {
    const size_t bucket = ((hash & bucket_mask_) + static_cast<size_t>(b)) & bucket_mask_;
    return s.slots[bucket * 2 + static_cast<size_t>(k)];
  }

  bool IdleExpired(const FlowEntry& e, uint32_t now) const {
    return config_.idle_timeout != 0 && (now - e.last_seen) > config_.idle_timeout;
  }

  void EvictSlot(Shard& s, FlowEntry* e, uint64_t FlowTableStats::* counter) {
    if (on_evict_) {
      on_evict_(*e);
    }
    *e = FlowEntry{};
    s.occupancy--;
    s.stats.*counter += 1;
  }

  FlowEntry* FindOrInsertIn(Shard& s, const FlowKey& key, uint64_t hash, uint32_t now,
                            bool* inserted) {
    FlowEntry* free_slot = nullptr;
    int free_bucket = 0;
    FlowEntry* lru = nullptr;
    int lru_bucket = 0;
    for (int b = 0; b < config_.max_probe_buckets; ++b) {
      for (int k = 0; k < 2; ++k) {
        FlowEntry& e = SlotAt(s, hash, b, k);
        if (e.occupied() && e.Matches(key)) {
          e.last_seen = now;
          s.stats.hits++;
          probe_hist_[static_cast<size_t>(b)]++;
          if (inserted != nullptr) {
            *inserted = false;
          }
          return &e;
        }
        if (e.occupied() && IdleExpired(e, now)) {
          EvictSlot(s, &e, &FlowTableStats::evict_idle);
        }
        if (!e.occupied()) {
          if (free_slot == nullptr) {
            free_slot = &e;
            free_bucket = b;
          }
          continue;
        }
        if (lru == nullptr || TickBefore(e.last_seen, lru->last_seen)) {
          lru = &e;
          lru_bucket = b;
        }
      }
    }

    const bool over = s.occupancy >= hi_slots_per_shard_;
    FlowEntry* target = nullptr;
    int target_bucket = 0;
    if (over && lru != nullptr) {
      EvictSlot(s, lru, &FlowTableStats::evict_watermark);
      target = lru;
      target_bucket = lru_bucket;
    } else if (free_slot != nullptr) {
      target = free_slot;
      target_bucket = free_bucket;
    } else if (config_.evict_on_full && lru != nullptr) {
      EvictSlot(s, lru, &FlowTableStats::evict_full);
      target = lru;
      target_bucket = lru_bucket;
    } else {
      s.stats.insert_fail++;
      if (inserted != nullptr) {
        *inserted = false;
      }
      return nullptr;
    }

    target->src_ip = key.src_ip;
    target->dst_ip = key.dst_ip;
    target->src_port = key.src_port;
    target->dst_port = key.dst_port;
    target->protocol = key.protocol;
    target->flags = FlowEntry::kOccupied;
    target->last_seen = now;
    target->state0 = 0;
    target->state1 = 0;
    s.occupancy++;
    s.stats.inserts++;
    probe_hist_[static_cast<size_t>(target_bucket)]++;
    if (inserted != nullptr) {
      *inserted = true;
    }
    return target;
  }

  FlowTableConfig config_;
  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t bucket_mask_ = 0;
  size_t buckets_per_shard_ = 0;
  size_t slots_per_shard_ = 0;
  uint64_t hi_slots_per_shard_ = 0;
  FlowTable::EvictFn on_evict_;
  std::vector<uint64_t> probe_hist_;
};

}  // namespace rb

#endif  // RB_TESTS_FLOW_REFERENCE_FLOW_TABLE_HPP_
