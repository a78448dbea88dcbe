// The rb stateful plane's flow table (DESIGN.md §17).
//
// RouteBricks parallelizes *stateless* forwarding; stateful NFs (NAT,
// per-flow policing, connection tracking) need a per-flow state store
// that holds millions of concurrent flows without resizing, rehashing,
// or tail-exploding under overload. This table is built for that
// contract:
//
//  - Open addressing over cache-line buckets: entries are exactly 32
//    bytes, two per 64-byte bucket, so one probe touches one cache line
//    and a full probe window of B buckets touches exactly B lines.
//  - Bounded probe window: lookup/insert scans at most
//    `max_probe_buckets` consecutive buckets. There is no fallback scan
//    and no incremental resize — worst-case probe cost is a compile-time
//    style constant, which is what bounds p99 under million-flow churn.
//  - Graceful degradation instead of failure: when the window has no
//    free slot, or occupancy has crossed the high watermark, the
//    window's least-recently-seen entry is evicted (callback first, so
//    an owner like Nat can release its reverse mapping) and the slot is
//    reused. Overload therefore shows up as `evict_watermark` /
//    `evict_full` counters and bounded memory, never as OOM or an
//    unserviceable insert — and eviction by construction engages at the
//    watermark, strictly before the table is full.
//  - Idle reclamation: entries not touched for `idle_timeout` ticks are
//    reclaimed opportunistically during probes and by the budgeted
//    SweepIdle walk the control plane (or an element's housekeeping)
//    runs when occupancy sits above the low watermark.
//
// Sharding: the key's 64-bit hash picks a shard from its high bits and
// a bucket from its low bits. Shards are independent tables; in
// partitioned deployments (one shard per core / per node, the SCR
// arrangement) each shard has a single owner and no locking. The
// *shared-state* baseline of the ablation serializes cross-thread
// access per shard via FindOrInsertLocked — a spinlock per shard, the
// "one big table everyone locks" design the SCR paper argues against.
//
// Ticks: the table does not own a clock. Callers stamp `now` in any
// monotonically-increasing 32-bit unit (milliseconds in the elements,
// DES microseconds in the cluster plane); idle arithmetic uses
// wrap-safe unsigned subtraction.
#ifndef RB_FLOW_FLOW_TABLE_HPP_
#define RB_FLOW_FLOW_TABLE_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "packet/flow.hpp"

namespace rb {

namespace telemetry {
class HandlerRegistry;
class MetricRegistry;
}  // namespace telemetry

// One flow's state: the full 5-tuple key (open addressing stores keys,
// not signatures — a false-positive NAT hit would cross-wire flows), a
// last-seen tick for LRU/idle decisions, and two opaque state words the
// owning NF interprets (Nat: mapping word + reverse index; FlowPolicer:
// token bucket + refill tick). Exactly 32 bytes so two entries share a
// cache line.
struct FlowEntry {
  static constexpr uint8_t kOccupied = 1u << 0;
  static constexpr uint8_t kEstablished = 1u << 1;

  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;
  uint8_t flags = 0;
  uint16_t pad = 0;
  uint32_t last_seen = 0;
  uint32_t state1 = 0;
  uint64_t state0 = 0;

  bool occupied() const { return (flags & kOccupied) != 0; }
  bool established() const { return (flags & kEstablished) != 0; }
  FlowKey key() const { return FlowKey{src_ip, dst_ip, src_port, dst_port, protocol}; }
  bool Matches(const FlowKey& k) const {
    return src_ip == k.src_ip && dst_ip == k.dst_ip && src_port == k.src_port &&
           dst_port == k.dst_port && protocol == k.protocol;
  }
};
static_assert(sizeof(FlowEntry) == 32, "two FlowEntries per cache line");

struct FlowTableConfig {
  // Total slot budget across all shards; rounded up so each shard holds
  // a power-of-two number of buckets. 2^21 slots = 64 MiB: headroom for
  // a million-flow working set at comfortable load factor.
  size_t capacity = size_t{1} << 21;
  int shards = 8;              // power of two
  int max_probe_buckets = 8;   // probe window, in 2-entry buckets
  double hi_watermark = 0.85;  // occupancy fraction: LRU replacement above this
  double lo_watermark = 0.70;  // occupancy fraction: SweepIdle target
  uint32_t idle_timeout = 0;   // ticks; 0 disables idle reclamation
  // When the probe window is fully occupied by live entries: true
  // evicts the window LRU (graceful degradation), false fails the
  // insert (the caller counts a flow_table_full drop).
  bool evict_on_full = true;
};

struct FlowTableStats {
  uint64_t hits = 0;
  uint64_t inserts = 0;
  uint64_t evict_idle = 0;       // idle-timeout reclamation
  uint64_t evict_watermark = 0;  // LRU replacement above hi watermark
  uint64_t evict_full = 0;       // LRU replacement on a full probe window
  uint64_t insert_fail = 0;      // full window, eviction disabled
  uint64_t erases = 0;
  uint64_t replays = 0;          // entries restored by SCR replay
  uint64_t evictions() const { return evict_idle + evict_watermark + evict_full; }
};

class FlowTable {
 public:
  explicit FlowTable(const FlowTableConfig& config);

  // Called with the dying entry *before* its slot is reused, for every
  // eviction (idle, watermark, full) and for Clear/ClearShard. Owners
  // free derived state (Nat reverse mappings) here. Set before traffic.
  using EvictFn = std::function<void(const FlowEntry&)>;
  void set_on_evict(EvictFn fn) { on_evict_ = std::move(fn); }

  // Finds `key`, inserting a fresh entry when absent (stamped with
  // `now`, state words zeroed, kOccupied set). Touches last_seen on
  // hit. Returns nullptr only when the window is full and eviction is
  // disabled. `inserted` (optional) reports which path was taken.
  FlowEntry* FindOrInsert(const FlowKey& key, uint32_t now, bool* inserted = nullptr);

  // Lookup without insertion; touches last_seen on hit. Idle entries
  // are reclaimed on sight (an idle flow is not findable).
  FlowEntry* Find(const FlowKey& key, uint32_t now);

  // Removes `key` if present (no evict callback — erase is the owner
  // acting, not the table). Returns true when an entry was removed.
  bool Erase(const FlowKey& key);

  // Shared-state ablation variants: identical semantics under the
  // key-shard's spinlock. The returned pointer is only safe to use
  // inside `fn` in concurrent deployments, hence the visitor shape.
  void FindOrInsertLocked(const FlowKey& key, uint32_t now,
                          const std::function<void(FlowEntry*, bool inserted)>& fn);

  // Scans up to `max_slots` slots (continuing round-robin from the last
  // sweep) and reclaims idle entries. Returns entries reclaimed. No-op
  // when idle_timeout is 0.
  size_t SweepIdle(uint32_t now, size_t max_slots);

  void Clear();
  void ClearShard(int shard);

  // --- SCR support ---
  int ShardOf(const FlowKey& key) const;
  size_t ShardOccupancy(int shard) const;
  // Visits every occupied entry in `shard` (checkpoint snapshots).
  void ForEachInShard(int shard, const std::function<void(const FlowEntry&)>& fn) const;
  // Reinstalls a checkpointed/replayed entry into its home slot,
  // counting a replay. The entry's key must hash to `shard`.
  FlowEntry* Restore(int shard, const FlowEntry& e);

  size_t occupancy() const;
  size_t capacity_slots() const { return slots_per_shard_ * shards_.size(); }
  int shards() const { return static_cast<int>(shards_.size()); }
  int max_probe_buckets() const { return config_.max_probe_buckets; }
  double hi_watermark() const { return hi_watermark_.load(std::memory_order_relaxed); }
  double lo_watermark() const { return lo_watermark_.load(std::memory_order_relaxed); }
  uint32_t idle_timeout() const { return idle_timeout_.load(std::memory_order_relaxed); }
  void set_idle_timeout(uint32_t ticks) {
    idle_timeout_.store(ticks, std::memory_order_relaxed);
  }

  // Live-retunable watermarks; rejects lo >= hi or values outside
  // (0, 1]. Returns false (untouched) on invalid input.
  bool SetWatermarks(double hi, double lo);

  FlowTableStats stats() const;
  // Probe length (in buckets, 1-based) at the given percentile over all
  // FindOrInsert/Find probes so far; 0 when nothing was probed.
  int ProbeLengthPercentile(double p) const;

  // Registers "<owner>.flows" (live flow count), ".occupancy" (same —
  // the Click-style alias rb_top keys its [stateful] tag on),
  // ".capacity", ".evictions", ".replays", ".insert_fail",
  // ".probe_p99", and writable ".hi"/".lo" watermark knobs with
  // validation, plus ".idle_ticks". Handler bodies touch only relaxed
  // atomics and are control-thread safe.
  void AddHandlers(telemetry::HandlerRegistry* handlers, const std::string& owner);

  // Registers gauge readers under "<prefix>flow/<name>/": `flows`
  // (occupancy()), `evictions`, `replays` and `insert_fail` (stats()).
  // Each snapshot reads the table's own counters, live and at no per-op
  // cost; the table must outlive every snapshot of `registry`.
  void BindTelemetry(telemetry::MetricRegistry* registry, const std::string& prefix,
                     const std::string& name);

 private:
  struct alignas(64) Bucket {
    FlowEntry slot[2];
  };

  struct Shard {
    std::vector<Bucket> buckets;
    std::atomic_flag lock;  // value-initialized clear (C++20)
    std::atomic<uint64_t> occupancy{0};
    size_t sweep_cursor = 0;
    // Single-writer in partitioned mode, control-thread read: relaxed.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evict_idle{0};
    std::atomic<uint64_t> evict_watermark{0};
    std::atomic<uint64_t> evict_full{0};
    std::atomic<uint64_t> insert_fail{0};
    std::atomic<uint64_t> erases{0};
    std::atomic<uint64_t> replays{0};
  };

  FlowEntry* FindOrInsertIn(Shard& shard, const FlowKey& key, uint64_t hash, uint32_t now,
                            bool* inserted);
  bool IdleExpired(const FlowEntry& e, uint32_t now) const;
  void EvictSlot(Shard& shard, FlowEntry* e, std::atomic<uint64_t> Shard::* bucket_counter);
  Shard& ShardFor(uint64_t hash) { return *shards_[ShardIndex(hash)]; }
  size_t ShardIndex(uint64_t hash) const { return (hash >> 48) & shard_mask_; }
  size_t BucketIndex(uint64_t hash) const { return hash & bucket_mask_; }

  FlowTableConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  size_t bucket_mask_ = 0;
  size_t buckets_per_shard_ = 0;
  size_t slots_per_shard_ = 0;
  std::atomic<double> hi_watermark_{0};
  std::atomic<double> lo_watermark_{0};
  std::atomic<uint32_t> idle_timeout_{0};
  // hi watermark precomputed as a per-shard slot count (the hot path
  // compares integers, not fractions). Rewritten by SetWatermarks.
  std::atomic<uint64_t> hi_slots_per_shard_{0};
  EvictFn on_evict_;
  // Probe-length histogram: probe_hist_[b-1] counts probes that ended
  // in the b'th bucket of the window.
  std::vector<std::atomic<uint64_t>> probe_hist_;
};

}  // namespace rb

#endif  // RB_FLOW_FLOW_TABLE_HPP_
