// The rb stateful plane's flow table (DESIGN.md §17).
//
// RouteBricks parallelizes *stateless* forwarding; stateful NFs (NAT,
// per-flow policing, connection tracking) need a per-flow state store
// that holds millions of concurrent flows without resizing, rehashing,
// or tail-exploding under overload. This table is built for that
// contract:
//
//  - Open addressing over cache-line buckets: entries are exactly 32
//    bytes, two per 64-byte bucket.
//  - Tags filter, keys decide: beside its entries each shard keeps a
//    16-bit tag per slot (0 = empty, else 16 hash bits the shard and
//    bucket do not use) and a 32-bit tick per slot (its last_seen). A
//    probe compares its window's 16 tags with two SSE2 compares, reads
//    a full key only on a tag match, and takes its idle and LRU
//    decisions from the ticks, so a miss reads the window's tag and
//    tick lines and the one entry it replaces, not all eight entry
//    lines. The decisions are exactly those of a walk over the window's
//    entries in slot order (tests/flow/reference_flow_table.hpp keeps
//    that walk as the differential reference).
//  - Bounded probe window: lookup/insert scans at most
//    `max_probe_buckets` (1-8) consecutive buckets. There is no fallback
//    scan and no incremental resize — worst-case probe cost is a
//    constant, which is what bounds p99 under million-flow churn.
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
// Either way a shard has one writer at a time, so its counters and its
// probe-length histogram are written with a relaxed load and store
// rather than a locked read-modify-write; any thread may read them.
//
// Ticks: the table does not own a clock. Callers stamp `now` in any
// monotonically-increasing 32-bit unit (milliseconds in the elements,
// DES microseconds in the cluster plane); idle arithmetic uses
// wrap-safe unsigned subtraction.
#ifndef RB_FLOW_FLOW_TABLE_HPP_
#define RB_FLOW_FLOW_TABLE_HPP_

#include <algorithm>
#include <array>
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

// One flow's state: the full 5-tuple key (tags only filter; the full key
// decides every hit, since a false-positive NAT hit would cross-wire
// flows), a last-seen tick (kept equal to the shard's tick array, which
// the LRU/idle decisions read), and two opaque state words the owning NF
// interprets (Nat: mapping word + reverse index; FlowPolicer: token
// bucket + refill tick). Exactly 32 bytes so two entries share a cache
// line.
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
  int max_probe_buckets = 8;   // probe window, in 2-entry buckets (1-8)
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

  // FindOrInsert over keys[0, n), a burst at a time: every key's hash
  // and tag/tick lines first, then each key's likely entry line (its tag
  // match, else the slot it would take), then the keys strictly in order,
  // calling visit(i, entry, inserted) after key i and before key i+1.
  // Decisions, counts and eviction callbacks are those of n FindOrInsert
  // calls, so `visit` may act on the table's owner (Nat allocates the
  // new flow's port there) and a key repeated in one burst hits.
  template <typename Visit>
  void FindOrInsertBatch(const FlowKey* keys, uint32_t n, uint32_t now, Visit&& visit);

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
  // Probe lengths of every hit and insert so far, all shards summed:
  // [b-1] counts probes that ended in the b'th bucket of the window.
  std::vector<uint64_t> ProbeLengthHistogram() const;
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
  static constexpr int kMaxWindowBuckets = 8;
  // Slots in the widest window, and the mirror past each side array's end.
  static constexpr size_t kWindowSlots = 2 * kMaxWindowBuckets;
  static constexpr uint32_t kBatchChunk = 32;

  struct alignas(64) Bucket {
    FlowEntry slot[2];
  };

  struct Shard {
    std::vector<Bucket> buckets;
    // Per slot: tags[s] is 0 when empty, else TagOf(hash) of its key;
    // ticks[s] equals its entry's last_seen while occupied. With n slots
    // per shard, lane n + j (j < kWindowSlots) mirrors slot j % n, so a
    // window starting at any slot reads its lanes without wrapping.
    std::vector<uint16_t> tags;
    std::vector<uint32_t> ticks;
    std::atomic_flag lock;  // value-initialized clear (C++20)
    size_t sweep_cursor = 0;
    // One writer at a time (see Sharding above): relaxed load and store.
    std::atomic<uint64_t> occupancy{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evict_idle{0};
    std::atomic<uint64_t> evict_watermark{0};
    std::atomic<uint64_t> evict_full{0};
    std::atomic<uint64_t> insert_fail{0};
    std::atomic<uint64_t> erases{0};
    std::atomic<uint64_t> replays{0};
    // probe_hist[b-1] counts probes that ended in the b'th bucket of the
    // window.
    std::array<std::atomic<uint64_t>, kMaxWindowBuckets> probe_hist{};
  };

  FlowEntry* FindOrInsertIn(Shard& shard, const FlowKey& key, uint64_t hash, uint32_t now,
                            bool* inserted);
  // The first lane (0-15) of `match`, the window's tag matches, whose
  // entry holds `key`; -1 when none does.
  int MatchLane(Shard& s, const FlowKey& key, size_t start, uint32_t match);
  // MatchLane, plus the idle reclamation a walk of the window in slot
  // order does before it reaches the match (the whole window on a
  // miss). `live` gets the lanes still occupied afterwards.
  int Probe(Shard& s, const FlowKey& key, uint64_t hash, size_t start, uint32_t now,
            uint32_t* live);
  // Passes 1 and 2 of FindOrInsertBatch: hashes keys[0, n) into `hashes`
  // and prefetches the lines pass 3 will read.
  void PrefetchChunk(const FlowKey* keys, uint32_t n, uint64_t* hashes);
  bool IdleExpired(uint32_t tick, uint32_t now) const;
  void EvictSlot(Shard& shard, size_t slot, std::atomic<uint64_t> Shard::* counter);
  void ClearSlot(Shard& shard, size_t slot);
  // Stamps the entry at `lane` of the window and counts the hit.
  FlowEntry* Hit(Shard& shard, size_t start, int lane, uint32_t now);
  FlowEntry& Entry(Shard& s, size_t slot) const {
    slot &= slot_mask_;
    return s.buckets[slot >> 1].slot[slot & 1];
  }
  Shard& ShardFor(uint64_t hash) { return *shards_[ShardIndex(hash)]; }
  size_t ShardIndex(uint64_t hash) const { return (hash >> 48) & shard_mask_; }
  size_t BucketIndex(uint64_t hash) const { return hash & bucket_mask_; }

  FlowTableConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  size_t bucket_mask_ = 0;
  size_t slots_per_shard_ = 0;
  size_t slot_mask_ = 0;
  uint32_t window_mask_ = 0;  // one bit per lane of the probe window
  std::atomic<double> hi_watermark_{0};
  std::atomic<double> lo_watermark_{0};
  std::atomic<uint32_t> idle_timeout_{0};
  // hi watermark precomputed as a per-shard slot count (the hot path
  // compares integers, not fractions). Rewritten by SetWatermarks.
  std::atomic<uint64_t> hi_slots_per_shard_{0};
  EvictFn on_evict_;
};

template <typename Visit>
void FlowTable::FindOrInsertBatch(const FlowKey* keys, uint32_t n, uint32_t now,
                                  Visit&& visit) {
  uint64_t hashes[kBatchChunk];
  for (uint32_t base = 0; base < n; base += kBatchChunk) {
    const uint32_t m = std::min(kBatchChunk, n - base);
    PrefetchChunk(keys + base, m, hashes);
    for (uint32_t j = 0; j < m; ++j) {
      bool inserted = false;
      FlowEntry* e =
          FindOrInsertIn(ShardFor(hashes[j]), keys[base + j], hashes[j], now, &inserted);
      visit(base + j, e, inserted);
    }
  }
}

}  // namespace rb

#endif  // RB_FLOW_FLOW_TABLE_HPP_
