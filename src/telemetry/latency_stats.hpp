// Always-on latency aggregation: per-core-sharded, log-bucketed (HDR-style)
// histograms over nanoseconds, built for the measured latency plane.
//
// The linear ShardedHistogram in metrics.hpp needs a [lo, hi) range chosen
// up front; latency does not cooperate — the same fwd/64B run spans ~1 µs
// service times and multi-ms overload tails, and a fixed linear range
// either clips the tail into the overflow bucket or smears the body into
// one bin. A log2 bucket layout (16 sub-buckets per octave, so ~6% relative
// resolution from 1 ns to ~18 minutes) keeps p50 and p999 simultaneously
// meaningful with one fixed-size array: no heap allocation, no range
// configuration, no rebucketing on the hot path.
//
// Concurrency contract matches Counter/ShardedHistogram: one writer per
// core shard (RouteBricks' one-core-per-queue discipline), relaxed atomics
// throughout, readers may snapshot concurrently and get a consistent-enough
// merged view that is exact once writers quiesce.
#ifndef RB_TELEMETRY_LATENCY_STATS_HPP_
#define RB_TELEMETRY_LATENCY_STATS_HPP_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rb {
namespace telemetry {

// --- ingress stamping kill switch ---
//
// Gates the per-packet ingress cycle stamp (NicPort::Deliver) so the
// stamp's cost is A/B measurable on the same host (bench_latency
// --stamp-ab) and can be shed entirely if a deployment wants the last
// fraction of a percent back. Default on: the latency plane is meant to
// be always-on.
void SetIngressStampEnabled(bool on);
bool IngressStampEnabled();

// Redeclared from metrics.hpp (including it here would cycle): the
// calling core's shard index, as set by SetThisCore.
int ThisCore();

// Log2 bucket geometry, shared by the histogram and its snapshot.
// Index layout: values < 2^kSubBits land in exact unit buckets; above
// that, each octave [2^e, 2^(e+1)) splits into 2^kSubBits equal
// sub-buckets. Monotone in the value, O(1) both ways.
struct LatencyBuckets {
  static constexpr int kSubBits = 4;  // 16 sub-buckets per octave
  static constexpr int kOctaves = 40; // top bucket lower edge ~2^40 ns
  static constexpr size_t kCount = static_cast<size_t>(kOctaves + 1)
                                   << kSubBits;

  // Inline: runs once per forwarded packet on the stamping hot path.
  static size_t Index(uint64_t ns) {
    constexpr uint64_t kSubCount = uint64_t{1} << kSubBits;
    if (ns < kSubCount) {
      return static_cast<size_t>(ns);  // exact unit buckets
    }
    int e = 63 - std::countl_zero(ns);  // floor(log2 ns), >= kSubBits
    uint64_t sub = (ns >> (e - kSubBits)) & (kSubCount - 1);
    size_t idx =
        (static_cast<size_t>(e - kSubBits + 1) << kSubBits) + static_cast<size_t>(sub);
    return idx < kCount - 1 ? idx : kCount - 1;
  }
  // Inclusive lower / exclusive upper edge of bucket `idx`, in ns.
  static uint64_t LowerNs(size_t idx);
  static uint64_t UpperNs(size_t idx);
};

// Merged, immutable view of one LatencyHistogram. Percentile semantics
// match HistogramSnapshot: interpolate linearly inside the bucket, clip
// end ranks to the observed envelope. count/sum/min/max are reconstructed
// from bucket occupancy at snapshot time — exact for sub-16 ns values
// (unit buckets), within one ~6% sub-bucket otherwise — so the write path
// stays a single counter bump.
struct LatencySnapshot {
  std::vector<uint64_t> counts;  // [LatencyBuckets::kCount]
  uint64_t count = 0;
  double sum_ns = 0;             // bucket-midpoint reconstruction
  uint64_t min_ns = 0;           // lower edge of the lowest occupied bucket
  uint64_t max_ns = 0;           // upper edge (inclusive) of the highest

  double mean_ns() const {
    return count ? sum_ns / static_cast<double>(count) : 0.0;
  }
  // p in [0, 100]; returns nanoseconds.
  double PercentileNs(double p) const;
};

// Fixed-geometry log-bucketed histogram with per-core sharded bucket
// arrays. ObserveNs is wait-free: one bucket-index computation plus one
// relaxed atomic load and store on the caller core's shard.
class LatencyHistogram {
 public:
  // Bucket counts only — every derived statistic is reconstructed at
  // snapshot time from occupancy, keeping the write path minimal.
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  // [kCount]
  };

  LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  // The caller core's shard. A writer that observes a whole burst looks
  // it up once and passes it to the static ObserveNs.
  Shard& ThisShard() { return shards_[static_cast<size_t>(ThisCore()) % 16]; }

  // Adds `count` observations of `ns` to `shard` in one bucket add, so a
  // run of equal latencies costs what one observation does. No
  // per-shard count/sum/min/max: Snapshot reconstructs all of them from
  // bucket occupancy, trading ~6% accuracy on the derived stats for a
  // hot path with nothing left to remove. Single-writer-per-shard
  // discipline (one core per queue) makes the plain load/store RMW
  // exact; a wrapped shard (more cores than shards) can lose increments
  // under a race, the same contract as ShardedHistogram. Readers may
  // snapshot concurrently.
  static void ObserveNs(Shard& shard, uint64_t ns, uint64_t count) {
    std::atomic<uint64_t>& bucket = shard.counts[LatencyBuckets::Index(ns)];
    bucket.store(bucket.load(std::memory_order_relaxed) + count, std::memory_order_relaxed);
  }
  void ObserveNs(uint64_t ns) { ObserveNs(ThisShard(), ns, 1); }

  LatencySnapshot Snapshot() const;

 private:
  Shard shards_[16];  // kMaxShards; kept literal to avoid metrics.hpp dep
};

}  // namespace telemetry
}  // namespace rb

#endif  // RB_TELEMETRY_LATENCY_STATS_HPP_
