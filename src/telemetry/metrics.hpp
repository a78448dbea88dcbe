// The metric registry: named counters, gauges, and histograms with
// per-core *sharded* writer slots.
//
// RouteBricks' scheduling discipline (§4.2: one core per queue, one core
// per packet) means every hot-path metric has exactly one writer per core.
// We exploit that the same way the data path does: a Counter is an array
// of cache-line-aligned per-core slots, each written only by its core with
// relaxed atomics (no RMW contention, no locks, no cache-line ping-pong),
// and summed across slots on read. Snapshots (the export layer, a
// periodic sampler) may run concurrently with writers; all cross-thread
// traffic goes through atomics, so the registry is clean under TSan with
// real ThreadScheduler threads.
//
// Metric creation (GetCounter etc.) takes a mutex and is meant for setup
// time; hot paths cache the returned pointer, which stays valid for the
// registry's lifetime.
//
// A count that some component already keeps in its own field is not
// pushed a second time: the owner registers a *reader* (AddCounterReader
// / AddGaugeReader) that Snapshot() evaluates, so the owner's field stays
// the one source of truth for handlers and exports alike.
#ifndef RB_TELEMETRY_METRICS_HPP_
#define RB_TELEMETRY_METRICS_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/latency_stats.hpp"

namespace rb {
namespace telemetry {

// Identifies the calling thread's "core" (worker index). Set once by
// ThreadScheduler before entering a worker loop; defaults to 0 for the
// main thread / inline execution.
void SetThisCore(int core);
int ThisCore();

// Global runtime kill switch. When disabled, instrumented components skip
// binding metrics so the hot path pays only a null-pointer test.
void SetEnabled(bool on);
bool Enabled();

// Number of independent writer slots per metric. Core ids beyond this wrap
// (fetch_add keeps wrapped slots correct, just no longer contention-free).
constexpr int kMaxShards = 16;

// Monotonic counter, per-core sharded.
class Counter {
 public:
  void Add(uint64_t n) {
    slots_[static_cast<size_t>(ThisCore()) % kMaxShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  // Sum across slots. Safe concurrently with writers; the result is a
  // consistent-enough monotone snapshot, exact once writers quiesce.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kMaxShards];
};

// Last-value / extremum gauge. A single atomic double: gauges are written
// by samplers (or via UpdateMax from one producer), not per packet.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  // Raises the gauge to `v` if larger (high-water marks).
  void UpdateMax(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Aggregated, immutable view of a sharded histogram, with the same
// percentile semantics as rb::Histogram (interpolate in-range; clipped
// ranks report observed min/max).
struct HistogramSnapshot {
  double lo = 0;
  double hi = 0;
  std::vector<uint64_t> counts;
  uint64_t underflow = 0;
  uint64_t overflow = 0;
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  double Percentile(double p) const;  // p in [0, 100]
};

struct HistogramOptions {
  double lo = 0;
  double hi = 1.0;
  size_t buckets = 64;
};

// Fixed-bucket histogram with per-core sharded bucket arrays. Observe() is
// wait-free (relaxed atomic adds on the caller core's shard); Snapshot()
// merges shards.
class ShardedHistogram {
 public:
  explicit ShardedHistogram(const HistogramOptions& opts);

  void Observe(double x);
  HistogramSnapshot Snapshot() const;

  const HistogramOptions& options() const { return opts_; }

 private:
  struct Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  // [buckets]
    std::atomic<uint64_t> underflow{0};
    std::atomic<uint64_t> overflow{0};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0};
    std::atomic<double> min{0};
    std::atomic<double> max{0};
  };

  HistogramOptions opts_;
  double width_;
  Shard shards_[kMaxShards];
};

// A (time, value) series for simulated-time probes (queue depths, server
// occupancy). Single-writer; not thread-safe — used by the DES, which is
// single-threaded, or sampled behind the scheduler's sampler hook.
struct TimeSeries {
  std::string name;
  std::vector<std::pair<double, double>> points;

  void Record(double t, double v) { points.emplace_back(t, v); }
};

// Fully aggregated registry state, safe to serialize or diff.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;    // sorted by name
  std::vector<std::pair<std::string, double>> gauges;        // sorted by name
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, LatencySnapshot>> latency;  // sorted

  // Convenience lookups for tests; returns 0 / nullptr when absent.
  uint64_t CounterValue(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
  const LatencySnapshot* FindLatency(const std::string& name) const;
  double GaugeValue(const std::string& name) const;  // 0 when absent
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Find-or-create by name. Pointers remain valid for the registry's
  // lifetime. GetHistogram options apply only on first creation.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  ShardedHistogram* GetHistogram(const std::string& name, const HistogramOptions& opts);
  // Log-bucketed latency histogram (fixed geometry — no options to apply).
  LatencyHistogram* GetLatencyHistogram(const std::string& name);

  // Registers a counter/gauge whose value `read` returns at Snapshot()
  // time, under the registry mutex; it is listed with the pushed metrics
  // of its kind, by name. One reader per name, and a name is never both
  // pushed and read (RB_CHECK either way). Whatever `read` touches must
  // outlive every Snapshot() of this registry and be safe to read from
  // the snapshotting thread (relaxed atomics on the hot path's side).
  void AddCounterReader(const std::string& name, std::function<uint64_t()> read);
  void AddGaugeReader(const std::string& name, std::function<double()> read);

  // Snapshot also synthesizes, for every latency histogram with samples,
  // p50/p90/p99/p999 + mean gauges named "<hist>/p50_us" etc. (values in
  // microseconds), so the gauges flow through every existing export path
  // (handler plane, Prometheus exposition, --metrics-out JSON, CSV)
  // without those layers learning a new metric kind.
  RegistrySnapshot Snapshot() const;

  // Process-wide default instance, for binaries that don't want to thread
  // a registry through; tests should prefer their own instance.
  static MetricRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ShardedHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latency_;
  std::map<std::string, std::function<uint64_t()>> counter_readers_;
  std::map<std::string, std::function<double()>> gauge_readers_;
};

}  // namespace telemetry
}  // namespace rb

#endif  // RB_TELEMETRY_METRICS_HPP_
