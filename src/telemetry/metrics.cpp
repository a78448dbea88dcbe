#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace rb {
namespace telemetry {

namespace {
thread_local int t_core = 0;
std::atomic<bool> g_enabled{true};
}  // namespace

void SetThisCore(int core) { t_core = core < 0 ? 0 : core; }
int ThisCore() { return t_core; }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

ShardedHistogram::ShardedHistogram(const HistogramOptions& opts)
    : opts_(opts), width_((opts.hi - opts.lo) / static_cast<double>(opts.buckets)) {
  RB_CHECK(opts.hi > opts.lo);
  RB_CHECK(opts.buckets > 0);
  for (Shard& s : shards_) {
    s.counts = std::make_unique<std::atomic<uint64_t>[]>(opts.buckets);
    for (size_t b = 0; b < opts.buckets; ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

void ShardedHistogram::Observe(double x) {
  Shard& s = shards_[static_cast<size_t>(ThisCore()) % kMaxShards];
  // One writer per shard under the scheduling discipline, so plain
  // read-modify-write on the atomics (no RMW instructions needed for sum /
  // min / max); count uses fetch_add so wrapped shards stay correct.
  uint64_t n = s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.store(s.sum.load(std::memory_order_relaxed) + x, std::memory_order_relaxed);
  if (n == 0) {
    s.min.store(x, std::memory_order_relaxed);
    s.max.store(x, std::memory_order_relaxed);
  } else {
    if (x < s.min.load(std::memory_order_relaxed)) {
      s.min.store(x, std::memory_order_relaxed);
    }
    if (x > s.max.load(std::memory_order_relaxed)) {
      s.max.store(x, std::memory_order_relaxed);
    }
  }
  if (x < opts_.lo) {
    s.underflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (x >= opts_.hi) {
    s.overflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_t idx = static_cast<size_t>((x - opts_.lo) / width_);
  if (idx >= opts_.buckets) {
    idx = opts_.buckets - 1;
  }
  s.counts[idx].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot ShardedHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.lo = opts_.lo;
  snap.hi = opts_.hi;
  snap.counts.assign(opts_.buckets, 0);
  bool first = true;
  for (const Shard& s : shards_) {
    uint64_t n = s.count.load(std::memory_order_relaxed);
    if (n == 0) {
      continue;
    }
    snap.count += n;
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.underflow += s.underflow.load(std::memory_order_relaxed);
    snap.overflow += s.overflow.load(std::memory_order_relaxed);
    double mn = s.min.load(std::memory_order_relaxed);
    double mx = s.max.load(std::memory_order_relaxed);
    if (first) {
      snap.min = mn;
      snap.max = mx;
      first = false;
    } else {
      snap.min = std::min(snap.min, mn);
      snap.max = std::max(snap.max, mx);
    }
    for (size_t b = 0; b < opts_.buckets; ++b) {
      snap.counts[b] += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  uint64_t target = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count)));
  if (target == 0) {
    target = 1;
  }
  uint64_t seen = underflow;
  if (seen >= target) {
    return min;  // rank among below-range samples: report observed min
  }
  double width = (hi - lo) / static_cast<double>(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] >= target) {
      double frac =
          counts[i] ? static_cast<double>(target - seen) / static_cast<double>(counts[i]) : 0.0;
      return lo + (static_cast<double>(i) + frac) * width;
    }
    seen += counts[i];
  }
  return max;  // rank among above-range samples: report observed max
}

uint64_t RegistrySnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

const HistogramSnapshot* RegistrySnapshot::FindHistogram(const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) {
      return &h;
    }
  }
  return nullptr;
}

const LatencySnapshot* RegistrySnapshot::FindLatency(const std::string& name) const {
  for (const auto& [n, h] : latency) {
    if (n == name) {
      return &h;
    }
  }
  return nullptr;
}

double RegistrySnapshot::GaugeValue(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) {
      return v;
    }
  }
  return 0.0;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  RB_CHECK_MSG(!counter_readers_.contains(name), ("counter is read, not pushed: " + name).c_str());
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  RB_CHECK_MSG(!gauge_readers_.contains(name), ("gauge is read, not pushed: " + name).c_str());
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

ShardedHistogram* MetricRegistry::GetHistogram(const std::string& name,
                                               const HistogramOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<ShardedHistogram>(opts);
  }
  return slot.get();
}

LatencyHistogram* MetricRegistry::GetLatencyHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = latency_[name];
  if (!slot) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return slot.get();
}

void MetricRegistry::AddCounterReader(const std::string& name, std::function<uint64_t()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  RB_CHECK_MSG(!counters_.contains(name), ("counter is pushed, not read: " + name).c_str());
  RB_CHECK_MSG(counter_readers_.emplace(name, std::move(read)).second,
               ("second reader for counter: " + name).c_str());
}

void MetricRegistry::AddGaugeReader(const std::string& name, std::function<double()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  RB_CHECK_MSG(!gauges_.contains(name), ("gauge is pushed, not read: " + name).c_str());
  RB_CHECK_MSG(gauge_readers_.emplace(name, std::move(read)).second,
               ("second reader for gauge: " + name).c_str());
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size() + counter_readers_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  const auto pushed = static_cast<std::ptrdiff_t>(snap.counters.size());
  for (const auto& [name, read] : counter_readers_) {
    snap.counters.emplace_back(name, read());
  }
  // Both runs are sorted by name (std::map order) and share no name.
  std::inplace_merge(snap.counters.begin(), snap.counters.begin() + pushed, snap.counters.end());
  snap.gauges.reserve(gauges_.size() + gauge_readers_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  for (const auto& [name, read] : gauge_readers_) {
    snap.gauges.emplace_back(name, read());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  snap.latency.reserve(latency_.size());
  for (const auto& [name, h] : latency_) {
    LatencySnapshot ls = h->Snapshot();
    if (ls.count > 0) {
      // Synthesized tail gauges, in microseconds. Emitted into the plain
      // gauge list so every existing export surface carries them.
      static constexpr struct {
        const char* suffix;
        double p;
      } kTails[] = {{"/p50_us", 50.0}, {"/p90_us", 90.0},
                    {"/p99_us", 99.0}, {"/p999_us", 99.9}};
      for (const auto& t : kTails) {
        snap.gauges.emplace_back(name + t.suffix, ls.PercentileNs(t.p) / 1e3);
      }
      snap.gauges.emplace_back(name + "/mean_us", ls.mean_ns() / 1e3);
      snap.gauges.emplace_back(name + "/count", static_cast<double>(ls.count));
    }
    snap.latency.emplace_back(name, std::move(ls));
  }
  std::sort(snap.gauges.begin(), snap.gauges.end());
  return snap;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* g = new MetricRegistry();
  return *g;
}

}  // namespace telemetry
}  // namespace rb
