// Sampled packet-path tracing.
//
// A PathTracer records, for 1-in-N packets, a timestamped hop at every
// point the packet touches: FromDevice -> elements [-> Queue] -> ToDevice
// in the Click graph (wall-clock timestamps — real execution), or
// ext-rx -> CPU -> NIC -> link -> ... -> ext-out in the cluster DES
// (simulated-time timestamps — fully deterministic). Consecutive-hop
// deltas give the per-hop latency breakdown that reproduces the paper's
// §4.3 "where do the cycles go" and §6.2 per-server latency decomposition
// from our own measurements. Each hop additionally carries the queueing
// wait the packet accrued inside that hop's residency (Queue enqueue ->
// dequeue, DES arrival -> service start), so per-hop residency decomposes
// into wait + service.
//
// Hop points are interned ScopeIds (the profiler's process-global string
// table), so recording a hop is id + two doubles — no heap allocation on
// the data path, even for sampled packets.
//
// Sampling: the 1-in-N decimation is an atomic packet counter as before,
// but the bounded trace store is now a seeded *reservoir* (Algorithm R
// with a deterministic splitmix64 coin): once max_traces slots are full,
// the k-th candidate replaces a uniformly random held trace with
// probability max_traces/k. A long soak therefore keeps a uniform sample
// of the whole run instead of freezing on the first N packets.
//
// Concurrency: handles carry a per-slot generation, and slot mutation
// takes a per-slot spinlock so a replacement racing a late Record on the
// evicted trace is detected (stale generation) and dropped instead of
// corrupting the new occupant. Only sampled packets (1-in-N) ever touch a
// lock. Reading traces (Traces, HopLatencies) is only valid once the data
// path has quiesced.
#ifndef RB_TELEMETRY_TRACE_HPP_
#define RB_TELEMETRY_TRACE_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace rb {
namespace telemetry {

// Monotonic wall-clock seconds for timestamping Click-graph hops.
double NowSeconds();

struct TraceHop {
  ScopeId point = kInvalidScope;  // interned element / server name
  double t = 0;     // seconds (wall-clock or simulated, per data path)
  double wait = 0;  // queueing wait inside this hop's residency, seconds
};

// Interned-name readback for a hop ("" for an invalid id).
const std::string& HopPointName(const TraceHop& hop);

struct PacketTrace {
  uint64_t id = 0;         // 1-based reservoir slot
  uint64_t candidate = 0;  // 0-based index among sampled candidates
  std::vector<TraceHop> hops;
  bool complete = false;  // EndTrace reached (packet left the data path)
};

struct TracerConfig {
  uint32_t sample_every = 64;  // sample 1 of N trace starts (>= 1)
  size_t max_traces = 1024;    // reservoir capacity
  uint64_t seed = 1;           // sampling offset + reservoir coin
};

// Mean/min/max latency between a consecutive pair of hop points, across
// all completed traces. `wait` aggregates the destination hop's queueing
// wait over the same pairs, so residency = wait + service is recoverable.
struct HopLatency {
  std::string from;
  std::string to;
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double wait_sum = 0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  double mean_wait() const {
    return count ? wait_sum / static_cast<double>(count) : 0.0;
  }
};

class PathTracer {
 public:
  explicit PathTracer(const TracerConfig& config);

  // Sampling decision + first hop. Returns a handle > 0 when this packet
  // is sampled, 0 otherwise (callers store the handle on the packet).
  uint64_t StartTrace(ScopeId point, double t);

  // Appends a hop to a sampled packet's trace. handle == 0 is a no-op.
  void Record(uint64_t handle, ScopeId point, double t, double wait = 0);

  // Final hop; marks the trace complete.
  void EndTrace(uint64_t handle, ScopeId point, double t, double wait = 0);

  // Terminal hop for a packet that left the path abnormally (drop): the
  // hop is recorded but the trace stays incomplete, so it is excluded from
  // hop-latency aggregates while remaining visible in the raw trace dump.
  void Abandon(uint64_t handle, ScopeId point, double t);

  // String-keyed conveniences (cold callers, tests): intern then forward.
  uint64_t StartTrace(const std::string& point, double t);
  void Record(uint64_t handle, const std::string& point, double t, double wait = 0);
  void EndTrace(uint64_t handle, const std::string& point, double t, double wait = 0);
  void Abandon(uint64_t handle, const std::string& point, double t);

  uint64_t started() const { return started_.load(std::memory_order_relaxed); }
  // Traces currently held in the reservoir.
  uint64_t sampled() const;
  // 1-in-N candidates seen so far (reservoir admissions + rejections).
  uint64_t candidates() const {
    return next_candidate_.load(std::memory_order_relaxed);
  }
  // The configuration the tracer was built with; sample_every may have
  // been live-tuned since (see sample_every()).
  const TracerConfig& config() const { return config_; }

  // Live sampling rate: 1-in-N trace starts are sampled. Writable at
  // runtime (control-socket handler) — the sampling offset is re-derived
  // from the seed, and in-flight traces are unaffected.
  uint32_t sample_every() const { return sample_every_.load(std::memory_order_relaxed); }
  void set_sample_every(uint32_t n);

  // Tracer introspection handlers (DESIGN.md §13): reads
  // `tracer.started`/`tracer.sampled`/`tracer.candidates`/
  // `tracer.max_traces`, read-write `tracer.sample_every`. The tracer must
  // outlive `handlers`.
  void AddHandlers(HandlerRegistry* handlers);

  // --- read side (call after the data path has quiesced) ---

  // All traces currently held, in reservoir-slot order (NOT sampling
  // order: replacement means slot order carries no time ordering).
  std::vector<PacketTrace> Traces() const;

  // Per-(from, to) hop-pair latency stats over completed traces.
  std::vector<HopLatency> HopLatencies() const;

  // One histogram over every consecutive-hop latency in every completed
  // trace (range picked from the observed spread).
  HistogramSnapshot HopLatencyHistogram(size_t buckets = 64) const;

 private:
  struct Slot {
    PacketTrace trace;
    std::atomic<uint32_t> gen{0};      // bumped on (re)claim
    mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;
  };

  // handle = (gen << 32) | (slot + 1); 0 = unsampled.
  static uint64_t MakeHandle(uint32_t gen, size_t slot) {
    return (static_cast<uint64_t>(gen) << 32) | (slot + 1);
  }
  // Decodes + locks the slot iff the generation still matches; returns
  // nullptr (unlocked) for stale or out-of-range handles.
  Slot* LockSlot(uint64_t handle);
  void Unlock(Slot* s) { s->lock.clear(std::memory_order_release); }

  TracerConfig config_;
  // Live-tunable sampling knobs, read (relaxed) by every StartTrace.
  std::atomic<uint32_t> sample_every_{1};
  std::atomic<uint64_t> sample_offset_{0};
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> next_candidate_{0};
  std::unique_ptr<Slot[]> slots_;  // [max_traces]
};

}  // namespace telemetry
}  // namespace rb

#endif  // RB_TELEMETRY_TRACE_HPP_
