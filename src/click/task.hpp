// A schedulable unit of work: one polling loop iteration of an element
// (FromDevice poll, ToDevice drain). Tasks are created by elements during
// Initialize and statically assigned to worker threads ("cores") by the
// ThreadScheduler — the paper's static thread-to-core assignment (§4.2).
#ifndef RB_CLICK_TASK_HPP_
#define RB_CLICK_TASK_HPP_

#include <atomic>
#include <cstdint>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace rb {

class Element;

class Task {
 public:
  // `home_core` is a hint for the scheduler (-1 = any core).
  Task(Element* element, int home_core = -1);
  virtual ~Task() = default;

  // Runs one iteration; returns the number of packets moved (0 = idle).
  virtual size_t Run() = 0;

  Element* element() const { return element_; }
  int home_core() const { return home_core_; }
  void set_home_core(int core) { home_core_ = core; }

  // Scheduling-progress heartbeat for the watchdog, and the task's run
  // count: bumped on every RunOnce, idle or not — a scheduled-but-idle
  // task is making progress, while a starved task (never scheduled) or
  // one stuck inside Run() is not. Relaxed: a stale read only delays
  // detection by one check interval.
  uint64_t progress() const { return progress_.load(std::memory_order_relaxed); }
  // Packets moved over all runs.
  uint64_t work() const { return work_.load(std::memory_order_relaxed); }

  // Registers readers of the run/work bookkeeping as "<base>/runs"
  // (progress()) and "<base>/work" (work()) — the cycles-proxy: polling
  // iterations and packets moved per task — and a "<base>/burst"
  // histogram observing the batch size of every non-idle run, the
  // distribution of poll/drain bursts. The task must outlive every
  // snapshot of `registry`.
  void BindTelemetry(telemetry::MetricRegistry* registry, const std::string& base);

  // Bookkeeping wrapper used by schedulers.
  size_t RunOnce() {
    size_t n;
    {
      // Top-level cycle scope: one per polling task ("task/<element>"),
      // the pipeline roots of the profiler's hierarchy.
      RB_PROF_SCOPE(prof_scope_);
      n = Run();
      RB_PROF_WORK(n, 0);
    }
    progress_.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      // One writer (the task's core): a plain add, published relaxed.
      work_.store(work() + n, std::memory_order_relaxed);
      if (tele_burst_ != nullptr) {
        tele_burst_->Observe(static_cast<double>(n));
      }
    }
    return n;
  }

 private:
  Element* element_;
  int home_core_;
  telemetry::ScopeId prof_scope_ = telemetry::kInvalidScope;
  std::atomic<uint64_t> progress_{0};
  std::atomic<uint64_t> work_{0};
  telemetry::ShardedHistogram* tele_burst_ = nullptr;
};

}  // namespace rb

#endif  // RB_CLICK_TASK_HPP_
