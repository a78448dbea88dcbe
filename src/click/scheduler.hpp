// Static thread-to-core task scheduling (§4.2).
//
// RouteBricks' first rule — each network queue is accessed by a single
// core — is enforced structurally: every FromDevice/ToDevice task is bound
// to exactly one worker, and workers never steal tasks. The ThreadScheduler
// spawns one std::thread per "core", runs each worker's tasks round-robin
// in a polling loop (no blocking — Click polling mode), and stops on
// request.
//
// Workers are real threads and run in parallel on a host with enough
// cores. Their wall-clock scaling is not measured yet: the single-server
// graph shares one PacketPool, which is not thread-safe (DESIGN.md §2).
// What the functional tests exercise is the concurrency behaviour (SPSC
// ring handoff, per-queue single-writer discipline).
#ifndef RB_CLICK_SCHEDULER_HPP_
#define RB_CLICK_SCHEDULER_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "click/router.hpp"

namespace rb {

// Stuck-task / starvation detector. A task is "stalled" when its progress
// heartbeat (Task::progress, bumped on every RunOnce) has not moved for
// max_stall_s — which catches both a Run() that never returns and a task
// its worker never schedules. Non-fatal mode logs and counts; fatal mode
// RB_CHECK-aborts (tests run fatal so a hung pipeline fails loudly instead
// of timing out).
struct WatchdogConfig {
  double max_stall_s = 1.0;        // no-progress time before "stalled"
  double check_interval_s = 0.05;  // monitor thread scan period
  bool fatal = false;              // abort on the first stalled task
  // Injectable clock (seconds); nullptr = telemetry::NowSeconds. Tests
  // drive a fake clock and call WatchdogCheckNow() inline.
  double (*clock)() = nullptr;
  // Where the flight-recorder dump lands when a stall is detected (in
  // addition to stderr). Empty = stderr only. Only used when a
  // FlightRecorder is installed.
  std::string flight_dump_path;
};

class ThreadScheduler {
 public:
  // Distributes the router's tasks across `num_cores` workers: tasks with
  // home_core >= 0 go to (home_core % num_cores); the rest round-robin.
  ThreadScheduler(Router* router, int num_cores);

  // Spawns the workers. Each runs its task list in a tight polling loop.
  void Start();

  // Signals stop and joins all workers.
  void Stop();

  // Runs all workers' tasks inline (no threads) for `sweeps` rounds —
  // deterministic mode with the same task partitioning.
  void RunInline(size_t sweeps);

  // Telemetry sampler hook: `fn` runs on worker 0 every `every_sweeps`
  // polling sweeps (and at matching strides in RunInline), e.g. to probe
  // queue depths into gauges or snapshot the registry periodically. `fn`
  // runs concurrently with the other workers, so it must only touch
  // thread-safe state (registry metrics are). Set before Start().
  void SetSampler(std::function<void()> fn, uint64_t every_sweeps);

  // Arms the watchdog over every task the scheduler owns. Call before
  // Start(); Start() then spawns a monitor thread scanning at
  // check_interval_s. Telemetry (when the router has a bound registry):
  // "sched/watchdog/checks", "sched/watchdog/stall_events" (transitions
  // into stalled) and "sched/watchdog/max_stall_s" (worst observed
  // no-progress gap).
  void EnableWatchdog(const WatchdogConfig& config);

  // One watchdog scan, callable inline (no monitor thread needed) —
  // deterministic-test entry point. Returns the number of tasks currently
  // stalled. Safe only when the monitor thread is not running.
  size_t WatchdogCheckNow();

  uint64_t watchdog_stall_events() const {
    return wd_stall_events_.load(std::memory_order_relaxed);
  }
  bool watchdog_enabled() const { return wd_enabled_; }

  // Scheduler introspection handlers (DESIGN.md §13): reads `sched.cores`,
  // `sched.running`, `sched.watchdog_stalls`. The scheduler must outlive
  // `handlers`.
  void AddHandlers(telemetry::HandlerRegistry* handlers);

  int num_cores() const { return static_cast<int>(per_core_.size()); }
  const std::vector<Task*>& core_tasks(int core) const {
    return per_core_[static_cast<size_t>(core)];
  }

  ~ThreadScheduler();

 private:
  struct WatchedTask {
    Task* task = nullptr;
    uint64_t last_progress = 0;
    double last_change = 0;  // clock time of the last progress change
    bool stalled = false;    // currently past max_stall (edge-detected)
  };

  void WorkerLoop(int core);
  void WatchdogLoop();
  double WatchdogNow() const;

  Router* router_;
  std::vector<std::vector<Task*>> per_core_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::function<void()> sampler_;
  uint64_t sampler_every_ = 0;  // 0 = no sampler

  bool wd_enabled_ = false;
  WatchdogConfig wd_cfg_;
  std::vector<WatchedTask> wd_tasks_;
  std::thread wd_thread_;
  // Relaxed atomic: written by the monitor thread, read live by
  // control-socket handlers.
  std::atomic<uint64_t> wd_stall_events_{0};
  telemetry::Counter* wd_tele_checks_ = nullptr;
  telemetry::Counter* wd_tele_stalls_ = nullptr;
  telemetry::Gauge* wd_tele_max_stall_ = nullptr;
};

}  // namespace rb

#endif  // RB_CLICK_SCHEDULER_HPP_
