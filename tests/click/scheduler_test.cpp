#include "click/scheduler.hpp"

#include <gtest/gtest.h>

#include "click/elements/from_device.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "packet/pool.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

FrameSpec Frame64(uint16_t port) {
  FrameSpec spec;
  spec.size = 64;
  spec.flow.src_ip = 100u + port;
  spec.flow.dst_ip = 200;
  spec.flow.src_port = port;
  spec.flow.protocol = 17;
  return spec;
}

struct TwoPortSetup {
  PacketPool pool{1024};
  NicConfig cfg;
  std::unique_ptr<NicPort> in;
  std::unique_ptr<NicPort> out;
  Router router;
  FromDevice* from[2];

  TwoPortSetup() {
    cfg.num_rx_queues = 2;
    cfg.num_tx_queues = 2;
    cfg.kn = 1;
    in = std::make_unique<NicPort>(cfg);
    out = std::make_unique<NicPort>(cfg);
    for (uint16_t q = 0; q < 2; ++q) {
      from[q] = router.Add<FromDevice>(in.get(), q, 32, q);
      auto* queue = router.Add<QueueElement>(256);
      auto* to = router.Add<ToDevice>(out.get(), q, 32, q);
      router.Connect(from[q], 0, queue, 0);
      router.Connect(queue, 0, to, 0);
    }
    router.Initialize();
  }
};

TEST(SchedulerTest, HomeCorePinningRespected) {
  TwoPortSetup setup;
  ThreadScheduler sched(&setup.router, 2);
  // Queue-q tasks must land on core q: 2 tasks per core (poll + drain).
  EXPECT_EQ(sched.core_tasks(0).size(), 2u);
  EXPECT_EQ(sched.core_tasks(1).size(), 2u);
  for (int core = 0; core < 2; ++core) {
    for (Task* t : sched.core_tasks(core)) {
      EXPECT_EQ(t->home_core(), core);
    }
  }
}

TEST(SchedulerTest, UnpinnedTasksRoundRobin) {
  Router r;
  NicConfig cfg;
  NicPort nic(cfg);
  for (int i = 0; i < 6; ++i) {
    auto* from = r.Add<FromDevice>(&nic, 0, 32, -1);
    auto* d = r.Add<Discard>();
    r.Connect(from, 0, d, 0);
  }
  r.Initialize();
  ThreadScheduler sched(&r, 3);
  for (int core = 0; core < 3; ++core) {
    EXPECT_EQ(sched.core_tasks(core).size(), 2u);
  }
}

TEST(SchedulerTest, RunInlineMovesPackets) {
  TwoPortSetup setup;
  ThreadScheduler sched(&setup.router, 2);
  for (int i = 0; i < 50; ++i) {
    setup.in->Deliver(AllocFrame(Frame64(i % 2), &setup.pool), 0.0);
  }
  sched.RunInline(10);
  EXPECT_EQ(setup.out->tx_counters().packets, 50u);
  Packet* burst[64];
  size_t n = setup.out->DrainTx(burst, 64);
  EXPECT_EQ(n, 50u);
  for (size_t i = 0; i < n; ++i) {
    setup.pool.Free(burst[i]);
  }
}

TEST(SchedulerTest, ThreadedRunForwardsEverything) {
  // Real threads exercise the SPSC handoff; on a single-vCPU host this
  // validates correctness, not speed.
  TwoPortSetup setup;
  for (int i = 0; i < 200; ++i) {
    setup.in->Deliver(AllocFrame(Frame64(i % 2), &setup.pool), 0.0);
  }
  ThreadScheduler sched(&setup.router, 2);
  sched.Start();
  // Wait for the workers to drain the input.
  for (int spin = 0; spin < 2000 && setup.out->tx_counters().packets < 200; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_EQ(setup.out->tx_counters().packets, 200u);
  Packet* burst[256];
  size_t n = setup.out->DrainTx(burst, 256);
  EXPECT_EQ(n, 200u);
  for (size_t i = 0; i < n; ++i) {
    setup.pool.Free(burst[i]);
  }
}

TEST(SchedulerDeathTest, DoubleStartAborts) {
  Router r;
  r.Initialize();
  ThreadScheduler sched(&r, 1);
  sched.Start();
  EXPECT_DEATH(sched.Start(), "already running");
  sched.Stop();
}

// --- task watchdog ---

double g_wd_now = 0;
double WdClock() { return g_wd_now; }

TEST(SchedulerTest, WatchdogDetectsStallAndRecovery) {
  TwoPortSetup setup;
  telemetry::MetricRegistry registry;
  setup.router.BindTelemetry(&registry, nullptr);
  ThreadScheduler sched(&setup.router, 2);
  g_wd_now = 0;
  WatchdogConfig wc;
  wc.max_stall_s = 1.0;
  wc.check_interval_s = 0.1;
  wc.clock = &WdClock;
  sched.EnableWatchdog(wc);
  ASSERT_TRUE(sched.watchdog_enabled());

  EXPECT_EQ(sched.WatchdogCheckNow(), 0u) << "fresh baseline: nothing is stalled yet";
  g_wd_now = 2.0;  // nothing ran for 2s > max_stall
  EXPECT_EQ(sched.WatchdogCheckNow(), 4u) << "all 4 tasks (2 poll + 2 drain) are starved";
  EXPECT_EQ(sched.watchdog_stall_events(), 4u);
  g_wd_now = 3.0;
  EXPECT_EQ(sched.WatchdogCheckNow(), 4u);
  EXPECT_EQ(sched.watchdog_stall_events(), 4u)
      << "stall events are edge-detected, not re-counted every check";

  // Recovery: one RunOnce per task counts as progress even with no
  // packets to move (the watchdog flags stuck/starved tasks, not idle
  // ones).
  for (int core = 0; core < 2; ++core) {
    for (Task* t : sched.core_tasks(core)) {
      t->RunOnce();
    }
  }
  g_wd_now = 3.5;
  EXPECT_EQ(sched.WatchdogCheckNow(), 0u);
  EXPECT_EQ(registry.Snapshot().CounterValue("sched/watchdog/stall_events"), 4u);
}

TEST(SchedulerTest, WatchdogThreadRunsAlongsideWorkers) {
  TwoPortSetup setup;
  telemetry::MetricRegistry registry;
  setup.router.BindTelemetry(&registry, nullptr);
  for (int i = 0; i < 50; ++i) {
    setup.in->Deliver(AllocFrame(Frame64(i % 2), &setup.pool), 0.0);
  }
  ThreadScheduler sched(&setup.router, 2);
  WatchdogConfig wc;
  wc.max_stall_s = 10.0;  // generous: busy workers must never trip it
  wc.check_interval_s = 1e-3;
  sched.EnableWatchdog(wc);
  sched.Start();
  for (int spin = 0; spin < 2000 && setup.out->tx_counters().packets < 50; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The monitor scans every millisecond; allow a loaded host 2 s for one.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (registry.Snapshot().CounterValue("sched/watchdog/checks") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_EQ(sched.watchdog_stall_events(), 0u);
  EXPECT_GT(registry.Snapshot().CounterValue("sched/watchdog/checks"), 0u)
      << "the monitor thread must have scanned at least once";
  Packet* burst[64];
  size_t n = setup.out->DrainTx(burst, 64);
  for (size_t i = 0; i < n; ++i) {
    setup.pool.Free(burst[i]);
  }
}

TEST(SchedulerTest, WatchdogStallDumpsFlightRecorder) {
  // Satellite of DESIGN.md §13: a watchdog stall must dump the flight
  // recorder (stderr + the configured file) before any fatal abort, so
  // the black box survives even when the process does not.
  TwoPortSetup setup;
  telemetry::SetThisCore(0);
  telemetry::FlightRecorder recorder(64);
  telemetry::FlightRecorder::Install(&recorder);
  telemetry::FrRecord(telemetry::FrEvent::kUser, telemetry::InternScopeName("pre_stall_marker"),
                      7);

  ThreadScheduler sched(&setup.router, 2);
  g_wd_now = 0;
  WatchdogConfig wc;
  wc.max_stall_s = 1.0;
  wc.clock = &WdClock;
  wc.flight_dump_path = ::testing::TempDir() + "wd_flight_dump.txt";
  sched.EnableWatchdog(wc);
  sched.WatchdogCheckNow();  // baseline
  g_wd_now = 5.0;
  EXPECT_EQ(sched.WatchdogCheckNow(), 4u);

  FILE* f = fopen(wc.flight_dump_path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "stall must write " << wc.flight_dump_path;
  char buf[4096] = {0};
  size_t n = fread(buf, 1, sizeof(buf) - 1, f);
  fclose(f);
  remove(wc.flight_dump_path.c_str());
  std::string dump(buf, n);
  EXPECT_NE(dump.find("where=pre_stall_marker"), std::string::npos)
      << "events from before the stall are the point of the black box";
  EXPECT_NE(dump.find("watchdog_stall"), std::string::npos)
      << "the stall itself is recorded before dumping";
  telemetry::FlightRecorder::Install(nullptr);
}

TEST(SchedulerDeathTest, WatchdogFatalModeAborts) {
  TwoPortSetup setup;
  ThreadScheduler sched(&setup.router, 2);
  g_wd_now = 100.0;
  WatchdogConfig wc;
  wc.max_stall_s = 0.5;
  wc.clock = &WdClock;
  wc.fatal = true;
  sched.EnableWatchdog(wc);
  g_wd_now = 101.0;
  EXPECT_DEATH(sched.WatchdogCheckNow(), "watchdog");
}

}  // namespace
}  // namespace rb
