#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "click/elements/from_device.hpp"
#include "click/elements/nat.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "click/router.hpp"
#include "click/scheduler.hpp"
#include "packet/pool.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::HistogramOptions;
using telemetry::HistogramSnapshot;
using telemetry::MetricRegistry;
using telemetry::ShardedHistogram;

TEST(CounterTest, SumsAcrossCoreShards) {
  Counter c;
  for (int core = 0; core < 5; ++core) {
    telemetry::SetThisCore(core);
    c.Add(static_cast<uint64_t>(core) + 1);
  }
  telemetry::SetThisCore(0);
  EXPECT_EQ(c.Value(), 1u + 2 + 3 + 4 + 5);
}

TEST(CounterTest, CoreIdsBeyondShardCountWrapCorrectly) {
  Counter c;
  telemetry::SetThisCore(telemetry::kMaxShards + 3);
  c.Add(7);
  telemetry::SetThisCore(3);
  c.Add(5);
  telemetry::SetThisCore(0);
  EXPECT_EQ(c.Value(), 12u);
}

TEST(CounterTest, ConcurrentWritersAndReaderAggregateExactly) {
  // One writer thread per "core" plus a concurrent reader: the sharded
  // slots make writes contention-free and the whole dance TSan-clean.
  Counter c;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load()) {
      uint64_t v = c.Value();
      ASSERT_GE(v, last);  // monotone under concurrent writes
      last = v;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&c, w] {
      telemetry::SetThisCore(w);
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        c.Inc();
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(c.Value(), kWriters * kPerWriter);
}

TEST(GaugeTest, SetAndUpdateMax) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.UpdateMax(1.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.UpdateMax(9.0);
  EXPECT_DOUBLE_EQ(g.Value(), 9.0);
}

TEST(ShardedHistogramTest, SnapshotMergesShardsAndClipsLikeHistogram) {
  ShardedHistogram h(HistogramOptions{0.0, 10.0, 10});
  telemetry::SetThisCore(0);
  for (int i = 0; i < 50; ++i) {
    h.Observe(2.5);
  }
  telemetry::SetThisCore(1);
  for (int i = 0; i < 50; ++i) {
    h.Observe(7.5);
  }
  h.Observe(-3.0);   // underflow
  h.Observe(100.0);  // overflow
  telemetry::SetThisCore(0);

  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 102u);
  EXPECT_EQ(s.underflow, 1u);
  EXPECT_EQ(s.overflow, 1u);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean(), (50 * 2.5 + 50 * 7.5 - 3.0 + 100.0) / 102.0, 1e-9);
  // Clipped ranks report observed extremes (same semantics as
  // rb::Histogram::Percentile).
  EXPECT_DOUBLE_EQ(s.Percentile(0), -3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  double p50 = s.Percentile(50);
  EXPECT_GT(p50, 2.0);
  EXPECT_LT(p50, 8.0);
}

TEST(MetricRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricRegistry r;
  Counter* a = r.GetCounter("x/packets");
  Counter* b = r.GetCounter("x/packets");
  EXPECT_EQ(a, b);
  EXPECT_NE(r.GetCounter("y/packets"), a);
  ShardedHistogram* h = r.GetHistogram("lat", HistogramOptions{0, 1, 8});
  EXPECT_EQ(r.GetHistogram("lat", HistogramOptions{0, 99, 2}), h);
  EXPECT_DOUBLE_EQ(h->options().hi, 1.0);  // first-creation options win
}

TEST(MetricRegistryTest, SnapshotIsSortedAndComplete) {
  MetricRegistry r;
  r.GetCounter("b")->Add(2);
  r.GetCounter("a")->Add(1);
  r.GetGauge("g")->Set(3.5);
  r.GetHistogram("h", HistogramOptions{0, 1, 4})->Observe(0.5);
  telemetry::RegistrySnapshot s = r.Snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a");
  EXPECT_EQ(s.counters[1].first, "b");
  EXPECT_EQ(s.CounterValue("b"), 2u);
  EXPECT_EQ(s.CounterValue("absent"), 0u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 3.5);
  ASSERT_NE(s.FindHistogram("h"), nullptr);
  EXPECT_EQ(s.FindHistogram("h")->count, 1u);
  EXPECT_EQ(s.FindHistogram("absent"), nullptr);
}

TEST(MetricRegistryTest, ReadersAreEvaluatedAtSnapshotAndSortedAmongPushed) {
  MetricRegistry r;
  uint64_t owned = 5;
  double level = 0.25;
  r.GetCounter("b")->Add(2);
  r.GetCounter("d")->Add(4);
  r.AddCounterReader("a", [] { return uint64_t{1}; });
  r.AddCounterReader("c", [&owned] { return owned; });
  r.AddCounterReader("e", [] { return uint64_t{6}; });
  r.GetGauge("g/pushed")->Set(1.5);
  r.AddGaugeReader("g/read", [&level] { return level; });
  r.AddGaugeReader("a/read", [] { return 9.0; });

  telemetry::RegistrySnapshot s = r.Snapshot();
  std::vector<std::pair<std::string, uint64_t>> want_counters = {
      {"a", 1}, {"b", 2}, {"c", 5}, {"d", 4}, {"e", 6}};
  EXPECT_EQ(s.counters, want_counters);
  std::vector<std::pair<std::string, double>> want_gauges = {
      {"a/read", 9.0}, {"g/pushed", 1.5}, {"g/read", 0.25}};
  EXPECT_EQ(s.gauges, want_gauges);

  // A reader has no copy of its own: the next snapshot reads the owner.
  owned = 50;
  level = 0.75;
  s = r.Snapshot();
  EXPECT_EQ(s.CounterValue("c"), 50u);
  EXPECT_DOUBLE_EQ(s.GaugeValue("g/read"), 0.75);
}

TEST(MetricRegistryDeathTest, OneSourcePerName) {
  auto zero = [] { return uint64_t{0}; };
  auto none = [] { return 0.0; };
  EXPECT_DEATH(
      {
        MetricRegistry r;
        r.AddCounterReader("x", zero);
        r.AddCounterReader("x", zero);
      },
      "second reader for counter: x");
  EXPECT_DEATH(
      {
        MetricRegistry r;
        r.AddGaugeReader("x", none);
        r.AddGaugeReader("x", none);
      },
      "second reader for gauge: x");
  EXPECT_DEATH(
      {
        MetricRegistry r;
        r.GetCounter("x");
        r.AddCounterReader("x", zero);
      },
      "counter is pushed, not read: x");
  EXPECT_DEATH(
      {
        MetricRegistry r;
        r.AddCounterReader("x", zero);
        r.GetCounter("x");
      },
      "counter is read, not pushed: x");
  EXPECT_DEATH(
      {
        MetricRegistry r;
        r.GetGauge("x");
        r.AddGaugeReader("x", none);
      },
      "gauge is pushed, not read: x");
  EXPECT_DEATH(
      {
        MetricRegistry r;
        r.AddGaugeReader("x", none);
        r.GetGauge("x");
      },
      "gauge is read, not pushed: x");
}

FrameSpec Frame64(uint16_t port) {
  FrameSpec spec;
  spec.size = 64;
  spec.flow.src_ip = 100u + port;
  spec.flow.dst_ip = 200;
  spec.flow.src_port = port;
  spec.flow.protocol = 17;
  return spec;
}

// The acceptance test for the sharded design: element/task counters
// written from real ThreadScheduler worker threads (distinct cores), read
// concurrently by the core-0 sampler hook, aggregate to exact totals.
// Run under TSan to prove the lock-free claim.
TEST(MetricRegistryTest, AggregationAcrossSchedulerThreads) {
  PacketPool pool{1024};
  NicConfig cfg;
  cfg.num_rx_queues = 2;
  cfg.num_tx_queues = 2;
  cfg.kn = 1;
  NicPort in(cfg);
  NicPort out(cfg);
  MetricRegistry registry;
  Router router;
  FromDevice* from[2];
  for (uint16_t q = 0; q < 2; ++q) {
    from[q] = router.Add<FromDevice>(&in, q, 32, q);
    auto* queue = router.Add<QueueElement>(256);
    auto* to = router.Add<ToDevice>(&out, q, 32, q);
    router.Connect(from[q], 0, queue, 0);
    router.Connect(queue, 0, to, 0);
  }
  router.BindTelemetry(&registry, nullptr);
  router.Initialize();

  constexpr int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    in.Deliver(AllocFrame(Frame64(static_cast<uint16_t>(i % 2)), &pool), 0.0);
  }

  ThreadScheduler sched(&router, 2);
  std::atomic<uint64_t> sampler_calls{0};
  sched.SetSampler(
      [&] {
        // Concurrent reader racing the worker threads' writes.
        telemetry::RegistrySnapshot snap = registry.Snapshot();
        ASSERT_LE(snap.CounterValue("elem/" + from[0]->name() + "/packets_out"),
                  static_cast<uint64_t>(kPackets));
        sampler_calls.fetch_add(1);
      },
      64);
  sched.Start();
  // Core 0 samples only every 64 sweeps, so wait for a sample as well as
  // for the frames; the deadline only bounds a hung run.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((out.tx_counters().packets < kPackets || sampler_calls.load() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();

  ASSERT_EQ(out.tx_counters().packets, static_cast<uint64_t>(kPackets));
  EXPECT_GT(sampler_calls.load(), 0u);
  telemetry::RegistrySnapshot snap = registry.Snapshot();
  // RSS split the frames across the two queues; each FromDevice's counter
  // matches its queue's share and the shares cover every packet.
  uint64_t from_total = snap.CounterValue("elem/" + from[0]->name() + "/packets_out") +
                        snap.CounterValue("elem/" + from[1]->name() + "/packets_out");
  EXPECT_EQ(from_total, static_cast<uint64_t>(kPackets));
  // The task work readers report what the worker threads moved.
  uint64_t task_work = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("task/", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, "/work") == 0) {
      task_work += value;
    }
  }
  // Every packet is moved twice: FromDevice poll and ToDevice drain.
  EXPECT_EQ(task_work, static_cast<uint64_t>(2 * kPackets));

  Packet* burst[256];
  size_t n = out.DrainTx(burst, 256);
  for (size_t i = 0; i < n; ++i) {
    pool.Free(burst[i]);
  }
}

TEST(TelemetryTest, DisabledGateSkipsBinding) {
  // Every owner that registers readers when enabled — NIC port, element,
  // FromDevice, a CoDel Queue with a high watermark, Nat and its flow
  // table, tasks — registers none (and pushes nothing) when disabled.
  telemetry::SetEnabled(false);
  MetricRegistry registry;
  Router router;
  NicConfig cfg;
  NicPort nic(cfg);
  nic.BindTelemetry(&registry, "nic/");
  QueueOptions qopt;
  qopt.capacity = 16;
  qopt.hi_watermark = 8;
  qopt.aqm = AqmMode::kCoDel;
  auto* from = router.Add<FromDevice>(&nic, 0, 32, -1);
  auto* nat = router.Add<Nat>();
  auto* queue = router.Add<QueueElement>(qopt);
  auto* to = router.Add<ToDevice>(&nic, 0, 32, -1);
  router.Connect(from, 0, nat, 0);
  router.Connect(nat, 0, queue, 0);
  router.Connect(queue, 0, to, 0);
  router.BindTelemetry(&registry, nullptr);
  router.Initialize();
  telemetry::SetEnabled(true);
  telemetry::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

}  // namespace
}  // namespace rb
