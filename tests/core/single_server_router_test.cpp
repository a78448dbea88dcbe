#include "core/single_server_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "click/elements/from_device.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "click/scheduler.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "packet/headers.hpp"
#include "workload/injector.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

SingleServerConfig SmallConfig(App app) {
  SingleServerConfig cfg;
  cfg.num_ports = 4;
  cfg.queues_per_port = 4;
  cfg.cores = 4;
  cfg.app = app;
  cfg.pool_packets = 8192;
  cfg.table.num_routes = 5000;  // scaled table for test speed
  return cfg;
}

size_t DrainAll(SingleServerRouter* router, std::vector<uint64_t>* per_port = nullptr) {
  size_t total = 0;
  Packet* burst[64];
  for (int p = 0; p < router->config().num_ports; ++p) {
    size_t port_total = 0;
    size_t n;
    while ((n = router->DrainPort(p, burst, std::size(burst))) > 0) {
      for (size_t i = 0; i < n; ++i) {
        router->pool().Free(burst[i]);
      }
      port_total += n;
    }
    if (per_port != nullptr) {
      per_port->push_back(port_total);
    }
    total += port_total;
  }
  return total;
}

TEST(SingleServerTest, MinimalForwardingMovesEverything) {
  SingleServerRouter router(SmallConfig(App::kMinimalForwarding));
  router.Initialize();
  SyntheticConfig gen_cfg;
  gen_cfg.packet_size = 64;
  gen_cfg.random_dst = false;
  SyntheticGenerator gen(gen_cfg);
  const int kPackets = 500;
  for (int i = 0; i < kPackets; ++i) {
    Packet* p = AllocFrame(gen.Next(), &router.pool());
    ASSERT_NE(p, nullptr);
    router.DeliverFrame(i % 4, p, 0.0);
  }
  router.RunUntilIdle();
  std::vector<uint64_t> per_port;
  EXPECT_EQ(DrainAll(&router, &per_port), static_cast<size_t>(kPackets));
  // Port i forwards to port (i+1) % 4; inputs were uniform, so outputs are.
  for (uint64_t count : per_port) {
    EXPECT_EQ(count, static_cast<uint64_t>(kPackets) / 4);
  }
}

TEST(SingleServerTest, BulkInjectedBatchForwardsEndToEnd) {
  // The zero-copy injection path: AllocBulk -> template fill ->
  // DeliverBatch, then everything forwards exactly as per-packet delivery
  // would.
  SingleServerRouter router(SmallConfig(App::kMinimalForwarding));
  router.Initialize();
  InjectorConfig inj_cfg;
  inj_cfg.synthetic.packet_size = 64;
  BulkInjector injector(inj_cfg, &router.pool());
  const uint32_t kBurst = 125;
  size_t forwarded = 0;
  for (int port = 0; port < 4; ++port) {
    PacketBatch batch;
    ASSERT_EQ(injector.NextBurst(kBurst, &batch), kBurst);
    router.DeliverBatch(port, &batch, 0.0);
    EXPECT_TRUE(batch.empty());
  }
  router.RunUntilIdle();
  forwarded = DrainAll(&router);
  EXPECT_EQ(forwarded, static_cast<size_t>(4 * kBurst));
  EXPECT_EQ(injector.pool_exhausted(), 0u);
  EXPECT_EQ(router.pool().available(), router.pool().capacity());
}

TEST(SingleServerTest, PoolHandlersExposeOccupancy) {
  SingleServerRouter router(SmallConfig(App::kMinimalForwarding));
  router.Initialize();
  telemetry::HandlerRegistry handlers;
  router.AddHandlers(&handlers);
  EXPECT_EQ(handlers.Read("pool.capacity").text, std::to_string(router.pool().capacity()));
  EXPECT_EQ(handlers.Read("pool.in_use").text, "0");
  Packet* p = router.pool().Alloc();
  EXPECT_EQ(handlers.Read("pool.in_use").text, "1");
  EXPECT_EQ(handlers.Read("pool.available").text,
            std::to_string(router.pool().capacity() - 1));
  router.pool().Free(p);
  // Exhaust the pool: alloc_failures must show through the handler plane.
  std::vector<Packet*> all(router.pool().capacity() + 3);
  size_t got = router.pool().AllocBulk(all.data(), all.size());
  EXPECT_EQ(got, router.pool().capacity());
  EXPECT_EQ(handlers.Read("pool.alloc_failures").text, "3");
  EXPECT_EQ(handlers.Read("pool.available").text, "0");
  router.pool().FreeBulk(all.data(), got);
}

TEST(SingleServerTest, IpRoutingFollowsTable) {
  SingleServerRouter router(SmallConfig(App::kIpRouting));
  router.Initialize();
  // Pick destinations straight from the table so every packet routes.
  const LpmTable& table = router.table();
  SyntheticConfig gen_cfg;
  gen_cfg.random_dst = true;
  gen_cfg.seed = 3;
  SyntheticGenerator gen(gen_cfg);
  int delivered_in = 0;
  for (int i = 0; i < 2000; ++i) {
    FrameSpec spec = gen.Next();
    if (table.Lookup(spec.flow.dst_ip) == LpmTable::kNoRoute) {
      continue;  // only inject routable packets for this test
    }
    Packet* p = AllocFrame(spec, &router.pool());
    ASSERT_NE(p, nullptr);
    router.DeliverFrame(i % 4, p, 0.0);
    delivered_in++;
  }
  ASSERT_GT(delivered_in, 40);  // ~1.5% of random addresses hit a 8K-route table
  router.RunUntilIdle();
  EXPECT_EQ(DrainAll(&router), static_cast<size_t>(delivered_in));
}

TEST(SingleServerTest, IpRoutingDropsUnroutable) {
  SingleServerConfig cfg = SmallConfig(App::kIpRouting);
  cfg.table.num_routes = 10;  // nearly empty table
  SingleServerRouter router(cfg);
  router.Initialize();
  FrameSpec spec;
  spec.size = 64;
  spec.flow.dst_ip = 0x01010101;  // 1.1.1.1: not in a 10-route table
  if (router.table().Lookup(spec.flow.dst_ip) != LpmTable::kNoRoute) {
    GTEST_SKIP() << "random table happened to cover the probe address";
  }
  Packet* p = AllocFrame(spec, &router.pool());
  router.DeliverFrame(0, p, 0.0);
  router.RunUntilIdle();
  EXPECT_EQ(DrainAll(&router), 0u);
  EXPECT_EQ(router.pool().available(), router.pool().capacity());
}

TEST(SingleServerTest, RoutedPacketsHaveDecrementedTtl) {
  SingleServerRouter router(SmallConfig(App::kIpRouting));
  router.Initialize();
  FrameSpec spec;
  spec.size = 64;
  // Find a routable address.
  spec.flow.dst_ip = 0;
  for (uint64_t probe = 1; probe < 1u << 24; probe += 7919) {
    uint32_t addr = static_cast<uint32_t>(probe * 251);
    if (router.table().Lookup(addr) != LpmTable::kNoRoute) {
      spec.flow.dst_ip = addr;
      break;
    }
  }
  ASSERT_NE(spec.flow.dst_ip, 0u);
  Packet* p = AllocFrame(spec, &router.pool());
  router.DeliverFrame(0, p, 0.0);
  router.RunUntilIdle();
  Packet* burst[4];
  Packet* out = nullptr;
  for (int port = 0; port < 4 && out == nullptr; ++port) {
    if (router.DrainPort(port, burst, 4) == 1) {
      out = burst[0];
    }
  }
  ASSERT_NE(out, nullptr);
  Ipv4View ip{out->data() + EthernetView::kSize};
  EXPECT_EQ(ip.ttl(), 63);
  EXPECT_TRUE(ip.ChecksumOk());
  router.pool().Free(out);
}

TEST(SingleServerTest, IpsecOutputIsEspAndBigger) {
  SingleServerRouter router(SmallConfig(App::kIpsec));
  router.Initialize();
  FrameSpec spec;
  spec.size = 128;
  spec.flow.dst_ip = 0x0a0a0a0a;
  Packet* p = AllocFrame(spec, &router.pool());
  router.DeliverFrame(2, p, 0.0);
  router.RunUntilIdle();
  Packet* burst[4];
  // IPsec app forwards port 2 -> port 3.
  ASSERT_EQ(router.DrainPort(3, burst, 4), 1u);
  EXPECT_GT(burst[0]->length(), 128u);
  Ipv4View outer{burst[0]->data() + EthernetView::kSize};
  EXPECT_EQ(outer.protocol(), Ipv4View::kProtoEsp);
  router.pool().Free(burst[0]);
}

TEST(SingleServerTest, QueuePerCoreRuleHolds) {
  // The graph must register one polling task per (port, queue): the §4.2
  // one-core-per-queue discipline.
  SingleServerConfig cfg = SmallConfig(App::kMinimalForwarding);
  SingleServerRouter router(cfg);
  router.Initialize();
  size_t from_tasks = 0;
  for (const auto& task : router.graph().tasks()) {
    if (std::string(task->element()->class_name()) == "FromDevice") {
      from_tasks++;
      EXPECT_GE(task->home_core(), 0);
    }
  }
  EXPECT_EQ(from_tasks, static_cast<size_t>(cfg.num_ports * cfg.queues_per_port));
}

// Every ToDevice reachable from `e` along push edges.
void CollectToDevices(Element* e, std::set<ToDevice*>* out) {
  if (auto* to = dynamic_cast<ToDevice*>(e)) {
    out->insert(to);
    return;
  }
  for (int o = 0; o < e->n_outputs(); ++o) {
    if (Element* next = e->output_peer(o)) {
      CollectToDevices(next, out);
    }
  }
}

TEST(SingleServerTest, DefaultGraphRunsToCompletion) {
  // §4.2's two rules as graph structure, for P ports x Q queues x C cores:
  // the only tasks are the P·Q FromDevice polls (queue q on core q % C),
  // no Queue sits anywhere, and each (tx queue q, output port) has one
  // push ToDevice that only chains on core q % C push into.
  struct Shape {
    int ports, queues, cores;
  };
  for (App app : {App::kMinimalForwarding, App::kIpRouting, App::kIpsec}) {
    for (Shape s : {Shape{2, 1, 1}, Shape{2, 2, 2}, Shape{3, 4, 2}, Shape{4, 8, 4}}) {
      SCOPED_TRACE(Format("%s P=%d Q=%d C=%d", AppName(app), s.ports, s.queues, s.cores));
      SingleServerConfig cfg;
      cfg.num_ports = s.ports;
      cfg.queues_per_port = s.queues;
      cfg.cores = s.cores;
      cfg.app = app;
      cfg.pool_packets = 1024;
      cfg.table.num_routes = 1024;
      cfg.compile_programs = s.queues % 2 == 0;  // the rewired graph too
      SingleServerRouter router(cfg);
      router.Initialize();
      const size_t chains = static_cast<size_t>(s.ports * s.queues);

      EXPECT_EQ(router.graph().tasks().size(), chains);
      std::map<ToDevice*, std::set<int>> pusher_cores;
      for (const auto& task : router.graph().tasks()) {
        auto* from = dynamic_cast<FromDevice*>(task->element());
        ASSERT_NE(from, nullptr) << "a task that is not a FromDevice poll";
        EXPECT_EQ(task->home_core(), from->driver().rx_queue() % s.cores);
        std::set<ToDevice*> reached;
        CollectToDevices(from, &reached);
        EXPECT_FALSE(reached.empty());
        for (ToDevice* to : reached) {
          pusher_cores[to].insert(task->home_core());
        }
      }

      size_t to_devices = 0;
      std::set<std::pair<NicPort*, uint16_t>> tx_rings;
      for (const auto& e : router.graph().elements()) {
        EXPECT_EQ(dynamic_cast<QueueElement*>(e.get()), nullptr) << e->name();
        auto* to = dynamic_cast<ToDevice*>(e.get());
        if (to == nullptr) {
          continue;
        }
        to_devices++;
        EXPECT_TRUE(tx_rings.insert({to->port(), to->tx_queue()}).second)
            << "two ToDevices write one tx ring";
        EXPECT_EQ(pusher_cores[to], std::set<int>{to->tx_queue() % s.cores}) << to->name();
      }
      EXPECT_EQ(to_devices, chains);
    }
  }
}

TEST(SingleServerTest, ConcurrentRunToCompletionReturnsEveryPacket) {
  // The default graph on real worker threads: 2 ports x 2 queues x 2
  // cores, each core polling its queue on both ports and transmitting
  // into its own tx queue. A fixed set of packets circulates feeder ->
  // rx ring -> chain -> tx ring -> feeder; the pool is only touched
  // before Start and after Stop (it is per-core in real deployments).
  SingleServerConfig cfg;
  cfg.num_ports = 2;
  cfg.queues_per_port = 2;
  cfg.cores = 2;
  cfg.kn = 1;  // commit each delivery at once: no staged descriptors to flush
  cfg.app = App::kMinimalForwarding;
  cfg.pool_packets = 1024;
  telemetry::MetricRegistry registry;
  SingleServerRouter router(cfg);
  router.EnableTelemetry(&registry);
  router.Initialize();

  constexpr int kInFlight = 64;
  constexpr uint64_t kDeliveries = 200 * kInFlight;
  std::set<Packet*> seed;
  for (uint32_t i = 0; i < kInFlight; ++i) {
    FrameSpec spec;
    spec.size = 64;
    spec.flow.src_ip = 0x0a000001u + i;
    spec.flow.dst_ip = 0xc0a80001u;
    spec.flow.src_port = static_cast<uint16_t>(1024 + i);
    spec.flow.protocol = 17;
    Packet* p = AllocFrame(spec, &router.pool());
    ASSERT_NE(p, nullptr);
    seed.insert(p);
  }

  ThreadScheduler sched(&router.graph(), cfg.cores);
  sched.Start();
  uint64_t delivered = 0;
  std::vector<Packet*> returned;
  std::thread feeder([&] {
    int port = 0;
    for (Packet* p : seed) {
      router.DeliverFrame(port, p, 0.0);
      port ^= 1;
      delivered++;
    }
    // Each frame that leaves a port re-enters on it, so it keeps
    // alternating between the two ports until the feeder stops.
    Packet* burst[kInFlight];
    uint64_t drained = 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (drained < delivered && std::chrono::steady_clock::now() < deadline) {
      for (int out = 0; out < cfg.num_ports; ++out) {
        size_t n = router.DrainPort(out, burst, kInFlight);
        drained += n;
        for (size_t k = 0; k < n; ++k) {
          if (delivered < kDeliveries) {
            router.DeliverFrame(out, burst[k], 0.0);
            delivered++;
          } else {
            returned.push_back(burst[k]);
          }
        }
      }
      std::this_thread::yield();
    }
  });
  feeder.join();
  sched.Stop();

  EXPECT_EQ(delivered, kDeliveries);
  EXPECT_EQ(std::set<Packet*>(returned.begin(), returned.end()), seed)
      << "every packet comes back out, exactly once";
  EXPECT_EQ(returned.size(), seed.size());
  for (const auto& task : router.graph().tasks()) {
    EXPECT_GT(task->work(), 0u) << task->element()->name() << " never moved a packet";
  }
  EXPECT_EQ(router.total_rx_packets(), delivered);
  EXPECT_EQ(router.total_tx_packets(), delivered);
  for (Packet* p : returned) {
    router.pool().Free(p);
  }
  EXPECT_EQ(router.pool().available(), router.pool().capacity());
}

TEST(SingleServerTest, ConcurrentBurstDeliveryReturnsEveryPacket) {
  // The burst delivery pass against live workers: the default graph on
  // 2 ports x 2 queues x 2 cores with kn 16. A feeder hands bursts of
  // 1-64 frames to DeliverBatch (one staging pass over several rx queues,
  // kn-group ring publishes), flushes the port's staged remainder after
  // each burst, and recirculates every frame it drains; the workers poll
  // and transmit concurrently. Under TSan (CI's *Concurrent* filter) this
  // covers the staged groups' hand-off through the rx rings.
  SingleServerConfig cfg;
  cfg.num_ports = 2;
  cfg.queues_per_port = 2;
  cfg.cores = 2;
  cfg.kn = 16;
  cfg.app = App::kMinimalForwarding;
  cfg.pool_packets = 1024;
  SingleServerRouter router(cfg);
  router.Initialize();

  constexpr uint32_t kInFlight = 128;
  constexpr uint64_t kDeliveries = 100 * kInFlight;
  std::set<Packet*> seed;
  std::vector<Packet*> pending;
  for (uint32_t i = 0; i < kInFlight; ++i) {
    FrameSpec spec;
    spec.size = 64;
    spec.flow.src_ip = 0x0a000001u + i;
    spec.flow.dst_ip = 0xc0a80001u;
    spec.flow.src_port = static_cast<uint16_t>(1024 + i);
    spec.flow.protocol = 17;
    Packet* p = AllocFrame(spec, &router.pool());
    ASSERT_NE(p, nullptr);
    seed.insert(p);
    pending.push_back(p);
  }

  ThreadScheduler sched(&router.graph(), cfg.cores);
  sched.Start();
  uint64_t delivered = 0;
  uint64_t drained = 0;
  std::thread feeder([&] {
    Rng rng(34);
    int port = 0;
    Packet* burst[kInFlight];
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (drained < kDeliveries && std::chrono::steady_clock::now() < deadline) {
      while (!pending.empty() && delivered < kDeliveries) {
        const size_t n = std::min<uint64_t>({rng.NextRange(1, 64), pending.size(),
                                             kDeliveries - delivered});
        PacketBatch batch;
        for (size_t k = pending.size() - n; k < pending.size(); ++k) {
          batch.PushBack(pending[k]);
        }
        pending.resize(pending.size() - n);
        router.DeliverBatch(port, &batch, 0.0);
        router.port(port).FlushAllStaged();
        delivered += n;
        port ^= 1;
      }
      for (int out = 0; out < cfg.num_ports; ++out) {
        const size_t n = router.DrainPort(out, burst, kInFlight);
        drained += n;
        pending.insert(pending.end(), burst, burst + n);
      }
      std::this_thread::yield();
    }
  });
  feeder.join();
  sched.Stop();
  // Once every delivery is made, what the feeder drains stays pending.
  const std::vector<Packet*> returned = std::move(pending);

  EXPECT_EQ(delivered, kDeliveries);
  EXPECT_EQ(drained, kDeliveries);
  EXPECT_EQ(std::set<Packet*>(returned.begin(), returned.end()), seed)
      << "every packet comes back out, exactly once";
  EXPECT_EQ(returned.size(), seed.size());
  uint64_t rx_drops = 0;
  for (int p = 0; p < cfg.num_ports; ++p) {
    rx_drops += router.port(p).rx_counters().drops.load();
  }
  EXPECT_EQ(rx_drops, 0u);
  EXPECT_EQ(router.total_rx_packets(), delivered);
  EXPECT_EQ(router.total_tx_packets(), delivered);
  router.pool().FreeBulk(returned.data(), returned.size());
  EXPECT_EQ(router.pool().available(), router.pool().capacity());
}

TEST(SingleServerDeathTest, InvalidConfigRejected) {
  SingleServerConfig cfg;
  cfg.num_ports = 0;
  EXPECT_DEATH(SingleServerRouter router(cfg), "port");
}

}  // namespace
}  // namespace rb
