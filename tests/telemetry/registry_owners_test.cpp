// Every registry counter and gauge is read from the one field that owns
// the fact (NIC port counters, element and queue counts, task progress,
// flow tables), so a snapshot must equal each owner's accessor or handler,
// and the registry must hold exactly the names the owners register under
// their usual conditions (drops/aqm only under CoDel, blocked_events only
// with a high watermark). The only pushed gauges are the ones no owner
// field holds: NIC ring high-water marks and latency-histogram tails.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "click/elements/flow_policer.hpp"
#include "click/elements/from_device.hpp"
#include "click/elements/nat.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "click/router.hpp"
#include "click/scheduler.hpp"
#include "common/strings.hpp"
#include "core/cluster_router.hpp"
#include "core/single_server_router.hpp"
#include "lookup/table_gen.hpp"
#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"
#include "workload/injector.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

uint64_t ReadU64(const telemetry::HandlerRegistry& handlers, const std::string& path) {
  const telemetry::HandlerResult r = handlers.Read(path);
  EXPECT_TRUE(r.ok) << path << ": " << r.text;
  return r.ok ? std::stoull(r.text) : 0;
}

// What each owner says, keyed by the registry name it registers under.
class OwnerCounts {
 public:
  void AddNic(const std::string& prefix, const NicPort& nic) {
    for (auto [dir, c] : {std::pair{"rx_", &nic.rx_counters()},
                          std::pair{"tx_", &nic.tx_counters()}}) {
      counters_[prefix + dir + "packets"] = c->packets.load();
      counters_[prefix + dir + "bytes"] = c->bytes.load();
      counters_[prefix + dir + "drops"] = c->drops.load();
    }
  }

  // Reads the graph's elements and tasks, through their handlers where
  // they have one and their accessors otherwise.
  void AddGraph(const std::string& prefix, Router& graph) {
    telemetry::HandlerRegistry handlers;
    graph.AddHandlers(&handlers);
    for (const auto& e : graph.elements()) {
      const std::string& name = e->name();
      const std::string base = prefix + "elem/" + name;
      counters_[base + "/packets_out"] = ReadU64(handlers, name + ".counts");
      counters_[base + "/drops"] = ReadU64(handlers, name + ".drops");
      if (dynamic_cast<FromDevice*>(e.get()) != nullptr) {
        counters_[base + "/throttled_polls"] = ReadU64(handlers, name + ".throttled_polls");
      } else if (auto* q = dynamic_cast<QueueElement*>(e.get())) {
        gauges_[base + "/occupancy_hw"] =
            static_cast<double>(ReadU64(handlers, name + ".highwater"));
        gauges_[base + "/wait_s"] = q->last_wait_s();
        counters_[base + "/drops/queue_overflow"] = q->overflow_drops();
        if (q->options().aqm == AqmMode::kCoDel) {
          counters_[base + "/drops/aqm"] = q->aqm_drops();
        }
        if (q->options().hi_watermark > 0) {
          counters_[base + "/blocked_events"] = q->blocked_events();
        }
      } else if (auto* nat = dynamic_cast<Nat*>(e.get())) {
        counters_[base + "/drops/flow_table_full"] = ReadU64(handlers, name + ".table_full");
        counters_[base + "/drops/no_mapping"] = ReadU64(handlers, name + ".no_mapping");
        counters_[base + "/drops/malformed"] = nat->malformed_drops();
        AddTable(prefix + "flow/" + name, handlers, name);
      } else if (auto* pol = dynamic_cast<FlowPolicer*>(e.get())) {
        counters_[base + "/drops/policed"] = ReadU64(handlers, name + ".policed");
        counters_[base + "/drops/not_established"] = ReadU64(handlers, name + ".not_established");
        counters_[base + "/drops/flow_table_full"] = pol->table_full_drops();
        counters_[base + "/drops/malformed"] = pol->malformed_drops();
        AddTable(prefix + "flow/" + name, handlers, name);
      } else if (auto* adm = dynamic_cast<VlbAdmission*>(e.get())) {
        counters_[base + "/drops/admission"] = adm->admission_drops();
      }
    }
    for (const auto& t : graph.tasks()) {
      const std::string base = prefix + "task/" + t->element()->name();
      counters_[base + "/runs"] = t->progress();
      counters_[base + "/work"] = t->work();
    }
  }

  // The snapshot holds exactly the owners' names, each at its owner's
  // value, plus only the gauges no owner field holds.
  void ExpectSnapshotMatches(const telemetry::RegistrySnapshot& snap) const {
    std::map<std::string, uint64_t> counters(snap.counters.begin(), snap.counters.end());
    std::map<std::string, double> gauges;
    for (const auto& [name, v] : snap.gauges) {
      if (!PushedGauge(name)) {
        gauges[name] = v;
      }
    }
    EXPECT_EQ(counters, counters_);
    EXPECT_EQ(gauges, gauges_);
  }

  uint64_t counter(const std::string& name) const { return counters_.at(name); }

 private:
  static bool PushedGauge(const std::string& name) {
    const bool ring_hw = name.find("nic/") != std::string::npos &&
                         name.ends_with("/occupancy_hw");
    const bool latency_tail = name.find("lat/") != std::string::npos;
    return ring_hw || latency_tail;
  }

  void AddTable(const std::string& base, const telemetry::HandlerRegistry& handlers,
                const std::string& owner) {
    for (const char* g : {"flows", "evictions", "replays", "insert_fail"}) {
      gauges_[base + "/" + g] = static_cast<double>(ReadU64(handlers, owner + "." + g));
    }
  }

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
};

// Snapshot() racing live ThreadScheduler workers through every reader
// kind: NIC port counters, element drops, FromDevice throttles, a CoDel
// Queue's high-water/wait/drop/blocked counts, Task runs/work and a Nat's
// flow-table gauges. Frames circulate feeder -> in -> FromDevice -> Nat ->
// Queue -> ToDevice -> out -> feeder while the main thread snapshots.
// Under TSan (CI's *Concurrent* filter) this shows every reader touches
// only what the hot path publishes through atomics; once the threads are
// joined, the registry equals its owners.
TEST(RegistryOwnersTest, ConcurrentSnapshotsRaceLiveWorkers) {
  PacketPool pool{256};
  NicConfig cfg;
  cfg.num_rx_queues = 2;
  cfg.num_tx_queues = 2;
  NicPort in(cfg);
  NicPort out(cfg);
  telemetry::MetricRegistry registry;
  in.BindTelemetry(&registry, "nic/in/");
  out.BindTelemetry(&registry, "nic/out/");
  Router router;
  QueueOptions qopt;
  qopt.capacity = 1024;
  qopt.hi_watermark = 768;
  qopt.aqm = AqmMode::kCoDel;
  qopt.codel_target_s = 10.0;  // stamps every packet, drops none
  NatOptions nopt;
  nopt.capacity = 256;  // every pass is a new flow: the table evicts
  for (uint16_t q = 0; q < 2; ++q) {
    router.Chain({router.Add<FromDevice>(&in, q, 32, q), router.Add<Nat>(nopt),
                  router.Add<QueueElement>(qopt), router.Add<ToDevice>(&out, q, 32, q)});
  }
  router.BindTelemetry(&registry, nullptr);
  router.Initialize();

  SyntheticGenerator gen(SyntheticConfig{});
  std::vector<Packet*> seed;
  for (int i = 0; i < 64; ++i) {
    Packet* p = AllocFrame(gen.Next(), &pool);
    ASSERT_NE(p, nullptr);
    seed.push_back(p);
  }
  ThreadScheduler sched(&router, 2);
  sched.Start();
  std::atomic<bool> feeding{true};
  std::thread feeder([&] {
    for (Packet* p : seed) {
      in.Deliver(p, 0.0);
    }
    Packet* burst[64];
    while (feeding.load(std::memory_order_acquire)) {
      const size_t n = out.DrainTx(burst, std::size(burst));
      for (size_t k = 0; k < n; ++k) {
        in.Deliver(burst[k], 0.0);
      }
      if (n == 0) {
        std::this_thread::yield();
      }
    }
  });

  int snapshots = 0;
  uint64_t last_rx = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((snapshots < 200 || out.tx_counters().packets < 5000) &&
         std::chrono::steady_clock::now() < deadline) {
    const uint64_t rx = registry.Snapshot().CounterValue("nic/in/rx_packets");
    EXPECT_GE(rx, last_rx) << "a read counter must be monotone under live writers";
    last_rx = rx;
    snapshots++;
  }
  feeding.store(false, std::memory_order_release);
  feeder.join();
  sched.Stop();
  EXPECT_GE(snapshots, 200);

  OwnerCounts owners;
  owners.AddNic("nic/in/", in);
  owners.AddNic("nic/out/", out);
  owners.AddGraph("", router);
  owners.ExpectSnapshotMatches(registry.Snapshot());
  EXPECT_GT(owners.counter("nic/out/tx_packets"), 0u);

  Packet* burst[256];
  size_t n;
  while ((n = out.DrainTx(burst, std::size(burst))) > 0) {
    for (size_t i = 0; i < n; ++i) {
      pool.Free(burst[i]);
    }
  }
}

// Drives `rounds` rounds of traffic into a single-server router: each round
// delivers `bursts` bursts of 32 frames to alternating ports, runs the
// graph dry and frees what it sent.
void Drive(SingleServerRouter* router, BulkInjector* injector, int rounds, int bursts) {
  Packet* out[64];
  for (int round = 0; round < rounds; ++round) {
    for (int b = 0; b < bursts; ++b) {
      PacketBatch batch;
      injector->NextBurst(32, &batch);
      router->DeliverBatch(b % router->config().num_ports, &batch, 0.0);
    }
    router->RunUntilIdle();
    for (int port = 0; port < router->config().num_ports; ++port) {
      size_t n;
      while ((n = router->DrainPort(port, out, std::size(out))) > 0) {
        for (size_t i = 0; i < n; ++i) {
          router->pool().Free(out[i]);
        }
      }
    }
  }
}

// One single-server application end to end: bind, drive, and compare the
// registry with every owner.
OwnerCounts RunSingleServer(SingleServerConfig cfg) {
  cfg.num_ports = 2;
  cfg.queues_per_port = 2;
  cfg.cores = 2;
  cfg.pool_packets = 4096;
  cfg.table.num_routes = 1024;
  telemetry::MetricRegistry registry;
  SingleServerRouter router(cfg);
  router.EnableTelemetry(&registry);
  router.Initialize();

  InjectorConfig inj;
  inj.synthetic.packet_size = 64;
  std::unique_ptr<PrefixSampler> sampler;
  if (cfg.app == App::kIpRouting) {
    TableGenConfig tg = cfg.table;
    tg.num_next_hops = static_cast<uint32_t>(cfg.num_ports);
    sampler = std::make_unique<PrefixSampler>(tg);
    inj.dst_sampler = sampler.get();
  }
  BulkInjector injector(inj, &router.pool());
  Drive(&router, &injector, /*rounds=*/4, /*bursts=*/80);

  OwnerCounts owners;
  for (int p = 0; p < cfg.num_ports; ++p) {
    owners.AddNic(Format("nic/port%d/", p), router.port(p));
  }
  owners.AddGraph("", router.graph());
  owners.ExpectSnapshotMatches(registry.Snapshot());
  return owners;
}

TEST(RegistryOwnersTest, ForwardingAt64Bytes) {
  SingleServerConfig cfg;
  cfg.app = App::kMinimalForwarding;
  const OwnerCounts owners = RunSingleServer(cfg);
  // 80 bursts a round put 640 frames on each 512-entry rx ring.
  EXPECT_GT(owners.counter("nic/port0/rx_drops"), 0u);
  EXPECT_GT(owners.counter("nic/port1/tx_packets"), 0u);
}

TEST(RegistryOwnersTest, IpRoutingWithStatefulNat) {
  SingleServerConfig cfg;
  cfg.app = App::kIpRouting;
  cfg.stateful_nat = true;
  cfg.nat_capacity = 64;  // 4096 synthetic flows: the tables evict
  RunSingleServer(cfg);
}

TEST(RegistryOwnersTest, Ipsec) {
  SingleServerConfig cfg;
  cfg.app = App::kIpsec;
  RunSingleServer(cfg);
}

double g_clock_s = 0;
// Advances 1 ms per read, so packets that wait through many clock reads
// sojourn past CoDel's target.
double TickingClock() { return g_clock_s += 1e-3; }

// A Click graph with both Queue flavours: a watermarked CoDel Queue, and a
// FlowPolicer in front of a small tail-drop Queue that overflows.
TEST(RegistryOwnersTest, ClickGraphWithCodelQueueAndPolicer) {
  PacketPool pool(2048);
  NicConfig nc;
  nc.num_rx_queues = 2;
  nc.num_tx_queues = 2;
  nc.ring_entries = 1024;
  NicPort in(nc);
  NicPort out(nc);
  telemetry::MetricRegistry registry;
  in.BindTelemetry(&registry, "nic/in/");
  out.BindTelemetry(&registry, "nic/out/");

  Router graph;
  FlowPolicerOptions popt;
  popt.rate_pps = 1;  // a flow gets about one more token per 1000 clock reads
  popt.burst = 2;
  QueueOptions codel;
  codel.capacity = 256;
  codel.hi_watermark = 64;
  codel.aqm = AqmMode::kCoDel;
  // Queue 0 fills 32 a poll and drains 8 a run: it blocks at its high
  // watermark, and its packets wait long enough for CoDel to drop.
  auto* from0 = graph.Add<FromDevice>(&in, 0);
  auto* codel_q = graph.Add<QueueElement>(codel);
  auto* to0 = graph.Add<ToDevice>(&out, 0, /*burst=*/8);
  graph.Chain({from0, codel_q, to0});
  auto* from1 = graph.Add<FromDevice>(&in, 1);
  auto* policer = graph.Add<FlowPolicer>(popt);
  auto* small_q = graph.Add<QueueElement>(16);
  auto* to1 = graph.Add<ToDevice>(&out, 1);
  graph.Chain({from1, policer, small_q, to1});
  graph.BindTelemetry(&registry, nullptr);
  graph.Initialize();
  codel_q->set_clock(&TickingClock);
  policer->set_clock(&TickingClock);

  SyntheticConfig sc;
  sc.num_flows = 64;
  sc.random_dst = false;  // 64 five-tuples, each sent many times
  SyntheticGenerator gen(sc);
  Packet* sent[64];
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 256; ++i) {
      Packet* p = AllocFrame(gen.Next(), &pool);
      ASSERT_NE(p, nullptr);
      in.Deliver(p, 0.0);
    }
    graph.RunUntilIdle();
    size_t n;
    while ((n = out.DrainTx(sent, std::size(sent))) > 0) {
      for (size_t i = 0; i < n; ++i) {
        pool.Free(sent[i]);
      }
    }
  }

  OwnerCounts owners;
  owners.AddNic("nic/in/", in);
  owners.AddNic("nic/out/", out);
  owners.AddGraph("", graph);
  owners.ExpectSnapshotMatches(registry.Snapshot());
  EXPECT_GT(owners.counter("elem/" + policer->name() + "/drops/policed"), 0u);
  EXPECT_GT(owners.counter("elem/" + small_q->name() + "/drops/queue_overflow"), 0u);
  EXPECT_GT(owners.counter("elem/" + codel_q->name() + "/drops/aqm"), 0u);
  EXPECT_GT(owners.counter("elem/" + codel_q->name() + "/blocked_events"), 0u);
}

// Every node of a FunctionalCluster, bound through its config, with
// admission on and node 2 believed dead (so admission refuses traffic).
TEST(RegistryOwnersTest, FunctionalClusterWithAdmission) {
  telemetry::MetricRegistry registry;
  FunctionalClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.routes = 256;
  cfg.admission.enabled = true;
  cfg.registry = &registry;
  FunctionalCluster cluster(cfg);
  cluster.health().SetNodeAlive(2, false);
  for (int i = 0; i < 256; ++i) {
    FrameSpec spec;
    spec.size = 128;
    spec.flow.src_ip = 0x0b000001u + static_cast<uint32_t>(i);
    spec.flow.dst_ip = cluster.AddressForNode(static_cast<uint16_t>((i / 4) % 4));
    spec.flow.src_port = 1000;
    spec.flow.dst_port = 80;
    spec.flow.protocol = 17;
    cluster.InjectExternal(static_cast<uint16_t>(i % 4), AllocFrame(spec, &cluster.pool()),
                           i * 1e-6);
  }
  cluster.RunUntilIdle();

  OwnerCounts owners;
  uint64_t admission_drops = 0;
  for (uint16_t node = 0; node < 4; ++node) {
    const std::string prefix = Format("node%u/", node);
    for (size_t p = 0; p < cfg.num_nodes; ++p) {
      owners.AddNic(prefix + Format("nic/port%zu/", p), cluster.port(node, p));
    }
    owners.AddGraph(prefix, cluster.node_graph(node));
    admission_drops += cluster.vlb_admission(node)->admission_drops();
  }
  owners.ExpectSnapshotMatches(registry.Snapshot());
  EXPECT_GT(admission_drops, 0u);

  Packet* out[256];
  for (uint16_t node = 0; node < 4; ++node) {
    const size_t n = cluster.DrainExternal(node, out, std::size(out));
    for (size_t i = 0; i < n; ++i) {
      cluster.pool().Free(out[i]);
    }
  }
}

}  // namespace
}  // namespace rb
