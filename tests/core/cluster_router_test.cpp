#include "core/cluster_router.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cluster/reorder.hpp"
#include "common/strings.hpp"
#include "packet/headers.hpp"
#include "telemetry/metrics.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

FunctionalClusterConfig SmallCluster(bool direct = true, bool flowlets = true) {
  FunctionalClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.routes = 256;
  cfg.vlb.direct_vlb = direct;
  cfg.vlb.flowlets = flowlets;
  return cfg;
}

Packet* FrameTo(FunctionalCluster* cluster, uint16_t dst_node, uint64_t flow_id, uint64_t seq,
                uint16_t src_port = 1000) {
  FrameSpec spec;
  spec.size = 128;
  spec.flow.src_ip = 0x0b000001 + static_cast<uint32_t>(flow_id);
  spec.flow.dst_ip = cluster->AddressForNode(dst_node);
  spec.flow.src_port = src_port;
  spec.flow.dst_port = 80;
  spec.flow.protocol = 17;
  spec.flow_id = flow_id;
  spec.flow_seq = seq;
  return AllocFrame(spec, &cluster->pool());
}

TEST(FunctionalClusterTest, DeliversToCorrectOutputNode) {
  FunctionalCluster cluster(SmallCluster());
  for (uint16_t dst = 0; dst < 4; ++dst) {
    cluster.InjectExternal(0, FrameTo(&cluster, dst, dst + 1, 0), 0.0);
  }
  cluster.RunUntilIdle();
  for (uint16_t node = 0; node < 4; ++node) {
    Packet* out[8];
    size_t n = cluster.DrainExternal(node, out, 8);
    EXPECT_EQ(n, 1u) << "node " << node;
    for (size_t i = 0; i < n; ++i) {
      // The MAC trick: delivered frames carry the output node in dst MAC.
      EXPECT_EQ(NodeFromMac(EthernetView{out[i]->data()}.dst()), node);
      cluster.pool().Free(out[i]);
    }
  }
}

TEST(FunctionalClusterTest, QueueFedToDevicesKeepTheirDrainTasks) {
  // Cluster legs are Queue -> ToDevice, so every ToDevice stays in pull
  // mode with one drain task of its own.
  FunctionalCluster cluster(SmallCluster());
  for (uint16_t node = 0; node < 4; ++node) {
    const Router& g = cluster.node_graph(node);
    size_t to_devices = 0;
    for (const auto& e : g.elements()) {
      to_devices += std::string(e->class_name()) == "ToDevice";
    }
    size_t drain_tasks = 0;
    for (const auto& task : g.tasks()) {
      drain_tasks += std::string(task->element()->class_name()) == "ToDevice";
    }
    EXPECT_GT(to_devices, 0u);
    EXPECT_EQ(drain_tasks, to_devices) << "node " << node;
  }
}

TEST(FunctionalClusterTest, HeadersProcessedExactlyOnce) {
  // §6.1: each packet's header is processed by a CPU only once, at its
  // input node. VlbRoute counts header processing; VlbSteer never parses.
  FunctionalCluster cluster(SmallCluster(/*direct=*/false));  // force 2-phase
  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    cluster.InjectExternal(0, FrameTo(&cluster, 2, static_cast<uint64_t>(i), 0), i * 1e-6);
  }
  cluster.RunUntilIdle();
  uint64_t processed = 0;
  for (uint16_t n = 0; n < 4; ++n) {
    processed += cluster.vlb_route(n).headers_processed();
  }
  EXPECT_EQ(processed, static_cast<uint64_t>(kPackets));
  Packet* out[256];
  size_t n = cluster.DrainExternal(2, out, 256);
  EXPECT_EQ(n, static_cast<size_t>(kPackets));
  for (size_t i = 0; i < n; ++i) {
    cluster.pool().Free(out[i]);
  }
}

TEST(FunctionalClusterTest, ClassicVlbTakesTwoPhases) {
  FunctionalCluster cluster(SmallCluster(/*direct=*/false));
  const int kPackets = 100;
  for (int i = 0; i < kPackets; ++i) {
    cluster.InjectExternal(0, FrameTo(&cluster, 1, static_cast<uint64_t>(i), 0), i * 1e-6);
  }
  cluster.RunUntilIdle();
  // Every packet crossed two internal wires (src -> via -> dst).
  EXPECT_EQ(cluster.wire_packets(), static_cast<uint64_t>(2 * kPackets));
  Packet* out[128];
  size_t n = cluster.DrainExternal(1, out, 128);
  EXPECT_EQ(n, static_cast<size_t>(kPackets));
  for (size_t i = 0; i < n; ++i) {
    cluster.pool().Free(out[i]);
  }
}

TEST(FunctionalClusterTest, DirectVlbUsesOneWireUnderBudget) {
  FunctionalCluster cluster(SmallCluster(/*direct=*/true));
  const int kPackets = 50;
  // Low rate: well under the R/N direct budget.
  for (int i = 0; i < kPackets; ++i) {
    cluster.InjectExternal(3, FrameTo(&cluster, 1, 7, static_cast<uint64_t>(i)), i * 1e-3);
  }
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.wire_packets(), static_cast<uint64_t>(kPackets));
  Packet* out[64];
  size_t n = cluster.DrainExternal(1, out, 64);
  EXPECT_EQ(n, static_cast<size_t>(kPackets));
  for (size_t i = 0; i < n; ++i) {
    cluster.pool().Free(out[i]);
  }
}

TEST(FunctionalClusterTest, LocalTrafficNeverTouchesWires) {
  FunctionalCluster cluster(SmallCluster());
  cluster.InjectExternal(2, FrameTo(&cluster, 2, 1, 0), 0.0);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.wire_packets(), 0u);
  Packet* out[4];
  ASSERT_EQ(cluster.DrainExternal(2, out, 4), 1u);
  cluster.pool().Free(out[0]);
}

TEST(FunctionalClusterTest, FlowletKeepsFlowInOrder) {
  FunctionalCluster cluster(SmallCluster(/*direct=*/true, /*flowlets=*/true));
  const int kPackets = 300;
  for (int i = 0; i < kPackets; ++i) {
    cluster.InjectExternal(0, FrameTo(&cluster, 3, 99, static_cast<uint64_t>(i)), i * 1e-5);
  }
  cluster.RunUntilIdle();
  Packet* out[512];
  size_t n = cluster.DrainExternal(3, out, 512);
  ASSERT_EQ(n, static_cast<size_t>(kPackets));
  ReorderDetector det;
  for (size_t i = 0; i < n; ++i) {
    det.Deliver(out[i]->flow_id(), out[i]->flow_seq());
    cluster.pool().Free(out[i]);
  }
  EXPECT_EQ(det.reordered_packets(), 0u);
}

TEST(FunctionalClusterTest, SharedHealthViewGuidesEveryNodesVlb) {
  // The cluster-wide HealthView is bound to every node's VLB router at
  // construction: flipping a belief steers all path selection at once.
  FunctionalCluster cluster(SmallCluster(/*direct=*/false, /*flowlets=*/false));
  cluster.health().SetNodeAlive(2, false);
  for (uint16_t self = 0; self < 4; ++self) {
    if (self == 2) {
      continue;
    }
    uint16_t dst = self == 1 ? 3 : 1;
    for (int i = 0; i < 200; ++i) {
      VlbDecision d = cluster.vlb(self).Route(dst, static_cast<uint64_t>(i), 64, i * 1e-6);
      EXPECT_NE(d.via, 2) << "node " << self;
    }
  }
}

TEST(FunctionalClusterTest, TrafficAvoidsBelievedDeadNodeEndToEnd) {
  FunctionalCluster cluster(SmallCluster(/*direct=*/false, /*flowlets=*/false));
  cluster.health().SetNodeAlive(2, false);
  const int kPackets = 100;
  for (int i = 0; i < kPackets; ++i) {
    cluster.InjectExternal(0, FrameTo(&cluster, 1, static_cast<uint64_t>(i), 0), i * 1e-6);
  }
  cluster.RunUntilIdle();
  // Two-phase VLB with the only other intermediate (3): everything still
  // delivers in two hops.
  EXPECT_EQ(cluster.wire_packets(), static_cast<uint64_t>(2 * kPackets));
  Packet* out[128];
  size_t n = cluster.DrainExternal(1, out, 128);
  EXPECT_EQ(n, static_cast<size_t>(kPackets));
  for (size_t i = 0; i < n; ++i) {
    cluster.pool().Free(out[i]);
  }
}

// FunctionalClusterConfig::registry binds every node under "node<i>/".
// With admission on and node 2 believed dead, each node's NIC port
// readers and its VlbAdmission's drops/admission reader equal that node's
// own counters.
TEST(FunctionalClusterTest, RegistryReadsEachNodesOwnCounters) {
  telemetry::MetricRegistry registry;
  FunctionalClusterConfig cfg = SmallCluster();
  cfg.admission.enabled = true;
  cfg.registry = &registry;
  FunctionalCluster cluster(cfg);
  cluster.health().SetNodeAlive(2, false);
  for (int i = 0; i < 64; ++i) {
    cluster.InjectExternal(static_cast<uint16_t>(i % 4),
                           FrameTo(&cluster, static_cast<uint16_t>((i / 4) % 4),
                                   static_cast<uint64_t>(i), 0),
                           i * 1e-6);
  }
  cluster.RunUntilIdle();

  const telemetry::RegistrySnapshot snap = registry.Snapshot();
  std::map<std::string, uint64_t> counters(snap.counters.begin(), snap.counters.end());
  auto expect_read = [&counters](const std::string& name, uint64_t owner) {
    ASSERT_TRUE(counters.contains(name)) << name;
    EXPECT_EQ(counters.at(name), owner) << name;
  };
  uint64_t admission_drops = 0;
  uint64_t external_rx = 0;
  for (uint16_t node = 0; node < 4; ++node) {
    const std::string prefix = Format("node%u/", node);
    for (size_t p = 0; p < 4; ++p) {
      const NicPort& port = cluster.port(node, p);
      const std::string base = prefix + Format("nic/port%zu/", p);
      expect_read(base + "rx_packets", port.rx_counters().packets.load());
      expect_read(base + "rx_bytes", port.rx_counters().bytes.load());
      expect_read(base + "rx_drops", port.rx_counters().drops.load());
      expect_read(base + "tx_packets", port.tx_counters().packets.load());
      expect_read(base + "tx_bytes", port.tx_counters().bytes.load());
      expect_read(base + "tx_drops", port.tx_counters().drops.load());
    }
    const VlbAdmission* adm = cluster.vlb_admission(node);
    ASSERT_NE(adm, nullptr);
    expect_read(prefix + "elem/" + adm->name() + "/drops/admission", adm->admission_drops());
    admission_drops += adm->admission_drops();
    external_rx += cluster.port(node, 0).rx_counters().packets.load();
  }
  EXPECT_EQ(external_rx, 64u);
  EXPECT_EQ(admission_drops, 16u) << "every frame headed to node 2 is refused at ingress";

  Packet* out[64];
  for (uint16_t node = 0; node < 4; ++node) {
    const size_t n = cluster.DrainExternal(node, out, std::size(out));
    for (size_t i = 0; i < n; ++i) {
      cluster.pool().Free(out[i]);
    }
  }
}

TEST(FunctionalClusterTest, NoPacketsLeakFromPool) {
  FunctionalCluster cluster(SmallCluster());
  size_t cap = cluster.pool().capacity();
  for (int i = 0; i < 64; ++i) {
    cluster.InjectExternal(static_cast<uint16_t>(i % 4),
                           FrameTo(&cluster, static_cast<uint16_t>((i + 1) % 4),
                                   static_cast<uint64_t>(i), 0),
                           i * 1e-6);
  }
  cluster.RunUntilIdle();
  Packet* out[128];
  for (uint16_t node = 0; node < 4; ++node) {
    size_t n = cluster.DrainExternal(node, out, 128);
    for (size_t i = 0; i < n; ++i) {
      cluster.pool().Free(out[i]);
    }
  }
  EXPECT_EQ(cluster.pool().available(), cap);
}

}  // namespace
}  // namespace rb
