#include "harness/bottleneck.hpp"

#include <gtest/gtest.h>

#include "model/throughput.hpp"

namespace rb {
namespace {

namespace tele = rb::telemetry;

// 64 B minimal forwarding on the paper's Nehalem is CPU-bound (Fig. 8/9):
// the measured cycles/packet cap the rate before any bus or the NICs do.
TEST(BottleneckTest, SmallPacketForwardingIsCpuBound) {
  ThroughputConfig model;
  model.app = App::kMinimalForwarding;
  model.frame_bytes = 64;

  tele::MeasuredWorkload w;
  w.name = "fwd_64";
  w.frame_bytes = 64;
  w.cycles_per_packet = 1181;  // the model's own per-packet cycles
  w.per_packet = LoadsFor(model);

  tele::BottleneckVerdict v = tele::AnalyzeBottleneck(w, model.spec);
  EXPECT_EQ(v.bottleneck, tele::Resource::kCpu);
  EXPECT_EQ(v.verdict, "CPU");
  // 8 cores x 2.8 GHz / 1181 cyc/pkt ~= 19 Mpps.
  EXPECT_NEAR(v.max_pps / 1e6, 18.97, 0.5);
  // Limits are sorted ascending: the binding one first.
  ASSERT_FALSE(v.limits.empty());
  EXPECT_EQ(v.limits.front().resource, tele::Resource::kCpu);
  for (size_t i = 1; i < v.limits.size(); ++i) {
    EXPECT_LE(v.limits[i - 1].max_pps, v.limits[i].max_pps);
  }
  // At the bottleneck rate the binding resource is fully used.
  EXPECT_NEAR(v.limits.front().UtilizationAt(v.max_pps), 1.0, 1e-9);
  // Summary names the class and the resource.
  EXPECT_NE(v.Summary().find("CPU-bound"), std::string::npos);
  EXPECT_NE(v.Summary().find("cpu"), std::string::npos);
}

// Large frames with few cycles/packet hit the per-NIC PCIe input ceiling
// (the paper's 24.6 Gbps input-limited regime).
TEST(BottleneckTest, LargeFrameForwardingIsNicInputBound) {
  ThroughputConfig model;
  model.app = App::kMinimalForwarding;
  model.frame_bytes = 1024;

  tele::MeasuredWorkload w;
  w.name = "fwd_1024";
  w.frame_bytes = 1024;
  w.cycles_per_packet = 1200;  // cheap per packet; bytes dominate
  w.per_packet = LoadsFor(model);

  tele::BottleneckVerdict v = tele::AnalyzeBottleneck(w, model.spec);
  EXPECT_EQ(v.bottleneck, tele::Resource::kNicInput);
  EXPECT_EQ(v.verdict, "NIC/IO");
  // 24.6 Gbps input cap / (1024 * 8) bits per frame.
  EXPECT_NEAR(v.max_payload_gbps, 24.6, 0.3);
  const tele::ResourceLimit* nic = v.Limit(tele::Resource::kNicInput);
  ASSERT_NE(nic, nullptr);
  EXPECT_DOUBLE_EQ(nic->per_packet, 1024.0);
}

// A crafted workload with huge per-packet memory traffic on a spec with a
// weak memory system is memory-bound.
TEST(BottleneckTest, MemoryHeavyWorkloadIsMemoryBound) {
  ServerSpec spec = ServerSpec::Nehalem();
  spec.memory.empirical_bps = 8e9;  // cripple the memory bus: 1 GB/s

  tele::MeasuredWorkload w;
  w.name = "memhog";
  w.frame_bytes = 64;
  w.cycles_per_packet = 500;        // cheap CPU-wise
  w.per_packet.memory_bytes = 4096;  // 64 cache lines per packet
  w.per_packet.io_bytes = 128;
  w.per_packet.pcie_bytes = 128;

  tele::BottleneckVerdict v = tele::AnalyzeBottleneck(w, spec);
  EXPECT_EQ(v.bottleneck, tele::Resource::kMemory);
  EXPECT_EQ(v.verdict, "memory");
  // 1 GB/s / 4096 B/pkt ~= 244 kpps.
  EXPECT_NEAR(v.max_pps, 8e9 / 8.0 / 4096.0, 1.0);
}

// Resources with zero load or zero capacity are skipped, not divided by.
TEST(BottleneckTest, ZeroLoadsAndCapacitiesAreSkipped) {
  ServerSpec spec = ServerSpec::Nehalem();
  spec.inter_socket.empirical_bps = 0;  // single-socket-style spec

  tele::MeasuredWorkload w;
  w.name = "cpu_only";
  w.frame_bytes = 64;
  w.cycles_per_packet = 1000;
  // All bus loads zero.

  tele::BottleneckVerdict v = tele::AnalyzeBottleneck(w, spec);
  EXPECT_EQ(v.bottleneck, tele::Resource::kCpu);
  EXPECT_EQ(v.Limit(tele::Resource::kMemory), nullptr);
  EXPECT_EQ(v.Limit(tele::Resource::kInterSocket), nullptr);
  // NIC input still applies (frame_bytes > 0, input cap > 0).
  EXPECT_NE(v.Limit(tele::Resource::kNicInput), nullptr);
}

TEST(BottleneckTest, ResourceNamesAndClassesAreStable) {
  EXPECT_STREQ(tele::ResourceName(tele::Resource::kCpu), "cpu");
  EXPECT_STREQ(tele::ResourceName(tele::Resource::kNicInput), "nic_input");
  EXPECT_STREQ(tele::ResourceClass(tele::Resource::kCpu), "CPU");
  EXPECT_STREQ(tele::ResourceClass(tele::Resource::kMemory), "memory");
  EXPECT_STREQ(tele::ResourceClass(tele::Resource::kIo), "NIC/IO");
  EXPECT_STREQ(tele::ResourceClass(tele::Resource::kPcie), "NIC/IO");
  EXPECT_STREQ(tele::ResourceClass(tele::Resource::kNicInput), "NIC/IO");
}

}  // namespace
}  // namespace rb
