// Property sweeps: invariants that must hold across the configuration
// space, driven as parameterized suites.
//
//  * Conservation: every offered packet is either delivered or counted in
//    exactly one drop bucket, for any topology size / packet size / load.
//  * Admissible load is loss-free: any uniform load comfortably inside the
//    per-node 2R envelope is delivered in full (the VLB 100%-throughput
//    guarantee, swept).
//  * Output conservation: per-output delivered rate never exceeds R.
//  * Latency ordering: heavier load never lowers median latency.
//  * Pipeline robustness: arbitrarily corrupted frames never crash the
//    Click graph and never leak pool buffers (failure injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "cluster/des.hpp"
#include "common/strings.hpp"
#include "core/single_server_router.hpp"
#include "workload/abilene.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

struct SweepParam {
  uint16_t nodes;
  uint32_t frame_bytes;
  double per_port_gbps;
  bool admissible;  // inside the safe envelope -> must be loss-free
};

// Prints a parameter as a stable token such as
// "n4_64B_2p5gbps_admissible". Without a PrintTo, gtest prints the
// struct's raw bytes, padding included, and CMake's test discovery names
// each ctest instance after that print, so the names changed from build
// to build.
void PrintTo(const SweepParam& p, std::ostream* os) {
  std::string gbps = Format("%.1f", p.per_port_gbps);
  std::replace(gbps.begin(), gbps.end(), '.', 'p');
  *os << Format("n%u_%uB_%sgbps_%s", static_cast<unsigned>(p.nodes), p.frame_bytes, gbps.c_str(),
                p.admissible ? "admissible" : "overload");
}

class ClusterSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ClusterSweep, ConservationAndThroughput) {
  SweepParam p = GetParam();
  ClusterConfig cfg = ClusterConfig::Rb4();
  cfg.num_nodes = p.nodes;
  cfg.vlb.num_nodes = p.nodes;
  cfg.seed = 1234 + p.nodes + p.frame_bytes;
  ClusterSim sim(cfg);
  FixedSizeDistribution sizes(p.frame_bytes);
  auto tm = TrafficMatrix::Uniform(p.nodes);
  ClusterRunStats stats = sim.RunUniform(tm, p.per_port_gbps * 1e9, &sizes, 0.008);

  // Conservation: offered == delivered + sum(drop buckets).
  ASSERT_EQ(stats.offered_packets, stats.delivered_packets + stats.drops.total());

  // No output port beyond line rate. The rate denominator is the
  // injection horizon while Finish() drains queued packets past it, so
  // allow one output-queue's worth of drain on top of the line rate.
  double drain_slack =
      static_cast<double>(cfg.ext_out_queue_pkts) * p.frame_bytes * 8.0 / 0.008;
  for (double out : stats.per_output_bps) {
    EXPECT_LE(out, cfg.ext_rate_bps * 1.02 + drain_slack);
  }

  if (p.admissible) {
    EXPECT_LT(stats.loss_fraction(), 0.01)
        << p.nodes << " nodes, " << p.frame_bytes << " B at " << p.per_port_gbps << " Gbps/port";
  } else {
    EXPECT_GT(stats.loss_fraction(), 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Envelope, ClusterSweep,
    ::testing::Values(
        // Admissible points: well inside the 64 B CPU envelope
        // (~3.2 Gbps/port) and the large-packet NIC envelope.
        SweepParam{2, 64, 2.0, true}, SweepParam{3, 64, 2.5, true},
        SweepParam{4, 64, 2.5, true}, SweepParam{6, 64, 2.5, true},
        SweepParam{8, 64, 2.5, true}, SweepParam{4, 300, 6.0, true},
        SweepParam{4, 1500, 8.0, true}, SweepParam{8, 1500, 8.0, true},
        // Inadmissible points: far beyond capacity.
        SweepParam{4, 64, 6.0, false}, SweepParam{8, 64, 6.0, false},
        SweepParam{4, 1500, 14.0, false}));

class LatencyMonotone : public ::testing::TestWithParam<uint16_t> {};

TEST_P(LatencyMonotone, MedianNeverImprovesWithLoad) {
  uint16_t nodes = GetParam();
  double prev_median = 0;
  for (double gbps : {0.5, 1.5, 2.5}) {
    ClusterConfig cfg = ClusterConfig::Rb4();
    cfg.num_nodes = nodes;
    cfg.vlb.num_nodes = nodes;
    ClusterSim sim(cfg);
    FixedSizeDistribution sizes(64);
    auto tm = TrafficMatrix::Uniform(nodes);
    ClusterRunStats stats = sim.RunUniform(tm, gbps * 1e9, &sizes, 0.005);
    double median = stats.latency.Percentile(50);
    EXPECT_GE(median, prev_median * 0.98) << nodes << " nodes at " << gbps;
    prev_median = median;
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, LatencyMonotone, ::testing::Values(2, 4, 8));

// Failure injection: feed the full routing pipeline frames with random
// corruption — truncated headers, bad versions, broken checksums, random
// bytes — and verify nothing crashes and every buffer returns to the pool.
TEST(PipelineFuzzTest, CorruptedFramesNeverCrashOrLeak) {
  SingleServerConfig cfg;
  cfg.num_ports = 2;
  cfg.queues_per_port = 2;
  cfg.cores = 2;
  cfg.app = App::kIpRouting;
  cfg.pool_packets = 4096;
  cfg.table.num_routes = 2000;
  SingleServerRouter router(cfg);
  router.Initialize();

  Rng rng(0xfeed);
  SyntheticConfig gen_cfg;
  gen_cfg.packet_size = 64;
  SyntheticGenerator gen(gen_cfg);

  const int kPackets = 3000;
  for (int i = 0; i < kPackets; ++i) {
    FrameSpec spec = gen.Next();
    spec.size = static_cast<uint32_t>(64 + rng.NextBounded(1400));
    Packet* p = AllocFrame(spec, &router.pool());
    ASSERT_NE(p, nullptr);
    // Corrupt: flip up to 8 random bytes anywhere in the frame, possibly
    // truncate, possibly mangle the version/IHL nibble.
    uint64_t flips = rng.NextBounded(8);
    for (uint64_t f = 0; f < flips; ++f) {
      p->data()[rng.NextBounded(p->length())] ^= static_cast<uint8_t>(rng.Next());
    }
    if (rng.NextBool(0.2)) {
      p->Trim(static_cast<uint32_t>(rng.NextBounded(p->length())));
    }
    if (rng.NextBool(0.2) && p->length() > 15) {
      p->data()[14] = static_cast<uint8_t>(rng.Next());  // version/IHL
    }
    router.DeliverFrame(i % 2, p, 0.0);
    if (i % 512 == 0) {
      router.RunUntilIdle();
      Packet* burst[64];
      for (int port = 0; port < 2; ++port) {
        size_t n;
        while ((n = router.DrainPort(port, burst, 64)) > 0) {
          for (size_t k = 0; k < n; ++k) {
            router.pool().Free(burst[k]);
          }
        }
      }
    }
  }
  router.RunUntilIdle();
  Packet* burst[64];
  for (int port = 0; port < 2; ++port) {
    size_t n;
    while ((n = router.DrainPort(port, burst, 64)) > 0) {
      for (size_t k = 0; k < n; ++k) {
        router.pool().Free(burst[k]);
      }
    }
  }
  EXPECT_EQ(router.pool().available(), router.pool().capacity()) << "buffer leak under fuzzing";
}

// ESP robustness: decapsulating corrupted ciphertext must fail cleanly
// (or succeed with different bytes), never crash.
TEST(PipelineFuzzTest, EspDecapsulateSurvivesCorruption) {
  EspConfig esp;
  for (int i = 0; i < 16; ++i) {
    esp.key[i] = static_cast<uint8_t>(i * 3 + 1);
  }
  EspTunnel enc(esp);
  EspTunnel dec(esp);
  PacketPool pool(4);
  Rng rng(0xdead);
  for (int trial = 0; trial < 500; ++trial) {
    FrameSpec spec;
    spec.size = static_cast<uint32_t>(64 + rng.NextBounded(1200));
    spec.flow = {1, 2, 3, 4, 17};
    Packet* p = AllocFrame(spec, &pool);
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(enc.Encapsulate(p));
    for (int f = 0; f < 4; ++f) {
      p->data()[rng.NextBounded(p->length())] ^= static_cast<uint8_t>(rng.Next() | 1);
    }
    dec.Decapsulate(p);  // any result is fine; must not crash
    pool.Free(p);
  }
  EXPECT_EQ(pool.available(), pool.capacity());
}

}  // namespace
}  // namespace rb
