#include "netdev/driver.hpp"

#include <gtest/gtest.h>

#include "packet/pool.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

FrameSpec Frame64() {
  FrameSpec spec;
  spec.size = 64;
  spec.flow.src_ip = 1;
  spec.flow.dst_ip = 2;
  spec.flow.protocol = 17;
  return spec;
}

TEST(DriverTest, PollsUpToKp) {
  PacketPool pool(256);
  NicConfig cfg;
  cfg.kn = 1;
  NicPort nic(cfg);
  Driver driver(&nic, 0, DriverConfig{8});
  for (int i = 0; i < 20; ++i) {
    nic.Deliver(AllocFrame(Frame64(), &pool), 0.0);
  }
  PacketBatch out;
  EXPECT_EQ(driver.Poll(&out), 8u);
  EXPECT_EQ(driver.Poll(&out), 8u);
  EXPECT_EQ(driver.Poll(&out), 4u);
  EXPECT_EQ(driver.Poll(&out), 0u);
  EXPECT_EQ(out.size(), 20u);
  EXPECT_EQ(driver.packets(), 20u);
  EXPECT_EQ(driver.polls(), 4u);
  EXPECT_EQ(driver.empty_polls(), 1u);
  out.ReleaseAll();
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(DriverTest, MeanBurstReflectsBatching) {
  // The realized poll batch size, packets per non-empty poll, is what the
  // poll counters report.
  PacketPool pool(256);
  NicConfig cfg;
  cfg.kn = 1;
  NicPort nic(cfg);
  Driver driver(&nic, 0, DriverConfig{32});
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) {
      nic.Deliver(AllocFrame(Frame64(), &pool), 0.0);
    }
    PacketBatch out;
    driver.Poll(&out);
    out.ReleaseAll();
  }
  EXPECT_EQ(driver.polls() - driver.empty_polls(), 4u);
  EXPECT_EQ(driver.packets(), 4u * 16u);
}

TEST(DriverDeathTest, BadQueueAborts) {
  NicConfig cfg;
  cfg.num_rx_queues = 2;
  NicPort nic(cfg);
  EXPECT_DEATH(Driver(&nic, 5, DriverConfig{}), "");
}

}  // namespace
}  // namespace rb
