#include "packet/packet.hpp"

#include <gtest/gtest.h>

#include "packet/pool.hpp"

namespace rb {
namespace {

TEST(PacketTest, SetPayloadCopiesBytes) {
  Packet p;
  uint8_t data[4] = {1, 2, 3, 4};
  p.SetPayload(data, 4);
  EXPECT_EQ(p.length(), 4u);
  EXPECT_EQ(p.data()[0], 1);
  EXPECT_EQ(p.data()[3], 4);
}

TEST(PacketTest, PushConsumesHeadroom) {
  Packet p;
  uint8_t data[4] = {9, 9, 9, 9};
  p.SetPayload(data, 4);
  uint32_t head_before = p.headroom();
  uint8_t* hdr = p.Push(14);
  EXPECT_EQ(p.headroom(), head_before - 14);
  EXPECT_EQ(p.length(), 18u);
  EXPECT_EQ(hdr, p.data());
  // Old payload still intact after the pushed region.
  EXPECT_EQ(p.data()[14], 9);
}

TEST(PacketTest, PullRemovesFront) {
  Packet p;
  uint8_t data[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  p.SetPayload(data, 8);
  p.Pull(3);
  EXPECT_EQ(p.length(), 5u);
  EXPECT_EQ(p.data()[0], 3);
}

TEST(PacketTest, PushPullRoundTrip) {
  Packet p;
  uint8_t data[4] = {42, 43, 44, 45};
  p.SetPayload(data, 4);
  p.Push(20);
  p.Pull(20);
  EXPECT_EQ(p.length(), 4u);
  EXPECT_EQ(p.data()[0], 42);
}

TEST(PacketTest, PutAndTrim) {
  Packet p;
  uint8_t data[2] = {1, 2};
  p.SetPayload(data, 2);
  uint8_t* tail = p.Put(3);
  tail[0] = 7;
  EXPECT_EQ(p.length(), 5u);
  EXPECT_EQ(p.data()[2], 7);
  p.Trim(4);
  EXPECT_EQ(p.length(), 1u);
  EXPECT_EQ(p.data()[0], 1);
}

TEST(PacketTest, AnnotationsRoundTrip) {
  Packet p;
  p.set_arrival_time(1.5);
  p.set_flow_hash(0xdeadbeef);
  p.set_vlb_phase(VlbPhase::kPhase2);
  p.set_output_node(7);
  p.set_flow_id(99);
  p.set_flow_seq(100);
  p.set_paint(5);
  EXPECT_EQ(p.arrival_time(), 1.5);
  EXPECT_EQ(p.flow_hash(), 0xdeadbeefu);
  EXPECT_EQ(p.vlb_phase(), VlbPhase::kPhase2);
  EXPECT_EQ(p.output_node(), 7);
  EXPECT_EQ(p.flow_id(), 99u);
  EXPECT_EQ(p.flow_seq(), 100u);
  EXPECT_EQ(p.paint(), 5);
}

TEST(PacketTest, ResetMetadataClearsEverything) {
  Packet p;
  uint8_t data[4] = {1, 2, 3, 4};
  p.SetPayload(data, 4);
  p.set_flow_id(12);
  p.set_output_node(2);
  p.Push(10);
  p.ResetMetadata();
  EXPECT_EQ(p.length(), 0u);
  EXPECT_EQ(p.headroom(), Packet::kDefaultHeadroom);
  EXPECT_EQ(p.flow_id(), 0u);
  EXPECT_EQ(p.output_node(), Packet::kNoNode);
  EXPECT_EQ(p.vlb_phase(), VlbPhase::kNone);
}

TEST(PacketDeathTest, PushBeyondHeadroomAborts) {
  Packet p;
  EXPECT_DEATH(p.Push(Packet::kDefaultHeadroom + 1), "headroom");
}

TEST(PacketDeathTest, PullBeyondLengthAborts) {
  Packet p;
  uint8_t d[4] = {0};
  p.SetPayload(d, 4);
  EXPECT_DEATH(p.Pull(5), "");
}

TEST(PacketTest, TailroomAccounting) {
  Packet p;
  uint8_t d[100] = {0};
  p.SetPayload(d, 100);
  EXPECT_EQ(p.tailroom(), Packet::kMaxCapacity - Packet::kDefaultHeadroom - 100);
}

TEST(PacketTest, CacheLayoutPinned) {
  // The compile-time contract lives in PacketLayoutCheck (packet.hpp);
  // these runtime pins catch what static_asserts on private members can't
  // express from outside the class, and document the intent: hot
  // annotations in the object's first cache line, a 64-aligned frame
  // buffer, and an odd-cache-line stride so consecutive pool packets don't
  // alias the same cache sets.
  EXPECT_EQ(sizeof(Packet) % kCacheLineBytes, 0u);
  EXPECT_EQ((sizeof(Packet) / kCacheLineBytes) % 2, 1u);
  EXPECT_GE(alignof(Packet), kCacheLineBytes);

  Packet p;
  auto base = reinterpret_cast<uintptr_t>(&p);
  // default_data() must be computable from `this` + constants alone (no
  // metadata load) and land 64-aligned, so header prefetches hit the line
  // that actually holds the Ethernet/IP headers.
  auto data = reinterpret_cast<uintptr_t>(p.default_data());
  EXPECT_EQ(data % kCacheLineBytes, 0u);
  EXPECT_EQ(data, reinterpret_cast<uintptr_t>(p.data()));
  EXPECT_LT(data - base, sizeof(Packet));
}

TEST(PacketTest, PoolStorageKeepsAlignment) {
  // Pool storage is a contiguous Packet[], so the odd-line stride is what
  // spreads consecutive packets across cache sets.
  PacketPool pool(4);
  Packet* pkts[4];
  ASSERT_EQ(pool.AllocBulk(pkts, 4), 4u);
  for (int i = 1; i < 4; ++i) {
    auto a = reinterpret_cast<uintptr_t>(pkts[i - 1]);
    auto b = reinterpret_cast<uintptr_t>(pkts[i]);
    EXPECT_EQ(a % kCacheLineBytes, 0u);
    uintptr_t stride = a > b ? a - b : b - a;
    EXPECT_EQ(stride % sizeof(Packet), 0u);
  }
  pool.FreeBulk(pkts, 4);
}

}  // namespace
}  // namespace rb
