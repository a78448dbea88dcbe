#include "packet/pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace rb {
namespace {

TEST(PoolTest, AllocFreeCycle) {
  PacketPool pool(4);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.available(), 4u);
  Packet* p = pool.Alloc();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.available(), 3u);
  EXPECT_EQ(pool.in_use(), 1u);
  pool.Free(p);
  EXPECT_EQ(pool.available(), 4u);
}

TEST(PoolTest, ExhaustionReturnsNullAndCounts) {
  PacketPool pool(2);
  Packet* a = pool.Alloc();
  Packet* b = pool.Alloc();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.Alloc(), nullptr);
  EXPECT_EQ(pool.alloc_failures(), 1u);
  pool.Free(a);
  pool.Free(b);
}

TEST(PoolTest, FreeResetsMetadata) {
  PacketPool pool(1);
  Packet* p = pool.Alloc();
  uint8_t d[4] = {1, 2, 3, 4};
  p->SetPayload(d, 4);
  p->set_flow_id(77);
  pool.Free(p);
  Packet* q = pool.Alloc();
  EXPECT_EQ(q, p);  // freelist recycles
  EXPECT_EQ(q->length(), 0u);
  EXPECT_EQ(q->flow_id(), 0u);
  pool.Free(q);
}

TEST(PoolTest, OriginPoolIsSet) {
  PacketPool pool(1);
  Packet* p = pool.Alloc();
  EXPECT_EQ(p->origin_pool(), &pool);
  pool.Free(p);
}

TEST(PoolTest, StaticReleaseRoutesToOrigin) {
  PacketPool pool(2);
  Packet* p = pool.Alloc();
  PacketPool::Release(p);
  EXPECT_EQ(pool.available(), 2u);
}

TEST(PoolDeathTest, FreeToWrongPoolAborts) {
  PacketPool a(1);
  PacketPool b(1);
  Packet* p = a.Alloc();
  EXPECT_DEATH(b.Free(p), "wrong pool");
  a.Free(p);
}

TEST(PoolDeathTest, DoubleFreeAborts) {
  PacketPool pool(2);
  Packet* p = pool.Alloc();
  pool.Free(p);
  EXPECT_DEATH(pool.Free(p), "double free");
}

TEST(PoolDeathTest, FreeOfNeverAllocatedPacketAborts) {
  // Every packet starts life on the freelist; freeing one that was never
  // handed out is also a double-free.
  PacketPool pool(1);
  Packet* p = pool.Alloc();
  pool.Free(p);
  EXPECT_DEATH(pool.Free(p), "already in the pool");
}

TEST(PoolTest, ReallocAfterFreeIsLegalAgain) {
  // The in-pool flag must clear on Alloc so the normal cycle keeps working.
  PacketPool pool(1);
  for (int i = 0; i < 3; ++i) {
    Packet* p = pool.Alloc();
    ASSERT_NE(p, nullptr);
    pool.Free(p);
  }
  EXPECT_EQ(pool.available(), 1u);
}

TEST(PoolTest, AllocBulkCarvesDistinctPackets) {
  PacketPool pool(16);
  Packet* pkts[16];
  EXPECT_EQ(pool.AllocBulk(pkts, 16), 16u);
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(pool.in_use(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_NE(pkts[i], nullptr);
    EXPECT_EQ(pkts[i]->origin_pool(), &pool);
    for (size_t j = i + 1; j < 16; ++j) {
      EXPECT_NE(pkts[i], pkts[j]);
    }
  }
  pool.FreeBulk(pkts, 16);
  EXPECT_EQ(pool.available(), 16u);
  EXPECT_EQ(pool.alloc_failures(), 0u);
}

TEST(PoolTest, AllocBulkPartialCarveCountsShortfall) {
  PacketPool pool(4);
  Packet* pkts[8];
  EXPECT_EQ(pool.AllocBulk(pkts, 8), 4u);
  // One failure per missing packet, same accounting as 8 Alloc() calls.
  EXPECT_EQ(pool.alloc_failures(), 4u);
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(pool.AllocBulk(pkts + 4, 2), 0u);
  EXPECT_EQ(pool.alloc_failures(), 6u);
  pool.FreeBulk(pkts, 4);
  EXPECT_EQ(pool.available(), 4u);
}

TEST(PoolTest, AllocBulkMatchesSingleAllocSequence) {
  // Bulk and single alloc drain the same freelist; a bulk carve of n must
  // leave the pool in the same state n pops would.
  PacketPool a(8);
  PacketPool b(8);
  Packet* bulk[5];
  ASSERT_EQ(a.AllocBulk(bulk, 5), 5u);
  Packet* single[5];
  for (auto& p : single) {
    p = b.Alloc();
  }
  EXPECT_EQ(a.available(), b.available());
  EXPECT_EQ(a.in_use(), b.in_use());
  a.FreeBulk(bulk, 5);
  for (Packet* p : single) {
    b.Free(p);
  }
  EXPECT_EQ(a.available(), 8u);
  EXPECT_EQ(b.available(), 8u);
}

TEST(PoolTest, BulkAndSingleInterleave) {
  PacketPool pool(8);
  Packet* bulk[4];
  ASSERT_EQ(pool.AllocBulk(bulk, 4), 4u);
  Packet* s = pool.Alloc();
  ASSERT_NE(s, nullptr);
  pool.FreeBulk(bulk, 4);
  EXPECT_EQ(pool.available(), 7u);  // 8 - the one single alloc still out
  Packet* again[7];
  EXPECT_EQ(pool.AllocBulk(again, 7), 7u);
  pool.Free(s);
  pool.FreeBulk(again, 7);
  EXPECT_EQ(pool.available(), 8u);
}

TEST(PoolDeathTest, FreeBulkDetectsDoubleFree) {
  PacketPool pool(2);
  Packet* pkts[2];
  ASSERT_EQ(pool.AllocBulk(pkts, 2), 2u);
  pool.Free(pkts[0]);
  // pkts[0] is already back in the pool; the bulk return must still trip
  // the per-packet double-free check.
  EXPECT_DEATH(pool.FreeBulk(pkts, 2), "double free");
  pool.Free(pkts[1]);
}

TEST(PoolDeathTest, FreeBulkDetectsPacketListedTwice) {
  PacketPool pool(4);
  Packet* pkts[3];
  ASSERT_EQ(pool.AllocBulk(pkts, 2), 2u);
  pkts[2] = pkts[0];
  // Neither packet is in the pool before the call: the second listing is
  // what must trip the double-free check.
  EXPECT_DEATH(pool.FreeBulk(pkts, 3), "double free");
  pool.FreeBulk(pkts, 2);
}

TEST(PoolDeathTest, FreeBulkDetectsForeignPacketMidBurst) {
  PacketPool pool(4);
  PacketPool other(1);
  Packet* pkts[4];
  ASSERT_EQ(pool.AllocBulk(pkts, 3), 3u);
  pkts[3] = pkts[2];
  pkts[2] = other.Alloc();
  EXPECT_DEATH(pool.FreeBulk(pkts, 4), "wrong pool");
  other.Free(pkts[2]);
  pkts[2] = pkts[3];
  pool.FreeBulk(pkts, 3);
}

// Sets every annotation on both metadata lines to a value that is not
// its default.
void Annotate(Packet* p, uint32_t i) {
  const uint8_t bytes[96] = {};
  p->SetPayload(bytes, 64 + i % 32);
  p->Push(14);
  p->set_arrival_time(1.5 + i);
  p->set_flow_hash(0xabc00000u + i);
  p->set_vlb_phase(VlbPhase::kPhase2);
  p->set_output_node(static_cast<uint16_t>(i));
  p->set_flow_id(1000 + i);
  p->set_flow_seq(2000 + i);
  p->set_paint(static_cast<uint8_t>(1 + i % 200));
  p->set_trace_handle(3000 + i);
  p->set_ingress_cycles(4000 + i);
  p->set_enqueue_time(5.5 + i);
}

void ExpectDefaultAnnotations(const Packet& p) {
  const auto fresh = std::make_unique<Packet>();
  EXPECT_EQ(p.length(), fresh->length());
  EXPECT_EQ(p.headroom(), fresh->headroom());
  EXPECT_EQ(p.arrival_time(), fresh->arrival_time());
  EXPECT_EQ(p.flow_hash(), fresh->flow_hash());
  EXPECT_EQ(p.vlb_phase(), fresh->vlb_phase());
  EXPECT_EQ(p.output_node(), fresh->output_node());
  EXPECT_EQ(p.flow_id(), fresh->flow_id());
  EXPECT_EQ(p.flow_seq(), fresh->flow_seq());
  EXPECT_EQ(p.paint(), fresh->paint());
  EXPECT_EQ(p.trace_handle(), fresh->trace_handle());
  EXPECT_EQ(p.ingress_cycles(), fresh->ingress_cycles());
  EXPECT_EQ(p.enqueue_time(), fresh->enqueue_time());
}

TEST(PoolTest, FreeBulkMatchesPerPacketFree) {
  // Two pools hand out the same slots; the packets are annotated alike on
  // both metadata lines and returned in the same shuffled order, by one
  // pool in bursts of assorted sizes (longer and shorter than the
  // prefetch distance) and by the other one packet at a time. Both pools
  // must then carve the same slots in the same order, the order they were
  // freed in, and every annotation must read its default.
  constexpr size_t kN = 300;
  PacketPool bulk(kN);
  PacketPool single(kN);
  Packet* a[kN];
  Packet* b[kN];
  ASSERT_EQ(bulk.AllocBulk(a, kN), kN);
  ASSERT_EQ(single.AllocBulk(b, kN), kN);
  std::vector<size_t> order(kN);
  for (size_t i = 0; i < kN; ++i) {
    order[i] = i;
  }
  Rng rng(34);
  for (size_t i = kN - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  std::vector<Packet*> bulk_order;
  std::vector<size_t> want_slots;
  for (size_t i : order) {
    ASSERT_EQ(bulk.SlotIndex(a[i]), single.SlotIndex(b[i]));
    Annotate(a[i], static_cast<uint32_t>(i));
    Annotate(b[i], static_cast<uint32_t>(i));
    bulk_order.push_back(a[i]);
    want_slots.push_back(bulk.SlotIndex(a[i]));
  }
  size_t done = 0;
  for (size_t burst : {size_t{1}, size_t{3}, size_t{8}, size_t{9}, size_t{64}, size_t{215}}) {
    bulk.FreeBulk(bulk_order.data() + done, burst);
    done += burst;
  }
  ASSERT_EQ(done, kN);
  for (size_t i : order) {
    single.Free(b[i]);
  }
  ASSERT_EQ(bulk.available(), kN);
  ASSERT_EQ(single.available(), kN);

  ASSERT_EQ(bulk.AllocBulk(a, kN), kN);
  ASSERT_EQ(single.AllocBulk(b, kN), kN);
  for (size_t i = 0; i < kN; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(bulk.SlotIndex(a[i]), want_slots[i]);
    EXPECT_EQ(single.SlotIndex(b[i]), want_slots[i]);
    ExpectDefaultAnnotations(*a[i]);
    ExpectDefaultAnnotations(*b[i]);
  }
  bulk.FreeBulk(a, kN);
  single.FreeBulk(b, kN);
}

TEST(PoolTest, AllocBulkClearsInPoolFlag) {
  // A bulk-carved packet must be freeable exactly once, like Alloc'd ones.
  PacketPool pool(2);
  Packet* pkts[2];
  ASSERT_EQ(pool.AllocBulk(pkts, 2), 2u);
  pool.FreeBulk(pkts, 2);
  Packet* again[2];
  ASSERT_EQ(pool.AllocBulk(again, 2), 2u);
  pool.FreeBulk(again, 2);
  EXPECT_EQ(pool.available(), 2u);
}

TEST(PoolTest, AllPacketsDistinct) {
  PacketPool pool(16);
  std::vector<Packet*> all;
  for (int i = 0; i < 16; ++i) {
    all.push_back(pool.Alloc());
  }
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i], all[j]);
    }
  }
  for (Packet* p : all) {
    pool.Free(p);
  }
}

}  // namespace
}  // namespace rb
