#include "netdev/nic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "packet/pool.hpp"
#include "telemetry/metrics.hpp"
#include "workload/abilene.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

FrameSpec UdpFrame(uint32_t size, uint32_t src_ip, uint16_t src_port) {
  FrameSpec spec;
  spec.size = size;
  spec.flow.src_ip = src_ip;
  spec.flow.dst_ip = 0x0a000002;
  spec.flow.src_port = src_port;
  spec.flow.dst_port = 80;
  spec.flow.protocol = 17;
  return spec;
}

class NicTest : public ::testing::Test {
 protected:
  PacketPool pool_{1024};
};

TEST_F(NicTest, DeliverPollRoundTrip) {
  NicConfig cfg;
  cfg.num_rx_queues = 1;
  cfg.kn = 1;
  NicPort nic(cfg);
  Packet* p = AllocFrame(UdpFrame(64, 1, 1000), &pool_);
  nic.Deliver(p, 0.0);
  Packet* out[4];
  ASSERT_EQ(nic.PollRx(0, out, 4), 1u);
  EXPECT_EQ(out[0], p);
  EXPECT_EQ(nic.rx_counters().packets, 1u);
  pool_.Free(p);
}

TEST_F(NicTest, KnBatchingWithholdsUntilBatchFull) {
  NicConfig cfg;
  cfg.num_rx_queues = 1;
  cfg.kn = 4;
  NicPort nic(cfg);
  Packet* out[8];
  for (int i = 0; i < 3; ++i) {
    nic.Deliver(AllocFrame(UdpFrame(64, 1, 1000), &pool_), 0.0);
    EXPECT_EQ(nic.PollRx(0, out, 8), 0u) << "staged packets visible too early";
  }
  nic.Deliver(AllocFrame(UdpFrame(64, 1, 1000), &pool_), 0.0);
  size_t n = nic.PollRx(0, out, 8);
  EXPECT_EQ(n, 4u);
  for (size_t i = 0; i < n; ++i) {
    pool_.Free(out[i]);
  }
}

TEST_F(NicTest, BatchTimeoutFlushes) {
  NicConfig cfg;
  cfg.num_rx_queues = 1;
  cfg.kn = 16;
  cfg.batch_timeout = 1e-3;
  NicPort nic(cfg);
  nic.Deliver(AllocFrame(UdpFrame(64, 1, 1000), &pool_), 0.0);
  Packet* out[4];
  EXPECT_EQ(nic.PollRx(0, out, 4), 0u);
  nic.FlushStaged(0.5e-3);
  EXPECT_EQ(nic.PollRx(0, out, 4), 0u) << "flushed before the timeout";
  nic.FlushStaged(1.5e-3);
  ASSERT_EQ(nic.PollRx(0, out, 4), 1u);
  pool_.Free(out[0]);
}

TEST_F(NicTest, RssSteersSameFlowToSameQueue) {
  NicConfig cfg;
  cfg.num_rx_queues = 8;
  cfg.kn = 1;
  NicPort nic(cfg);
  // Two packets of the same flow land in the same queue.
  Packet* a = AllocFrame(UdpFrame(64, 42, 4242), &pool_);
  Packet* b = AllocFrame(UdpFrame(128, 42, 4242), &pool_);
  nic.Deliver(a, 0.0);
  nic.Deliver(b, 0.0);
  for (uint16_t q = 0; q < 8; ++q) {
    uint64_t depth = nic.rx_queue_depth(q);
    EXPECT_TRUE(depth == 0 || depth == 2) << "flow split across queues";
    Packet* out[4];
    size_t n = nic.PollRx(q, out, 4);
    for (size_t i = 0; i < n; ++i) {
      pool_.Free(out[i]);
    }
  }
}

TEST_F(NicTest, RxDropWhenRingFull) {
  NicConfig cfg;
  cfg.num_rx_queues = 1;
  cfg.ring_entries = 4;
  cfg.kn = 1;
  NicPort nic(cfg);
  for (int i = 0; i < 6; ++i) {
    nic.Deliver(AllocFrame(UdpFrame(64, 1, 1000), &pool_), 0.0);
  }
  EXPECT_EQ(nic.rx_counters().drops, 2u);
  EXPECT_EQ(nic.rx_counters().packets, 4u);
  // Dropped packets were returned to the pool.
  Packet* out[8];
  size_t n = nic.PollRx(0, out, 8);
  EXPECT_EQ(n, 4u);
  for (size_t i = 0; i < n; ++i) {
    pool_.Free(out[i]);
  }
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

TEST_F(NicTest, TransmitAndDrain) {
  NicConfig cfg;
  cfg.num_tx_queues = 4;
  NicPort nic(cfg);
  for (uint16_t q = 0; q < 4; ++q) {
    Packet* p = AllocFrame(UdpFrame(64, q, 1), &pool_);
    NicPort::RingBurst sent = nic.Transmit(q, &p, 1);
    EXPECT_EQ(sent.packets, 1u);
    EXPECT_EQ(sent.bytes, 64u);
  }
  Packet* out[8];
  size_t n = nic.DrainTx(out, 8);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(nic.tx_counters().packets, 4u);
  for (size_t i = 0; i < n; ++i) {
    pool_.Free(out[i]);
  }
}

TEST_F(NicTest, TxDropWhenRingFull) {
  NicConfig cfg;
  cfg.num_tx_queues = 1;
  cfg.ring_entries = 2;
  NicPort nic(cfg);
  Packet* burst[3];
  for (Packet*& p : burst) {
    p = AllocFrame(UdpFrame(64, 1, 1), &pool_);
  }
  NicPort::RingBurst sent = nic.Transmit(0, burst, 3);
  EXPECT_EQ(sent.packets, 2u);
  EXPECT_EQ(nic.tx_counters().drops, 1u);
  Packet* out[4];
  size_t n = nic.DrainTx(out, 4);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(out[0], burst[0]);
  EXPECT_EQ(out[1], burst[1]);
  for (size_t i = 0; i < n; ++i) {
    pool_.Free(out[i]);
  }
  // The dropped frame went back to the pool.
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

TEST_F(NicTest, PcieDescriptorBatchingReducesTransactions) {
  // kn=16 packs 16 descriptors into one PCIe transaction; kn=1 pays one
  // transaction per descriptor (Table 1's mechanism).
  auto run = [&](uint16_t kn) {
    NicConfig cfg;
    cfg.kn = kn;
    NicPort nic(cfg);
    for (int i = 0; i < 16; ++i) {
      nic.Deliver(AllocFrame(UdpFrame(64, 1, 1000), &pool_), 0.0);
    }
    nic.FlushAllStaged();
    Packet* out[32];
    size_t n = nic.PollRx(0, out, 32);
    for (size_t i = 0; i < n; ++i) {
      pool_.Free(out[i]);
    }
    return nic.pcie_counters().transactions.load();
  };
  uint64_t txn_kn16 = run(16);
  uint64_t txn_kn1 = run(1);
  // Data DMA transactions are equal; descriptor transactions shrink 16x.
  EXPECT_EQ(txn_kn1 - txn_kn16, 15u);
}

TEST_F(NicTest, DeliverBatchMatchesPerPacketDeliver) {
  // Two identical ports, same frames: one fed per packet, one per batch.
  // Steering, staging, and counters must agree exactly.
  NicConfig cfg;
  cfg.num_rx_queues = 4;
  cfg.kn = 16;
  NicPort single(cfg);
  NicPort bulk(cfg);

  PacketBatch batch;
  std::vector<Packet*> singles;
  for (int i = 0; i < 37; ++i) {
    FrameSpec spec = UdpFrame(64, 0x0a000000u + static_cast<uint32_t>(i),
                              static_cast<uint16_t>(1000 + i));
    singles.push_back(AllocFrame(spec, &pool_));
    batch.PushBack(AllocFrame(spec, &pool_));
  }
  for (Packet* p : singles) {
    single.Deliver(p, 0.0);
  }
  bulk.DeliverBatch(&batch, 0.0);
  EXPECT_TRUE(batch.empty());
  single.FlushAllStaged();
  bulk.FlushAllStaged();
  EXPECT_EQ(single.rx_counters().packets, bulk.rx_counters().packets);
  EXPECT_EQ(single.pcie_counters().transactions.load(),
            bulk.pcie_counters().transactions.load());
  for (uint16_t q = 0; q < cfg.num_rx_queues; ++q) {
    EXPECT_EQ(single.rx_queue_depth(q), bulk.rx_queue_depth(q)) << "queue " << q;
  }
  Packet* out[64];
  for (NicPort* nic : {&single, &bulk}) {
    for (uint16_t q = 0; q < cfg.num_rx_queues; ++q) {
      size_t n;
      while ((n = nic->PollRx(q, out, 64)) > 0) {
        for (size_t i = 0; i < n; ++i) {
          pool_.Free(out[i]);
        }
      }
    }
  }
}

TEST(PcieCountersTest, DescriptorBatchMath) {
  EXPECT_EQ(PcieDescriptorTxns(1), 1u);
  EXPECT_EQ(PcieDescriptorTxns(16), 1u);
  EXPECT_EQ(PcieDescriptorTxns(17), 2u);
  PcieCounters c;
  c.Add(PcieDescriptorTxns(16), 16 * kDescriptorBytes);
  EXPECT_EQ(c.transactions, 1u);
  EXPECT_EQ(c.payload_bytes, 256u);
  c.Add(PcieDescriptorTxns(17), 17 * kDescriptorBytes);
  EXPECT_EQ(c.transactions, 3u);  // 16 + 1
}

TEST(PcieCountersTest, PacketDataSplitsAtMaxPayload) {
  EXPECT_EQ(PcieDataTxns(64), 1u);
  EXPECT_EQ(PcieDataTxns(256), 1u);
  EXPECT_EQ(PcieDataTxns(257), 2u);
  EXPECT_EQ(PcieDataTxns(1024), 4u);
  EXPECT_EQ(PcieDataTxns(1500), 6u);
}

// Reference model of one single-queue port's accounting, applied frame by
// frame from the NIC's specification rather than from NicPort's code: a
// committed kn group costs ceil(g/16) descriptor transactions and 16 B per
// descriptor, every frame (dropped ones included) ceil(len/256) data
// transactions and len payload bytes, and a frame enters its FIFO ring
// when the ring has room and is otherwise dropped.
class ReferenceNic {
 public:
  struct Side {
    uint64_t packets = 0;
    uint64_t bytes = 0;
    uint64_t drops = 0;
    double occupancy_hw = 0;
    std::deque<Packet*> ring;
    int partial_overflows = 0;  // bursts that overflowed part way through
  };

  ReferenceNic(size_t ring_capacity, uint16_t kn) : capacity_(ring_capacity), kn_(kn) {}

  // `len` is the frame length, read by the test while it owned the frame.
  void Deliver(Packet* p, uint32_t len) {
    staged_.push_back({p, len});
    if (staged_.size() >= kn_) {
      Commit();
    }
  }
  void Commit() {
    if (staged_.empty()) {
      return;
    }
    pcie_txns_ += (staged_.size() + 15) / 16;
    pcie_bytes_ += staged_.size() * 16;
    Push(&rx_, staged_);
    staged_.clear();
  }
  // Returns the wire bytes of the frames the ring accepted.
  uint64_t Transmit(const std::vector<std::pair<Packet*, uint32_t>>& burst) {
    return Push(&tx_, burst);
  }

  Side& rx() { return rx_; }
  Side& tx() { return tx_; }
  uint64_t pcie_txns() const { return pcie_txns_; }
  uint64_t pcie_bytes() const { return pcie_bytes_; }
  size_t staged() const { return staged_.size(); }

 private:
  uint64_t Push(Side* side, const std::vector<std::pair<Packet*, uint32_t>>& burst) {
    uint64_t accepted_bytes = 0;
    size_t accepted = 0;
    for (const auto& [p, len] : burst) {
      pcie_txns_ += (len + 255) / 256;
      pcie_bytes_ += len;
      if (side->ring.size() < capacity_) {
        side->ring.push_back(p);
        side->packets++;
        side->bytes += len;
        side->occupancy_hw =
            std::max(side->occupancy_hw, static_cast<double>(side->ring.size()));
        accepted_bytes += len;
        accepted++;
      } else {
        side->drops++;
      }
    }
    if (accepted > 0 && accepted < burst.size()) {
      side->partial_overflows++;
    }
    return accepted_bytes;
  }

  size_t capacity_;
  uint16_t kn_;
  Side rx_;
  Side tx_;
  uint64_t pcie_txns_ = 0;
  uint64_t pcie_bytes_ = 0;
  std::vector<std::pair<Packet*, uint32_t>> staged_;
};

// The NIC's per-burst accounting (one ring publish, one update per counter
// per burst) against the per-packet reference above, on 64 B and
// Abilene-size frames, through rx rings overflowing part way through a kn
// group and tx rings overflowing part way through a burst. After every
// step the port's counters, PCIe totals and registry readings must equal
// the reference's, the rings must hold exactly the frames the reference
// accepted, in order, and the pool must hold every other frame (each drop
// returned exactly once: a second release trips the pool's double-free
// check, a missing one shows in available()).
TEST_F(NicTest, BurstAccountingMatchesPerPacketReference) {
  NicConfig cfg;
  cfg.ring_entries = 32;
  cfg.kn = 16;
  NicPort nic(cfg);
  telemetry::MetricRegistry registry;
  nic.BindTelemetry(&registry, "nic/");
  ReferenceNic ref(cfg.ring_entries, cfg.kn);
  Rng rng(27);
  AbileneSizeDistribution abilene;
  uint32_t next_src = 1;

  auto frame = [&](bool abilene_size) {
    const uint32_t size = abilene_size ? abilene.NextSize(&rng) : 64;
    Packet* p = AllocFrame(UdpFrame(size, next_src++, 1000), &pool_);
    EXPECT_NE(p, nullptr);
    return p;
  };
  auto deliver = [&](int n, bool abilene_size) {
    PacketBatch batch;
    for (int i = 0; i < n; ++i) {
      Packet* p = frame(abilene_size);
      ref.Deliver(p, p->length());
      batch.PushBack(p);
    }
    nic.DeliverBatch(&batch, 0.0);
  };
  auto transmit = [&](std::vector<Packet*> pkts) {
    std::vector<std::pair<Packet*, uint32_t>> burst;
    for (Packet* p : pkts) {
      burst.emplace_back(p, p->length());
    }
    const uint64_t want_bytes = ref.Transmit(burst);
    const uint64_t want_packets = ref.tx().packets;
    const uint64_t before = nic.tx_counters().packets;
    NicPort::RingBurst sent = nic.Transmit(0, pkts.data(), static_cast<uint32_t>(pkts.size()));
    EXPECT_EQ(before + sent.packets, want_packets);
    EXPECT_EQ(sent.bytes, want_bytes);
  };
  auto transmit_fresh = [&](int n, bool abilene_size) {
    std::vector<Packet*> pkts;
    for (int i = 0; i < n; ++i) {
      pkts.push_back(frame(abilene_size));
    }
    transmit(pkts);
  };
  // Polled frames are forwarded to the tx ring, as a router would.
  auto poll_and_forward = [&](size_t max) {
    Packet* out[64];
    const size_t n = nic.PollRx(0, out, std::min<size_t>(max, std::size(out)));
    std::deque<Packet*>& ring = ref.rx().ring;
    ASSERT_EQ(n, std::min(max, ring.size()));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], ring.front()) << "rx frame " << i << " out of order";
      ring.pop_front();
    }
    transmit(std::vector<Packet*>(out, out + n));
  };
  auto drain = [&](size_t max) {
    Packet* out[64];
    const size_t n = nic.DrainTx(out, std::min<size_t>(max, std::size(out)));
    std::deque<Packet*>& ring = ref.tx().ring;
    ASSERT_EQ(n, std::min(max, ring.size()));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], ring.front()) << "tx frame " << i << " out of order";
      ring.pop_front();
      pool_.Free(out[i]);
    }
  };
  auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    const ReferenceNic::Side& rx = ref.rx();
    const ReferenceNic::Side& tx = ref.tx();
    EXPECT_EQ(nic.rx_counters().packets, rx.packets);
    EXPECT_EQ(nic.rx_counters().bytes, rx.bytes);
    EXPECT_EQ(nic.rx_counters().drops, rx.drops);
    EXPECT_EQ(nic.tx_counters().packets, tx.packets);
    EXPECT_EQ(nic.tx_counters().bytes, tx.bytes);
    EXPECT_EQ(nic.tx_counters().drops, tx.drops);
    EXPECT_EQ(nic.pcie_counters().transactions, ref.pcie_txns());
    EXPECT_EQ(nic.pcie_counters().payload_bytes, ref.pcie_bytes());
    const telemetry::RegistrySnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.CounterValue("nic/rx_packets"), rx.packets);
    EXPECT_EQ(snap.CounterValue("nic/rx_bytes"), rx.bytes);
    EXPECT_EQ(snap.CounterValue("nic/rx_drops"), rx.drops);
    EXPECT_EQ(snap.CounterValue("nic/tx_packets"), tx.packets);
    EXPECT_EQ(snap.CounterValue("nic/tx_bytes"), tx.bytes);
    EXPECT_EQ(snap.CounterValue("nic/tx_drops"), tx.drops);
    EXPECT_EQ(snap.GaugeValue("nic/rxq0/occupancy_hw"), rx.occupancy_hw);
    EXPECT_EQ(snap.GaugeValue("nic/txq0/occupancy_hw"), tx.occupancy_hw);
    EXPECT_EQ(nic.rx_queue_depth(0), rx.ring.size());
    EXPECT_EQ(pool_.available(),
              pool_.capacity() - ref.staged() - rx.ring.size() - tx.ring.size());
  };

  // Scripted: fill, drain a little, then overflow mid-group and mid-burst.
  deliver(16, false);  // one kn group: ring 16
  check("first group");
  poll_and_forward(4);  // ring 12; tx 4
  check("poll 4");
  deliver(16, true);  // ring 28
  check("second group");
  deliver(16, true);  // room 4: 4 in, 12 dropped
  check("group overflowing part way");
  deliver(5, false);
  nic.FlushAllStaged();  // ring full: all 5 dropped
  ref.Commit();
  check("flush into a full ring");
  transmit_fresh(40, true);  // tx room 28: 28 out, 12 dropped
  check("tx burst overflowing part way");
  transmit_fresh(3, false);  // tx ring full: all dropped
  check("tx burst into a full ring");
  EXPECT_EQ(ref.rx().partial_overflows, 1);
  EXPECT_EQ(ref.tx().partial_overflows, 1);

  // Random walk over the same operations.
  for (int step = 0; step < 400; ++step) {
    const bool abilene_size = rng.NextBool(0.5);
    switch (rng.NextBounded(5)) {
      case 0:
        deliver(static_cast<int>(rng.NextRange(1, 48)), abilene_size);
        break;
      case 1:
        poll_and_forward(rng.NextRange(1, 48));
        break;
      case 2:
        drain(rng.NextRange(1, 48));
        break;
      case 3:
        transmit_fresh(static_cast<int>(rng.NextRange(1, 40)), abilene_size);
        break;
      case 4:
        nic.FlushAllStaged();
        ref.Commit();
        break;
    }
    check("random step");
    if (HasFailure()) {
      FAIL() << "diverged at random step " << step;
    }
  }
  EXPECT_GT(ref.rx().partial_overflows, 1);
  EXPECT_GT(ref.tx().partial_overflows, 1);

  // Tear down: everything staged or queued comes back to the pool.
  nic.FlushAllStaged();
  ref.Commit();
  while (!ref.rx().ring.empty() || !ref.tx().ring.empty()) {
    poll_and_forward(64);
    drain(64);
  }
  check("drained");
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

}  // namespace
}  // namespace rb
