#include "netdev/nic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "packet/flow.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "telemetry/latency_stats.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
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

// Reference model of a port, applied frame by frame from the NIC's
// specification rather than from NicPort's code.
// - Steering: a frame whose first 34 B read Ethernet type 0x0800, IPv4
//   version 4 and an IHL of at least 5 gets flow_hash = FlowHash32 of its
//   5-tuple (ports only for TCP and UDP, and only when the 4 bytes past
//   the IPv4 header are in the frame); any other frame keeps its
//   flow_hash. RSS picks queue hash % Q (queue 0 for a frame that does
//   not parse), single-queue mode queue 0, and the MAC table the rule for
//   the destination MAC of a frame of at least 14 B, else RSS.
// - Staging: a delivered frame is staged on its queue; the queue's group
//   commits when it holds kn frames, or when a frame arrives
//   batch_timeout or more after the group's oldest one.
// - Accounting: a committed group costs ceil(g/16) descriptor
//   transactions and 16 B per descriptor, every frame (dropped ones
//   included) ceil(len/256) data transactions and len payload bytes, and
//   a frame enters its FIFO ring when the ring has room and is otherwise
//   dropped.
class ReferenceNic {
 public:
  struct Side {
    uint64_t packets = 0;
    uint64_t bytes = 0;
    uint64_t drops = 0;
    std::vector<double> occupancy_hw;  // per ring
    std::vector<std::deque<Packet*>> rings;
    int partial_overflows = 0;  // pushes that overflowed part way through
  };
  // What delivery must write into a frame.
  struct Steered {
    uint16_t queue = 0;
    bool hashed = false;  // the frame parses, so flow_hash is rewritten
    uint32_t flow_hash = 0;
  };
  using Burst = std::vector<std::pair<Packet*, uint32_t>>;  // frame, length

  explicit ReferenceNic(const NicConfig& cfg) : cfg_(cfg), staged_(cfg.num_rx_queues) {
    rx_.rings.resize(cfg.num_rx_queues);
    rx_.occupancy_hw.resize(cfg.num_rx_queues);
    tx_.rings.resize(cfg.num_tx_queues);
    tx_.occupancy_hw.resize(cfg.num_tx_queues);
  }

  void AddMacRule(const MacAddress& mac, uint16_t queue) { mac_rules_[mac] = queue; }

  // Steers `p` and stages it at `now`. Reads the frame, so the test calls
  // it while it still owns `p`.
  Steered Deliver(Packet* p, SimTime now) {
    const Steered s = Steer(*p);
    Group& g = staged_[s.queue];
    if (g.frames.empty()) {
      g.oldest = now;
    }
    g.frames.emplace_back(p, p->length());
    if (g.frames.size() >= cfg_.kn) {
      Commit(s.queue);
    } else if (cfg_.batch_timeout > 0 && now - g.oldest >= cfg_.batch_timeout) {
      timeout_commits_++;
      Commit(s.queue);
    }
    return s;
  }
  void Commit(uint16_t q) {
    Burst& group = staged_[q].frames;
    if (group.empty()) {
      return;
    }
    pcie_txns_ += (group.size() + 15) / 16;
    pcie_bytes_ += group.size() * 16;
    Push(&rx_, q, group);
    group.clear();
  }
  void CommitAll() {
    for (uint16_t q = 0; q < cfg_.num_rx_queues; ++q) {
      Commit(q);
    }
  }
  // The timeout flush: commits every group batch_timeout or more old.
  void FlushStaged(SimTime now) {
    for (uint16_t q = 0; q < cfg_.num_rx_queues; ++q) {
      if (cfg_.batch_timeout > 0 && !staged_[q].frames.empty() &&
          now - staged_[q].oldest >= cfg_.batch_timeout) {
        Commit(q);
      }
    }
  }
  // Returns the wire bytes of the frames the ring accepted.
  uint64_t Transmit(const Burst& burst) { return Push(&tx_, 0, burst); }

  Side& rx() { return rx_; }
  Side& tx() { return tx_; }
  uint64_t pcie_txns() const { return pcie_txns_; }
  uint64_t pcie_bytes() const { return pcie_bytes_; }
  // Groups a delivered frame committed because the group had timed out.
  int timeout_commits() const { return timeout_commits_; }
  size_t staged() const {
    size_t n = 0;
    for (const Group& g : staged_) {
      n += g.frames.size();
    }
    return n;
  }
  // Frames dropped since the last call, which the pool has reset.
  std::set<Packet*> TakeDropped() { return std::exchange(dropped_, {}); }

 private:
  struct Group {
    Burst frames;
    SimTime oldest = 0;
  };

  Steered Steer(const Packet& p) const {
    const uint8_t* f = p.data();
    const uint32_t len = p.length();
    Steered s;
    FlowKey key;
    if (len >= 34 && f[12] == 0x08 && f[13] == 0x00 && (f[14] >> 4) == 4 && (f[14] & 0xf) >= 5) {
      key.protocol = f[23];
      key.src_ip = LoadBe32(f + 26);
      key.dst_ip = LoadBe32(f + 30);
      const uint32_t l4 = 14 + 4u * (f[14] & 0xf);
      if ((key.protocol == 6 || key.protocol == 17) && len >= l4 + 4) {
        key.src_port = LoadBe16(f + l4);
        key.dst_port = LoadBe16(f + l4 + 2);
      }
      s.hashed = true;
      s.flow_hash = FlowHash32(key);
    }
    const uint16_t rss = s.hashed ? static_cast<uint16_t>(s.flow_hash % cfg_.num_rx_queues) : 0;
    switch (cfg_.steering) {
      case SteeringMode::kSingleQueue:
        s.queue = 0;
        break;
      case SteeringMode::kRss:
        s.queue = rss;
        break;
      case SteeringMode::kMacTable: {
        s.queue = rss;
        if (len >= 14) {
          MacAddress dst;
          std::copy(f, f + 6, dst.begin());
          auto it = mac_rules_.find(dst);
          if (it != mac_rules_.end()) {
            s.queue = it->second;
          }
        }
        break;
      }
    }
    return s;
  }

  uint64_t Push(Side* side, uint16_t q, const Burst& burst) {
    uint64_t accepted_bytes = 0;
    size_t accepted = 0;
    std::deque<Packet*>& ring = side->rings[q];
    for (const auto& [p, len] : burst) {
      pcie_txns_ += (len + 255) / 256;
      pcie_bytes_ += len;
      if (ring.size() < cfg_.ring_entries) {
        ring.push_back(p);
        side->packets++;
        side->bytes += len;
        side->occupancy_hw[q] = std::max(side->occupancy_hw[q], static_cast<double>(ring.size()));
        accepted_bytes += len;
        accepted++;
      } else {
        side->drops++;
        dropped_.insert(p);
      }
    }
    if (accepted > 0 && accepted < burst.size()) {
      side->partial_overflows++;
    }
    return accepted_bytes;
  }

  NicConfig cfg_;
  std::map<MacAddress, uint16_t> mac_rules_;
  std::vector<Group> staged_;
  Side rx_;
  Side tx_;
  uint64_t pcie_txns_ = 0;
  uint64_t pcie_bytes_ = 0;
  int timeout_commits_ = 0;
  std::set<Packet*> dropped_;
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
  ReferenceNic ref(cfg);
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
      ref.Deliver(p, 0.0);
      batch.PushBack(p);
    }
    nic.DeliverBatch(&batch, 0.0);
  };
  auto transmit = [&](std::vector<Packet*> pkts) {
    ReferenceNic::Burst burst;
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
    std::deque<Packet*>& ring = ref.rx().rings[0];
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
    std::deque<Packet*>& ring = ref.tx().rings[0];
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
    EXPECT_EQ(snap.GaugeValue("nic/rxq0/occupancy_hw"), rx.occupancy_hw[0]);
    EXPECT_EQ(snap.GaugeValue("nic/txq0/occupancy_hw"), tx.occupancy_hw[0]);
    EXPECT_EQ(nic.rx_queue_depth(0), rx.rings[0].size());
    EXPECT_EQ(pool_.available(),
              pool_.capacity() - ref.staged() - rx.rings[0].size() - tx.rings[0].size());
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
  ref.CommitAll();
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
        ref.CommitAll();
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
  ref.CommitAll();
  while (!ref.rx().rings[0].empty() || !ref.tx().rings[0].empty()) {
    poll_and_forward(64);
    drain(64);
  }
  check("drained");
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

// The one delivery pass (Deliver and DeliverBatch) against the reference
// above, over RSS on 1, 2, 3, 4 and 8 queues, the MAC table with rule hits
// and misses, and single-queue steering; kn 1, 3 and 16; batch_timeout 0
// and above 0 with `now` advancing between calls; bursts of 1-256 frames
// that overflow 64-entry rx rings, also part way through a group. Frames
// are UDP, TCP and ICMP, with IHL 5-15, or do not parse: not IPv4,
// version 6, IHL below 5, truncated below 34 B (some below the Ethernet
// header). After every call, each frame the NIC still holds carries the
// reference's flow_hash (untouched when the frame does not parse), the
// call's arrival time and one ingress stamp read during the call (0 with
// stamping shed); each ring holds the reference's frames in order, and
// rx counters, PCIe totals and the pool's returns equal the reference's.
TEST_F(NicTest, DeliveryMatchesReferenceNic) {
  struct Case {
    const char* name;
    SteeringMode steering;
    uint16_t queues;
    uint16_t kn;
    SimTime timeout;
  };
  const Case cases[] = {
      {"rss Q=1 kn=16", SteeringMode::kRss, 1, 16, 0},
      {"rss Q=2 kn=3", SteeringMode::kRss, 2, 3, 0},
      {"rss Q=3 kn=16 timeout", SteeringMode::kRss, 3, 16, 1e-3},
      {"rss Q=4 kn=16", SteeringMode::kRss, 4, 16, 0},
      {"rss Q=8 kn=1", SteeringMode::kRss, 8, 1, 0},
      {"rss Q=8 kn=3 timeout", SteeringMode::kRss, 8, 3, 2e-3},
      {"mac Q=4 kn=3 timeout", SteeringMode::kMacTable, 4, 3, 1e-3},
      {"mac Q=3 kn=16", SteeringMode::kMacTable, 3, 16, 0},
      {"single Q=1 kn=1 timeout", SteeringMode::kSingleQueue, 1, 1, 1e-3},
      {"single Q=4 kn=16", SteeringMode::kSingleQueue, 4, 16, 0},
  };
  constexpr uint32_t kUntouched = 0x5eed5eed;  // flow_hash before delivery
  PacketPool pool(4096);
  Rng rng(34);
  const bool stamp_default = telemetry::IngressStampEnabled();

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NicConfig cfg;
    cfg.num_rx_queues = c.queues;
    cfg.ring_entries = 64;
    cfg.kn = c.kn;
    cfg.batch_timeout = c.timeout;
    cfg.steering = c.steering;
    NicPort nic(cfg);
    ReferenceNic ref(cfg);
    std::vector<MacAddress> rule_macs;
    if (c.steering == SteeringMode::kMacTable) {
      for (uint16_t k = 0; k < 2 * c.queues; ++k) {
        rule_macs.push_back(MacForNode(k));
        nic.steering().AddMacRule(rule_macs.back(), static_cast<uint16_t>((k * 5 + 1) % c.queues));
        ref.AddMacRule(rule_macs.back(), static_cast<uint16_t>((k * 5 + 1) % c.queues));
      }
    }
    SimTime now = 0;
    int unparsed = 0;
    int mac_hits = 0;

    auto frame = [&] {
      FrameSpec spec;
      spec.size = rng.NextBool(0.2) ? static_cast<uint32_t>(rng.NextRange(65, 200)) : 64;
      spec.flow.src_ip = static_cast<uint32_t>(rng.Next());
      spec.flow.dst_ip = static_cast<uint32_t>(rng.Next());
      spec.flow.src_port = static_cast<uint16_t>(rng.Next());
      spec.flow.dst_port = static_cast<uint16_t>(rng.Next());
      const uint8_t protocols[] = {Ipv4View::kProtoUdp, Ipv4View::kProtoTcp, Ipv4View::kProtoIcmp};
      spec.flow.protocol = protocols[rng.NextBounded(3)];
      Packet* p = AllocFrame(spec, &pool);
      EXPECT_NE(p, nullptr);
      uint8_t* f = p->data();
      switch (rng.NextBounded(10)) {
        case 0:  // options: the ports move past them, or out of the frame
          f[14] = static_cast<uint8_t>(0x40 | rng.NextRange(6, 15));
          break;
        case 1:  // not IPv4
          StoreBe16(f + 12, rng.NextBool(0.5) ? 0x86dd : EthernetView::kTypeArp);
          break;
        case 2:  // version 6, or an IHL below 5
          f[14] = rng.NextBool(0.5) ? 0x65 : static_cast<uint8_t>(0x40 | rng.NextBounded(5));
          break;
        case 3:  // truncated, some below the Ethernet header
          p->SetLength(static_cast<uint32_t>(rng.NextBounded(34)));
          break;
      }
      if (!rule_macs.empty() && rng.NextBool(0.5)) {
        const MacAddress& mac = rule_macs[rng.NextBounded(rule_macs.size())];
        std::copy(mac.begin(), mac.end(), f);
        mac_hits += p->length() >= EthernetView::kSize;
      }
      p->set_flow_hash(kUntouched);
      p->set_arrival_time(-1);
      p->set_ingress_cycles(0);
      return p;
    };

    auto deliver = [&](uint32_t n) {
      const bool stamp = rng.NextBool(0.75);
      telemetry::SetIngressStampEnabled(stamp);
      PacketBatch batch;
      std::vector<std::pair<Packet*, ReferenceNic::Steered>> sent;
      for (uint32_t i = 0; i < n; ++i) {
        Packet* p = frame();
        sent.emplace_back(p, ref.Deliver(p, now));
        unparsed += !sent.back().second.hashed;
        batch.PushBack(p);
      }
      const uint64_t before = telemetry::ReadCycles();
      if (n == 1 && rng.NextBool(0.5)) {
        nic.Deliver(batch[0], now);
      } else {
        nic.DeliverBatch(&batch, now);
        EXPECT_TRUE(batch.empty());
      }
      const uint64_t after = telemetry::ReadCycles();
      telemetry::SetIngressStampEnabled(stamp_default);
      const std::set<Packet*> dropped = ref.TakeDropped();
      uint64_t burst_stamp = 0;
      for (const auto& [p, want] : sent) {
        if (dropped.count(p) != 0) {
          continue;  // back in the pool, annotations reset
        }
        EXPECT_EQ(p->flow_hash(), want.hashed ? want.flow_hash : kUntouched);
        EXPECT_EQ(p->arrival_time(), now);
        if (!stamp) {
          EXPECT_EQ(p->ingress_cycles(), 0u);
          continue;
        }
        EXPECT_GE(p->ingress_cycles(), before);
        EXPECT_LE(p->ingress_cycles(), after);
        if (burst_stamp == 0) {
          burst_stamp = p->ingress_cycles();
        }
        EXPECT_EQ(p->ingress_cycles(), burst_stamp) << "one stamp per burst";
      }
    };
    auto poll = [&](uint16_t q, size_t max) {
      Packet* out[128];
      const size_t n = nic.PollRx(q, out, std::min<size_t>(max, std::size(out)));
      std::deque<Packet*>& ring = ref.rx().rings[q];
      ASSERT_EQ(n, std::min(max, ring.size())) << "queue " << q;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], ring.front()) << "queue " << q << " frame " << i << " out of order";
        ring.pop_front();
      }
      pool.FreeBulk(out, n);
    };
    auto check = [&](const char* step) {
      SCOPED_TRACE(step);
      EXPECT_EQ(nic.rx_counters().packets, ref.rx().packets);
      EXPECT_EQ(nic.rx_counters().bytes, ref.rx().bytes);
      EXPECT_EQ(nic.rx_counters().drops, ref.rx().drops);
      EXPECT_EQ(nic.pcie_counters().transactions, ref.pcie_txns());
      EXPECT_EQ(nic.pcie_counters().payload_bytes, ref.pcie_bytes());
      size_t held = ref.staged();
      for (uint16_t q = 0; q < c.queues; ++q) {
        EXPECT_EQ(nic.rx_queue_depth(q), ref.rx().rings[q].size()) << "queue " << q;
        held += ref.rx().rings[q].size();
      }
      EXPECT_EQ(pool.available(), pool.capacity() - held);
    };

    for (int step = 0; step < 300; ++step) {
      if (c.timeout > 0) {
        now += rng.NextDouble() * c.timeout;
      } else {
        now += 1e-6;
      }
      switch (rng.NextBounded(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          deliver(static_cast<uint32_t>(rng.NextBool(0.2) ? rng.NextRange(1, 4)
                                                             : rng.NextRange(1, 256)));
          check("deliver");
          break;
        case 4:
        case 5:
        case 6:
          poll(static_cast<uint16_t>(rng.NextBounded(c.queues)), rng.NextRange(1, 128));
          check("poll");
          break;
        case 7:
        case 8:
          nic.FlushStaged(now);
          ref.FlushStaged(now);
          check("timeout flush");
          break;
        case 9:
          nic.FlushAllStaged();
          ref.CommitAll();
          check("flush all");
          break;
      }
      if (HasFailure()) {
        FAIL() << "diverged at step " << step;
      }
    }
    EXPECT_GT(unparsed, 0);
    if (c.steering == SteeringMode::kMacTable) {
      EXPECT_GT(mac_hits, 0);
    }
    if (c.kn > 1) {
      EXPECT_GT(ref.rx().partial_overflows, 0) << "no rx ring overflowed part way through a group";
    }
    if (c.timeout > 0 && c.kn > 1) {
      EXPECT_GT(ref.timeout_commits(), 0) << "no delivery found its group timed out";
    }

    // Tear down: every staged and queued frame comes back, in order.
    nic.FlushAllStaged();
    ref.CommitAll();
    for (uint16_t q = 0; q < c.queues; ++q) {
      while (!ref.rx().rings[q].empty()) {
        poll(q, 128);
      }
    }
    check("drained");
    EXPECT_EQ(pool.available(), pool.capacity());
  }
}

}  // namespace
}  // namespace rb
