#include <gtest/gtest.h>

#include "click/elements/check_ip_header.hpp"
#include "click/elements/classifier.hpp"
#include "click/elements/dec_ip_ttl.hpp"
#include "click/elements/ether.hpp"
#include "click/elements/ip_lookup.hpp"
#include "click/elements/ipsec.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "click/router.hpp"
#include "collect_sink.hpp"
#include "common/rng.hpp"
#include "lookup/radix_trie.hpp"
#include "packet/pool.hpp"
#include "telemetry/latency_stats.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

Packet* Frame(PacketPool* pool, uint32_t dst_ip = 0x0a000001, uint8_t proto = 17,
              uint32_t size = 64) {
  FrameSpec spec;
  spec.size = size;
  spec.flow.src_ip = 0x0b000001;
  spec.flow.dst_ip = dst_ip;
  spec.flow.src_port = 100;
  spec.flow.dst_port = 200;
  spec.flow.protocol = proto;
  return AllocFrame(spec, pool);
}

class ElementsTest : public ::testing::Test {
 protected:
  PacketPool pool_{256};
};

TEST_F(ElementsTest, CheckIpHeaderAcceptsValid) {
  Router r;
  auto* check = r.Add<CheckIpHeader>();
  auto* good = r.Add<CollectSink>();
  auto* bad = r.Add<CollectSink>();
  r.Connect(check, 0, good, 0);
  r.Connect(check, 1, bad, 0);
  r.Initialize();
  PushOne(check, Frame(&pool_));
  EXPECT_EQ(good->got.size(), 1u);
  EXPECT_EQ(bad->got.size(), 0u);
  pool_.Free(good->got[0]);
}

TEST_F(ElementsTest, CheckIpHeaderRejectsBadChecksum) {
  Router r;
  auto* check = r.Add<CheckIpHeader>();
  auto* good = r.Add<CollectSink>();
  auto* bad = r.Add<CollectSink>();
  r.Connect(check, 0, good, 0);
  r.Connect(check, 1, bad, 0);
  r.Initialize();
  Packet* p = Frame(&pool_);
  p->data()[EthernetView::kSize + 10] ^= 0xff;  // corrupt checksum
  PushOne(check, p);
  EXPECT_EQ(good->got.size(), 0u);
  ASSERT_EQ(bad->got.size(), 1u);
  EXPECT_EQ(check->bad(), 1u);
  pool_.Free(bad->got[0]);
}

TEST_F(ElementsTest, CheckIpHeaderRejectsTruncatedAndNonIp) {
  Router r;
  auto* check = r.Add<CheckIpHeader>();
  auto* good = r.Add<CollectSink>();
  r.Connect(check, 0, good, 0);
  r.Initialize();
  Packet* p = Frame(&pool_);
  EthernetView{p->data()}.set_ether_type(0x86dd);  // IPv6
  PushOne(check, p);  // goes to unwired output 1 -> dropped
  EXPECT_EQ(good->got.size(), 0u);
  EXPECT_EQ(check->bad(), 1u);
  EXPECT_EQ(check->drops(), 1u);
}

TEST_F(ElementsTest, DecIpTtlDecrementsAndKeepsChecksumValid) {
  Router r;
  auto* ttl = r.Add<DecIpTtl>();
  auto* sink = r.Add<CollectSink>();
  r.Connect(ttl, 0, sink, 0);
  r.Initialize();
  Packet* p = Frame(&pool_);
  PushOne(ttl, p);
  ASSERT_EQ(sink->got.size(), 1u);
  Ipv4View ip{sink->got[0]->data() + EthernetView::kSize};
  EXPECT_EQ(ip.ttl(), 63);
  EXPECT_TRUE(ip.ChecksumOk()) << "incremental checksum update must hold";
  pool_.Free(sink->got[0]);
}

TEST_F(ElementsTest, DecIpTtlExpiresAtOne) {
  Router r;
  auto* ttl = r.Add<DecIpTtl>();
  auto* ok = r.Add<CollectSink>();
  auto* expired = r.Add<CollectSink>();
  r.Connect(ttl, 0, ok, 0);
  r.Connect(ttl, 1, expired, 0);
  r.Initialize();
  Packet* p = Frame(&pool_);
  Ipv4View ip{p->data() + EthernetView::kSize};
  ip.set_ttl(1);
  ip.UpdateChecksum();
  PushOne(ttl, p);
  EXPECT_EQ(ok->got.size(), 0u);
  ASSERT_EQ(expired->got.size(), 1u);
  EXPECT_EQ(ttl->expired(), 1u);
  pool_.Free(expired->got[0]);
}

TEST_F(ElementsTest, IpLookupRoutesByTable) {
  RadixTrie table;
  table.Insert(0x0a000000, 8, 1);
  table.Insert(0x14000000, 8, 2);
  Router r;
  auto* lookup = r.Add<IpLookup>(&table, 2);
  auto* port1 = r.Add<CollectSink>();
  auto* port2 = r.Add<CollectSink>();
  r.Connect(lookup, 0, port1, 0);
  r.Connect(lookup, 1, port2, 0);
  r.Initialize();
  PushOne(lookup, Frame(&pool_, 0x0a010101));
  PushOne(lookup, Frame(&pool_, 0x14010101));
  EXPECT_EQ(port1->got.size(), 1u);
  EXPECT_EQ(port2->got.size(), 1u);
  pool_.Free(port1->got[0]);
  pool_.Free(port2->got[0]);
}

TEST_F(ElementsTest, IpLookupDropsNoRoute) {
  RadixTrie table;
  table.Insert(0x0a000000, 8, 1);
  Router r;
  auto* lookup = r.Add<IpLookup>(&table, 1);
  auto* sink = r.Add<CollectSink>();
  r.Connect(lookup, 0, sink, 0);
  r.Initialize();
  PushOne(lookup, Frame(&pool_, 0xc0000001));
  EXPECT_EQ(sink->got.size(), 0u);
  EXPECT_EQ(lookup->no_route(), 1u);
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

TEST_F(ElementsTest, IpLookupOutOfRangeHopDropsInsteadOfAliasing) {
  // Regression: a next hop beyond the identity map used to wrap onto
  // (hop - 1) % n_outputs and silently forward out a wrong port. It must
  // land in the bad_hop bucket and be dropped.
  RadixTrie table;
  table.Insert(0x0a000000, 8, 1);
  table.Insert(0x14000000, 8, 7);  // hop 7 with only 2 ports: misconfigured
  Router r;
  auto* lookup = r.Add<IpLookup>(&table, 2);
  auto* port1 = r.Add<CollectSink>();
  auto* port2 = r.Add<CollectSink>();
  r.Connect(lookup, 0, port1, 0);
  r.Connect(lookup, 1, port2, 0);
  r.Initialize();
  PushOne(lookup, Frame(&pool_, 0x14010101));
  EXPECT_EQ(port1->got.size(), 0u) << "hop 7 must not alias onto port (7-1)%2";
  EXPECT_EQ(port2->got.size(), 0u);
  EXPECT_EQ(lookup->bad_hop(), 1u);
  EXPECT_EQ(lookup->no_route(), 0u);
  EXPECT_EQ(pool_.available(), pool_.capacity());
  // In-range hops still route.
  PushOne(lookup, Frame(&pool_, 0x0a010101));
  ASSERT_EQ(port1->got.size(), 1u);
  pool_.Free(port1->got[0]);
}

TEST_F(ElementsTest, IpLookupExplicitHopMapRemapsPorts) {
  RadixTrie table;
  table.Insert(0x0a000000, 8, 1);
  table.Insert(0x14000000, 8, 2);
  table.Insert(0x1e000000, 8, 3);
  Router r;
  // hop 1 -> port 1, hop 2 -> port 0, hop 3 -> explicitly invalid.
  auto* lookup = r.Add<IpLookup>(&table, 2, std::vector<int32_t>{-1, 1, 0, -1});
  auto* port0 = r.Add<CollectSink>();
  auto* port1 = r.Add<CollectSink>();
  r.Connect(lookup, 0, port0, 0);
  r.Connect(lookup, 1, port1, 0);
  r.Initialize();
  PushOne(lookup, Frame(&pool_, 0x0a010101));
  PushOne(lookup, Frame(&pool_, 0x14010101));
  PushOne(lookup, Frame(&pool_, 0x1e010101));
  ASSERT_EQ(port1->got.size(), 1u);
  ASSERT_EQ(port0->got.size(), 1u);
  EXPECT_EQ(lookup->bad_hop(), 1u);
  pool_.Free(port0->got[0]);
  pool_.Free(port1->got[0]);
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

TEST_F(ElementsTest, IpLookupShortFrameDrops) {
  RadixTrie table;
  table.Insert(0x0a000000, 8, 1);
  Router r;
  auto* lookup = r.Add<IpLookup>(&table, 1);
  auto* sink = r.Add<CollectSink>();
  r.Connect(lookup, 0, sink, 0);
  r.Initialize();
  Packet* p = Frame(&pool_, 0x0a010101);
  p->Trim(p->length() - 20);  // shorter than eth + ip headers
  PushOne(lookup, p);
  EXPECT_EQ(sink->got.size(), 0u);
  EXPECT_EQ(lookup->drops(), 1u);
  EXPECT_EQ(lookup->no_route(), 0u);
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

TEST_F(ElementsTest, EtherClassifierSplitsByType) {
  Router r;
  auto* cls = r.Add<EtherClassifier>();
  auto* ipv4 = r.Add<CollectSink>();
  auto* other = r.Add<CollectSink>();
  r.Connect(cls, 0, ipv4, 0);
  r.Connect(cls, 1, other, 0);
  r.Initialize();
  Packet* a = Frame(&pool_);
  Packet* b = Frame(&pool_);
  EthernetView{b->data()}.set_ether_type(EthernetView::kTypeArp);
  PushOne(cls, a);
  PushOne(cls, b);
  EXPECT_EQ(ipv4->got.size(), 1u);
  EXPECT_EQ(other->got.size(), 1u);
  pool_.Free(a);
  pool_.Free(b);
}

TEST_F(ElementsTest, IpProtoClassifier) {
  Router r;
  auto* cls = r.Add<IpProtoClassifier>(std::vector<uint8_t>{6, 17});
  auto* tcp = r.Add<CollectSink>();
  auto* udp = r.Add<CollectSink>();
  auto* rest = r.Add<CollectSink>();
  r.Connect(cls, 0, tcp, 0);
  r.Connect(cls, 1, udp, 0);
  r.Connect(cls, 2, rest, 0);
  r.Initialize();
  PushOne(cls, Frame(&pool_, 0x0a000001, 6));
  PushOne(cls, Frame(&pool_, 0x0a000001, 17));
  PushOne(cls, Frame(&pool_, 0x0a000001, 1));
  EXPECT_EQ(tcp->got.size(), 1u);
  EXPECT_EQ(udp->got.size(), 1u);
  EXPECT_EQ(rest->got.size(), 1u);
  for (auto* sink : {tcp, udp, rest}) {
    pool_.Free(sink->got[0]);
  }
}

TEST_F(ElementsTest, HashSwitchIsFlowStable) {
  Router r;
  auto* hs = r.Add<HashSwitch>(4);
  std::vector<CollectSink*> sinks;
  for (int i = 0; i < 4; ++i) {
    sinks.push_back(r.Add<CollectSink>());
    r.Connect(hs, i, sinks.back(), 0);
  }
  r.Initialize();
  Packet* a = Frame(&pool_);
  Packet* b = Frame(&pool_);
  a->set_flow_hash(42);
  b->set_flow_hash(42);
  PushOne(hs, a);
  PushOne(hs, b);
  EXPECT_EQ(sinks[42 % 4]->got.size(), 2u);
  pool_.Free(a);
  pool_.Free(b);
}

TEST_F(ElementsTest, RoundRobinSwitchRotates) {
  Router r;
  auto* rr = r.Add<RoundRobinSwitch>(3);
  std::vector<CollectSink*> sinks;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(r.Add<CollectSink>());
    r.Connect(rr, i, sinks.back(), 0);
  }
  r.Initialize();
  std::vector<Packet*> pkts;
  for (int i = 0; i < 6; ++i) {
    Packet* p = Frame(&pool_);
    pkts.push_back(p);
    PushOne(rr, p);
  }
  for (auto* sink : sinks) {
    EXPECT_EQ(sink->got.size(), 2u);
  }
  for (Packet* p : pkts) {
    pool_.Free(p);
  }
}

TEST_F(ElementsTest, EtherEncapStripRoundTrip) {
  Router r;
  MacAddress src{1, 1, 1, 1, 1, 1};
  MacAddress dst{2, 2, 2, 2, 2, 2};
  auto* strip = r.Add<StripEther>();
  auto* encap = r.Add<EtherEncap>(src, dst, EthernetView::kTypeIpv4);
  auto* sink = r.Add<CollectSink>();
  r.Chain({strip, encap, sink});
  r.Initialize();
  Packet* p = Frame(&pool_);
  uint32_t len = p->length();
  PushOne(strip, p);
  ASSERT_EQ(sink->got.size(), 1u);
  EXPECT_EQ(sink->got[0]->length(), len);
  EthernetView eth{sink->got[0]->data()};
  EXPECT_EQ(eth.src(), src);
  EXPECT_EQ(eth.dst(), dst);
  pool_.Free(p);
}

TEST_F(ElementsTest, EtherRewriteOnlyTouchesAddresses) {
  Router r;
  MacAddress src{9, 9, 9, 9, 9, 9};
  MacAddress dst{8, 8, 8, 8, 8, 8};
  auto* rw = r.Add<EtherRewrite>(src, dst);
  auto* sink = r.Add<CollectSink>();
  r.Connect(rw, 0, sink, 0);
  r.Initialize();
  Packet* p = Frame(&pool_);
  PushOne(rw, p);
  EthernetView eth{p->data()};
  EXPECT_EQ(eth.src(), src);
  EXPECT_EQ(eth.dst(), dst);
  EXPECT_EQ(eth.ether_type(), EthernetView::kTypeIpv4);
  pool_.Free(p);
}

TEST_F(ElementsTest, VlbEncapEncodesOutputNode) {
  Router r;
  auto* vlb = r.Add<VlbEncap>(MacAddress{1, 0, 0, 0, 0, 0});
  auto* sink = r.Add<CollectSink>();
  r.Connect(vlb, 0, sink, 0);
  r.Initialize();
  Packet* p = Frame(&pool_);
  p->set_output_node(3);
  PushOne(vlb, p);
  ASSERT_EQ(sink->got.size(), 1u);
  EXPECT_EQ(NodeFromMac(EthernetView{p->data()}.dst()), 3);
  pool_.Free(p);
}

TEST_F(ElementsTest, VlbEncapDropsUntagged) {
  Router r;
  auto* vlb = r.Add<VlbEncap>(MacAddress{1, 0, 0, 0, 0, 0});
  auto* sink = r.Add<CollectSink>();
  r.Connect(vlb, 0, sink, 0);
  r.Initialize();
  PushOne(vlb, Frame(&pool_));  // no output node set
  EXPECT_EQ(sink->got.size(), 0u);
  EXPECT_EQ(vlb->drops(), 1u);
}

TEST_F(ElementsTest, IpsecEncryptDecryptChain) {
  EspConfig esp;
  for (int i = 0; i < 16; ++i) {
    esp.key[i] = static_cast<uint8_t>(i);
  }
  Router r;
  auto* enc = r.Add<IpsecEncrypt>(esp);
  auto* dec = r.Add<IpsecDecrypt>(esp);
  auto* sink = r.Add<CollectSink>();
  r.Connect(enc, 0, dec, 0);
  r.Connect(dec, 0, sink, 0);
  r.Initialize();
  Packet* p = Frame(&pool_, 0x0a000001, 17, 256);
  std::vector<uint8_t> original(p->data(), p->data() + p->length());
  PushOne(enc, p);
  ASSERT_EQ(sink->got.size(), 1u);
  EXPECT_EQ(enc->encrypted(), 1u);
  EXPECT_EQ(dec->decrypted(), 1u);
  ASSERT_EQ(p->length(), original.size());
  EXPECT_EQ(memcmp(p->data(), original.data(), original.size()), 0);
  pool_.Free(p);
}

TEST_F(ElementsTest, TeeCopiesToAllOutputs) {
  Router r;
  auto* tee = r.Add<Tee>(3);
  std::vector<CollectSink*> sinks;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(r.Add<CollectSink>());
    r.Connect(tee, i, sinks.back(), 0);
  }
  r.Initialize();
  Packet* p = Frame(&pool_);
  p->set_flow_id(11);
  PushOne(tee, p);
  for (auto* sink : sinks) {
    ASSERT_EQ(sink->got.size(), 1u);
    EXPECT_EQ(sink->got[0]->length(), p->length());
    EXPECT_EQ(sink->got[0]->flow_id(), 11u);
  }
  // Copies are distinct packets.
  EXPECT_NE(sinks[1]->got[0], sinks[0]->got[0]);
  for (auto* sink : sinks) {
    pool_.Free(sink->got[0]);
  }
}

TEST_F(ElementsTest, PaintAndPaintSwitch) {
  Router r;
  auto* paint = r.Add<Paint>(2);
  auto* sw = r.Add<PaintSwitch>(3);
  std::vector<CollectSink*> sinks;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(r.Add<CollectSink>());
    r.Connect(sw, i, sinks.back(), 0);
  }
  r.Connect(paint, 0, sw, 0);
  r.Initialize();
  Packet* p = Frame(&pool_);
  PushOne(paint, p);
  EXPECT_EQ(sinks[2]->got.size(), 1u);
  pool_.Free(p);
}

TEST_F(ElementsTest, QueueDropsWhenFull) {
  Router r;
  auto* q = r.Add<QueueElement>(2);
  r.Initialize();
  std::vector<Packet*> pkts;
  for (int i = 0; i < 4; ++i) {
    PushOne(q, Frame(&pool_));
  }
  EXPECT_GE(q->drops(), 2u);
  PacketBatch out;
  while (q->PullBatch(0, &out, 1) == 1) {
    pool_.Free(out[0]);
    out.Clear();
  }
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

// ToDevice reads latency out once per run of equal ingress stamps. Fed the
// same bursts, it must fill exactly the buckets a per-packet readout
// fills: runs of every length, unstamped packets (stamp 0) between and
// at the ends of runs, a stamp that recurs after another, and a burst
// of one.
TEST(ToDeviceTest, RunReadoutMatchesPerPacketReference) {
  PacketPool pool(64);
  std::vector<Packet*> pkts(64);
  ASSERT_EQ(pool.AllocBulk(pkts.data(), pkts.size()), pkts.size());
  telemetry::LatencyHistogram runs;
  telemetry::LatencyHistogram reference;
  const uint64_t ns_per_cycle_q32 = static_cast<uint64_t>(0.47 * 4294967296.0);
  Rng rng(5);
  uint64_t now = 1'000'000;
  for (int burst = 0; burst < 200; ++burst) {
    const size_t n = burst == 0 ? 1 : 1 + rng.NextBounded(pkts.size());
    uint64_t stamp = now - rng.NextBounded(100'000);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t pick = rng.NextBounded(8);
      if (pick == 0) {
        stamp = now - rng.NextBounded(100'000);  // a new run
      } else if (pick == 1) {
        stamp = now - 7;  // recurs across runs
      }
      pkts[i]->set_ingress_cycles(rng.NextBounded(6) == 0 ? 0 : stamp);
    }
    ToDevice::ObserveLatency(&runs, pkts.data(), n, now, ns_per_cycle_q32);
    for (size_t i = 0; i < n; ++i) {
      if (pkts[i]->ingress_cycles() != 0) {
        reference.ObserveNs(static_cast<uint64_t>(
            (static_cast<__uint128_t>(now - pkts[i]->ingress_cycles()) * ns_per_cycle_q32) >>
            32));
      }
    }
    now += 1 + rng.NextBounded(50'000);
  }
  const telemetry::LatencySnapshot got = runs.Snapshot();
  const telemetry::LatencySnapshot want = reference.Snapshot();
  EXPECT_GT(want.count, 0u);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.counts, want.counts);
  pool.FreeBulk(pkts.data(), pkts.size());
}

}  // namespace
}  // namespace rb
