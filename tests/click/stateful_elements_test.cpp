// The batch-native stateful elements (DESIGN.md §17): NAT rewrite
// round-trips, incremental-checksum validity, graceful table-overload
// degradation, and FlowPolicer's two admission modes.
#include <gtest/gtest.h>

#include "click/config_parser.hpp"
#include "click/elements/flow_policer.hpp"
#include "click/elements/nat.hpp"
#include "click/router.hpp"
#include "collect_sink.hpp"
#include "packet/checksum.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

double g_fake_clock_s = 0;
double FakeClock() { return g_fake_clock_s; }

Packet* Frame(PacketPool* pool, const FlowKey& key, uint32_t size = 64) {
  FrameSpec spec;
  spec.size = size;
  spec.flow = key;
  return AllocFrame(spec, pool);
}

// Synthetic frames carry a zero ("not computed") UDP checksum; for the
// checksum-validity test we compute a real one over the pseudo-header
// and segment, the way an end host would.
void FillUdpChecksum(Packet* p) {
  Ipv4View ip{p->data() + EthernetView::kSize};
  uint8_t* l4 = ip.base + ip.header_length();
  UdpView udp{l4};
  udp.set_checksum(0);
  const uint16_t udp_len = udp.length();
  uint8_t pseudo[12];
  StoreBe32(pseudo, ip.src());
  StoreBe32(pseudo + 4, ip.dst());
  pseudo[8] = 0;
  pseudo[9] = ip.protocol();
  StoreBe16(pseudo + 10, udp_len);
  uint32_t sum = ChecksumPartial(pseudo, sizeof(pseudo));
  sum = ChecksumPartial(l4, udp_len, sum);
  uint16_t csum = ChecksumFinish(sum);
  udp.set_checksum(csum == 0 ? 0xffff : csum);
}

bool UdpChecksumOk(Packet* p) {
  Ipv4View ip{p->data() + EthernetView::kSize};
  uint8_t* l4 = ip.base + ip.header_length();
  const uint16_t udp_len = UdpView{l4}.length();
  uint8_t pseudo[12];
  StoreBe32(pseudo, ip.src());
  StoreBe32(pseudo + 4, ip.dst());
  pseudo[8] = 0;
  pseudo[9] = ip.protocol();
  StoreBe16(pseudo + 10, udp_len);
  uint32_t sum = ChecksumPartial(pseudo, sizeof(pseudo));
  sum = ChecksumPartial(l4, udp_len, sum);
  return ChecksumFinish(sum) == 0;
}

class StatefulElementsTest : public ::testing::Test {
 protected:
  void SetUp() override { g_fake_clock_s = 0; }
  PacketPool pool_{512};
};

TEST_F(StatefulElementsTest, NatRewritesOutboundAndKeepsChecksumsValid) {
  Router r;
  NatOptions opt;
  opt.capacity = 64;
  auto* nat = r.Add<Nat>(opt);
  auto* out = r.Add<CollectSink>();
  auto* in = r.Add<CollectSink>();
  r.Connect(nat, 0, out, 0);
  r.Connect(nat, 1, in, 0);
  r.Initialize();
  nat->set_clock(&FakeClock);

  FlowKey key{0x0a000001, 0x08080808, 40000, 53, Ipv4View::kProtoUdp};
  Packet* p = Frame(&pool_, key);
  FillUdpChecksum(p);
  PacketBatch batch;
  batch.PushBack(p);
  nat->PushBatch(0, batch);

  ASSERT_EQ(out->got.size(), 1u);
  Ipv4View ip{out->got[0]->data() + EthernetView::kSize};
  EXPECT_EQ(ip.src(), opt.external_ip) << "source rewritten to the external address";
  EXPECT_EQ(ip.dst(), 0x08080808u);
  EXPECT_TRUE(ip.ChecksumOk()) << "incremental IP checksum patch must hold";
  EXPECT_TRUE(UdpChecksumOk(out->got[0])) << "incremental UDP checksum patch must hold";
  UdpView udp{ip.base + ip.header_length()};
  EXPECT_GE(udp.src_port(), opt.base_port) << "source port moved into the mapping range";
  EXPECT_EQ(udp.dst_port(), 53);
  EXPECT_EQ(nat->mappings_in_use(), 1u);
  pool_.Free(out->got[0]);
}

TEST_F(StatefulElementsTest, NatInboundReplyRoundTripsToInsideAddress) {
  Router r;
  NatOptions opt;
  opt.capacity = 64;
  auto* nat = r.Add<Nat>(opt);
  auto* out = r.Add<CollectSink>();
  auto* in = r.Add<CollectSink>();
  r.Connect(nat, 0, out, 0);
  r.Connect(nat, 1, in, 0);
  r.Initialize();
  nat->set_clock(&FakeClock);

  FlowKey key{0x0a000001, 0x08080808, 40000, 53, Ipv4View::kProtoUdp};
  PacketBatch outbound;
  outbound.PushBack(Frame(&pool_, key));
  nat->PushBatch(0, outbound);
  ASSERT_EQ(out->got.size(), 1u);
  Ipv4View translated{out->got[0]->data() + EthernetView::kSize};
  const uint16_t ext_port = UdpView{translated.base + translated.header_length()}.src_port();

  // The reply: remote -> (external_ip, ext_port).
  FlowKey reply{0x08080808, opt.external_ip, 53, ext_port, Ipv4View::kProtoUdp};
  PacketBatch inbound;
  inbound.PushBack(Frame(&pool_, reply));
  nat->PushBatch(1, inbound);
  ASSERT_EQ(in->got.size(), 1u);
  Ipv4View back{in->got[0]->data() + EthernetView::kSize};
  EXPECT_EQ(back.dst(), 0x0a000001u) << "reply rewritten back to the inside address";
  EXPECT_TRUE(back.ChecksumOk());
  EXPECT_EQ(UdpView{back.base + back.header_length()}.dst_port(), 40000);

  // A reply to a port with no mapping drops into no_mapping.
  FlowKey bogus{0x08080808, opt.external_ip, 53,
                static_cast<uint16_t>(opt.base_port + 63), Ipv4View::kProtoUdp};
  PacketBatch stray;
  stray.PushBack(Frame(&pool_, bogus));
  nat->PushBatch(1, stray);
  EXPECT_EQ(in->got.size(), 1u);
  EXPECT_EQ(nat->no_mapping_drops(), 1u);
  pool_.Free(out->got[0]);
  pool_.Free(in->got[0]);
}

// RFC 768: a UDP checksum that computes to zero is sent as 0xffff, because
// a zero field means "no checksum". Each direction runs twice, each time
// through a fresh Nat that assigns the same mapping: once to learn the
// rewritten datagram's checksum C, then with C stored in a payload word,
// which makes the rewritten datagram's checksum compute to exactly zero.
TEST_F(StatefulElementsTest, NatUdpChecksumThatComesOutZeroIsSentAsAllOnes) {
  NatOptions opt;
  opt.capacity = 64;
  const FlowKey inside{0x0a000001, 0x08080808, 40000, 53, Ipv4View::kProtoUdp};
  constexpr uint32_t kWordOffset = 42;  // the first UDP payload word

  // The outbound frame, or the reply to it when `inbound`, as the Nat
  // rewrites it, with `word` in its payload.
  auto rewritten = [&](bool inbound, uint16_t word) {
    Router r;
    auto* nat = r.Add<Nat>(opt);
    auto* out = r.Add<CollectSink>();
    auto* in = r.Add<CollectSink>();
    r.Connect(nat, 0, out, 0);
    r.Connect(nat, 1, in, 0);
    r.Initialize();
    nat->set_clock(&FakeClock);
    auto push = [&](int port, Packet* p) {
      StoreBe16(p->data() + kWordOffset, word);
      FillUdpChecksum(p);
      PacketBatch batch;
      batch.PushBack(p);
      nat->PushBatch(port, batch);
    };
    push(0, Frame(&pool_, inside));
    EXPECT_EQ(out->got.size(), 1u);
    Packet* translated = out->got.at(0);
    if (!inbound) {
      return translated;
    }
    Ipv4View ip{translated->data() + EthernetView::kSize};
    const uint16_t ext_port = UdpView{ip.base + ip.header_length()}.src_port();
    pool_.Free(translated);
    push(1, Frame(&pool_, FlowKey{0x08080808, opt.external_ip, 53, ext_port,
                                  Ipv4View::kProtoUdp}));
    EXPECT_EQ(in->got.size(), 1u);
    return in->got.at(0);
  };
  // The checksum the datagram should carry, computed from scratch.
  auto computed = [](Packet* p) {
    Ipv4View ip{p->data() + EthernetView::kSize};
    UdpView udp{ip.base + ip.header_length()};
    const uint16_t field = udp.checksum();
    FillUdpChecksum(p);
    const uint16_t fresh = udp.checksum();
    udp.set_checksum(field);
    return fresh;
  };

  for (bool inbound : {false, true}) {
    Packet* first = rewritten(inbound, 0);
    const uint16_t c = computed(first);
    pool_.Free(first);
    Packet* p = rewritten(inbound, c);
    Ipv4View ip{p->data() + EthernetView::kSize};
    EXPECT_EQ(UdpView{ip.base + ip.header_length()}.checksum(), 0xffff)
        << (inbound ? "inbound" : "outbound") << " rewrite stored a zero UDP checksum";
    EXPECT_TRUE(UdpChecksumOk(p));
    pool_.Free(p);
  }
}

// A burst through a Nat gives every packet the port it gets one packet
// at a time: the table resolves the burst in order and the Nat takes a
// new flow's port inside the table's visit, so a new flow repeated in
// the burst keeps its first packet's port, and evictions inside the
// burst free and reuse ports in the same order.
TEST_F(StatefulElementsTest, NatBurstAssignsPortsAsOnePacketAtATime) {
  NatOptions opt;
  opt.capacity = 16;  // 16 slots, 8 under the watermark: evictions mid-burst
  opt.shards = 1;
  opt.hi_watermark = 0.5;
  opt.lo_watermark = 0.25;
  std::vector<FlowKey> keys;
  for (uint32_t j = 0; j < 60; ++j) {
    const uint32_t flow = j % 5 == 4 ? (j - 1) * 7 % 20 : j * 7 % 20;  // repeats a fresh flow
    keys.push_back(FlowKey{0x0a000000u + flow, 0x08080808, static_cast<uint16_t>(40000 + flow), 53,
                           Ipv4View::kProtoUdp});
  }
  auto ports = [&](bool burst, uint64_t* evictions) {
    Router r;
    auto* nat = r.Add<Nat>(opt);
    auto* out = r.Add<CollectSink>();
    r.Connect(nat, 0, out, 0);
    r.Connect(nat, 1, r.Add<CollectSink>(), 0);
    r.Initialize();
    nat->set_clock(&FakeClock);
    PacketBatch batch;
    for (const FlowKey& key : keys) {
      batch.PushBack(Frame(&pool_, key));
      if (!burst) {
        nat->PushBatch(0, batch);
      }
    }
    if (burst) {
      nat->PushBatch(0, batch);
    }
    std::vector<uint16_t> got;
    for (Packet* p : out->got) {
      Ipv4View ip{p->data() + EthernetView::kSize};
      got.push_back(UdpView{ip.base + ip.header_length()}.src_port());
      pool_.Free(p);
    }
    *evictions = nat->table().stats().evictions();
    EXPECT_EQ(nat->mappings_in_use(), nat->table().occupancy());
    return got;
  };
  uint64_t burst_evictions = 0;
  uint64_t single_evictions = 0;
  const std::vector<uint16_t> burst = ports(true, &burst_evictions);
  const std::vector<uint16_t> single = ports(false, &single_evictions);
  ASSERT_EQ(burst.size(), keys.size());
  EXPECT_EQ(burst, single);
  EXPECT_EQ(burst_evictions, single_evictions);
  EXPECT_GT(burst_evictions, 0u);
  EXPECT_EQ(burst[4], burst[3]) << "a new flow repeated in one burst keeps its port";
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

TEST_F(StatefulElementsTest, NatOverloadEvictsLruAndKeepsForwarding) {
  Router r;
  NatOptions opt;
  opt.capacity = 64;
  opt.hi_watermark = 0.5;
  opt.lo_watermark = 0.25;
  auto* nat = r.Add<Nat>(opt);
  auto* out = r.Add<CollectSink>();
  auto* in = r.Add<CollectSink>();
  r.Connect(nat, 0, out, 0);
  r.Connect(nat, 1, in, 0);
  r.Initialize();
  nat->set_clock(&FakeClock);

  // 4x capacity distinct flows: the table must shed LRU mappings and
  // keep translating every packet — zero drops, bounded mappings.
  const uint32_t kFlows = 256;
  for (uint32_t i = 0; i < kFlows; ++i) {
    g_fake_clock_s += 1e-3;
    FlowKey key{0x0a000000u + i, 0x08080808, static_cast<uint16_t>(1024 + i), 80,
                Ipv4View::kProtoUdp};
    PacketBatch b;
    b.PushBack(Frame(&pool_, key));
    nat->PushBatch(0, b);
  }
  EXPECT_EQ(out->got.size(), kFlows) << "overload must not stop forwarding";
  EXPECT_EQ(nat->table_full_drops(), 0u);
  EXPECT_GT(nat->table().stats().evict_watermark, 0u) << "watermark eviction engaged";
  EXPECT_LE(nat->mappings_in_use(), nat->table().capacity_slots());
  // Port conservation: every evicted mapping returned its port.
  EXPECT_EQ(nat->mappings_in_use(), nat->table().occupancy());
  for (Packet* p : out->got) {
    pool_.Free(p);
  }
}

TEST_F(StatefulElementsTest, NatFullTableWithEvictionDisabledDropsIntoBucket) {
  Router r;
  NatOptions opt;
  opt.capacity = 64;
  opt.hi_watermark = 1.0;
  opt.lo_watermark = 0.5;
  opt.evict_on_full = false;
  auto* nat = r.Add<Nat>(opt);
  auto* out = r.Add<CollectSink>();
  auto* in = r.Add<CollectSink>();
  r.Connect(nat, 0, out, 0);
  r.Connect(nat, 1, in, 0);
  r.Initialize();
  nat->set_clock(&FakeClock);
  for (uint32_t i = 0; i < 512; ++i) {
    FlowKey key{0x0a000000u + i, 0x08080808, static_cast<uint16_t>(1024 + i), 80,
                Ipv4View::kProtoUdp};
    PacketBatch b;
    b.PushBack(Frame(&pool_, key));
    nat->PushBatch(0, b);
  }
  EXPECT_GT(nat->table_full_drops(), 0u);
  EXPECT_EQ(out->got.size() + nat->table_full_drops(), 512u);
  for (Packet* p : out->got) {
    pool_.Free(p);
  }
}

// flow_table_full is the table's own count: FindOrInsert returns nullptr
// only for a refused insert, so neither element keeps a second counter. A
// strict table (no eviction on full, no watermark) filled 8x past its
// capacity reads the same figure from the element accessor, the table's
// insert_fail, the registry's drops/flow_table_full reader and (Nat) the
// `.table_full` handler, and every refused packet is an element drop.
TEST_F(StatefulElementsTest, TableFullDropsAreTheTablesInsertFailures) {
  telemetry::MetricRegistry registry;
  Router r;
  NatOptions nat_opt;
  nat_opt.capacity = 64;
  nat_opt.hi_watermark = 1.0;
  nat_opt.lo_watermark = 0.5;
  nat_opt.evict_on_full = false;
  auto* nat = r.Add<Nat>(nat_opt);
  FlowPolicerOptions pol_opt;
  pol_opt.capacity = 64;
  pol_opt.hi_watermark = 1.0;
  pol_opt.lo_watermark = 0.5;
  pol_opt.evict_on_full = false;
  auto* pol = r.Add<FlowPolicer>(pol_opt);
  auto* nat_out = r.Add<CollectSink>();
  auto* nat_in = r.Add<CollectSink>();
  auto* pol_out = r.Add<CollectSink>();
  r.Connect(nat, 0, nat_out, 0);
  r.Connect(nat, 1, nat_in, 0);
  r.Connect(pol, 0, pol_out, 0);
  r.BindTelemetry(&registry, nullptr);
  r.Initialize();
  nat->set_clock(&FakeClock);
  pol->set_clock(&FakeClock);
  telemetry::HandlerRegistry handlers;
  r.AddHandlers(&handlers);

  constexpr uint32_t kFlows = 512;
  for (uint32_t i = 0; i < kFlows; ++i) {
    FlowKey key{0x0a000000u + i, 0x08080808, static_cast<uint16_t>(1024 + i), 80,
                Ipv4View::kProtoUdp};
    PacketBatch to_nat;
    to_nat.PushBack(Frame(&pool_, key));
    nat->PushBatch(0, to_nat);
    PacketBatch to_pol;
    to_pol.PushBack(Frame(&pool_, key));
    pol->PushBatch(0, to_pol);
  }
  const telemetry::RegistrySnapshot snap = registry.Snapshot();

  const uint64_t nat_fail = nat->table().stats().insert_fail;
  EXPECT_GT(nat_fail, 0u);
  EXPECT_EQ(nat->table_full_drops(), nat_fail);
  EXPECT_EQ(snap.CounterValue("elem/" + nat->name() + "/drops/flow_table_full"), nat_fail);
  const telemetry::HandlerResult handler = handlers.Read(nat->name() + ".table_full");
  ASSERT_TRUE(handler.ok);
  EXPECT_EQ(handler.text, std::to_string(nat_fail));
  EXPECT_EQ(nat->drops(), nat_fail);
  EXPECT_EQ(nat_out->got.size() + nat_fail, kFlows);

  const uint64_t pol_fail = pol->table().stats().insert_fail;
  EXPECT_GT(pol_fail, 0u);
  EXPECT_EQ(pol->table_full_drops(), pol_fail);
  EXPECT_EQ(snap.CounterValue("elem/" + pol->name() + "/drops/flow_table_full"), pol_fail);
  EXPECT_EQ(pol->drops(), pol_fail);
  EXPECT_EQ(pol_out->got.size() + pol_fail, kFlows);

  for (CollectSink* sink : {nat_out, pol_out}) {
    for (Packet* p : sink->got) {
      pool_.Free(p);
    }
  }
}

TEST_F(StatefulElementsTest, PolicerEnforcesPerFlowTokenBucket) {
  Router r;
  FlowPolicerOptions opt;
  opt.rate_pps = 1000;
  opt.burst = 4;
  auto* pol = r.Add<FlowPolicer>(opt);
  auto* out = r.Add<CollectSink>();
  r.Connect(pol, 0, out, 0);
  r.Initialize();
  pol->set_clock(&FakeClock);

  FlowKey key{0x0a000001, 0x08080808, 40000, 80, Ipv4View::kProtoTcp};
  // A 10-packet burst at t=0: exactly `burst` pass, the rest police.
  PacketBatch b;
  for (int i = 0; i < 10; ++i) {
    b.PushBack(Frame(&pool_, key));
  }
  pol->PushBatch(0, b);
  EXPECT_EQ(out->got.size(), 4u);
  EXPECT_EQ(pol->policed_drops(), 6u);

  // 2 ms later the bucket holds rate * dt = 2 tokens.
  g_fake_clock_s = 2e-3;
  PacketBatch again;
  for (int i = 0; i < 4; ++i) {
    again.PushBack(Frame(&pool_, key));
  }
  pol->PushBatch(0, again);
  EXPECT_EQ(out->got.size(), 6u);
  EXPECT_EQ(pol->policed_drops(), 8u);

  // A different flow has its own (full) bucket.
  FlowKey other{0x0a000002, 0x08080808, 40001, 80, Ipv4View::kProtoTcp};
  PacketBatch fresh;
  fresh.PushBack(Frame(&pool_, other));
  pol->PushBatch(0, fresh);
  EXPECT_EQ(out->got.size(), 7u);
  for (Packet* p : out->got) {
    pool_.Free(p);
  }
}

TEST_F(StatefulElementsTest, FirewallAllowsEstablishedOnly) {
  Router r;
  FlowPolicerOptions opt;
  opt.mode = PolicerMode::kFirewall;
  auto* fw = r.Add<FlowPolicer>(opt);
  auto* inside_out = r.Add<CollectSink>();
  auto* outside_in = r.Add<CollectSink>();
  r.Connect(fw, 0, inside_out, 0);
  r.Connect(fw, 1, outside_in, 0);
  r.Initialize();
  fw->set_clock(&FakeClock);

  FlowKey outbound{0x0a000001, 0x08080808, 40000, 443, Ipv4View::kProtoTcp};
  FlowKey reply{0x08080808, 0x0a000001, 443, 40000, Ipv4View::kProtoTcp};
  FlowKey unsolicited{0x08080808, 0x0a000001, 443, 40001, Ipv4View::kProtoTcp};

  // An unsolicited outside packet is blocked.
  PacketBatch attack;
  attack.PushBack(Frame(&pool_, unsolicited));
  fw->PushBatch(1, attack);
  EXPECT_EQ(outside_in->got.size(), 0u);
  EXPECT_EQ(fw->not_established_drops(), 1u);

  // Inside traffic establishes the pinhole; the reply then passes.
  PacketBatch open;
  open.PushBack(Frame(&pool_, outbound));
  fw->PushBatch(0, open);
  ASSERT_EQ(inside_out->got.size(), 1u);
  PacketBatch back;
  back.PushBack(Frame(&pool_, reply));
  fw->PushBatch(1, back);
  EXPECT_EQ(outside_in->got.size(), 1u);
  pool_.Free(inside_out->got[0]);
  pool_.Free(outside_in->got[0]);
}

TEST_F(StatefulElementsTest, ParserBuildsNatAndPolicerFromKeywords) {
  ConfigContext ctx;
  Router r;
  const char* config =
      "nat :: Nat(EXTERNAL 198.51.100.7, BASE_PORT 2048, CAPACITY 128, HI 0.6, LO 0.3);\n"
      "pol :: FlowPolicer(RATE 5000, BURST 8, MODE POLICE, CAPACITY 256);\n"
      "fw :: FlowPolicer(MODE FIREWALL);\n"
      "nat [0] -> Discard; nat [1] -> Discard;\n"
      "pol -> Discard;\n"
      "fw [0] -> Discard; fw [1] -> Discard;\n";
  ConfigParseResult res = ParseClickConfig(config, &r, ctx);
  ASSERT_TRUE(res.ok) << res.error;
  auto* nat = dynamic_cast<Nat*>(res.elements.at("nat"));
  ASSERT_NE(nat, nullptr);
  EXPECT_EQ(nat->options().external_ip, 0xc6336407u);
  EXPECT_EQ(nat->options().base_port, 2048);
  EXPECT_DOUBLE_EQ(nat->table().hi_watermark(), 0.6);
  auto* pol = dynamic_cast<FlowPolicer*>(res.elements.at("pol"));
  ASSERT_NE(pol, nullptr);
  EXPECT_EQ(pol->options().rate_pps, 5000u);
  EXPECT_EQ(pol->options().burst, 8u);
  auto* fw = dynamic_cast<FlowPolicer*>(res.elements.at("fw"));
  ASSERT_NE(fw, nullptr);
  EXPECT_EQ(fw->options().mode, PolicerMode::kFirewall);

  // Invalid configs are rejected with an error, not an abort.
  Router bad;
  EXPECT_FALSE(
      ParseClickConfig("n :: Nat(EXTERNAL not_an_ip); n [0] -> Discard; n [1] -> Discard;",
                       &bad, ctx)
          .ok);
  Router bad2;
  EXPECT_FALSE(ParseClickConfig("n :: Nat(HI 0.2, LO 0.8); n [0] -> Discard; n [1] -> Discard;",
                                &bad2, ctx)
                   .ok);
  Router bad3;
  EXPECT_FALSE(ParseClickConfig("p :: FlowPolicer(RATE 0); p -> Discard;", &bad3, ctx).ok);
}

}  // namespace
}  // namespace rb
