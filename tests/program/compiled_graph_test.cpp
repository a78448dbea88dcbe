// Graph-level tests for the compiled-packet-program layer (DESIGN.md §16):
// CompiledClassifier batch behavior, Router::CompilePrograms chain
// collapse and rewiring, and the compiled-vs-interpreted differential fuzz
// that pins the two execution modes to identical observable behavior.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "click/elements/check_ip_header.hpp"
#include "click/elements/classifier.hpp"
#include "click/elements/misc.hpp"
#include "click/router.hpp"
#include "collect_sink.hpp"
#include "common/rng.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "program/compiled_classifier.hpp"
#include "program/match_program.hpp"
#include "telemetry/handler.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

using program::CompileClassifierPatterns;
using program::MatchProgram;

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

CompiledClassifier* FindCompiled(const Router& r) {
  for (const auto& e : r.elements()) {
    if (std::string(e->class_name()) == "CompiledClassifier") {
      return static_cast<CompiledClassifier*>(e.get());
    }
  }
  return nullptr;
}

TEST(CompiledClassifierTest, PartitionsBatchAndCountsMatches) {
  Router r;
  MatchProgram prog;
  std::string err;
  ASSERT_TRUE(CompileClassifierPatterns({"12/0800 23/06", "12/0800 23/11"}, &prog, &err)) << err;
  // Two element outputs; the program's third (no-match) lane is a drop.
  auto* cc = r.Add<CompiledClassifier>(std::move(prog), 2);
  auto* tcp = r.Add<CollectSink>();
  auto* udp = r.Add<CollectSink>();
  r.Connect(cc, 0, tcp, 0);
  r.Connect(cc, 1, udp, 0);
  r.Initialize();

  PacketPool pool{32};
  PacketBatch batch;
  batch.PushBack(Frame(&pool, 0x0a000001, 6));
  batch.PushBack(Frame(&pool, 0x0a000001, 17));
  batch.PushBack(Frame(&pool, 0x0a000001, 6));
  batch.PushBack(Frame(&pool, 0x0a000001, 1));  // ICMP: no pattern matches
  cc->PushBatch(0, batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(tcp->got.size(), 2u);
  EXPECT_EQ(udp->got.size(), 1u);
  EXPECT_EQ(cc->drops(), 1u) << "no-match lane beyond the element's ports drops";
  EXPECT_EQ(cc->matches(0), 2u);
  EXPECT_EQ(cc->matches(1), 1u);
  EXPECT_EQ(cc->matches(2), 1u);
  for (Packet* p : tcp->got) {
    pool.Free(p);
  }
  for (Packet* p : udp->got) {
    pool.Free(p);
  }
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(CompiledClassifierTest, ProgramHandlerListsInsnsAndMatches) {
  Router r;
  MatchProgram prog;
  std::string err;
  ASSERT_TRUE(CompileClassifierPatterns({"12/0800"}, &prog, &err)) << err;
  auto* cc = r.Add<CompiledClassifier>(std::move(prog), 1, "ether@1+check@2");
  auto* sink = r.Add<CollectSink>();
  r.Connect(cc, 0, sink, 0);
  r.Initialize();
  PacketPool pool{8};
  PacketBatch batch;
  batch.PushBack(Frame(&pool));
  cc->PushBatch(0, batch);

  telemetry::HandlerRegistry handlers;
  r.AddHandlers(&handlers);
  std::string text = handlers.Read(cc->name() + ".program").text;
  EXPECT_NE(text.find("collapsed ether@1+check@2"), std::string::npos) << text;
  EXPECT_NE(text.find("insns"), std::string::npos) << text;
  EXPECT_NE(text.find("matched 1"), std::string::npos) << text;
  pool.Free(sink->got[0]);
}

// The five-sink classification graph used by the collapse and differential
// tests: entry -> EtherClassifier -> IpProtoClassifier{TCP,UDP} with
// CheckIPHeader on the TCP leg.
struct ClassifierGraph {
  Router r;
  CounterElement* entry = nullptr;
  CollectSink* tcp_ok = nullptr;
  CollectSink* tcp_bad = nullptr;
  CollectSink* udp = nullptr;
  CollectSink* other_proto = nullptr;
  CollectSink* non_ip = nullptr;
  int collapsed = 0;

  void Build(bool compile) {
    entry = r.Add<CounterElement>();
    auto* ether = r.Add<EtherClassifier>();
    auto* proto = r.Add<IpProtoClassifier>(std::vector<uint8_t>{6, 17});
    auto* check = r.Add<CheckIpHeader>();
    tcp_ok = r.Add<CollectSink>();
    tcp_bad = r.Add<CollectSink>();
    udp = r.Add<CollectSink>();
    other_proto = r.Add<CollectSink>();
    non_ip = r.Add<CollectSink>();
    r.Connect(entry, 0, ether, 0);
    r.Connect(ether, 0, proto, 0);
    r.Connect(ether, 1, non_ip, 0);
    r.Connect(proto, 0, check, 0);
    r.Connect(proto, 1, udp, 0);
    r.Connect(proto, 2, other_proto, 0);
    r.Connect(check, 0, tcp_ok, 0);
    r.Connect(check, 1, tcp_bad, 0);
    if (compile) {
      collapsed = r.CompilePrograms();
    }
    r.Initialize();
  }

  std::vector<CollectSink*> sinks() { return {tcp_ok, tcp_bad, udp, other_proto, non_ip}; }
};

TEST(CompileProgramsTest, CollapsesWholeChainIntoOneElement) {
  ClassifierGraph g;
  g.Build(/*compile=*/true);
  EXPECT_EQ(g.collapsed, 1);
  CompiledClassifier* cc = FindCompiled(g.r);
  ASSERT_NE(cc, nullptr);
  // All three interpreted stages merged, in chain order.
  EXPECT_NE(cc->collapsed().find("EtherClassifier"), std::string::npos);
  EXPECT_NE(cc->collapsed().find("IpProtoClassifier"), std::string::npos);
  EXPECT_NE(cc->collapsed().find("CheckIPHeader"), std::string::npos);
  // Five exit lanes: chk{ok,bad}, proto{udp,no-match}, ether{non-IP}.
  EXPECT_EQ(cc->n_outputs(), 5);

  // The rewired path works end to end: entry -> compiled -> sinks.
  PacketPool pool{32};
  PacketBatch batch;
  batch.PushBack(Frame(&pool, 0x0a000001, 6));   // TCP, valid header
  batch.PushBack(Frame(&pool, 0x0a000001, 17));  // UDP
  Packet* arp = Frame(&pool);
  EthernetView{arp->data()}.set_ether_type(0x0806);
  batch.PushBack(arp);
  g.entry->PushBatch(0, batch);
  EXPECT_EQ(g.tcp_ok->got.size(), 1u);
  EXPECT_EQ(g.udp->got.size(), 1u);
  EXPECT_EQ(g.non_ip->got.size(), 1u);
  EXPECT_EQ(g.entry->counters().packets, 3u);
  for (CollectSink* s : g.sinks()) {
    for (Packet* p : s->got) {
      pool.Free(p);
    }
  }
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(CompileProgramsTest, NonAdjacentClassifiersCompileSeparately) {
  // A non-compilable element between two classifiers splits the chain:
  // each side becomes its own compiled element.
  Router r;
  auto* ether = r.Add<EtherClassifier>();
  auto* counter = r.Add<CounterElement>();
  auto* check = r.Add<CheckIpHeader>();
  auto* ok = r.Add<CollectSink>();
  auto* bad = r.Add<CollectSink>();
  auto* non_ip = r.Add<CollectSink>();
  r.Connect(ether, 0, counter, 0);
  r.Connect(ether, 1, non_ip, 0);
  r.Connect(counter, 0, check, 0);
  r.Connect(check, 0, ok, 0);
  r.Connect(check, 1, bad, 0);
  EXPECT_EQ(r.CompilePrograms(), 2);
  r.Initialize();

  PacketPool pool{8};
  PacketBatch batch;
  batch.PushBack(Frame(&pool));
  // The ether head was collapsed, so push through its replacement.
  CompiledClassifier* cc = FindCompiled(r);
  ASSERT_NE(cc, nullptr);
  cc->PushBatch(0, batch);
  ASSERT_EQ(ok->got.size(), 1u);
  EXPECT_EQ(counter->counters().packets, 1u) << "interpreted middle element still sees traffic";
  pool.Free(ok->got[0]);
}

TEST(CompileProgramsTest, BranchToSecondCompiledHeadStaysWired) {
  // ether feeds two compilable classifiers; only one can be the
  // continuation, so the other becomes its own compiled head — and the
  // first compiled element's exit lane must be rewired onto it (a plain
  // originals-only rewire would leave the lane pointing at the detached
  // interpreted element, silently dropping that leg's traffic).
  Router r;
  auto* ether = r.Add<EtherClassifier>();
  auto* proto1 = r.Add<IpProtoClassifier>(std::vector<uint8_t>{6});
  auto* proto2 = r.Add<IpProtoClassifier>(std::vector<uint8_t>{17});
  auto* tcp = r.Add<CollectSink>();
  auto* tcp_rest = r.Add<CollectSink>();
  auto* udp = r.Add<CollectSink>();
  auto* udp_rest = r.Add<CollectSink>();
  r.Connect(ether, 0, proto1, 0);
  r.Connect(ether, 1, proto2, 0);  // odd but legal: classify non-IP frames
  r.Connect(proto1, 0, tcp, 0);
  r.Connect(proto1, 1, tcp_rest, 0);
  r.Connect(proto2, 0, udp, 0);
  r.Connect(proto2, 1, udp_rest, 0);
  EXPECT_EQ(r.CompilePrograms(), 2);
  r.Initialize();

  PacketPool pool{16};
  CompiledClassifier* cc = FindCompiled(r);
  ASSERT_NE(cc, nullptr);
  PacketBatch batch;
  batch.PushBack(Frame(&pool, 0x0a000001, 6));  // TCP -> proto1 leg
  Packet* arp = Frame(&pool, 0x0a000001, 17);
  EthernetView{arp->data()}.set_ether_type(0x0806);  // non-IP -> proto2 leg
  batch.PushBack(arp);
  cc->PushBatch(0, batch);
  EXPECT_EQ(tcp->got.size(), 1u);
  ASSERT_EQ(udp->got.size(), 1u) << "second compiled head must stay reachable";
  EXPECT_EQ(udp_rest->got.size(), 0u);
  uint64_t drops = 0;
  for (const auto& e : r.elements()) {
    drops += e->drops();
  }
  EXPECT_EQ(drops, 0u);
  pool.Free(tcp->got[0]);
  pool.Free(udp->got[0]);
}

TEST(CompileProgramsTest, SelfLoopDoesNotExtendChain) {
  // An element feeding itself must not be absorbed as its own
  // continuation (the ref.element != e guard).
  Router r;
  auto* proto = r.Add<IpProtoClassifier>(std::vector<uint8_t>{17});
  auto* sink = r.Add<CollectSink>();
  r.Connect(proto, 0, proto, 0);  // legal in Click, if odd
  r.Connect(proto, 1, sink, 0);
  EXPECT_EQ(r.CompilePrograms(), 1);
}

// The S3 differential fuzz: the same graph, interpreted and compiled, fed
// byte-identical randomized traffic — every sink must receive the same
// packets in the same order, and drop/counter totals must agree. Frame
// shapes cover the Fig. 8 workload sizes (64 B min, mid, 1024 B, 1500 B
// max) plus truncations and header corruptions.
class CompiledDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledDifferentialFuzz, CompiledMatchesInterpreted) {
  ClassifierGraph interp;
  ClassifierGraph comp;
  interp.Build(/*compile=*/false);
  comp.Build(/*compile=*/true);
  ASSERT_EQ(comp.collapsed, 1);

  PacketPool pool_a{4096};
  PacketPool pool_b{4096};
  std::unordered_map<Packet*, int> id_a;
  std::unordered_map<Packet*, int> id_b;

  Rng rng(GetParam());
  const int kFrames = 1500;
  const uint32_t kSizes[] = {64, 128, 1024, 1500};
  const uint8_t kProtos[] = {6, 17, 50, 1};
  PacketBatch batch_a;
  PacketBatch batch_b;
  auto flush = [&] {
    interp.entry->PushBatch(0, batch_a);
    comp.entry->PushBatch(0, batch_b);
  };
  for (int i = 0; i < kFrames; ++i) {
    FrameSpec spec;
    spec.size = kSizes[rng.NextBounded(4)];
    spec.flow.src_ip = static_cast<uint32_t>(rng.Next());
    spec.flow.dst_ip = static_cast<uint32_t>(rng.Next());
    spec.flow.src_port = static_cast<uint16_t>(rng.NextBounded(65536));
    spec.flow.dst_port = static_cast<uint16_t>(rng.NextBounded(65536));
    spec.flow.protocol = kProtos[rng.NextBounded(4)];
    Packet* a = AllocFrame(spec, &pool_a);
    Packet* b = AllocFrame(spec, &pool_b);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // Identical corruption on both copies.
    switch (rng.NextBounded(8)) {
      case 0: {  // truncate to a random length, down to a runt
        uint32_t keep = 8 + static_cast<uint32_t>(rng.NextBounded(a->length() - 8));
        a->Trim(a->length() - keep);
        b->Trim(b->length() - keep);
        break;
      }
      case 1:  // corrupt the IPv4 checksum
        a->data()[EthernetView::kSize + 10] ^= 0xff;
        b->data()[EthernetView::kSize + 10] ^= 0xff;
        break;
      case 2: {  // non-IP EtherType
        uint16_t t = static_cast<uint16_t>(rng.NextBounded(0x10000));
        EthernetView{a->data()}.set_ether_type(t);
        EthernetView{b->data()}.set_ether_type(t);
        break;
      }
      case 3: {  // mangle the version/IHL byte
        uint8_t v = static_cast<uint8_t>(rng.NextBounded(256));
        a->data()[EthernetView::kSize] = v;
        b->data()[EthernetView::kSize] = v;
        break;
      }
      case 4: {  // mangle total_length
        uint8_t v = static_cast<uint8_t>(rng.NextBounded(256));
        a->data()[EthernetView::kSize + 3] = v;
        b->data()[EthernetView::kSize + 3] = v;
        break;
      }
      default:
        break;  // well-formed
    }
    id_a[a] = i;
    id_b[b] = i;
    batch_a.PushBack(a);
    batch_b.PushBack(b);
    if (batch_a.full() || rng.NextBounded(64) == 0) {
      flush();  // randomized burst boundaries
    }
  }
  flush();

  auto sinks_a = interp.sinks();
  auto sinks_b = comp.sinks();
  size_t delivered = 0;
  for (size_t s = 0; s < sinks_a.size(); ++s) {
    ASSERT_EQ(sinks_a[s]->got.size(), sinks_b[s]->got.size()) << "sink " << s;
    for (size_t k = 0; k < sinks_a[s]->got.size(); ++k) {
      ASSERT_EQ(id_a.at(sinks_a[s]->got[k]), id_b.at(sinks_b[s]->got[k]))
          << "sink " << s << " position " << k;
    }
    delivered += sinks_a[s]->got.size();
    for (Packet* p : sinks_a[s]->got) {
      pool_a.Free(p);
    }
    for (Packet* p : sinks_b[s]->got) {
      pool_b.Free(p);
    }
  }
  EXPECT_EQ(delivered, static_cast<size_t>(kFrames)) << "fully-wired graph drops nothing";
  EXPECT_EQ(interp.entry->counters().packets, comp.entry->counters().packets);
  EXPECT_EQ(pool_a.available(), pool_a.capacity());
  EXPECT_EQ(pool_b.available(), pool_b.capacity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledDifferentialFuzz, ::testing::Range<uint64_t>(1, 7));

TEST(CompiledDifferentialTest, UnwiredExitLanesDropIdentically) {
  // Leave the bad-header and no-match outputs unwired: the interpreted
  // graph drops at each element, the compiled graph at the merged element;
  // the totals must match.
  auto build = [](Router* r, CounterElement** entry, CollectSink** ok, bool compile) {
    *entry = r->Add<CounterElement>();
    auto* ether = r->Add<EtherClassifier>();
    auto* check = r->Add<CheckIpHeader>();
    *ok = r->Add<CollectSink>();
    r->Connect(*entry, 0, ether, 0);
    r->Connect(ether, 0, check, 0);
    // ether[1] and check[1] unwired.
    r->Connect(check, 0, *ok, 0);
    int n = compile ? r->CompilePrograms() : 0;
    r->Initialize();
    return n;
  };
  Router ra;
  Router rb_;
  CounterElement* ea = nullptr;
  CounterElement* eb = nullptr;
  CollectSink* oka = nullptr;
  CollectSink* okb = nullptr;
  build(&ra, &ea, &oka, false);
  ASSERT_EQ(build(&rb_, &eb, &okb, true), 1);

  PacketPool pool{64};
  Rng rng(99);
  for (int i = 0; i < 30; ++i) {
    PacketBatch a;
    PacketBatch b;
    uint8_t proto = static_cast<uint8_t>(rng.NextBounded(256));
    Packet* pa = Frame(&pool, 0x0a000001, proto);
    Packet* pb = Frame(&pool, 0x0a000001, proto);
    if (i % 3 == 1) {
      pa->data()[EthernetView::kSize + 10] ^= 0xff;
      pb->data()[EthernetView::kSize + 10] ^= 0xff;
    } else if (i % 3 == 2) {
      EthernetView{pa->data()}.set_ether_type(0x0806);
      EthernetView{pb->data()}.set_ether_type(0x0806);
    }
    a.PushBack(pa);
    b.PushBack(pb);
    ea->PushBatch(0, a);
    eb->PushBatch(0, b);
  }
  auto total_drops = [](const Router& r) {
    uint64_t total = 0;
    for (const auto& e : r.elements()) {
      total += e->drops();
    }
    return total;
  };
  EXPECT_EQ(oka->got.size(), okb->got.size());
  EXPECT_EQ(total_drops(ra), total_drops(rb_));
  EXPECT_EQ(total_drops(ra), 20u);
  for (Packet* p : oka->got) {
    pool.Free(p);
  }
  for (Packet* p : okb->got) {
    pool.Free(p);
  }
}

}  // namespace
}  // namespace rb
