// End-to-end tests of the batch dataflow: the Queue partial-fit drop
// accounting, FromDevice graph-batch chunking, the batch ownership rule
// for every class the Click parser accepts, and the two-core batched
// Queue handoff under real threads.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "click/config_parser.hpp"
#include "click/elements/from_device.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/queue.hpp"
#include "click/router.hpp"
#include "collect_sink.hpp"
#include "lookup/dir24_8.hpp"
#include "lookup/table_gen.hpp"
#include "packet/pool.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

TEST(BatchDataflowTest, QueuePartialFitCountsOnlyOverflowAsDrops) {
  // The satellite drop-accounting fix: a burst that straddles capacity
  // enqueues its prefix; only the packets that did not fit are counted as
  // drops and released — exactly once each.
  Router r;
  auto* queue = r.Add<QueueElement>(8);
  r.Initialize();
  const size_t cap = queue->capacity();

  PacketPool pool(1024);
  const size_t total = cap + 5;
  PacketBatch batch;
  for (size_t i = 0; i < total; ++i) {
    batch.PushBack(pool.Alloc());
  }
  queue->PushBatch(0, batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue->size(), cap) << "prefix must be enqueued, not dropped wholesale";
  EXPECT_EQ(queue->drops(), total - cap);
  // The 5 overflow packets went back to the pool exactly once; the
  // enqueued ones are still out.
  EXPECT_EQ(pool.available(), 1024u - cap);

  // Drain and verify FIFO order survived the partial enqueue.
  PacketBatch out;
  EXPECT_EQ(queue->PullBatch(0, &out, static_cast<int>(cap)), cap);
  EXPECT_EQ(out.size(), cap);
  out.ReleaseAll();
  EXPECT_EQ(pool.available(), 1024u);
}

TEST(BatchDataflowTest, FromDeviceSplitsPollBurstAtGraphBatch) {
  PacketPool pool(64);
  NicConfig cfg;
  cfg.kn = 1;
  NicPort nic(cfg);
  Router r;
  auto* from = r.Add<FromDevice>(&nic, 0, 32, -1, /*graph_batch=*/8);
  auto* sink = r.Add<CollectSink>();
  r.Connect(from, 0, sink, 0);
  r.Initialize();

  SyntheticConfig syn_cfg;
  syn_cfg.packet_size = 64;
  SyntheticGenerator gen(syn_cfg);
  for (int i = 0; i < 20; ++i) {
    nic.Deliver(AllocFrame(gen.Next(), &pool), 0.0);
  }
  nic.FlushAllStaged();
  from->RunOnce();
  // 20 polled packets leave as ceil(20/8) = 3 chunks: 8, 8, 4.
  EXPECT_EQ(sink->batch_sizes, (std::vector<uint32_t>{8, 8, 4}));
  for (Packet* p : sink->got) {
    pool.Free(p);
  }
}

TEST(BatchDataflowTest, BatchSizeHistogramObservesBursts) {
  telemetry::MetricRegistry registry;
  Router r;
  auto* relay = r.Add<CounterElement>();
  auto* sink = r.Add<CollectSink>();
  r.Connect(relay, 0, sink, 0);
  r.BindTelemetry(&registry, nullptr);
  r.Initialize();

  PacketPool pool(32);
  PacketBatch batch;
  for (int i = 0; i < 7; ++i) {
    batch.PushBack(pool.Alloc());
  }
  relay->PushBatch(0, batch);

  auto snap = registry
                  .GetHistogram("elem/" + sink->name() + "/batch_size",
                                telemetry::HistogramOptions{})
                  ->Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
  for (Packet* p : sink->got) {
    pool.Free(p);
  }
}

TEST(BatchDataflowTest, EveryConfigClassKeepsBatchOwnership) {
  // DESIGN.md §11's ownership rule, class by class: each class the Click
  // parser accepts, built alone with every push output wired to Discard,
  // takes a 32-frame burst, leaves the pushed batch empty, and holds on
  // to no packet except what a Queue keeps. (A Queue's output is a pull
  // output that Discard may not take; the test drains it by hand.)
  const char* const kClasses[] = {
      "FromDevice(0, 0)",
      "ToDevice(0, 0)",
      "Queue(64)",
      "CheckIPHeader",
      "DecIPTTL",
      "IPLookup(2)",
      "EtherClassifier",
      "Classifier(12/0800 23/11, -)",
      "IpProtoClassifier(6, 17)",
      "HashSwitch(4)",
      "RoundRobinSwitch(3)",
      "Counter",
      "Discard",
      "Tee(3)",
      "Paint(2)",
      "PaintSwitch(3)",
      "StripEther",
      "IPsecEncrypt",
      "IPsecDecrypt",
      "SetFlowHash",
      "Nat(EXTERNAL 198.51.100.1, CAPACITY 64)",
      "FlowPolicer(RATE 1000, BURST 4)",
  };
  TableGenConfig tg;
  tg.num_routes = 256;
  tg.num_next_hops = 2;
  Dir24_8 table;
  table.InsertAll(GenerateRoutingTable(tg));
  SyntheticConfig syn_cfg;
  syn_cfg.packet_size = 64;
  syn_cfg.num_flows = 8;

  for (const char* spec : kClasses) {
    SCOPED_TRACE(spec);
    NicConfig nc;
    nc.kn = 1;
    NicPort nic(nc);
    ConfigContext ctx;
    ctx.ports = {&nic};
    ctx.table = &table;
    Router r;
    ConfigParseResult parsed = ParseClickConfig(std::string("e :: ") + spec + ";", &r, ctx);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    Element* e = parsed.elements.at("e");
    auto* queue = dynamic_cast<QueueElement*>(e);
    for (int out = 0; queue == nullptr && out < e->n_outputs(); ++out) {
      r.Connect(e, out, r.Add<Discard>(), 0);
    }
    r.Initialize();

    PacketPool pool(256);
    SyntheticGenerator gen(syn_cfg);
    PacketBatch burst;
    for (int i = 0; i < 32; ++i) {
      burst.PushBack(AllocFrame(gen.Next(), &pool));
    }
    if (e->n_inputs() > 0) {
      e->PushBatch(0, burst);
      EXPECT_TRUE(burst.empty()) << "callee must leave the pushed batch empty";
    } else {
      // A source: the burst reaches it through its NIC rx queue.
      for (Packet* p : burst) {
        nic.Deliver(p, 0.0);
      }
      burst.Clear();
      nic.FlushAllStaged();
      r.RunUntilIdle();
    }
    // What ToDevice transmitted waits in the NIC tx ring; release it.
    Packet* sent[64];
    for (size_t n; (n = nic.DrainTx(sent, std::size(sent))) > 0;) {
      for (size_t i = 0; i < n; ++i) {
        pool.Free(sent[i]);
      }
    }
    EXPECT_EQ(pool.in_use(), queue != nullptr ? queue->size() : 0u);
    if (queue != nullptr) {
      PacketBatch held;
      queue->PullBatch(0, &held, PacketBatch::kCapacity);
      held.ReleaseAll();
    }
    EXPECT_EQ(pool.in_use(), 0u);
  }
}

TEST(BatchDataflowTest, ConcurrentTwoCoreQueueBatchHandoff) {
  // TSan coverage for the batch paths across the SPSC boundary: one thread
  // pushes bursts into the Queue while another pulls bursts out —
  // the one-pusher/one-puller discipline every Queue runs under.
  Router r;
  auto* queue = r.Add<QueueElement>(256);
  r.Initialize();

  constexpr int kPackets = 4000;
  PacketPool pool(8192);
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};

  std::thread producer([&] {
    int sent = 0;
    while (sent < kPackets) {
      PacketBatch batch;
      int n = std::min(32, kPackets - sent);
      for (int i = 0; i < n; ++i) {
        Packet* p = pool.Alloc();
        if (p == nullptr) {
          break;
        }
        p->SetLength(64);
        batch.PushBack(p);
      }
      sent += static_cast<int>(batch.size());
      if (batch.empty()) {
        std::this_thread::yield();
        continue;
      }
      queue->PushBatch(0, batch);  // overflow drops release to the pool
    }
    done.store(true, std::memory_order_release);
  });

  // PacketPool is single-threaded by design (per-core pools in deployment),
  // so the consumer parks what it pulls and the main thread releases after
  // both sides join; the pool is big enough that the producer never needs a
  // recycled packet. Overflow drops still release on the producer thread.
  std::vector<Packet*> held;
  held.reserve(kPackets);
  std::thread consumer([&] {
    PacketBatch batch;
    while (true) {
      size_t n = queue->PullBatch(0, &batch, 16);
      if (n == 0) {
        if (done.load(std::memory_order_acquire) && queue->size() == 0) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      consumed.fetch_add(static_cast<int>(n), std::memory_order_relaxed);
      for (Packet* p : batch) {
        held.push_back(p);
      }
      batch.Clear();
    }
  });

  producer.join();
  consumer.join();
  for (Packet* p : held) {
    PacketPool::Release(p);
  }
  EXPECT_EQ(static_cast<uint64_t>(consumed.load()) + queue->drops(),
            static_cast<uint64_t>(kPackets));
  EXPECT_EQ(pool.available(), 8192u) << "every packet released exactly once";
}

}  // namespace
}  // namespace rb
