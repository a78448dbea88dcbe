#include "flow/flow_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"

namespace rb {
namespace {

FlowKey Key(uint32_t i) {
  return FlowKey{0x0a000000u + i, 0x0b000000u + (i * 7919u), static_cast<uint16_t>(1024 + i % 60000),
                 static_cast<uint16_t>(80), 6};
}

FlowTableConfig SmallConfig(size_t capacity = 256, int shards = 2) {
  FlowTableConfig c;
  c.capacity = capacity;
  c.shards = shards;
  return c;
}

TEST(FlowTableTest, EntryIsOneCacheHalfLine) {
  EXPECT_EQ(sizeof(FlowEntry), 32u);
}

TEST(FlowTableTest, InsertThenFind) {
  FlowTable t(SmallConfig());
  bool inserted = false;
  FlowEntry* e = t.FindOrInsert(Key(1), /*now=*/10, &inserted);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(e->occupied());
  EXPECT_EQ(e->last_seen, 10u);
  e->state0 = 0xdeadbeef;

  FlowEntry* again = t.FindOrInsert(Key(1), 20, &inserted);
  ASSERT_EQ(again, e);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(again->state0, 0xdeadbeefu);
  EXPECT_EQ(again->last_seen, 20u) << "hit must touch last_seen";

  EXPECT_NE(t.Find(Key(1), 30), nullptr);
  EXPECT_EQ(t.Find(Key(2), 30), nullptr);
  EXPECT_EQ(t.occupancy(), 1u);
  EXPECT_EQ(t.stats().inserts, 1u);
  EXPECT_EQ(t.stats().hits, 2u);
}

TEST(FlowTableTest, EraseRemovesWithoutEvictCallback) {
  FlowTable t(SmallConfig());
  int evicted = 0;
  t.set_on_evict([&](const FlowEntry&) { evicted++; });
  t.FindOrInsert(Key(1), 0);
  EXPECT_TRUE(t.Erase(Key(1)));
  EXPECT_FALSE(t.Erase(Key(1)));
  EXPECT_EQ(t.occupancy(), 0u);
  EXPECT_EQ(evicted, 0) << "erase is the owner acting, not an eviction";
  EXPECT_EQ(t.stats().erases, 1u);
}

TEST(FlowTableTest, MillionsOfDistinctFlowsFitUnderWatermark) {
  FlowTableConfig c;
  c.capacity = 1 << 16;
  c.shards = 4;
  FlowTable t(c);
  // Fill to just under the low watermark: every insert succeeds, and
  // evictions (a full probe window can occur below the watermark with a
  // bounded window) stay a negligible fraction of the population.
  const uint32_t n = static_cast<uint32_t>(0.65 * static_cast<double>(t.capacity_slots()));
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_NE(t.FindOrInsert(Key(i), i), nullptr);
  }
  const FlowTableStats s = t.stats();
  EXPECT_EQ(s.insert_fail, 0u);
  EXPECT_EQ(s.evict_watermark, 0u) << "watermark must not engage at 65% load";
  EXPECT_LT(s.evictions(), n / 100) << "full-window evictions must be <1% at 65% load";
  EXPECT_EQ(t.occupancy(), s.inserts - s.evictions() - s.erases) << "conservation";
  // Everything that wasn't evicted is findable.
  uint64_t misses = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (t.Find(Key(i), n) == nullptr) {
      misses++;
    }
  }
  EXPECT_LE(misses, s.evictions());
  EXPECT_GE(t.ProbeLengthPercentile(0.99), 1);
  EXPECT_LE(t.ProbeLengthPercentile(0.99), c.max_probe_buckets);
}

TEST(FlowTableTest, WatermarkEvictionEngagesBeforeTableFull) {
  FlowTableConfig c = SmallConfig(512, 1);
  c.hi_watermark = 0.5;
  c.lo_watermark = 0.25;
  FlowTable t(c);
  uint64_t evict_cb = 0;
  t.set_on_evict([&](const FlowEntry&) { evict_cb++; });
  // Push 2x the watermark worth of distinct flows: the table must keep
  // accepting inserts, shedding LRU entries, and never report full.
  const uint32_t n = static_cast<uint32_t>(t.capacity_slots());
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_NE(t.FindOrInsert(Key(i), i), nullptr);
  }
  const FlowTableStats s = t.stats();
  EXPECT_GT(s.evict_watermark, 0u) << "eviction must engage at the watermark";
  EXPECT_EQ(s.insert_fail, 0u);
  EXPECT_EQ(evict_cb, s.evictions()) << "every eviction fires the callback exactly once";
  // Occupancy stays pinned near the watermark, strictly below capacity.
  EXPECT_LT(t.occupancy(), t.capacity_slots());
  // Conservation: what went in either lives, was evicted, or was erased.
  EXPECT_EQ(t.occupancy(), s.inserts - s.evictions() - s.erases);
}

TEST(FlowTableTest, FullWindowWithEvictionDisabledFailsInsert) {
  FlowTableConfig c = SmallConfig(64, 1);
  c.hi_watermark = 1.0;  // never watermark-evict
  c.lo_watermark = 0.5;
  c.evict_on_full = false;
  FlowTable t(c);
  uint64_t failed = 0;
  for (uint32_t i = 0; i < 4096; ++i) {
    if (t.FindOrInsert(Key(i), i) == nullptr) {
      failed++;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(t.stats().insert_fail, failed);
  EXPECT_EQ(t.stats().evictions(), 0u);
  EXPECT_LE(t.occupancy(), t.capacity_slots());
}

TEST(FlowTableTest, FullWindowEvictsLruWhenEnabled) {
  FlowTableConfig c = SmallConfig(64, 1);
  c.hi_watermark = 1.0;  // force the full-window path, not the watermark
  c.lo_watermark = 0.5;
  c.evict_on_full = true;
  FlowTable t(c);
  for (uint32_t i = 0; i < 4096; ++i) {
    ASSERT_NE(t.FindOrInsert(Key(i), i), nullptr) << "full window must evict, not fail";
  }
  EXPECT_GT(t.stats().evict_full, 0u);
  EXPECT_EQ(t.stats().insert_fail, 0u);
}

TEST(FlowTableTest, IdleEntriesReclaimedOnSightAndBySweep) {
  FlowTableConfig c = SmallConfig(256, 1);
  c.idle_timeout = 100;
  FlowTable t(c);
  uint64_t evict_cb = 0;
  t.set_on_evict([&](const FlowEntry&) { evict_cb++; });
  t.FindOrInsert(Key(1), 0);
  t.FindOrInsert(Key(2), 0);
  // Not yet idle.
  EXPECT_NE(t.Find(Key(1), 99), nullptr);
  // Key(1) was touched at 99; Key(2) is stale. Find reclaims on sight.
  EXPECT_EQ(t.Find(Key(2), 150), nullptr);
  EXPECT_EQ(t.stats().evict_idle, 1u);
  // The sweep reclaims the rest once they age out.
  size_t reclaimed = t.SweepIdle(1000, t.capacity_slots());
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(t.occupancy(), 0u);
  EXPECT_EQ(evict_cb, 2u);
}

TEST(FlowTableTest, SweepIdleNoopWhenDisabled) {
  FlowTable t(SmallConfig());
  t.FindOrInsert(Key(1), 0);
  EXPECT_EQ(t.SweepIdle(1u << 30, t.capacity_slots()), 0u);
  EXPECT_EQ(t.occupancy(), 1u);
}

TEST(FlowTableTest, TickWraparoundDoesNotExpireFreshEntries) {
  FlowTableConfig c = SmallConfig(64, 1);
  c.idle_timeout = 1000;
  FlowTable t(c);
  const uint32_t near_wrap = 0xffffff00u;
  t.FindOrInsert(Key(1), near_wrap);
  // 0x200 ticks later the counter has wrapped; the entry is 0x300 old,
  // still under the timeout.
  EXPECT_NE(t.Find(Key(1), 0x200u), nullptr);
}

TEST(FlowTableTest, ClearShardFiresEvictCallbackPerEntry) {
  FlowTable t(SmallConfig(256, 2));
  std::set<uint32_t> cleared;
  t.set_on_evict([&](const FlowEntry& e) { cleared.insert(e.src_ip); });
  for (uint32_t i = 0; i < 32; ++i) {
    t.FindOrInsert(Key(i), 0);
  }
  size_t shard0 = t.ShardOccupancy(0);
  size_t shard1 = t.ShardOccupancy(1);
  EXPECT_EQ(shard0 + shard1, 32u);
  t.ClearShard(0);
  EXPECT_EQ(cleared.size(), shard0);
  EXPECT_EQ(t.occupancy(), shard1);
  t.Clear();
  EXPECT_EQ(cleared.size(), 32u);
  EXPECT_EQ(t.occupancy(), 0u);
}

TEST(FlowTableTest, RestoreReinstallsEntryAndCountsReplay) {
  FlowTable t(SmallConfig(256, 1));
  FlowEntry* e = t.FindOrInsert(Key(7), 42);
  e->state0 = 1234;
  e->state1 = 56;
  e->flags |= FlowEntry::kEstablished;
  FlowEntry snapshot = *e;
  t.Clear();
  ASSERT_EQ(t.occupancy(), 0u);
  FlowEntry* r = t.Restore(0, snapshot);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->state0, 1234u);
  EXPECT_EQ(r->state1, 56u);
  EXPECT_TRUE(r->established());
  EXPECT_EQ(r->last_seen, 42u);
  EXPECT_EQ(t.stats().replays, 1u);
  EXPECT_NE(t.Find(Key(7), 43), nullptr);
}

TEST(FlowTableTest, ForEachInShardVisitsOccupiedOnly) {
  FlowTable t(SmallConfig(256, 1));
  for (uint32_t i = 0; i < 10; ++i) {
    t.FindOrInsert(Key(i), 0);
  }
  t.Erase(Key(3));
  size_t seen = 0;
  t.ForEachInShard(0, [&](const FlowEntry& e) {
    seen++;
    EXPECT_TRUE(e.occupied());
  });
  EXPECT_EQ(seen, 9u);
}

TEST(FlowTableTest, SetWatermarksValidates) {
  FlowTable t(SmallConfig());
  EXPECT_TRUE(t.SetWatermarks(0.9, 0.5));
  EXPECT_DOUBLE_EQ(t.hi_watermark(), 0.9);
  EXPECT_DOUBLE_EQ(t.lo_watermark(), 0.5);
  EXPECT_FALSE(t.SetWatermarks(0.5, 0.9)) << "lo >= hi must be rejected";
  EXPECT_FALSE(t.SetWatermarks(1.5, 0.5));
  EXPECT_FALSE(t.SetWatermarks(0.9, 0.0));
  EXPECT_DOUBLE_EQ(t.hi_watermark(), 0.9) << "rejected writes leave state untouched";
}

TEST(FlowTableTest, HandlersReadAndRetuneWatermarks) {
  FlowTable t(SmallConfig());
  telemetry::HandlerRegistry handlers;
  t.AddHandlers(&handlers, "nat");
  t.FindOrInsert(Key(1), 0);

  auto flows = handlers.Read("nat.flows");
  ASSERT_TRUE(flows.ok) << flows.text;
  EXPECT_EQ(flows.text, "1");
  auto occ = handlers.Read("nat.occupancy");
  ASSERT_TRUE(occ.ok) << occ.text;
  EXPECT_EQ(occ.text, "1");
  auto cap = handlers.Read("nat.capacity");
  ASSERT_TRUE(cap.ok);
  EXPECT_EQ(cap.text, std::to_string(t.capacity_slots()));

  auto lo = handlers.Write("nat.lo", "0.3");
  EXPECT_TRUE(lo.ok) << lo.text;
  auto hi = handlers.Write("nat.hi", "0.6");
  EXPECT_TRUE(hi.ok) << hi.text;
  EXPECT_DOUBLE_EQ(t.hi_watermark(), 0.6);
  EXPECT_DOUBLE_EQ(t.lo_watermark(), 0.3);
  EXPECT_FALSE(handlers.Write("nat.hi", "0.1").ok) << "hi below lo must be rejected";
  EXPECT_FALSE(handlers.Write("nat.hi", "bogus").ok);
  auto idle = handlers.Write("nat.idle_ticks", "5000");
  EXPECT_TRUE(idle.ok);
  EXPECT_EQ(t.idle_timeout(), 5000u);
}

// The registry reads the table's own counters at snapshot time: with no
// housekeeping pass (nothing pushes a copy), a snapshot after inserts,
// watermark evictions and a replay already shows every live value.
TEST(FlowTableTest, RegistryReadsLiveCountsWithoutHousekeeping) {
  FlowTableConfig c = SmallConfig(64, 1);
  c.hi_watermark = 0.5;
  c.lo_watermark = 0.25;
  FlowTable t(c);
  telemetry::MetricRegistry registry;
  t.BindTelemetry(&registry, "node0/", "nat");
  for (uint32_t i = 0; i < 100; ++i) {
    t.FindOrInsert(Key(i), i);
  }
  FlowEntry replayed = *t.FindOrInsert(Key(500), 100);
  t.Erase(Key(500));
  ASSERT_NE(t.Restore(0, replayed), nullptr);

  const telemetry::RegistrySnapshot snap = registry.Snapshot();
  const FlowTableStats s = t.stats();
  ASSERT_GT(t.occupancy(), 0u);
  ASSERT_GT(s.evictions(), 0u);
  EXPECT_EQ(snap.GaugeValue("node0/flow/nat/flows"), static_cast<double>(t.occupancy()));
  EXPECT_EQ(snap.GaugeValue("node0/flow/nat/evictions"), static_cast<double>(s.evictions()));
  EXPECT_EQ(snap.GaugeValue("node0/flow/nat/replays"), 1.0);
  EXPECT_EQ(snap.GaugeValue("node0/flow/nat/insert_fail"), 0.0);
  EXPECT_EQ(snap.gauges.size(), 4u);
}

TEST(FlowTableTest, LockedVariantIsCoherentAcrossThreads) {
  FlowTableConfig c;
  c.capacity = 1 << 14;
  c.shards = 4;
  FlowTable t(c);
  constexpr int kThreads = 4;
  constexpr uint32_t kFlows = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t] {
      // All threads hammer the same keys: state0 increments must not be
      // lost if the per-shard lock actually serializes access.
      for (int round = 0; round < 50; ++round) {
        for (uint32_t i = 0; i < kFlows; ++i) {
          t.FindOrInsertLocked(Key(i), round, [](FlowEntry* e, bool) {
            if (e != nullptr) {
              e->state0++;
            }
          });
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(t.occupancy(), kFlows);
  uint64_t total = 0;
  for (int s = 0; s < t.shards(); ++s) {
    t.ForEachInShard(s, [&](const FlowEntry& e) { total += e.state0; });
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * 50 * kFlows);
}

// Four threads share keys through the per-shard lock, with more flows
// than the table holds, so hits, inserts and watermark evictions all
// race across shards. Each shard writes its counts and its own probe
// histogram with a relaxed load and store under its lock; none may lose
// a count (a table-wide histogram written that way would).
TEST(FlowTableTest, ConcurrentLockedCountsAreExact) {
  FlowTableConfig c;
  c.capacity = 1 << 10;
  c.shards = 4;
  FlowTable t(c);
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  constexpr uint32_t kFlows = 1500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (uint32_t i = 0; i < kFlows; ++i) {
          // Each thread walks the keys from its own offset.
          const uint32_t k = (i + static_cast<uint32_t>(w) * 377u) % kFlows;
          t.FindOrInsertLocked(Key(k), static_cast<uint32_t>(round), [](FlowEntry* e, bool) {
            ASSERT_NE(e, nullptr);
          });
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const uint64_t ops = static_cast<uint64_t>(kThreads) * kRounds * kFlows;
  const FlowTableStats s = t.stats();
  EXPECT_EQ(s.hits + s.inserts, ops);
  EXPECT_GT(s.evictions(), 0u);
  EXPECT_EQ(s.insert_fail, 0u);
  uint64_t probes = 0;
  for (uint64_t n : t.ProbeLengthHistogram()) {
    probes += n;
  }
  EXPECT_EQ(probes, ops);
  EXPECT_EQ(t.occupancy(), s.inserts - s.evictions());
  size_t visited = 0;
  for (int shard = 0; shard < t.shards(); ++shard) {
    t.ForEachInShard(shard, [&visited](const FlowEntry&) { visited++; });
  }
  EXPECT_EQ(visited, t.occupancy());
}

}  // namespace
}  // namespace rb
