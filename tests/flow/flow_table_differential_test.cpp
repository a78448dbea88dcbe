// FlowTable against the scalar scan it replaced (reference_flow_table.hpp):
// on identical key and tick sequences both must give the same answers,
// the same eviction callbacks in the same order, the same counts and
// probe lengths, and the same slots at the end — through FindOrInsert and
// through FindOrInsertBatch.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flow/flow_table.hpp"
#include "flow/reference_flow_table.hpp"
#include "workload/flows.hpp"

namespace rb {
namespace {

FlowKey Key(uint32_t i) {
  return FlowKey{0x0a000000u + i, 0x0b000000u + (i * 7919u),
                 static_cast<uint16_t>(1024 + i % 60000), static_cast<uint16_t>(80), 6};
}

bool SameBytes(const FlowEntry& a, const FlowEntry& b) {
  return std::memcmp(&a, &b, sizeof(FlowEntry)) == 0;
}

// One observable step of a table's history: an eviction callback, or the
// answer to one call.
struct Event {
  char kind = 0;  // 'e' evicted, 'i' FindOrInsert, 'f' Find, 'x' Erase, 's' SweepIdle,
                  // 'r' Restore
  bool found = false;
  bool inserted = false;
  uint64_t value = 0;
  FlowEntry entry;

  bool operator==(const Event& o) const {
    return kind == o.kind && found == o.found && inserted == o.inserted && value == o.value &&
           SameBytes(entry, o.entry);
  }
};

std::string Describe(const Event& e) {
  return std::string(1, e.kind) + " found=" + std::to_string(e.found) +
         " inserted=" + std::to_string(e.inserted) + " value=" + std::to_string(e.value) +
         " src=" + std::to_string(e.entry.src_ip) + " seen=" + std::to_string(e.entry.last_seen) +
         " state0=" + std::to_string(e.entry.state0);
}

struct Variant {
  uint32_t idle_timeout;
  double hi;
  bool evict_on_full;
  uint32_t tick0;  // 0, or just below the 32-bit wrap
};

std::vector<Variant> AllVariants() {
  std::vector<Variant> out;
  for (uint32_t idle : {0u, 40u}) {
    for (double hi : {0.85, 1.0}) {
      for (bool evict_on_full : {true, false}) {
        for (uint32_t tick0 : {0u, 0xffffffffu - 300u}) {
          out.push_back(Variant{idle, hi, evict_on_full, tick0});
        }
      }
    }
  }
  return out;
}

std::string Name(const Variant& v) {
  return "idle=" + std::to_string(v.idle_timeout) + " hi=" + std::to_string(v.hi) +
         " evict_on_full=" + std::to_string(v.evict_on_full) +
         " tick0=" + std::to_string(v.tick0);
}

FlowTableConfig Config(size_t capacity, int shards, const Variant& v, int window = 8) {
  FlowTableConfig c;
  c.capacity = capacity;
  c.shards = shards;
  c.max_probe_buckets = window;
  c.hi_watermark = v.hi;
  c.lo_watermark = 0.5;
  c.idle_timeout = v.idle_timeout;
  c.evict_on_full = v.evict_on_full;
  return c;
}

// Both tables, driven alike; each keeps its own history.
class Twin {
 public:
  explicit Twin(const FlowTableConfig& c) : table_(c), ref_(c) {
    table_.set_on_evict([this](const FlowEntry& e) { got_.push_back(Evicted(e)); });
    ref_.set_on_evict([this](const FlowEntry& e) { want_.push_back(Evicted(e)); });
  }

  // What the owner does with an answer, the same on both sides: a new
  // entry is stamped with the op number, a hit counts in state1.
  static Event Answer(char kind, FlowEntry* e, bool inserted, uint64_t op) {
    Event ev;
    ev.kind = kind;
    ev.found = e != nullptr;
    ev.inserted = inserted;
    if (e != nullptr) {
      ev.entry = *e;
      if (inserted) {
        e->state0 = op;
        e->flags |= FlowEntry::kEstablished;
      } else {
        e->state1++;
      }
    }
    return ev;
  }

  void FindOrInsert(const FlowKey& key, uint32_t now, uint64_t op) {
    bool inserted = false;
    FlowEntry* e = table_.FindOrInsert(key, now, &inserted);
    got_.push_back(Answer('i', e, inserted, op));
    bool ref_inserted = false;
    FlowEntry* r = ref_.FindOrInsert(key, now, &ref_inserted);
    want_.push_back(Answer('i', r, ref_inserted, op));
  }

  // The batch call on the table, n scalar calls on the reference.
  void FindOrInsertBurst(const std::vector<FlowKey>& keys, uint32_t now, uint64_t op) {
    uint32_t next = 0;
    table_.FindOrInsertBatch(keys.data(), static_cast<uint32_t>(keys.size()), now,
                             [&](uint32_t i, FlowEntry* e, bool inserted) {
                               EXPECT_EQ(i, next++) << "visit runs in key order";
                               got_.push_back(Answer('i', e, inserted, op + i));
                             });
    EXPECT_EQ(next, keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      bool inserted = false;
      FlowEntry* r = ref_.FindOrInsert(keys[i], now, &inserted);
      want_.push_back(Answer('i', r, inserted, op + i));
    }
  }

  void Find(const FlowKey& key, uint32_t now, uint64_t op) {
    got_.push_back(Answer('f', table_.Find(key, now), false, op));
    want_.push_back(Answer('f', ref_.Find(key, now), false, op));
  }

  void Erase(const FlowKey& key) {
    Event a;
    a.kind = 'x';
    a.found = table_.Erase(key);
    got_.push_back(a);
    Event b;
    b.kind = 'x';
    b.found = ref_.Erase(key);
    want_.push_back(b);
  }

  void SweepIdle(uint32_t now, size_t slots) {
    Event a;
    a.kind = 's';
    a.value = table_.SweepIdle(now, slots);
    got_.push_back(a);
    Event b;
    b.kind = 's';
    b.value = ref_.SweepIdle(now, slots);
    want_.push_back(b);
  }

  // Compares and drops the histories so far; false at the first
  // difference, which it reports.
  bool HistoriesAgree() {
    const size_t n = std::min(got_.size(), want_.size());
    for (size_t i = 0; i < n; ++i) {
      if (!(got_[i] == want_[i])) {
        ADD_FAILURE() << "event " << (checked_ + i) << ": table " << Describe(got_[i])
                      << " vs reference " << Describe(want_[i]);
        return false;
      }
    }
    if (got_.size() != want_.size()) {
      ADD_FAILURE() << "history lengths " << got_.size() << " vs " << want_.size();
      return false;
    }
    checked_ += n;
    got_.clear();
    want_.clear();
    return true;
  }

  // Counts, probe lengths and every shard's slots, byte for byte.
  void ExpectSameState() {
    const FlowTableStats a = table_.stats();
    const FlowTableStats b = ref_.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.evict_idle, b.evict_idle);
    EXPECT_EQ(a.evict_watermark, b.evict_watermark);
    EXPECT_EQ(a.evict_full, b.evict_full);
    EXPECT_EQ(a.insert_fail, b.insert_fail);
    EXPECT_EQ(a.erases, b.erases);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(table_.ProbeLengthPercentile(0.5), ref_.ProbeLengthPercentile(0.5));
    EXPECT_EQ(table_.ProbeLengthPercentile(0.99), ref_.ProbeLengthPercentile(0.99));
    ASSERT_EQ(table_.shards(), ref_.shards());
    for (int s = 0; s < table_.shards(); ++s) {
      EXPECT_EQ(table_.ShardOccupancy(s), ref_.ShardOccupancy(s));
      EXPECT_EQ(Dump(s, true), Dump(s, false)) << "shard " << s;
    }
  }

  // Checkpoint and replay: clear each shard and restore its dump. A
  // restore may evict or be refused like any insert; both must agree.
  void ReplayEveryShard() {
    for (int s = 0; s < table_.shards(); ++s) {
      const std::vector<FlowEntry> entries = Entries(s, true);
      table_.ClearShard(s);
      ref_.ClearShard(s);
      for (const FlowEntry& e : entries) {
        got_.push_back(Answer('r', table_.Restore(s, e), false, 0));
        want_.push_back(Answer('r', ref_.Restore(s, e), false, 0));
      }
    }
  }

  const FlowTable& table() const { return table_; }

 private:
  static Event Evicted(const FlowEntry& e) {
    Event ev;
    ev.kind = 'e';
    ev.entry = e;
    return ev;
  }

  std::vector<FlowEntry> Entries(int shard, bool table) const {
    std::vector<FlowEntry> out;
    auto add = [&out](const FlowEntry& e) { out.push_back(e); };
    if (table) {
      table_.ForEachInShard(shard, add);
    } else {
      ref_.ForEachInShard(shard, add);
    }
    return out;
  }

  std::string Dump(int shard, bool table) const {
    const std::vector<FlowEntry> entries = Entries(shard, table);
    return std::string(reinterpret_cast<const char*>(entries.data()),
                       entries.size() * sizeof(FlowEntry));
  }

  FlowTable table_;
  ReferenceFlowTable ref_;
  std::vector<Event> got_;
  std::vector<Event> want_;
  uint64_t checked_ = 0;
};

// Drives `ops` operations from `next_key` through both tables: mostly
// FindOrInsert (single calls, or bursts of 1-40 keys that sometimes
// repeat a key of the same burst), with Find, Erase and SweepIdle mixed
// in. The tick advances one step every `ops_per_tick` operations. Adds
// the table's final counts to `seen`.
void RunStream(const FlowTableConfig& config, const Variant& v, bool batched,
               const std::function<FlowKey()>& next_key, uint64_t ops, uint64_t seed,
               FlowTableStats* seen, uint64_t ops_per_tick = 8) {
  Twin twin(config);
  Rng rng(seed);
  std::vector<FlowKey> recent;
  uint64_t op = 0;
  while (op < ops) {
    const uint32_t now = v.tick0 + static_cast<uint32_t>(op / ops_per_tick);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 6 && !recent.empty()) {
      twin.Find(recent[rng.NextBounded(recent.size())], now, op);
      op++;
    } else if (dice < 8 && !recent.empty()) {
      twin.Erase(recent[rng.NextBounded(recent.size())]);
      op++;
    } else if (dice < 9) {
      twin.SweepIdle(now, 16);
      op++;
    } else if (batched) {
      std::vector<FlowKey> burst;
      const uint64_t n = 1 + rng.NextBounded(40);
      for (uint64_t i = 0; i < n; ++i) {
        if (!burst.empty() && rng.NextBounded(8) == 0) {
          burst.push_back(burst[rng.NextBounded(burst.size())]);
        } else {
          burst.push_back(next_key());
        }
      }
      twin.FindOrInsertBurst(burst, now, op);
      op += n;
      recent = burst;
    } else {
      const FlowKey key = next_key();
      twin.FindOrInsert(key, now, op);
      op++;
      if (recent.size() < 64) {
        recent.push_back(key);
      } else {
        recent[rng.NextBounded(recent.size())] = key;
      }
    }
    if (!twin.HistoriesAgree()) {
      return;
    }
  }
  twin.ExpectSameState();
  twin.ReplayEveryShard();
  EXPECT_TRUE(twin.HistoriesAgree());
  twin.ExpectSameState();
  const FlowTableStats s = twin.table().stats();
  seen->hits += s.hits;
  seen->inserts += s.inserts;
  seen->evict_idle += s.evict_idle;
  seen->evict_watermark += s.evict_watermark;
  seen->evict_full += s.evict_full;
  seen->insert_fail += s.insert_fail;
  seen->erases += s.erases;
  seen->replays += s.replays;
}

// Every decision the differential covers was taken at least once.
void ExpectEveryPathTaken(const FlowTableStats& s) {
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.inserts, 0u);
  EXPECT_GT(s.evict_idle, 0u);
  EXPECT_GT(s.evict_watermark, 0u);
  EXPECT_GT(s.evict_full, 0u);
  EXPECT_GT(s.insert_fail, 0u);
  EXPECT_GT(s.erases, 0u);
  EXPECT_GT(s.replays, 0u);
}

TEST(FlowTableDifferentialTest, ZipfChurn) {
  FlowTableStats seen;
  for (const Variant& v : AllVariants()) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(Name(v) + (batched ? " batched" : " scalar"));
      FlowChurnConfig cc;
      cc.target_flows = 1500;
      cc.zipf_s = 1.1;
      cc.churn_per_packet = 0.01;
      cc.seed = 3;
      FlowChurnGenerator gen(cc);
      RunStream(Config(512, 2, v), v, batched, [&gen] { return gen.Next().key; }, 8000, 1,
                &seen);
    }
  }
  ExpectEveryPathTaken(seen);
}

TEST(FlowTableDifferentialTest, UniformTraffic) {
  FlowTableStats seen;
  for (const Variant& v : AllVariants()) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(Name(v) + (batched ? " batched" : " scalar"));
      Rng keys(5);
      RunStream(Config(512, 2, v), v, batched,
                [&keys] { return Key(static_cast<uint32_t>(keys.NextBounded(1500))); }, 8000,
                2, &seen);
    }
  }
  ExpectEveryPathTaken(seen);
}

// One shard of 16 buckets: keys that share bucket 3, keys that share the
// tag bits 0x5a5a, and keys that share both, so tag matches that are not
// key matches happen on every probe of those windows.
TEST(FlowTableDifferentialTest, SameBucketKeysWithCollidingTags) {
  std::vector<FlowKey> same_bucket;
  std::vector<FlowKey> same_tag;
  std::vector<FlowKey> both;
  for (uint32_t i = 0; both.size() < 6 || same_tag.size() < 16 || same_bucket.size() < 24; ++i) {
    const FlowKey key = Key(i);
    const uint64_t h = FlowHash64(key);
    const bool bucket = (h & 15) == 3;
    const bool tag = ((h >> 32) & 0xffff) == 0x5a5a;
    if (bucket && tag && both.size() < 6) {
      both.push_back(key);
    } else if (tag && same_tag.size() < 16) {
      same_tag.push_back(key);
    } else if (bucket && same_bucket.size() < 24) {
      same_bucket.push_back(key);
    }
  }
  std::vector<FlowKey> pool = same_bucket;
  pool.insert(pool.end(), same_tag.begin(), same_tag.end());
  pool.insert(pool.end(), both.begin(), both.end());
  pool.insert(pool.end(), both.begin(), both.end());  // the colliding keys twice as often
  FlowTableStats seen;
  for (const Variant& v : AllVariants()) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(Name(v) + (batched ? " batched" : " scalar"));
      Rng pick(9);
      RunStream(Config(32, 1, v), v, batched,
                [&] { return pool[pick.NextBounded(pool.size())]; }, 6000, 3, &seen,
                /*ops_per_tick=*/4);
    }
  }
  ExpectEveryPathTaken(seen);
}

// Windows of 1-8 buckets, including shards smaller than the 16-slot
// mirror (a window there wraps the whole shard).
TEST(FlowTableDifferentialTest, EveryWindowWidth) {
  const Variant v{40, 0.85, true, 0xffffffffu - 300u};
  FlowTableStats seen;
  for (int window = 1; window <= 8; ++window) {
    for (size_t capacity : {static_cast<size_t>(2 * window), size_t{256}}) {
      for (bool batched : {false, true}) {
        SCOPED_TRACE("window=" + std::to_string(window) + " capacity=" +
                     std::to_string(capacity) + (batched ? " batched" : " scalar"));
        Rng keys(11);
        const uint32_t flows = static_cast<uint32_t>(3 * capacity);
        RunStream(Config(capacity, 1, v, window), v, batched,
                  [&] { return Key(static_cast<uint32_t>(keys.NextBounded(flows))); }, 3000, 4,
                  &seen);
      }
    }
  }
  EXPECT_GT(seen.evict_idle, 0u);
  EXPECT_GT(seen.evict_watermark, 0u);
  EXPECT_GT(seen.evict_full, 0u);
}

// A burst that carries the same new flow twice: the first copy inserts,
// the second hits the entry the first one's visit already stamped.
TEST(FlowTableDifferentialTest, BurstRepeatingANewFlowHitsItsOwnInsert) {
  const Variant v{0, 0.85, true, 0};
  FlowTableConfig c = Config(64, 1, v);
  FlowTable table(c);
  ReferenceFlowTable ref(c);
  const std::vector<FlowKey> burst = {Key(1), Key(2), Key(1), Key(3), Key(2), Key(1)};
  std::vector<Event> got;
  table.FindOrInsertBatch(burst.data(), static_cast<uint32_t>(burst.size()), 7,
                          [&](uint32_t i, FlowEntry* e, bool inserted) {
                            got.push_back(Twin::Answer('i', e, inserted, 100 + i));
                          });
  std::vector<Event> want;
  for (size_t i = 0; i < burst.size(); ++i) {
    bool inserted = false;
    FlowEntry* e = ref.FindOrInsert(burst[i], 7, &inserted);
    want.push_back(Twin::Answer('i', e, inserted, 100 + i));
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << i << ": " << Describe(got[i]) << " vs " << Describe(want[i]);
  }
  EXPECT_TRUE(got[0].inserted);
  EXPECT_FALSE(got[2].inserted);
  EXPECT_EQ(got[2].entry.state0, 100u) << "key 2 sees the state key 0's visit wrote";
  EXPECT_TRUE(got[2].entry.established());
  EXPECT_EQ(got[5].entry.state1, 1u);
  EXPECT_EQ(table.stats().inserts, 3u);
  EXPECT_EQ(table.stats().hits, 3u);
}

}  // namespace
}  // namespace rb
