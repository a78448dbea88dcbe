#include "telemetry/profiler.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/single_server_router.hpp"
#include "telemetry/json.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

namespace tele = rb::telemetry;

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tele::SetThisCore(0);
    tele::SetProfiler(nullptr);
  }
  void TearDown() override { tele::SetProfiler(nullptr); }
};

TEST_F(ProfilerTest, CycleClockIsMonotonicAndCalibrated) {
  uint64_t a = tele::ReadCycles();
  uint64_t b = tele::ReadCycles();
  EXPECT_GE(b, a);
  EXPECT_GT(tele::CyclesPerSecond(), 1e6);  // any real clock is >1 MHz
  const char* name = tele::CycleSourceName();
  EXPECT_TRUE(std::string(name) == "tsc" || std::string(name) == "steady_clock");
}

TEST_F(ProfilerTest, InterningIsStableAndNamesRoundTrip) {
  tele::ScopeId a = tele::InternScopeName("test/alpha");
  tele::ScopeId b = tele::InternScopeName("test/beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, tele::InternScopeName("test/alpha"));
  EXPECT_EQ(tele::ScopeName(a), "test/alpha");
  EXPECT_EQ(tele::ScopeName(b), "test/beta");
}

TEST_F(ProfilerTest, NestedScopesProduceHierarchyAndSelfTime) {
  tele::Profiler prof;
  tele::ScopeId outer = tele::InternScopeName("test/outer");
  tele::ScopeId inner = tele::InternScopeName("test/inner");

  for (int i = 0; i < 10; ++i) {
    prof.Begin(outer);
    prof.AddWork(1, 100);
    prof.Begin(inner);
    prof.AddWork(1, 60);
    prof.End();
    prof.End();
  }

  tele::ProfileSnapshot snap = prof.Snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);
  const tele::ProfileNode& o = snap.roots[0];
  EXPECT_EQ(o.name, "test/outer");
  EXPECT_EQ(o.calls, 10u);
  EXPECT_EQ(o.packets, 10u);
  EXPECT_EQ(o.bytes, 1000u);
  ASSERT_EQ(o.children.size(), 1u);
  const tele::ProfileNode& in = o.children[0];
  EXPECT_EQ(in.name, "test/inner");
  EXPECT_EQ(in.calls, 10u);
  EXPECT_EQ(in.packets, 10u);
  EXPECT_EQ(in.bytes, 600u);
  // Inclusive outer >= inner; self = outer - inner.
  EXPECT_GE(o.cycles, in.cycles);
  EXPECT_EQ(o.self_cycles, o.cycles - in.cycles);
  EXPECT_EQ(in.self_cycles, in.cycles);  // leaf
  EXPECT_EQ(snap.TotalCycles(), o.cycles);

  // Find and AggregateByName see both scopes.
  EXPECT_NE(snap.Find("test/inner"), nullptr);
  std::vector<tele::ScopeTotals> agg = snap.AggregateByName();
  ASSERT_EQ(agg.size(), 2u);
}

TEST_F(ProfilerTest, SameScopeAtDifferentPositionsAggregates) {
  tele::Profiler prof;
  tele::ScopeId a = tele::InternScopeName("test/posA");
  tele::ScopeId b = tele::InternScopeName("test/posB");
  tele::ScopeId shared = tele::InternScopeName("test/shared");

  prof.Begin(a);
  prof.Begin(shared);
  prof.AddWork(1, 0);
  prof.End();
  prof.End();
  prof.Begin(b);
  prof.Begin(shared);
  prof.AddWork(2, 0);
  prof.End();
  prof.End();

  tele::ProfileSnapshot snap = prof.Snapshot();
  EXPECT_EQ(snap.roots.size(), 2u);
  for (const tele::ScopeTotals& t : snap.AggregateByName()) {
    if (t.name == "test/shared") {
      EXPECT_EQ(t.calls, 2u);
      EXPECT_EQ(t.packets, 3u);
    }
  }
}

TEST_F(ProfilerTest, ShardsFromDifferentCoresMergeByPath) {
  tele::Profiler prof;
  tele::ScopeId s = tele::InternScopeName("test/sharded");

  tele::SetThisCore(2);
  prof.Begin(s);
  prof.AddWork(5, 0);
  prof.End();

  tele::SetThisCore(7);
  prof.Begin(s);
  prof.AddWork(3, 0);
  prof.End();
  tele::SetThisCore(0);

  tele::ProfileSnapshot snap = prof.Snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);  // same path -> one merged node
  EXPECT_EQ(snap.roots[0].calls, 2u);
  EXPECT_EQ(snap.roots[0].packets, 8u);
}

TEST_F(ProfilerTest, ConcurrentWritersOnDistinctCoresDoNotInterfere) {
  tele::Profiler prof;
  tele::ScopeId s = tele::InternScopeName("test/threads");
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&prof, s, t] {
      tele::SetThisCore(t + 1);  // distinct shard per thread
      for (int i = 0; i < kIters; ++i) {
        prof.Begin(s);
        prof.AddWork(1, 64);
        prof.End();
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  tele::ProfileSnapshot snap = prof.Snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].calls, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.roots[0].packets, static_cast<uint64_t>(kThreads) * kIters);
}

TEST_F(ProfilerTest, ResetClearsAllShards) {
  tele::Profiler prof;
  tele::ScopeId s = tele::InternScopeName("test/reset");
  prof.Begin(s);
  prof.AddWork(1, 1);
  prof.End();
  EXPECT_FALSE(prof.Snapshot().roots.empty());
  prof.Reset();
  EXPECT_TRUE(prof.Snapshot().roots.empty());
}

TEST_F(ProfilerTest, DepthOverflowIsContainedNotCorrupting) {
  tele::Profiler prof;
  tele::ScopeId s = tele::InternScopeName("test/deep");
  constexpr size_t kDeep = tele::Profiler::kMaxDepth + 8;
  for (size_t i = 0; i < kDeep; ++i) {
    prof.Begin(s);
  }
  for (size_t i = 0; i < kDeep; ++i) {
    prof.End();
  }
  tele::ProfileSnapshot snap = prof.Snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);  // tree still well-formed
}

TEST_F(ProfilerTest, MacrosAreNoOpsWithoutInstalledProfiler) {
  // No profiler installed: the macros must be safe (and cheap).
  ASSERT_EQ(tele::CurrentProfiler(), nullptr);
  {
    RB_PROF_SCOPE(tele::InternScopeName("test/noop"));
    RB_PROF_WORK(1, 64);
  }
  // Installing afterwards starts from a clean slate.
  tele::Profiler prof;
  tele::SetProfiler(&prof);
  EXPECT_EQ(tele::CurrentProfiler(), &prof);
  tele::SetProfiler(nullptr);
  EXPECT_TRUE(prof.Snapshot().roots.empty());
}

TEST_F(ProfilerTest, SnapshotJsonRoundTripsThroughParser) {
  tele::Profiler prof;
  prof.Begin(tele::InternScopeName("test/json_outer"));
  prof.AddWork(4, 256);
  prof.Begin(tele::InternScopeName("test/json_inner"));
  prof.End();
  prof.End();

  tele::ProfileSnapshot snap = prof.Snapshot();
  std::string json = snap.ToJson();
  tele::JsonValue v;
  std::string error;
  ASSERT_TRUE(tele::ParseJson(json, &v, &error)) << error << "\n" << json;
  EXPECT_GT(v.Find("cycles_per_sec")->NumberOr(0), 0);
  const tele::JsonValue* scopes = v.Find("scopes");
  ASSERT_NE(scopes, nullptr);
  ASSERT_TRUE(scopes->is_array());
  ASSERT_EQ(scopes->arr.size(), 1u);
  EXPECT_EQ(scopes->arr[0].Find("name")->str, "test/json_outer");
  EXPECT_DOUBLE_EQ(scopes->arr[0].Find("packets")->NumberOr(0), 4.0);
  const tele::JsonValue* children = scopes->arr[0].Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->arr.size(), 1u);
  EXPECT_EQ(children->arr[0].Find("name")->str, "test/json_inner");
}

// End-to-end: a real pipeline run with the profiler installed produces a
// task -> element hierarchy whose roots explain nearly all measured cycles.
// (Needs the RB_PROFILE instrumentation compiled in — the default build.)
#if defined(RB_PROFILE) && RB_PROFILE
TEST_F(ProfilerTest, EndToEndPipelineProfileCoversMeasuredCycles) {
  SingleServerConfig cfg;
  cfg.num_ports = 2;
  cfg.queues_per_port = 1;
  cfg.cores = 1;
  cfg.app = App::kIpRouting;
  cfg.pool_packets = 8192;
  cfg.table.num_routes = 4096;
  SingleServerRouter router(cfg);
  router.Initialize();
  SyntheticConfig gen_cfg;
  gen_cfg.packet_size = 64;
  gen_cfg.random_dst = true;
  SyntheticGenerator gen(gen_cfg);

  tele::Profiler prof;
  tele::SetProfiler(&prof);
  tele::ScopeId harness = tele::InternScopeName("test/harness");

  const uint64_t t0 = tele::ReadCycles();
  uint64_t forwarded = 0;
  Packet* burst[64];
  {
    RB_PROF_SCOPE(harness);
    int done = 0;
    while (done < 4000) {
      FrameSpec spec = gen.Next();
      if (router.table().Lookup(spec.flow.dst_ip) == LpmTable::kNoRoute) {
        continue;
      }
      Packet* p = AllocFrame(spec, &router.pool());
      ASSERT_NE(p, nullptr);
      router.DeliverFrame(done % 2, p, 0.0);
      done++;
      if (done % 512 == 0 || done == 4000) {
        router.RunUntilIdle();
        for (int port = 0; port < 2; ++port) {
          size_t n;
          while ((n = router.DrainPort(port, burst, 64)) > 0) {
            for (size_t i = 0; i < n; ++i) {
              router.pool().Free(burst[i]);
            }
            forwarded += n;
          }
        }
      }
    }
  }
  const uint64_t raw = tele::ReadCycles() - t0;
  tele::SetProfiler(nullptr);

  EXPECT_GT(forwarded, 0u);
  tele::ProfileSnapshot snap = prof.Snapshot();
  // Everything ran under test/harness, so there is exactly one root and
  // its inclusive cycles must explain >= 95% of the raw delta (the
  // acceptance bar for scope attribution).
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].name, "test/harness");
  EXPECT_GE(static_cast<double>(snap.TotalCycles()),
            0.95 * static_cast<double>(raw));
  EXPECT_LE(snap.TotalCycles(), raw);

  // The instrumented hot paths all appear: tasks, elements, and the
  // lookup phase scope nested beneath the IPLookup element.
  bool saw_task = false;
  bool saw_lpm = false;
  bool saw_tx = false;
  for (const tele::ScopeTotals& t : snap.AggregateByName()) {
    if (t.name.rfind("task/", 0) == 0) {
      saw_task = true;
    }
    if (t.name == "phase/lpm_lookup") {
      saw_lpm = true;
      EXPECT_GT(t.calls, 0u);
    }
    if (t.name == "netdev/tx") {
      // Each transmit burst is attributed the packets and bytes it put on
      // a tx ring: every forwarded 64 B frame, once.
      saw_tx = true;
      EXPECT_EQ(t.packets, forwarded);
      EXPECT_EQ(t.bytes, 64 * forwarded);
    }
  }
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_lpm);
  EXPECT_TRUE(saw_tx);
}
#endif  // RB_PROFILE

}  // namespace
}  // namespace rb
