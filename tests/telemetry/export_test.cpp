// End-to-end export test: run a real SingleServerRouter with telemetry
// bound, dump the JSON snapshot to disk, parse it back, and check every
// section against independently known ground truth (NIC counters, element
// counters, ring occupancy, sampled per-hop latency histogram).
#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/single_server_router.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

using telemetry::ExportBundle;
using telemetry::JsonValue;
using telemetry::MetricRegistry;
using telemetry::ParseJson;
using telemetry::PathTracer;
using telemetry::TracerConfig;

FrameSpec Frame(uint32_t i) {
  FrameSpec spec;
  spec.size = 64 + (i % 4) * 64;
  spec.flow.src_ip = 0x0a000001u + i;
  spec.flow.dst_ip = 0xc0a80001u + (i % 7);
  spec.flow.src_port = static_cast<uint16_t>(1000 + i);
  spec.flow.dst_port = 80;
  spec.flow.protocol = 17;
  return spec;
}

TEST(ExportTest, RouterJsonSnapshotMatchesGroundTruth) {
  SingleServerConfig config;
  config.num_ports = 2;
  config.queues_per_port = 2;
  config.cores = 2;
  config.app = App::kMinimalForwarding;
  config.pool_packets = 4096;

  MetricRegistry registry;
  TracerConfig tc;
  tc.sample_every = 8;
  tc.max_traces = 512;
  PathTracer tracer(tc);

  SingleServerRouter router(config);
  router.EnableTelemetry(&registry, &tracer);
  router.Initialize();

  constexpr uint32_t kPackets = 256;
  uint32_t delivered = 0;
  for (uint32_t i = 0; i < kPackets; ++i) {
    Packet* p = AllocFrame(Frame(i), &router.pool());
    ASSERT_NE(p, nullptr);
    router.DeliverFrame(static_cast<int>(i % 2), p, 0.0);
    delivered++;
  }
  router.RunUntilIdle();

  Packet* burst[64];
  uint64_t forwarded = 0;
  for (int port = 0; port < config.num_ports; ++port) {
    size_t n;
    while ((n = router.DrainPort(port, burst, std::size(burst))) > 0) {
      for (size_t i = 0; i < n; ++i) {
        router.pool().Free(burst[i]);
      }
      forwarded += n;
    }
  }
  ASSERT_EQ(forwarded, delivered);

  ExportBundle bundle;
  bundle.registry = &registry;
  bundle.tracer = &tracer;
  std::string path = testing::TempDir() + "/rb_export_test.json";
  ASSERT_TRUE(telemetry::WriteJson(path, bundle));

  // Read the file back and parse it.
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  fclose(f);
  remove(path.c_str());

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &doc, &error)) << error;

  // --- NIC counters vs the ports' own counters ---
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  auto counter = [&](const std::string& name) -> uint64_t {
    const JsonValue* v = counters->Find(name);
    return v != nullptr ? static_cast<uint64_t>(v->NumberOr(0)) : 0;
  };
  uint64_t rx_total = counter("nic/port0/rx_packets") + counter("nic/port1/rx_packets");
  uint64_t tx_total = counter("nic/port0/tx_packets") + counter("nic/port1/tx_packets");
  EXPECT_EQ(rx_total, delivered);
  EXPECT_EQ(tx_total, forwarded);
  EXPECT_EQ(rx_total, router.total_rx_packets());

  // --- per-element packet counters: every FromDevice output summed covers
  // every delivered packet, ToDevice counters cover every forwarded one ---
  uint64_t from_out = 0;
  uint64_t to_out = 0;
  uint64_t drops = 0;
  for (const auto& [name, value] : counters->obj) {
    if (name.rfind("elem/FromDevice", 0) == 0 &&
        name.find("/packets_out") != std::string::npos) {
      from_out += static_cast<uint64_t>(value.NumberOr(0));
    }
    if (name.rfind("elem/ToDevice", 0) == 0 && name.find("/packets_out") != std::string::npos) {
      to_out += static_cast<uint64_t>(value.NumberOr(0));
    }
    if (name.find("/drops") != std::string::npos) {
      drops += static_cast<uint64_t>(value.NumberOr(0));
    }
  }
  EXPECT_EQ(from_out, delivered);
  EXPECT_EQ(to_out, forwarded);
  EXPECT_EQ(drops, 0u);

  // --- ring occupancy gauges exist and saw at least one packet ---
  const JsonValue* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  double max_occupancy = 0;
  size_t occupancy_gauges = 0;
  for (const auto& [name, value] : gauges->obj) {
    if (name.find("occupancy_hw") != std::string::npos) {
      occupancy_gauges++;
      max_occupancy = std::max(max_occupancy, value.NumberOr(0));
    }
  }
  EXPECT_GT(occupancy_gauges, 0u);
  EXPECT_GE(max_occupancy, 1.0);

  // --- sampled per-hop latency histogram ---
  const JsonValue* traces = doc.Find("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_DOUBLE_EQ(traces->Find("started")->NumberOr(0), static_cast<double>(delivered));
  double sampled = traces->Find("sampled")->NumberOr(0);
  EXPECT_DOUBLE_EQ(sampled, static_cast<double>(delivered / tc.sample_every));
  const JsonValue* hop_hist = traces->Find("hop_latency");
  ASSERT_NE(hop_hist, nullptr);
  // Each sampled minimal-forwarding trace has 4 hops (FromDevice ->
  // CheckIPHeader -> ToDevice handoff -> ToDevice transmit; the default
  // graph runs to completion, with no Queue hop) = 3 latency deltas.
  EXPECT_DOUBLE_EQ(hop_hist->Find("count")->NumberOr(0), sampled * 3);
  const JsonValue* hops = traces->Find("hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_FALSE(hops->arr.empty());
  const JsonValue* packets = traces->Find("packets");
  ASSERT_NE(packets, nullptr);
  ASSERT_FALSE(packets->arr.empty());
  EXPECT_TRUE(packets->arr[0].Find("complete")->b);
}

TEST(ExportTest, RegistryCsvListsCountersAndGauges) {
  MetricRegistry registry;
  registry.GetCounter("a/packets")->Add(7);
  registry.GetGauge("b/depth")->Set(1.5);
  std::string csv = telemetry::RegistryCsv(registry.Snapshot());
  EXPECT_NE(csv.find("counter,a/packets,7"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b/depth,1.5"), std::string::npos);
}

TEST(ExportTest, HistogramJsonEmitsCumulativeBuckets) {
  MetricRegistry registry;
  telemetry::HistogramOptions opts;
  opts.lo = 0;
  opts.hi = 10;
  opts.buckets = 5;  // edges at 2,4,6,8,10
  auto* h = registry.GetHistogram("lat", opts);
  h->Observe(-1);  // underflow
  h->Observe(1);
  h->Observe(3);
  h->Observe(3);
  h->Observe(9);
  h->Observe(99);  // overflow

  ExportBundle bundle;
  bundle.registry = &registry;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(telemetry::ToJson(bundle), &doc));
  const JsonValue* hist = doc.Find("histograms")->Find("lat");
  ASSERT_NE(hist, nullptr);
  const JsonValue& raw = *hist->Find("counts");
  const JsonValue& cum = *hist->Find("cum_counts");
  ASSERT_EQ(raw.arr.size(), 5u);
  ASSERT_EQ(cum.arr.size(), 5u);
  // Raw per-bucket: [1, 2, 0, 0, 1]; cumulative folds underflow in and
  // is monotone: [2, 4, 4, 4, 5] (Prometheus `_bucket` semantics).
  const double want_raw[] = {1, 2, 0, 0, 1};
  const double want_cum[] = {2, 4, 4, 4, 5};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(raw.arr[i].num, want_raw[i]) << "bucket " << i;
    EXPECT_EQ(cum.arr[i].num, want_cum[i]) << "bucket " << i;
  }
  // +Inf (cum.back() + overflow) must equal the total observation count.
  EXPECT_EQ(cum.arr.back().num + hist->Find("overflow")->num, hist->Find("count")->num);
}

TEST(ExportTest, PrometheusTextExposition) {
  MetricRegistry registry;
  registry.GetCounter("nic/rx_packets")->Add(12);
  registry.GetGauge("queue/depth")->Set(7.5);
  telemetry::HistogramOptions opts;
  opts.lo = 0;
  opts.hi = 4;
  opts.buckets = 2;
  auto* h = registry.GetHistogram("hop_us", opts);
  h->Observe(1);
  h->Observe(3);
  h->Observe(100);  // overflow: appears only in the +Inf bucket

  std::string text = telemetry::PrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE rb_counter counter"), std::string::npos);
  EXPECT_NE(text.find("rb_counter{name=\"nic/rx_packets\"} 12"), std::string::npos);
  EXPECT_NE(text.find("rb_gauge{name=\"queue/depth\"} 7.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rb_histogram histogram"), std::string::npos);
  EXPECT_NE(text.find("rb_histogram_bucket{name=\"hop_us\",le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("rb_histogram_bucket{name=\"hop_us\",le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(text.find("rb_histogram_bucket{name=\"hop_us\",le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rb_histogram_count{name=\"hop_us\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rb_histogram_sum{name=\"hop_us\"} 104"), std::string::npos);
}

TEST(ExportTest, EmptyBundleYieldsEmptySections) {
  MetricRegistry registry;
  ExportBundle bundle;
  bundle.registry = &registry;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(telemetry::ToJson(bundle), &doc));
  ASSERT_TRUE(doc.Find("counters")->is_object());
  EXPECT_TRUE(doc.Find("counters")->obj.empty());
  EXPECT_EQ(doc.Find("traces"), nullptr);  // no tracer supplied
}

}  // namespace
}  // namespace rb
