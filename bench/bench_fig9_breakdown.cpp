// Figure 9-style per-element cycle breakdown, measured (not modeled): runs
// the four Figure 8 workloads (fwd/64B, rtr/64B, ipsec/64B, fwd/Abilene)
// through the real Click pipeline with the cycle-accounting profiler
// installed, prints where the cycles/packet go (task -> element -> phase),
// and emits the paper's CPU/memory/NIC bottleneck verdict per workload
// from the measured cycles plus the model's bus loads.
//
//   $ ./bench_fig9_breakdown [--packets=N] [--smoke] [--json=BENCH_profile.json]
//                            [--profile-out=full_tree.json]
//
// --json writes the flat regression-tracked document (the committed
// baseline lives at bench/baselines/BENCH_profile.json and is checked by
// tools/check_bench_regression.py); --profile-out writes the full scope
// tree of the last workload for ad-hoc inspection.
//
// Router time excludes frame generation, as perfbench's excludes its
// FillFrame: pipeline_cycles_per_packet and attribution_coverage count
// the drive loop's non-harness root scopes only. harness/inject is
// reported beside them, in "roots" and "scopes".
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "core/single_server_router.hpp"
#include "harness/bottleneck.hpp"
#include "harness/metrics_out.hpp"
#include "harness/report.hpp"
#include "model/throughput.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/perf_counters.hpp"
#include "telemetry/profiler.hpp"
#include "workload/abilene.hpp"
#include "workload/injector.hpp"
#include "workload/synthetic.hpp"

namespace {

struct Workload {
  const char* key;      // stable JSON key tracked by the regression checker
  const char* label;    // table label
  rb::App app;
  bool abilene;
};

struct WorkloadResult {
  const Workload* w = nullptr;
  uint64_t packets = 0;   // transmitted
  uint64_t injected = 0;
  uint64_t drops = 0;     // NIC rings and elements
  uint64_t bytes = 0;
  double pipeline_cycles_per_packet = 0;  // router roots / packets
  double harness_cycles_per_packet = 0;   // harness roots / packets
  double wall_mpps = 0;
  // Router root cycles / (raw tsc delta - harness root cycles).
  double attribution_coverage = 0;
  rb::telemetry::PerfSample perf;
  rb::telemetry::ProfileSnapshot profile;
  rb::telemetry::BottleneckVerdict verdict;
};

bool IsHarnessScope(const std::string& name) { return name.rfind("harness/", 0) == 0; }

// Drives `packets` 64 B (or Abilene-mix) frames through a 2-port,
// single-core router with the profiler installed. The loop's root scopes
// (harness/inject, netdev/rx_deliver, sched/run, netdev/tx_drain,
// packet/free) cover the whole drive loop. All but harness/inject are
// router time, so attribution_coverage measures what the router's scopes
// explain of the raw cycle delta around the loop once frame generation
// is taken out of it.
WorkloadResult RunWorkload(const Workload& w, int packets, bool compile_programs) {
  namespace tele = rb::telemetry;

  rb::SingleServerConfig cfg;
  cfg.num_ports = 2;
  cfg.queues_per_port = 1;
  cfg.cores = 1;
  cfg.app = w.app;
  cfg.pool_packets = 16384;
  cfg.table.num_routes = 65536;
  cfg.compile_programs = compile_programs;
  rb::SingleServerRouter router(cfg);
  router.Initialize();

  // Bulk injection (DESIGN.md §14): frames are template-filled and handed
  // over as whole batches, so harness/inject charges only the memcpy+patch
  // per packet — not a pool pop, three header writers, and a from-scratch
  // checksum. Routing workloads draw destinations from the installed
  // prefix set (same table config + seed the router used) instead of
  // reject-sampling against router.table().Lookup() inside the measured
  // scope, which misattributed router cycles to the harness and pre-warmed
  // the lookup caches the random-dst workload exists to thrash.
  rb::InjectorConfig inj_cfg;
  inj_cfg.abilene = w.abilene;
  inj_cfg.synthetic.packet_size = 64;
  inj_cfg.abilene_cfg = rb::AbileneConfig{1024, 3};
  std::unique_ptr<rb::PrefixSampler> sampler;
  if (w.app == rb::App::kIpRouting) {
    rb::TableGenConfig tg = cfg.table;
    tg.num_next_hops = static_cast<uint32_t>(cfg.num_ports);
    sampler = std::make_unique<rb::PrefixSampler>(tg);
    inj_cfg.dst_sampler = sampler.get();
  }
  // Forwarding/routing pipelines only touch TTL+checksum, never payload:
  // recycled buffers keep their zero payload, so refills copy only the
  // 128 B head. IPsec rewrites payload in place and must not assume this.
  inj_cfg.recycled_payload_is_clean = (w.app != rb::App::kIpsec);
  rb::BulkInjector injector(inj_cfg, &router.pool());
  // Draw every frame's varying fields (and final checksums) up front: the
  // measured inject loop is then one template memcpy plus patch stores.
  injector.PrecomputePlan(static_cast<size_t>(packets));

  [[maybe_unused]] const tele::ScopeId inject_scope = tele::InternScopeName("harness/inject");
  [[maybe_unused]] const tele::ScopeId rx_deliver_scope =
      tele::InternScopeName("netdev/rx_deliver");
  // RunUntilIdle's self cycles are the Click scheduler's task scan — a
  // real router component, attributed to sched/, not to the harness.
  [[maybe_unused]] const tele::ScopeId run_scope = tele::InternScopeName("sched/run");
  // The tx side of the wire mirrors the rx side: popping transmitted
  // frames off the tx rings is modeled device work, and recycling them is
  // the pool's free path (perfbench counts both as router time too), so
  // harness/* is frame generation only.
  [[maybe_unused]] const tele::ScopeId tx_drain_scope = tele::InternScopeName("netdev/tx_drain");
  [[maybe_unused]] const tele::ScopeId free_scope = tele::InternScopeName("packet/free");

  tele::Profiler profiler;
  tele::SetProfiler(&profiler);
  tele::PerfCounterGroup perf;

  WorkloadResult out;
  out.w = &w;
  rb::Packet* burst[256];
  auto drain = [&] {
    for (int port = 0; port < cfg.num_ports; ++port) {
      for (;;) {
        size_t n;
        {
          RB_PROF_SCOPE(tx_drain_scope);
          n = router.DrainPort(port, burst, std::size(burst));
        }
        if (n == 0) {
          break;
        }
        {
          RB_PROF_SCOPE(free_scope);
          router.pool().FreeBulk(burst, n);
        }
        out.packets += n;
      }
    }
  };

  // Warm the injector's frame templates (and the generators behind it)
  // outside the measured region: template materialization is a one-time
  // setup cost, not an inject-loop cost.
  {
    rb::PacketBatch warm;
    injector.NextBurst(rb::PacketBatch::kCapacity, &warm);
    warm.ReleaseAll();
  }
  const uint64_t warm_bytes = injector.injected_bytes();

  perf.Start();
  const uint64_t t0 = tele::ReadCycles();
  int done = 0;
  int burst_idx = 0;
  rb::PacketBatch inject_batch;
  while (done < packets) {
    // Inject two bursts (one 512-packet chunk, 256 per port) before
    // running the graph, so scheduler wakeups are paid per chunk, not per
    // burst. A chunk fits one 512-entry tx ring even when routing sends
    // all of it to one port; a larger one overflows the ring and drops.
    // harness/inject covers only frame generation; handing frames to the
    // NIC is modeled device work (RSS steering, descriptor staging) and is
    // accounted under netdev/ like the tx path already is.
    for (int b = 0; b < 2 && done < packets; ++b) {
      uint32_t want = static_cast<uint32_t>(
          std::min<int>(static_cast<int>(rb::PacketBatch::kCapacity), packets - done));
      uint32_t got;
      {
        RB_PROF_SCOPE(inject_scope);
        got = injector.NextBurst(want, &inject_batch);
      }
      {
        RB_PROF_SCOPE(rx_deliver_scope);
        router.DeliverBatch(burst_idx % cfg.num_ports, &inject_batch, 0.0);
      }
      done += static_cast<int>(got);
      burst_idx++;
      if (got < want) {
        break;  // pool dry: run the graph so drained packets recycle
      }
    }
    {
      RB_PROF_SCOPE(run_scope);
      router.RunUntilIdle();
    }
    drain();
  }
  const uint64_t raw_cycles = tele::ReadCycles() - t0;
  out.bytes = injector.injected_bytes() - warm_bytes;
  out.injected = static_cast<uint64_t>(done);
  for (int port = 0; port < cfg.num_ports; ++port) {
    out.drops += router.port(port).rx_counters().drops.load() +
                 router.port(port).tx_counters().drops.load();
  }
  for (const auto& e : router.graph().elements()) {
    out.drops += e->drops();
  }
  out.perf = perf.Stop();
  tele::SetProfiler(nullptr);

  out.profile = profiler.Snapshot();
  uint64_t router_cycles = 0;
  uint64_t harness_cycles = 0;
  for (const tele::ProfileNode& root : out.profile.roots) {
    (IsHarnessScope(root.name) ? harness_cycles : router_cycles) += root.cycles;
  }
  if (out.packets > 0) {
    out.pipeline_cycles_per_packet =
        static_cast<double>(router_cycles) / static_cast<double>(out.packets);
    out.harness_cycles_per_packet =
        static_cast<double>(harness_cycles) / static_cast<double>(out.packets);
  }
  if (raw_cycles > harness_cycles) {
    out.attribution_coverage = static_cast<double>(router_cycles) /
                               static_cast<double>(raw_cycles - harness_cycles);
  }
  if (out.profile.cycles_per_sec > 0 && out.packets > 0) {
    out.wall_mpps = static_cast<double>(out.packets) /
                    (static_cast<double>(raw_cycles) / out.profile.cycles_per_sec) / 1e6;
  }

  // Bottleneck verdict: measured cycles/packet, model bus loads for the
  // same app/frame size, against the paper's Nehalem capacities.
  rb::ThroughputConfig model;
  model.app = w.app;
  model.frame_bytes = out.packets > 0
                          ? static_cast<double>(out.bytes) / static_cast<double>(out.packets)
                          : 64.0;
  tele::MeasuredWorkload mw;
  mw.name = w.key;
  mw.frame_bytes = model.frame_bytes;
  mw.cycles_per_packet = out.pipeline_cycles_per_packet;
  mw.per_packet = rb::LoadsFor(model);
  out.verdict = tele::AnalyzeBottleneck(mw, model.spec);
  return out;
}

// Cycles/packet divide by transmitted packets, so every injected one must
// be transmitted or counted as a drop.
bool LedgerHolds(const WorkloadResult& r) {
  if (r.injected == r.packets + r.drops) {
    return true;
  }
  fprintf(stderr, "%s: injected %llu != transmitted %llu + dropped %llu\n", r.w->key,
          static_cast<unsigned long long>(r.injected), static_cast<unsigned long long>(r.packets),
          static_cast<unsigned long long>(r.drops));
  return false;
}

void WriteBenchJson(const std::string& path, const std::vector<WorkloadResult>& results) {
  namespace tele = rb::telemetry;
  tele::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("rb.bench_fig9_breakdown.v1");
  w.Key("cycle_source");
  w.String(tele::CycleSourceName());
  w.Key("cycles_per_sec");
  w.Double(tele::CyclesPerSecond());
  w.Key("workloads");
  w.BeginObject();
  for (const WorkloadResult& r : results) {
    w.Key(r.w->key);
    w.BeginObject();
    w.Key("app");
    w.String(rb::AppName(r.w->app));
    w.Key("packets");
    w.Uint(r.packets);
    w.Key("mean_frame_bytes");
    w.Double(r.packets ? static_cast<double>(r.bytes) / static_cast<double>(r.packets) : 0);
    w.Key("pipeline_cycles_per_packet");
    w.Double(r.pipeline_cycles_per_packet);
    w.Key("attribution_coverage");
    w.Double(r.attribution_coverage);
    w.Key("wall_mpps");
    w.Double(r.wall_mpps);
    w.Key("ipc");
    w.Double(r.perf.ipc());
    w.Key("hw_counters");
    w.Bool(r.perf.hw);
    w.Key("bottleneck");
    w.BeginObject();
    w.Key("verdict");
    w.String(r.verdict.verdict);
    w.Key("resource");
    w.String(tele::ResourceName(r.verdict.bottleneck));
    w.Key("max_pps");
    w.Double(r.verdict.max_pps);
    w.Key("max_payload_gbps");
    w.Double(r.verdict.max_payload_gbps);
    w.EndObject();
    const double packets = static_cast<double>(r.packets);
    // Inclusive cycles/packet of each root scope, so the checker can verify
    // that pipeline_cycles_per_packet sums exactly the non-harness roots.
    w.Key("roots");
    w.BeginObject();
    for (const tele::ProfileNode& root : r.profile.roots) {
      w.Key(root.name);
      w.Double(r.packets ? static_cast<double>(root.cycles) / packets : 0);
    }
    w.EndObject();
    // Shares are of router cycles; a harness scope's share is its ratio
    // to them.
    w.Key("scopes");
    w.BeginObject();
    const double router_cycles = r.pipeline_cycles_per_packet * packets;
    for (const tele::ScopeTotals& s : r.profile.AggregateByName()) {
      w.Key(s.name);
      w.BeginObject();
      w.Key("calls");
      w.Uint(s.calls);
      w.Key("cycles_per_packet");
      w.Double(r.packets ? static_cast<double>(s.cycles) / static_cast<double>(r.packets) : 0);
      w.Key("self_cycles_per_packet");
      w.Double(r.packets ? static_cast<double>(s.self_cycles) / static_cast<double>(r.packets)
                         : 0);
      w.Key("share");
      w.Double(router_cycles > 0 ? static_cast<double>(s.self_cycles) / router_cycles : 0);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();

  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "warning: failed to write %s\n", path.c_str());
    return;
  }
  fprintf(f, "%s\n", w.str().c_str());
  fclose(f);
  printf("breakdown JSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  rb::FlagSet flags("bench_fig9_breakdown");
  auto* packets = flags.AddInt64("packets", 200000, "packets per workload");
  auto* repeats = flags.AddInt64(
      "repeats", 5, "runs per workload; the minimum-cycle run is reported");
  auto* smoke = flags.AddBool("smoke", false, "tiny run for CI (overrides --packets)");
  auto* compile = flags.AddBool("compile-programs", true,
                                "collapse classifier chains into compiled match programs "
                                "(DESIGN.md §16); default on, as in production configs");
  auto* json = flags.AddString("json", "", "write the regression-tracked flat JSON here");
  auto* csv = flags.AddString("csv", "", "optional CSV output path");
  auto* profile_out = rb::AddProfileOutFlag(&flags);
  auto* metrics_out = rb::AddMetricsOutFlag(&flags);
  flags.Parse(argc, argv);
  int n = *smoke ? 8000 : static_cast<int>(*packets);

  // The flight recorder stays installed during the measured loops: the
  // regression baseline (cycles/packet vs BENCH_profile.json) is taken
  // with the black box on, so its hot-path cost is what the <2% budget
  // actually polices.
  rb::telemetry::FlightRecorder recorder;
  rb::telemetry::FlightRecorder::Install(&recorder);

  const Workload workloads[] = {
      {"fwd_64", "fwd, 64 B", rb::App::kMinimalForwarding, false},
      {"rtr_64", "rtr, 64 B", rb::App::kIpRouting, false},
      {"ipsec_64", "ipsec, 64 B", rb::App::kIpsec, false},
      {"fwd_abilene", "fwd, Abilene", rb::App::kMinimalForwarding, true},
  };

  // Min-of-N: TSC cycle counts on a contended (or virtualized) host carry
  // one-sided noise — interference only ever *adds* cycles — so the
  // minimum-cycle repeat is the estimator of uncontended cost. Repeats are
  // interleaved round-robin across workloads, not run back-to-back: a
  // transient host-steal window then taxes at most one repeat of each
  // workload instead of every sample of whichever workload it landed on.
  const int reps = *repeats > 0 ? static_cast<int>(*repeats) : 1;
  bool ledger_ok = true;
  auto run = [&](const Workload& w) {
    WorkloadResult r = RunWorkload(w, n, *compile);
    ledger_ok = LedgerHolds(r) && ledger_ok;
    return r;
  };
  std::vector<WorkloadResult> results;
  for (const Workload& w : workloads) {
    results.push_back(run(w));
  }
  for (int r = 1; r < reps; ++r) {
    for (size_t i = 0; i < std::size(workloads); ++i) {
      WorkloadResult cand = run(workloads[i]);
      if (cand.pipeline_cycles_per_packet < results[i].pipeline_cycles_per_packet) {
        results[i] = std::move(cand);
      }
    }
  }

  rb::Report report("Figure 9 (measured)", "per-element cycles/packet by workload");
  report.SetColumns({"workload", "cyc/pkt", "harness", "coverage", "IPC",
                     "top scopes (self cyc/pkt)", "bottleneck"});
  for (const WorkloadResult& r : results) {
    std::string top;
    int shown = 0;
    for (const rb::telemetry::ScopeTotals& s : r.profile.AggregateByName()) {
      if (s.self_cycles == 0 || shown == 3 || IsHarnessScope(s.name)) {
        continue;
      }
      if (!top.empty()) {
        top += ", ";
      }
      top += rb::Format("%s %.0f", s.name.c_str(),
                        r.packets ? static_cast<double>(s.self_cycles) / r.packets : 0.0);
      shown++;
    }
    report.AddRow({r.w->label, rb::Format("%.0f", r.pipeline_cycles_per_packet),
                   rb::Format("%.0f", r.harness_cycles_per_packet),
                   rb::Format("%.1f%%", 100 * r.attribution_coverage),
                   r.perf.hw ? rb::Format("%.2f", r.perf.ipc()) : std::string("n/a"),
                   top, r.verdict.verdict});
  }
  report.AddNote(rb::Format("cycle source: %s; paper Fig. 9: CPU is the bottleneck for all",
                            rb::telemetry::CycleSourceName()));
  report.AddNote("64 B workloads, with rtr dominated by DIR-24-8 lookups and ipsec by AES.");
  report.AddNote("cyc/pkt is router time; harness = frame generation, outside it.");
  report.Print();
  if (!csv->empty()) {
    report.WriteCsv(*csv);
  }

  for (const WorkloadResult& r : results) {
    printf("%-12s %s\n", r.w->key, r.verdict.Summary().c_str());
  }

  if (!json->empty()) {
    WriteBenchJson(*json, results);
  }
  if (!profile_out->empty() && !results.empty()) {
    rb::MaybeWriteProfile(*profile_out, results.back().profile);
  }
  rb::MaybeWriteMetrics(*metrics_out);
  rb::telemetry::FlightRecorder::Install(nullptr);
  return ledger_ok ? 0 : 1;
}
