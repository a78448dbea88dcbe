// A fuller IP-router scenario: a 256 K-entry table (the paper's size),
// an Abilene-like traffic mix, multi-queue RSS spreading flows across
// polling cores, and a throughput-model readout of what this
// configuration would sustain on the paper's hardware. The graph runs to
// completion: each polled burst goes FromDevice -> CheckIPHeader
// [-> Nat] -> DecIPTTL -> IPLookup -> ToDevice on one core, with no Queue
// in between (at the default 4 ports x 8 queues: 32 FromDevice polling
// tasks and 32 ToDevices).
//
//   $ ./ip_router [--packets=N] [--ports=P] [--metrics-out=metrics.json]
//                 [--profile-out=profile.json] [--trace-out=trace.json]
//                 [--control-socket=ADDR] [--stateful]
//
// With --metrics-out, the run's full telemetry lands in one JSON document:
// per-element packet and drop counters, NIC port counters and ring
// occupancy high-water gauges, and a sampled per-hop latency histogram
// from the path tracer.
// With --profile-out, a cycle-accounting profile (task -> element -> phase
// scope tree with cycles/packet) is written alongside. With --trace-out,
// the sampled packet paths land as Chrome/Perfetto trace-event JSON —
// load in ui.perfetto.dev to see each packet's span tree, one span per
// hop.
//
// With --control-socket (TCP port or Unix-socket path), the run serves the
// live introspection plane (DESIGN.md §13) and keeps re-running the
// workload — injecting --packets per pass — until a client writes
// `ctl.stop`. Poke it with rb_top, curl (GET /metrics), or the raw line
// protocol (READ ToDevice@1.latency, WRITE tracer.sample_every 16).
#include <algorithm>
#include <cstdio>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "core/single_server_router.hpp"
#include "harness/control.hpp"
#include "harness/metrics_out.hpp"
#include "model/throughput.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "workload/abilene.hpp"
#include "workload/injector.hpp"

int main(int argc, char** argv) {
  rb::FlagSet flags("ip_router");
  auto* packets = flags.AddInt64("packets", 20000, "packets to route");
  auto* ports = flags.AddInt64("ports", 4, "router ports");
  auto* routes = flags.AddInt64("routes", 256 * 1024, "routing-table entries");
  auto* trace_every = flags.AddInt64("trace-every", 64, "sample 1 in N packet paths");
  auto* compile = flags.AddBool("compile-programs", true,
                                "collapse classifier chains into compiled match programs "
                                "(DESIGN.md §16); the .program handler shows the result");
  auto* stateful = flags.AddBool("stateful", false,
                                 "insert a source-NAPT Nat element on every chain "
                                 "(DESIGN.md §17); the .flows/.hi/.lo handlers show the "
                                 "live flow tables");
  auto* nat_capacity = flags.AddInt64("nat-capacity", 4096,
                                      "flow-table slots per Nat element (with --stateful)");
  auto* metrics_out = rb::AddMetricsOutFlag(&flags);
  auto* profile_out = rb::AddProfileOutFlag(&flags);
  auto* trace_out = rb::AddTraceOutFlag(&flags);
  auto* control_addr = rb::AddControlSocketFlag(&flags);
  flags.Parse(argc, argv);

  // Always-on black box: drop/blocked/throttle events land in per-core
  // rings, dumped by the fr.dump handler or a fatal RB_CHECK.
  rb::telemetry::FlightRecorder recorder;
  rb::telemetry::FlightRecorder::Install(&recorder);

  // Install the cycle profiler before any traffic flows so every scope
  // (task -> element -> phase) is captured from the first packet.
  rb::telemetry::Profiler profiler;
  if (!profile_out->empty()) {
    rb::telemetry::SetProfiler(&profiler);
  }

  rb::SingleServerConfig config;
  config.num_ports = static_cast<int>(*ports);
  config.queues_per_port = 8;
  config.cores = 8;
  config.app = rb::App::kIpRouting;
  config.pool_packets = 1 << 16;
  config.table.num_routes = static_cast<size_t>(*routes);
  config.compile_programs = *compile;
  config.stateful_nat = *stateful;
  config.nat_capacity = static_cast<size_t>(*nat_capacity);

  printf("building IP router: %d ports, %d queues/port, %lld-entry DIR-24-8 table...\n",
         config.num_ports, config.queues_per_port, static_cast<long long>(*routes));
  rb::SingleServerRouter router(config);
  rb::telemetry::MetricRegistry registry;
  rb::telemetry::TracerConfig tc;
  tc.sample_every = static_cast<uint32_t>(*trace_every);
  tc.max_traces = 4096;
  rb::telemetry::PathTracer tracer(tc);
  router.EnableTelemetry(&registry, &tracer);
  router.Initialize();
  printf("  table memory: %.1f MiB (tbl24 + %zu tbl_long segments)\n",
         router.table().memory_bytes() / 1048576.0, router.table().num_long_segments());

  // Live control plane: element handlers plus the tracer knobs and
  // ctl.stop, served off the data path's thread.
  rb::ControlPlane ctl(&registry, &tracer);
  router.graph().AddHandlers(ctl.handlers());
  router.AddHandlers(ctl.handlers());

  // Abilene mix, destinations drawn from the installed prefix set (every
  // frame routable by construction — no reject-sampling against the live
  // table), bulk-carved from the pool and template-filled.
  rb::TableGenConfig sampler_cfg = config.table;
  sampler_cfg.num_next_hops = static_cast<uint32_t>(config.num_ports);
  rb::PrefixSampler sampler(sampler_cfg);
  rb::InjectorConfig inj_cfg;
  inj_cfg.abilene = true;
  inj_cfg.abilene_cfg = rb::AbileneConfig{4096, 3};
  inj_cfg.dst_sampler = &sampler;
  rb::BulkInjector injector(inj_cfg, &router.pool());
  injector.AddHandlers(ctl.handlers());

  if (!ctl.MaybeStart(*control_addr)) {
    return 1;
  }
  const bool serving = ctl.running();

  long long injected = 0;
  uint64_t forwarded = 0;
  rb::Packet* burst[64];
  auto drain = [&] {
    for (int port = 0; port < config.num_ports; ++port) {
      size_t n;
      while ((n = router.DrainPort(port, burst, std::size(burst))) > 0) {
        for (size_t i = 0; i < n; ++i) {
          router.pool().Free(burst[i]);
        }
        forwarded += n;
      }
    }
  };
  // One pass injects --packets frames; with a control socket the workload
  // repeats pass after pass until a client writes ctl.stop, so there is
  // always live traffic to observe.
  rb::PacketBatch inject_batch;
  do {
    long long pass_target = injected + *packets;
    long long burst_idx = 0;
    while (injected < pass_target && !ctl.stop_requested()) {
      uint32_t want = static_cast<uint32_t>(std::min<long long>(
          static_cast<long long>(rb::PacketBatch::kCapacity), pass_target - injected));
      uint32_t got = injector.NextBurst(want, &inject_batch);
      router.DeliverBatch(static_cast<int>(burst_idx % config.num_ports), &inject_batch, 0.0);
      injected += got;
      burst_idx++;
      if (got < want || burst_idx % 8 == 0) {
        // Pool pressure or a periodic tick: run the graph and recycle.
        router.RunUntilIdle();
        drain();
      }
    }
  } while (serving && !ctl.stop_requested());
  router.RunUntilIdle();
  drain();
  ctl.Stop();
  printf("routed %llu / %lld packets (%.1f MB, mean %.0f B; pool_exhausted %llu)\n",
         static_cast<unsigned long long>(forwarded), injected,
         static_cast<double>(injector.injected_bytes()) / 1e6,
         injected ? static_cast<double>(injector.injected_bytes()) /
                        static_cast<double>(injected)
                  : 0.0,
         static_cast<unsigned long long>(injector.pool_exhausted()));

  // Telemetry readout: the registry saw every packet the NICs did, and the
  // tracer timed 1-in-N paths FromDevice -> ... -> ToDevice.
  rb::telemetry::RegistrySnapshot snap = registry.Snapshot();
  uint64_t rx = 0;
  uint64_t drops = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.find("/rx_packets") != std::string::npos) {
      rx += value;
    }
    if (name.find("/drops") != std::string::npos || name.find("_drops") != std::string::npos) {
      drops += value;
    }
  }
  rb::telemetry::HistogramSnapshot hop = tracer.HopLatencyHistogram();
  printf("telemetry: %zu metrics, rx %llu, drops %llu; %llu sampled traces, "
         "per-hop latency p50 %.2f us\n",
         snap.counters.size() + snap.gauges.size(), static_cast<unsigned long long>(rx),
         static_cast<unsigned long long>(drops),
         static_cast<unsigned long long>(tracer.sampled()), hop.Percentile(50) * 1e6);
  // Measured ingress-to-egress tails from the always-on latency plane
  // (cycle stamps at FromDevice, read out at each ToDevice): one line per
  // egress port, synthesized into the same snapshot's gauges.
  for (const auto& lat : snap.latency) {
    printf("latency %-12s count %8llu  p50 %7.2f us  p99 %7.2f us  p999 %7.2f us\n",
           lat.first.c_str(), static_cast<unsigned long long>(lat.second.count),
           lat.second.PercentileNs(50) / 1e3, lat.second.PercentileNs(99) / 1e3,
           lat.second.PercentileNs(99.9) / 1e3);
  }

  rb::telemetry::ExportBundle bundle;
  bundle.registry = &registry;
  bundle.tracer = &tracer;
  rb::MaybeWriteMetrics(*metrics_out, bundle);
  rb::MaybeWriteTrace(*trace_out, tracer);

  if (!profile_out->empty()) {
    rb::telemetry::SetProfiler(nullptr);
    rb::telemetry::ProfileSnapshot prof = profiler.Snapshot();
    int shown = 0;
    for (const auto& scope : prof.AggregateByName()) {  // sorted by self cycles
      if (scope.packets == 0 || shown == 10) {
        continue;
      }
      printf("  profile: %-24s %8.1f cycles/pkt (%5.1f self)\n", scope.name.c_str(),
             scope.packets ? static_cast<double>(scope.cycles) / scope.packets : 0.0,
             scope.packets ? static_cast<double>(scope.self_cycles) / scope.packets : 0.0);
      shown++;
    }
    rb::MaybeWriteProfile(*profile_out, prof);
  }

  // What would this sustain on the paper's server?
  for (double bytes : {64.0, 729.6}) {
    rb::ThroughputConfig model;
    model.app = rb::App::kIpRouting;
    model.frame_bytes = bytes;
    rb::ThroughputResult r = rb::SolveThroughput(model);
    printf("  model (Nehalem, %s): %s, bottleneck: %s\n",
           bytes < 100 ? "64 B" : "Abilene mix", rb::HumanBitRate(r.bps).c_str(),
           r.bottleneck.c_str());
  }
  rb::telemetry::FlightRecorder::Install(nullptr);
  return 0;
}
