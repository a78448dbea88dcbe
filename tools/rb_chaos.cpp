// rb_chaos: randomized chaos-soak harness for the cluster simulator and
// the element graph. One seed drives everything; the seed is printed
// first so any failure is replayable exactly (`rb_chaos --seed N`).
//
// Each DES episode randomizes the cluster shape (node count, flowlets,
// resequencer, admission control, queue capacities, NIC modeling), then
// drives it with a piecewise-constant load profile (random surge factors
// per window) and — on odd episodes — a random node failure/repair
// schedule (FailureSchedule::RandomNodeFailures). Invariants checked:
//
//   * conservation, mid-run after every load window: offered ==
//     delivered + Σ drop buckets + slots in flight + resequencer-held;
//   * conservation, end of run: AuditConservation (drop-accounting audit
//     incl. the per-window timeline cross-check);
//   * reordering: on "clean" episodes (flowlets on, no failures, no
//     resequencer, load <= 0.85x) delivered flows must stay in order up
//     to the flowlet-δ guarantee;
//   * telemetry: registry counters are monotone across episode
//     snapshots (a counter that ever decreases is a reset/Set bug).
//
// Element-graph episodes build a FromDevice -> Queue -> ToDevice chain
// over a NicPort with randomized queue capacity, watermark backpressure,
// and CoDel (driven by a fake clock), pump it with random interleavings
// of poll/drain, and check exact packet conservation plus a leak-free
// pool (in_use() == 0 once everything is drained).
//
// Stateful episodes (DESIGN.md §17) come in two flavors. NAT episodes
// drive a randomized Nat (capacity, watermarks, eviction policy, idle
// timeout, live watermark retunes) with heavy churn plus stray inbound
// replies, and check flow-count conservation (occupancy == inserts -
// evictions - erases), port conservation (mappings == occupancy — a
// double-eviction would double-free a port and break this), exact
// packet accounting across the drop buckets, and a leak-free pool.
// Plane episodes drive a StatefulPlane twin-run (same Apply sequence,
// one run with a random mid-run node kill): SCR mode must end with a
// byte-identical mapping snapshot and a replay tail bounded by the
// checkpoint period; the shared baseline must lose exactly the dead
// node's flows and nothing else.
//
// Exit status: 0 iff no invariant was violated.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "click/elements/from_device.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/nat.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "click/router.hpp"
#include "flow/stateful_plane.hpp"
#include "telemetry/handler.hpp"
#include "workload/flows.hpp"
#include "cluster/des.hpp"
#include "cluster/failure.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "netdev/nic.hpp"
#include "packet/pool.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "workload/traffic_matrix.hpp"

namespace {

int g_violations = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
    g_violations++;
  }
}

// Injectable clock for CoDel in the element-graph episodes.
double g_fake_now = 0;
double FakeClock() { return g_fake_now; }

// ---------------------------------------------------------------------
// DES episodes
// ---------------------------------------------------------------------

struct DesEpisodePlan {
  rb::ClusterConfig cfg;
  uint32_t pkt_bytes = 300;
  std::vector<double> window_factors;  // offered load per window, x ext rate
  int tm_kind = 0;                     // 0 uniform, 1 hotspot, 2 single-input
  bool with_failures = false;
  bool clean = false;  // reorder-invariant episode
};

DesEpisodePlan PlanDesEpisode(uint64_t seed, int episode, double duration) {
  rb::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(episode) * 7919ULL + 1);
  DesEpisodePlan plan;
  const uint16_t kNodeChoices[] = {2, 3, 4, 6, 8};
  uint16_t n = kNodeChoices[rng.NextBounded(5)];

  rb::ClusterConfig cfg = rb::ClusterConfig::Rb4();
  cfg.num_nodes = n;
  cfg.vlb.num_nodes = n;
  cfg.seed = seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(episode + 1));
  cfg.vlb.flowlets = rng.NextDouble() < 0.7;
  cfg.resequence = rng.NextDouble() < 0.3;
  cfg.resequence_timeout = 2e-4 + rng.NextDouble() * 1e-3;
  cfg.model_nics = rng.NextDouble() < 0.5;
  const size_t kCpuCaps[] = {256, 1024, 4096};
  const size_t kRingCaps[] = {128, 512, 1024};
  cfg.cpu_queue_pkts = kCpuCaps[rng.NextBounded(3)];
  cfg.nic_queue_pkts = kRingCaps[rng.NextBounded(3)];
  cfg.link_queue_pkts = kRingCaps[rng.NextBounded(3)];
  cfg.ext_out_queue_pkts = kRingCaps[rng.NextBounded(3)];
  cfg.timeline_window = duration / 8;
  cfg.failure_detection_delay = 50e-6 + rng.NextDouble() * 200e-6;
  cfg.admission.enabled = rng.NextDouble() < 0.5;
  cfg.admission.capacity_bps = cfg.ext_rate_bps * (0.6 + 0.4 * rng.NextDouble());

  plan.with_failures = (episode % 2) == 1;
  if (plan.with_failures) {
    cfg.failures = rb::FailureSchedule::RandomNodeFailures(
        n, /*mtbf=*/duration * 0.6, /*mttr=*/duration * 0.2, /*horizon=*/duration,
        seed + static_cast<uint64_t>(episode));
  }

  // Every 4th episode is a "clean" run pinned to the regime where the
  // flowlet-δ no-reordering guarantee must hold: flowlets on, no
  // resequencer, no failures, light load.
  plan.clean = (episode % 4) == 0;
  if (plan.clean) {
    cfg.vlb.flowlets = true;
    cfg.resequence = false;
  }

  plan.pkt_bytes = 64 + rng.NextBounded(1437);
  int windows = 3 + static_cast<int>(rng.NextBounded(3));
  for (int w = 0; w < windows; ++w) {
    double f = plan.clean ? 0.2 + rng.NextDouble() * 0.65 : 0.3 + rng.NextDouble() * 2.2;
    plan.window_factors.push_back(f);
  }
  plan.tm_kind = plan.clean ? 0 : static_cast<int>(rng.NextBounded(3));
  plan.cfg = cfg;
  return plan;
}

void RunDesEpisode(uint64_t seed, int episode, double duration, bool verbose) {
  DesEpisodePlan plan = PlanDesEpisode(seed, episode, duration);
  const rb::ClusterConfig& cfg = plan.cfg;
  uint16_t n = cfg.num_nodes;

  rb::TrafficMatrix tm = rb::TrafficMatrix::Uniform(n);
  rb::Rng rng(seed * 48271ULL + static_cast<uint64_t>(episode) + 17);
  if (plan.tm_kind == 1) {
    tm = rb::TrafficMatrix::Hotspot(n, static_cast<uint16_t>(rng.NextBounded(n)),
                                    0.3 + rng.NextDouble() * 0.5);
  } else if (plan.tm_kind == 2) {
    std::vector<double> weights(n);
    for (double& w : weights) {
      w = 0.5 + rng.NextDouble();
    }
    tm = rb::TrafficMatrix::SingleInputWeighted(n, static_cast<uint16_t>(rng.NextBounded(n)),
                                                weights);
  }

  // Sampled path traces feed the per-episode latency-sanity invariant
  // checked after Finish (monotone hop stamps, wait <= residency).
  rb::telemetry::TracerConfig tcfg;
  tcfg.sample_every = 8;
  tcfg.max_traces = 1024;
  tcfg.seed = seed + static_cast<uint64_t>(episode) * 131ULL + 5;
  rb::telemetry::PathTracer tracer(tcfg);

  rb::ClusterSim sim(cfg);
  sim.BindTelemetry(&rb::telemetry::MetricRegistry::Global(), &tracer);

  if (verbose) {
    std::printf(
        "episode %d: n=%u pkt=%uB windows=%zu tm=%d flowlets=%d reseq=%d nics=%d adm=%d "
        "failures=%zu clean=%d\n",
        episode, n, plan.pkt_bytes, plan.window_factors.size(), plan.tm_kind,
        cfg.vlb.flowlets ? 1 : 0, cfg.resequence ? 1 : 0, cfg.model_nics ? 1 : 0,
        cfg.admission.enabled ? 1 : 0, cfg.failures.size(), plan.clean ? 1 : 0);
  }

  // Piecewise-constant Poisson load: every input active in the matrix
  // offers factor x ext_rate during its window. Injection times are
  // globally non-decreasing, as Inject requires.
  std::unordered_map<uint64_t, uint64_t> flow_seq;
  const uint32_t kFlowsPerPair = 64;
  double window_len = duration / static_cast<double>(plan.window_factors.size());
  std::vector<rb::SimTime> next_arrival(n, 0);
  for (size_t w = 0; w < plan.window_factors.size(); ++w) {
    double start = static_cast<double>(w) * window_len;
    double end = start + window_len;
    double rate = plan.window_factors[w] * cfg.ext_rate_bps;
    double mean_gap = static_cast<double>(plan.pkt_bytes) * 8.0 / rate;
    for (uint16_t i = 0; i < n; ++i) {
      next_arrival[i] = tm.InputActive(i) ? start + rng.NextExponential(mean_gap) : end;
    }
    while (true) {
      uint16_t src = 0;
      rb::SimTime t = end;
      for (uint16_t i = 0; i < n; ++i) {
        if (next_arrival[i] < t) {
          t = next_arrival[i];
          src = i;
        }
      }
      if (t >= end) {
        break;
      }
      uint16_t dst = tm.SampleOutput(src, &rng);
      uint64_t flow_id = (static_cast<uint64_t>(src) * n + dst) * kFlowsPerPair +
                         rng.NextBounded(kFlowsPerPair);
      sim.Inject(src, dst, flow_id, flow_seq[flow_id]++, plan.pkt_bytes, t);
      next_arrival[src] = t + rng.NextExponential(mean_gap);
    }

    // Mid-run conservation: every offered packet is delivered, dropped,
    // in flight (owns a DES slot), or parked in a resequencer buffer.
    uint64_t accounted = sim.current_delivered() + sim.current_drops().total() +
                         sim.in_flight() + sim.resequencer_held();
    Check(sim.current_offered() == accounted,
          rb::Format("episode %d window %zu: offered %llu != accounted %llu "
                     "(delivered %llu drops %llu in-flight %zu held %zu)",
                     episode, w, static_cast<unsigned long long>(sim.current_offered()),
                     static_cast<unsigned long long>(accounted),
                     static_cast<unsigned long long>(sim.current_delivered()),
                     static_cast<unsigned long long>(sim.current_drops().total()),
                     sim.in_flight(), sim.resequencer_held()));
  }

  rb::ClusterRunStats stats = sim.Finish(duration);
  std::string audit = rb::AuditConservation(stats);
  Check(audit.empty(), rb::Format("episode %d: %s", episode, audit.c_str()));
  Check(sim.in_flight() == 0,
        rb::Format("episode %d: %zu slots still in flight after Finish", episode,
                   sim.in_flight()));

  // Latency sanity over the sampled paths: simulated-time hop stamps must
  // be monotone, a hop's queueing wait cannot exceed its residency, and
  // end-to-end must equal the sum of hop deltas (telescoping by
  // construction today — the check guards future hop-recording bugs).
  size_t traces_checked = 0;
  for (const auto& tr : tracer.Traces()) {
    if (!tr.complete || tr.hops.size() < 2) {
      continue;
    }
    traces_checked++;
    double sum_deltas = 0;
    bool monotone = true;
    bool wait_ok = tr.hops.front().wait >= 0;
    for (size_t h = 1; h < tr.hops.size(); ++h) {
      double delta = tr.hops[h].t - tr.hops[h - 1].t;
      monotone = monotone && delta >= 0;
      sum_deltas += delta;
      wait_ok = wait_ok && tr.hops[h].wait >= 0 && tr.hops[h].wait <= delta + 1e-9;
    }
    Check(monotone, rb::Format("episode %d: trace %llu has non-monotone hop timestamps",
                               episode, static_cast<unsigned long long>(tr.id)));
    Check(wait_ok,
          rb::Format("episode %d: trace %llu has a hop wait outside [0, residency]", episode,
                     static_cast<unsigned long long>(tr.id)));
    double e2e = tr.hops.back().t - tr.hops.front().t;
    Check(std::abs(e2e - sum_deltas) <= 1e-9,
          rb::Format("episode %d: trace %llu e2e %.9f != sum of hop deltas %.9f", episode,
                     static_cast<unsigned long long>(tr.id), e2e, sum_deltas));
  }
  Check(stats.delivered_packets < 64 || traces_checked > 0,
        rb::Format("episode %d: delivered %llu packets but completed no sampled traces",
                   episode, static_cast<unsigned long long>(stats.delivered_packets)));

  if (plan.clean) {
    // Flowlet-δ guarantee: light load, healthy mesh, flowlets pinned —
    // nothing may be delivered out of order (δ = 100ms >> episode).
    Check(stats.reorder_packet_fraction <= 0.01,
          rb::Format("episode %d (clean): reorder fraction %.4f beyond the flowlet-δ "
                     "guarantee",
                     episode, stats.reorder_packet_fraction));
  }
  if (verbose) {
    std::printf("episode %d: offered %llu delivered %llu drops %llu reorder %.4f\n", episode,
                static_cast<unsigned long long>(stats.offered_packets),
                static_cast<unsigned long long>(stats.delivered_packets),
                static_cast<unsigned long long>(stats.drops.total()),
                stats.reorder_packet_fraction);
  }
}

// ---------------------------------------------------------------------
// Element-graph episodes
// ---------------------------------------------------------------------

void RunGraphEpisode(uint64_t seed, int episode, bool verbose) {
  rb::Rng rng(seed ^ (0xd1342543de82ef95ULL * static_cast<uint64_t>(episode + 3)));

  rb::QueueOptions opt;
  opt.capacity = 16 + rng.NextBounded(241);
  if (rng.NextDouble() < 0.6) {
    opt.hi_watermark = std::max<size_t>(2, opt.capacity / 2 + rng.NextBounded(opt.capacity / 2));
  }
  if (rng.NextDouble() < 0.4) {
    opt.aqm = rb::AqmMode::kCoDel;
    opt.codel_target_s = 1e-3 * (0.5 + rng.NextDouble());
    opt.codel_interval_s = 20e-3;
  }

  rb::NicConfig ncfg;
  ncfg.ring_entries = 256;
  rb::NicPort nic(ncfg);
  rb::PacketPool pool(2048);

  rb::Router r;
  uint16_t burst = static_cast<uint16_t>(4 + rng.NextBounded(29));
  auto* from = r.Add<rb::FromDevice>(&nic, 0, burst, -1);
  auto* queue = r.Add<rb::QueueElement>(opt);
  auto* td = r.Add<rb::ToDevice>(&nic, 0, burst, -1);
  r.Connect(from, 0, queue, 0);
  r.Connect(queue, 0, td, 0);
  queue->set_clock(&FakeClock);
  r.Initialize();

  if (verbose) {
    std::printf("graph episode %d: cap=%zu hi=%zu aqm=%s burst=%u\n", episode, opt.capacity,
                opt.hi_watermark, opt.aqm == rb::AqmMode::kCoDel ? "codel" : "droptail", burst);
  }

  uint64_t injected = 0;
  uint64_t drained = 0;
  rb::Packet* out[64];
  auto drain_tx = [&]() {
    size_t got;
    while ((got = nic.DrainTx(out, 64)) > 0) {
      for (size_t i = 0; i < got; ++i) {
        pool.Free(out[i]);
      }
      drained += got;
    }
  };

  int sweeps = 200 + static_cast<int>(rng.NextBounded(200));
  for (int s = 0; s < sweeps; ++s) {
    // Random interleaving, biased so the queue periodically fills (blocks)
    // and drains (unblocks): inject a burst, poll a few times, drain less
    // often than we poll.
    uint32_t k = rng.NextBounded(24);
    for (uint32_t i = 0; i < k; ++i) {
      rb::Packet* p = pool.Alloc();
      if (p == nullptr) {
        break;
      }
      injected++;
      g_fake_now += rng.NextDouble() * 1e-4;
      nic.Deliver(p, g_fake_now);
    }
    uint32_t polls = 1 + rng.NextBounded(3);
    for (uint32_t i = 0; i < polls; ++i) {
      from->RunOnce();
    }
    if (rng.NextDouble() < 0.55) {
      g_fake_now += rng.NextDouble() * 2e-3;  // let CoDel see sojourn
      td->RunOnce();
      drain_tx();
    }
  }
  // Final drain: pump until quiescent.
  size_t idle = 0;
  while (idle < 3) {
    size_t moved = from->RunOnce() + td->RunOnce();
    drain_tx();
    g_fake_now += 1e-3;
    idle = moved == 0 ? idle + 1 : 0;
  }
  drain_tx();

  uint64_t rx_drops = nic.rx_counters().drops;
  uint64_t tx_drops = nic.tx_counters().drops;
  uint64_t q_drops = queue->drops();
  Check(injected == drained + rx_drops + q_drops + tx_drops,
        rb::Format("graph episode %d: injected %llu != drained %llu + rx_drops %llu + "
                   "queue_drops %llu + tx_drops %llu",
                   episode, static_cast<unsigned long long>(injected),
                   static_cast<unsigned long long>(drained),
                   static_cast<unsigned long long>(rx_drops),
                   static_cast<unsigned long long>(q_drops),
                   static_cast<unsigned long long>(tx_drops)));
  Check(pool.in_use() == 0,
        rb::Format("graph episode %d: %zu packets leaked (pool still charged)", episode,
                   pool.in_use()));
  if (verbose) {
    std::printf("graph episode %d: injected %llu drained %llu q_drops %llu (aqm %llu) "
                "blocked_events %llu throttled %llu\n",
                episode, static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(drained),
                static_cast<unsigned long long>(q_drops),
                static_cast<unsigned long long>(queue->aqm_drops()),
                static_cast<unsigned long long>(queue->blocked_events()),
                static_cast<unsigned long long>(from->throttled_polls()));
  }
}

// ---------------------------------------------------------------------
// Stateful episodes (DESIGN.md §17)
// ---------------------------------------------------------------------

// NAT flavor: randomized table shape + churn overload + stray replies.
void RunNatChaosEpisode(uint64_t seed, int episode, bool verbose) {
  rb::Rng rng(seed * 6364136223846793005ULL + static_cast<uint64_t>(episode) * 104729ULL + 9);

  rb::NatOptions opt;
  const size_t kCaps[] = {64, 256, 1024};
  opt.capacity = kCaps[rng.NextBounded(3)];
  opt.hi_watermark = 0.5 + rng.NextDouble() * 0.4;
  opt.lo_watermark = opt.hi_watermark * (0.3 + rng.NextDouble() * 0.5);
  opt.evict_on_full = rng.NextDouble() < 0.7;
  if (!opt.evict_on_full && rng.NextDouble() < 0.5) {
    opt.hi_watermark = 1.0;  // strict table: drops, never eviction
    opt.lo_watermark = 0.5;
  }
  opt.idle_timeout_ms = rng.NextDouble() < 0.3 ? 1 + rng.NextBounded(50) : 0;

  rb::Router r;
  rb::PacketPool pool(2048);
  auto* nat = r.Add<rb::Nat>(opt);
  auto* out = r.Add<rb::Discard>();
  auto* in = r.Add<rb::Discard>();
  r.Connect(nat, 0, out, 0);
  r.Connect(nat, 1, in, 0);
  r.Initialize();
  nat->set_clock(&FakeClock);
  rb::telemetry::HandlerRegistry handlers;
  nat->AddHandlers(&handlers);

  rb::FlowChurnConfig wcfg;
  wcfg.target_flows = opt.capacity * (1 + rng.NextBounded(6));
  wcfg.churn_per_packet = 0.01 * rng.NextDouble();
  wcfg.seed = seed + static_cast<uint64_t>(episode) * 31ULL;
  rb::FlowChurnGenerator gen(wcfg);

  if (verbose) {
    std::printf("nat episode %d: cap=%zu hi=%.2f lo=%.2f evict=%d idle=%ums flows=%zu\n",
                episode, opt.capacity, opt.hi_watermark, opt.lo_watermark,
                opt.evict_on_full ? 1 : 0, opt.idle_timeout_ms, wcfg.target_flows);
  }

  uint64_t injected = 0;
  const int batches = 100 + static_cast<int>(rng.NextBounded(200));
  for (int b = 0; b < batches; ++b) {
    g_fake_now += rng.NextDouble() * 5e-3;  // ms-scale ticks for idle/LRU
    rb::PacketBatch batch;
    const uint32_t k = 1 + rng.NextBounded(32);
    for (uint32_t i = 0; i < k; ++i) {
      rb::FrameSpec spec;
      spec.size = 64;
      spec.flow = gen.Next().key;
      rb::Packet* p = rb::AllocFrame(spec, &pool);
      if (p == nullptr) {
        break;
      }
      batch.PushBack(p);
      injected++;
    }
    nat->PushBatch(0, batch);

    if (rng.NextDouble() < 0.3) {
      // Stray replies: some ports hold live mappings, some never will.
      rb::PacketBatch replies;
      const uint32_t n = 1 + rng.NextBounded(8);
      for (uint32_t i = 0; i < n; ++i) {
        rb::FrameSpec spec;
        spec.size = 64;
        const uint16_t port = static_cast<uint16_t>(
            opt.base_port + rng.NextBounded(static_cast<uint32_t>(opt.capacity) + 64));
        spec.flow = rb::FlowKey{0x08080808u, opt.external_ip, 53, port, 17};
        rb::Packet* p = rb::AllocFrame(spec, &pool);
        if (p == nullptr) {
          break;
        }
        replies.PushBack(p);
        injected++;
      }
      nat->PushBatch(1, replies);
    }
    if (rng.NextDouble() < 0.05) {
      // Live watermark retune mid-flight must never corrupt the table.
      const double hi = 0.5 + rng.NextDouble() * 0.5;
      const double lo = hi * 0.5;
      handlers.Write("nat.lo", rb::Format("%.3f", lo));
      handlers.Write("nat.hi", rb::Format("%.3f", hi));
    }
  }

  const rb::FlowTableStats s = nat->table().stats();
  const uint64_t accounted = out->count() + in->count() + nat->table_full_drops() +
                             nat->no_mapping_drops() + nat->malformed_drops();
  Check(injected == accounted,
        rb::Format("nat episode %d: injected %llu != forwarded+dropped %llu", episode,
                   static_cast<unsigned long long>(injected),
                   static_cast<unsigned long long>(accounted)));
  Check(nat->table().occupancy() == s.inserts - s.evictions() - s.erases,
        rb::Format("nat episode %d: flow-count conservation broke (occ %zu, inserts %llu, "
                   "evictions %llu, erases %llu)",
                   episode, nat->table().occupancy(),
                   static_cast<unsigned long long>(s.inserts),
                   static_cast<unsigned long long>(s.evictions()),
                   static_cast<unsigned long long>(s.erases)));
  Check(nat->mappings_in_use() == nat->table().occupancy(),
        rb::Format("nat episode %d: %zu mappings vs %zu occupancy (double-eviction or "
                   "port leak)",
                   episode, nat->mappings_in_use(), nat->table().occupancy()));
  Check(nat->table().occupancy() <= nat->table().capacity_slots(),
        rb::Format("nat episode %d: occupancy above capacity", episode));
  Check(pool.in_use() == 0,
        rb::Format("nat episode %d: %zu packets leaked (pool still charged)", episode,
                   pool.in_use()));
  if (verbose) {
    std::printf("nat episode %d: injected %llu out %llu in %llu evict %llu full %llu "
                "no_map %llu occ %zu\n",
                episode, static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(out->count()),
                static_cast<unsigned long long>(in->count()),
                static_cast<unsigned long long>(s.evictions()),
                static_cast<unsigned long long>(nat->table_full_drops()),
                static_cast<unsigned long long>(nat->no_mapping_drops()),
                nat->table().occupancy());
  }
}

// Plane flavor: twin runs over an identical Apply sequence, one with a
// random mid-run node kill. SCR must reconstruct byte-identical
// mappings; shared must lose exactly the dead node's flows.
void RunPlaneChaosEpisode(uint64_t seed, int episode, bool verbose) {
  rb::Rng rng(seed ^ (0x2545f4914f6cdd1dULL * static_cast<uint64_t>(episode + 11)));
  const int nodes = 2 + static_cast<int>(rng.NextBounded(7));
  const uint64_t flows = 8 + rng.NextBounded(120);
  const int dead = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(nodes)));

  rb::StatefulPlaneConfig cfg;
  cfg.enabled = true;
  cfg.capacity_per_node = 1 << 10;
  cfg.checkpoint_period = size_t{8} << rng.NextBounded(5);

  // One shared Apply sequence: round 0 establishes every flow, later
  // rounds revisit them in random order with random repeats.
  struct Op {
    uint64_t flow;
    uint32_t bytes;
    uint32_t tick;
  };
  std::vector<Op> before_kill;
  std::vector<Op> after_kill;
  uint32_t tick = 0;
  for (uint64_t f = 0; f < flows; ++f) {
    before_kill.push_back({f, static_cast<uint32_t>(64 + rng.NextBounded(1400)), tick++});
  }
  const int pre_rounds = static_cast<int>(rng.NextBounded(3));
  for (int rd = 0; rd < pre_rounds; ++rd) {
    for (uint64_t f = 0; f < flows; ++f) {
      if (rng.NextDouble() < 0.6) {
        before_kill.push_back({f, static_cast<uint32_t>(64 + rng.NextBounded(1400)), tick++});
      }
    }
  }
  const int post_rounds = 1 + static_cast<int>(rng.NextBounded(3));
  for (int rd = 0; rd < post_rounds; ++rd) {
    for (uint64_t f = 0; f < flows; ++f) {
      if (rng.NextDouble() < 0.7) {
        after_kill.push_back({f, static_cast<uint32_t>(64 + rng.NextBounded(1400)), tick++});
      }
    }
  }

  for (const rb::StateMode mode : {rb::StateMode::kScr, rb::StateMode::kShared}) {
    cfg.mode = mode;
    rb::StatefulPlane base(cfg, nodes);
    rb::StatefulPlane fail(cfg, nodes);
    for (const Op& op : before_kill) {
      base.Apply(op.flow, op.bytes, op.tick);
      fail.Apply(op.flow, op.bytes, op.tick);
    }
    fail.OnNodeDown(dead);
    fail.OnNodeDetectedDown(dead);
    if (rng.NextDouble() < 0.4) {
      fail.OnNodeUp(dead);  // recovery: ownership is sticky, state stays put
    }
    for (const Op& op : after_kill) {
      base.Apply(op.flow, op.bytes, op.tick);
      fail.Apply(op.flow, op.bytes, op.tick);
    }

    const auto base_map = base.MappingSnapshot();
    const auto fail_map = fail.MappingSnapshot();
    const rb::StatefulPlaneStats fs = fail.stats();
    const char* mname = mode == rb::StateMode::kScr ? "scr" : "shared";
    Check(base_map.size() == flows,
          rb::Format("plane episode %d (%s): baseline holds %zu of %llu flows", episode,
                     mname, base_map.size(), static_cast<unsigned long long>(flows)));
    if (mode == rb::StateMode::kScr) {
      Check(base_map == fail_map,
            rb::Format("plane episode %d: SCR failover mappings diverged from baseline "
                       "(nodes %d, dead %d, checkpoint %zu)",
                       episode, nodes, dead, cfg.checkpoint_period));
      Check(fs.lost_flows == 0,
            rb::Format("plane episode %d: SCR lost %llu flows", episode,
                       static_cast<unsigned long long>(fs.lost_flows)));
      Check(fs.replayed_records <= fs.replays * cfg.checkpoint_period,
            rb::Format("plane episode %d: replay tail unbounded (%llu records, %llu "
                       "replays, period %zu)",
                       episode, static_cast<unsigned long long>(fs.replayed_records),
                       static_cast<unsigned long long>(fs.replays), cfg.checkpoint_period));
    } else {
      // Shared: exactly the dead node's re-applied flows re-mapped; every
      // other flow untouched.
      for (const auto& [flow, mapping] : base_map) {
        const int home = static_cast<int>(flow % static_cast<uint64_t>(nodes));
        auto it = fail_map.find(flow);
        if (home != dead) {
          Check(it != fail_map.end() && it->second == mapping,
                rb::Format("plane episode %d: shared failover disturbed flow %llu homed "
                           "at live node %d",
                           episode, static_cast<unsigned long long>(flow), home));
        } else {
          Check(it == fail_map.end() || it->second != mapping,
                rb::Format("plane episode %d: flow %llu kept its mapping through a "
                           "shared-mode kill of node %d",
                           episode, static_cast<unsigned long long>(flow), dead));
        }
      }
    }
  }
  if (verbose) {
    std::printf("plane episode %d: nodes=%d flows=%llu dead=%d period=%zu ops=%zu+%zu\n",
                episode, nodes, static_cast<unsigned long long>(flows), dead,
                cfg.checkpoint_period, before_kill.size(), after_kill.size());
  }
}

// Registry counters must never decrease across episode snapshots.
void CheckMonotone(const rb::telemetry::RegistrySnapshot& prev,
                   const rb::telemetry::RegistrySnapshot& cur, int episode) {
  size_t j = 0;
  for (const auto& [name, value] : prev.counters) {
    while (j < cur.counters.size() && cur.counters[j].first < name) {
      j++;
    }
    if (j < cur.counters.size() && cur.counters[j].first == name) {
      Check(cur.counters[j].second >= value,
            rb::Format("episode %d: counter %s went backwards (%llu -> %llu)", episode,
                       name.c_str(), static_cast<unsigned long long>(value),
                       static_cast<unsigned long long>(cur.counters[j].second)));
    } else {
      Check(false, rb::Format("episode %d: counter %s vanished from the registry", episode,
                              name.c_str()));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  rb::FlagSet flags("rb_chaos");
  auto* seed = flags.AddInt64("seed", 1, "master seed (printed; reuse to replay)");
  auto* episodes = flags.AddInt64("episodes", 6, "DES episodes");
  auto* graph_episodes = flags.AddInt64("graph-episodes", 6, "element-graph episodes");
  auto* stateful_episodes =
      flags.AddInt64("stateful-episodes", 6, "stateful NAT + SCR-plane episodes");
  auto* duration = flags.AddDouble("duration", 0.02, "simulated seconds per DES episode");
  auto* smoke = flags.AddBool("smoke", false, "fixed small preset for CI (<5s)");
  auto* verbose = flags.AddBool("verbose", false, "per-episode detail");
  auto* flight_dump = flags.AddString(
      "flight-dump", "", "write the flight-recorder tail here after the run (always on failure; "
                         "a fatal invariant also dumps here via the crash hook)");
  flags.Parse(argc, argv);

  // Black box over every episode: the chaos runs are exactly where a
  // post-hoc "what happened right before the violation" tail pays off.
  rb::telemetry::FlightRecorder recorder(4096);
  rb::telemetry::FlightRecorder::Install(&recorder);
  if (!flight_dump->empty()) {
    rb::telemetry::FlightRecorder::SetCrashDumpPath(*flight_dump);
  }

  if (*smoke) {
    *episodes = 4;
    *graph_episodes = 3;
    *stateful_episodes = 4;
    *duration = 0.006;
  }

  std::printf(
      "rb_chaos seed=%llu episodes=%lld graph-episodes=%lld stateful-episodes=%lld "
      "duration=%.4fs\n",
      static_cast<unsigned long long>(*seed), static_cast<long long>(*episodes),
      static_cast<long long>(*graph_episodes), static_cast<long long>(*stateful_episodes),
      *duration);

  rb::telemetry::RegistrySnapshot prev = rb::telemetry::MetricRegistry::Global().Snapshot();
  for (int e = 0; e < *episodes; ++e) {
    RunDesEpisode(static_cast<uint64_t>(*seed), e, *duration, *verbose);
    rb::telemetry::RegistrySnapshot cur = rb::telemetry::MetricRegistry::Global().Snapshot();
    CheckMonotone(prev, cur, e);
    prev = std::move(cur);
  }
  for (int e = 0; e < *graph_episodes; ++e) {
    RunGraphEpisode(static_cast<uint64_t>(*seed), e, *verbose);
  }
  for (int e = 0; e < *stateful_episodes; ++e) {
    // Alternate flavors: even = NAT table chaos, odd = SCR-plane twins.
    if ((e % 2) == 0) {
      RunNatChaosEpisode(static_cast<uint64_t>(*seed), e, *verbose);
    } else {
      RunPlaneChaosEpisode(static_cast<uint64_t>(*seed), e, *verbose);
    }
  }

  if (!flight_dump->empty()) {
    if (recorder.DumpToFile(*flight_dump)) {
      std::printf("flight recorder (%llu events) dumped to %s\n",
                  static_cast<unsigned long long>(recorder.recorded()), flight_dump->c_str());
    } else {
      std::fprintf(stderr, "warning: failed to write %s\n", flight_dump->c_str());
    }
  }
  if (g_violations == 0) {
    std::printf(
        "rb_chaos OK: %lld DES + %lld graph + %lld stateful episodes, 0 violations "
        "(seed %llu)\n",
        static_cast<long long>(*episodes), static_cast<long long>(*graph_episodes),
        static_cast<long long>(*stateful_episodes), static_cast<unsigned long long>(*seed));
    rb::telemetry::FlightRecorder::Install(nullptr);
    return 0;
  }
  std::fprintf(stderr, "rb_chaos FAILED: %d violation(s); replay with --seed %llu\n",
               g_violations, static_cast<unsigned long long>(*seed));
  std::fprintf(stderr, "--- flight recorder (violations) ---\n");
  recorder.DumpTo(stderr, 64);
  std::fprintf(stderr, "--- end flight recorder ---\n");
  rb::telemetry::FlightRecorder::Install(nullptr);
  return 1;
}
