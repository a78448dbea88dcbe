// rb_perfbench: the router benchmark driver.
//
//   rb_perfbench --workload fwd_64|rtr_nat_64|ipsec_abilene --seed N --seconds S
//                [--trace 0|1] [--spans-out FILE] [--setups K]
//
// One process and one thread drive one SingleServerRouter (2 ports x 1
// queue, one core, kp=32, kn=16, compiled programs, 16384-packet pool)
// through its public calls only, over an in-process wire: the benchmark
// allocates a chunk of at most 512 frames (PacketPool::AllocBulk), writes
// them as the remote sender would (BulkInjector::FillFrame), hands them to
// the ports (SingleServerRouter::DeliverBatch), runs Step until a step
// moves nothing, drains both ports (DrainPort), checks every frame and
// frees them (PacketPool::FreeBulk). The next chunk is offered only after
// the previous one is transmitted (closed loop).
//
// Router time is the time inside AllocBulk, DeliverBatch..DrainPort and
// FreeBulk; FillFrame and the checks are excluded. Throughput is the 5th
// percentile over fixed-size windows of the measured phase.
//
// With --trace 1 every public call becomes a span (name, start, end,
// parent chunk span, chunk id) kept in memory and written to --spans-out
// at exit; the per-layer metrics come from those spans, from the layers'
// own counters and from probes run after the graph phase.
//
// The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "click/elements/from_device.hpp"
#include "click/elements/nat.hpp"
#include "clock.hpp"
#include "core/single_server_router.hpp"
#include "packet/headers.hpp"
#include "common/strings.hpp"
#include "plan.hpp"
#include "probes.hpp"
#include "telemetry/json.hpp"
#include "workload/injector.hpp"

namespace perfbench {
namespace {

struct Options {
  Workload workload = Workload::kFwd64;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  int setups = 9;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = ParseWorkload(value, &o->workload);
      if (!have_workload) {
        return false;
      }
      continue;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      o->trace = std::strtol(value, &end, 10) != 0;
    } else if (key == "--setups") {
      o->setups = static_cast<int>(std::strtol(value, &end, 10));
    } else if (key == "--spans-out") {
      o->spans_out = value;
      continue;
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && o->seconds > 0 && o->setups >= 1;
}

// The Nat elements' clock: the benchmark advances it one millisecond per
// chunk, so flow-table ageing (and the flow.* counts) repeat exactly for a
// given seed.
double g_nat_seconds = 0;
double NatClock() { return g_nat_seconds; }

// ---- spans ----

enum SpanKind : uint8_t {
  kSpanChunk,
  kSpanAllocBulk,
  kSpanFillFrame,
  kSpanDeliverBatch,
  kSpanStep,
  kSpanDrainPort,
  kSpanFreeBulk,
  kNumSpanKinds
};

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "chunk",
    "PacketPool::AllocBulk",
    "BulkInjector::FillFrame",
    "SingleServerRouter::DeliverBatch",
    "SingleServerRouter::Step",
    "SingleServerRouter::DrainPort",
    "PacketPool::FreeBulk",
};

// Spans of the traced phase. Time totals per kind cover every span; the
// spans themselves are kept up to a fixed budget and written out at exit.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(size_t max_stored) : max_stored_(max_stored) { spans_.reserve(max_stored); }

  uint32_t BeginChunk(uint32_t chunk, uint64_t start) {
    if (spans_.size() >= max_stored_) {
      return kNoParent;
    }
    spans_.push_back(Span{start, start, chunk, kNoParent, kSpanChunk});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  void EndChunk(uint32_t span, uint64_t start, uint64_t end) {
    Count(kSpanChunk, start, end);
    if (span != kNoParent) {
      spans_[span].end = end;
    }
  }

  void Add(SpanKind kind, uint64_t start, uint64_t end, uint32_t chunk, uint32_t parent) {
    Count(kind, start, end);
    if (spans_.size() < max_stored_) {
      spans_.push_back(Span{start, end, chunk, parent, kind});
    }
  }

  uint64_t ns(SpanKind k) const { return ns_[k]; }
  size_t stored() const { return spans_.size(); }

  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"span\":%zu,\"chunk\":%u,\"parent\":%lld}}",
                    i ? ",\n" : "", kSpanNames[s.kind],
                    static_cast<double>(s.start - base) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3, i, s.chunk,
                    s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    uint64_t start;
    uint64_t end;
    uint32_t chunk;
    uint32_t parent;
    SpanKind kind;
  };

  void Count(SpanKind k, uint64_t start, uint64_t end) { ns_[k] += end - start; }

  size_t max_stored_;
  std::vector<Span> spans_;
  uint64_t ns_[kNumSpanKinds] = {};
};

// ---- the router under test ----

struct Rig {
  std::unique_ptr<rb::SingleServerRouter> router;
  std::unique_ptr<rb::BulkInjector> injector;
  std::vector<rb::Nat*> nats;            // one per ingress port, in port order
  std::vector<rb::FromDevice*> pollers;  // one per ingress port
  uint64_t offered = 0;      // frames planned into chunks
  uint64_t transmitted = 0;  // frames drained from the ports
};

rb::SingleServerConfig RouterConfig(Workload w) {
  rb::SingleServerConfig cfg;
  cfg.num_ports = kPorts;
  cfg.queues_per_port = 1;
  cfg.cores = 1;
  cfg.kp = 32;
  cfg.kn = 16;
  cfg.pool_packets = kPoolPackets;
  cfg.compile_programs = true;
  cfg.table = RouterTableConfig();
  switch (w) {
    case Workload::kFwd64:
      cfg.app = rb::App::kMinimalForwarding;
      break;
    case Workload::kRtrNat64:
      cfg.app = rb::App::kIpRouting;
      cfg.stateful_nat = true;
      cfg.nat_capacity = kNatCapacity;
      break;
    case Workload::kIpsecAbilene:
      cfg.app = rb::App::kIpsec;
      break;
  }
  return cfg;
}

// Constructs and initializes the router; returns the nanoseconds that
// took. Finding the Nats and pollers and building the sender come after.
uint64_t BuildRig(Workload w, Rig* rig) {
  const uint64_t t0 = NowNs();
  rig->router = std::make_unique<rb::SingleServerRouter>(RouterConfig(w));
  rig->router->Initialize();
  const uint64_t t1 = NowNs();
  for (const auto& e : rig->router->graph().elements()) {
    if (auto* nat = dynamic_cast<rb::Nat*>(e.get())) {
      nat->set_clock(&NatClock);
      rig->nats.push_back(nat);
    } else if (auto* poller = dynamic_cast<rb::FromDevice*>(e.get())) {
      rig->pollers.push_back(poller);
    }
  }
  RB_CHECK(rig->pollers.size() == static_cast<size_t>(kPorts));
  RB_CHECK(rig->nats.size() == (w == Workload::kRtrNat64 ? static_cast<size_t>(kPorts) : 0));
  rig->injector = std::make_unique<rb::BulkInjector>(rb::InjectorConfig{}, &rig->router->pool());
  return t1 - t0;
}

// Where every frame a rig was offered went.
struct Ledger {
  uint64_t offered = 0;
  uint64_t transmitted = 0;
  uint64_t ring_drops = 0;      // rx and tx descriptor rings
  uint64_t element_drops = 0;   // every element's drop counter
  uint64_t nat_drops = 0;       // the Nats' share of element_drops
  uint64_t alloc_failures = 0;  // frames the pool could not supply
  uint64_t resident = 0;        // frames still held by the router

  void Add(const Ledger& o) {
    offered += o.offered;
    transmitted += o.transmitted;
    ring_drops += o.ring_drops;
    element_drops += o.element_drops;
    nat_drops += o.nat_drops;
    alloc_failures += o.alloc_failures;
    resident += o.resident;
  }
  uint64_t drops() const { return ring_drops + element_drops + alloc_failures; }
  bool Holds() const { return offered == transmitted + drops() + resident; }
};

Ledger ReadLedger(Rig& rig) {
  Ledger l;
  l.offered = rig.offered;
  l.transmitted = rig.transmitted;
  for (int p = 0; p < kPorts; ++p) {
    l.ring_drops += rig.router->port(p).rx_counters().drops.load() +
                    rig.router->port(p).tx_counters().drops.load();
  }
  for (const auto& e : rig.router->graph().elements()) {
    l.element_drops += e->drops();
  }
  for (rb::Nat* nat : rig.nats) {
    l.nat_drops += nat->table_full_drops() + nat->no_mapping_drops() + nat->malformed_drops();
  }
  l.alloc_failures = rig.router->pool().alloc_failures();
  l.resident = rig.router->pool().in_use();
  return l;
}

// ---- the closed loop ----

struct ChunkResult {
  uint64_t router_ns = 0;
  uint32_t delivered = 0;
  uint32_t transmitted = 0;
  uint64_t bits = 0;  // offered frame bits (a frame that never leaves fails the run)
  uint32_t steps = 0;
  uint32_t idle_steps = 0;
};

class Player {
 public:
  Player(const Plan& plan, Checker* checker) : plan_(plan), checker_(checker) {}

  // A fresh router starts again from the first planned frame.
  void Restart() {
    seq_ = 0;
    checker_->Reset();
  }

  ChunkResult Play(Rig& rig, Tracer* tracer) {
    rb::SingleServerRouter& router = *rig.router;
    rb::PacketPool& pool = router.pool();
    const uint32_t chunk = chunk_++;
    g_nat_seconds += 1e-3;
    ChunkResult r;

    rb::Packet* pkts[kChunk];
    const uint64_t t0 = NowNs();
    const uint32_t parent = tracer ? tracer->BeginChunk(chunk, t0) : Tracer::kNoParent;
    const uint32_t got = static_cast<uint32_t>(pool.AllocBulk(pkts, kChunk));
    const uint64_t t1 = NowNs();
    if (tracer) {
      tracer->Add(kSpanAllocBulk, t0, t1, chunk, parent);
    }
    pool_in_use_hw_ = std::max(pool_in_use_hw_, pool.in_use());
    rig.offered += kChunk;

    // The sender: write each frame, stamp its chunk slot, and sort it onto
    // its ingress port.
    rb::PacketBatch batches[kPorts][kChunk / rb::PacketBatch::kCapacity];
    uint32_t per_port[kPorts] = {};
    for (uint32_t i = 0; i < got; ++i) {
      const PlanOffer& offer = plan_.Offer(seq_ + i);
      const PlanFlow& flow = plan_.flows[offer.flow];
      const uint64_t f0 = tracer ? NowNs() : 0;
      rig.injector->FillFrame(plan_.Spec(offer), pkts[i]);
      if (tracer) {
        tracer->Add(kSpanFillFrame, f0, NowNs(), chunk, parent);
      }
      if (flow.udp_checksum != 0) {
        rb::StoreBe16(pkts[i]->data() + rb::EthernetView::kSize + rb::Ipv4View::kMinSize + 6,
                      flow.udp_checksum);
      }
      pkts[i]->set_flow_seq(ChunkTag(chunk, i));
      checker_->Offer(i, offer, *pkts[i]);
      r.bits += uint64_t{offer.size} * 8;
      const uint32_t n = per_port[flow.in_port]++;
      batches[flow.in_port][n / rb::PacketBatch::kCapacity].PushBack(pkts[i]);
    }
    seq_ += kChunk;

    rb::Packet* out[2 * kChunk];
    uint8_t egress[2 * kChunk];
    uint32_t m = 0;
    const uint64_t t2 = NowNs();
    for (int port = 0; port < kPorts; ++port) {
      for (rb::PacketBatch& batch : batches[port]) {
        if (batch.empty()) {
          continue;
        }
        r.delivered += batch.size();
        const uint64_t s = tracer ? NowNs() : 0;
        router.DeliverBatch(port, &batch, 0.0);
        if (tracer) {
          tracer->Add(kSpanDeliverBatch, s, NowNs(), chunk, parent);
        }
      }
    }
    for (;;) {
      const uint64_t s = tracer ? NowNs() : 0;
      const size_t moved = router.Step();
      if (tracer) {
        tracer->Add(kSpanStep, s, NowNs(), chunk, parent);
      }
      r.steps++;
      if (moved == 0) {
        r.idle_steps++;
        break;
      }
    }
    for (int port = 0; port < kPorts; ++port) {
      for (;;) {
        const uint64_t s = tracer ? NowNs() : 0;
        const size_t k = router.DrainPort(port, out + m, std::size(out) - m);
        if (tracer) {
          tracer->Add(kSpanDrainPort, s, NowNs(), chunk, parent);
        }
        std::memset(egress + m, port, k);
        m += static_cast<uint32_t>(k);
        if (k == 0 || m == std::size(out)) {
          break;
        }
      }
    }
    const uint64_t t3 = NowNs();

    uint64_t evictions[kPorts] = {};
    for (size_t p = 0; p < rig.nats.size(); ++p) {
      evictions[p] = rig.nats[p]->table().stats().evictions();
    }
    checker_->CheckChunk(chunk, got, out, egress, m, evictions);

    const uint64_t t4 = NowNs();
    pool.FreeBulk(out, m);
    const uint64_t t5 = NowNs();
    if (tracer) {
      tracer->Add(kSpanFreeBulk, t4, t5, chunk, parent);
      tracer->EndChunk(parent, t0, t5);
    }
    pool_in_use_hw_ = std::max(pool_in_use_hw_, pool.in_use());
    r.router_ns = (t1 - t0) + (t3 - t2) + (t5 - t4);
    r.transmitted = m;
    rig.transmitted += m;
    return r;
  }

  size_t pool_in_use_hw() const { return pool_in_use_hw_; }

 private:
  const Plan& plan_;
  Checker* checker_;
  uint64_t seq_ = 0;
  uint32_t chunk_ = 0;
  size_t pool_in_use_hw_ = 0;
};

// ---- host reference and statistics ----

// Linear-interpolated quantile of a sorted, non-empty sample.
double QuantileOfSorted(const std::vector<double>& v, double f) {
  const double pos = f * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : QuantileOfSorted(v, 0.5);
}

// Throughput over the windows of the measured phase. The reported value
// is p5, the rate the router reached or beat in 19 windows of 20:
// host-speed episodes lift whole seconds of windows by up to 60%, which
// moves the median with the share of the run they cover but leaves the
// low tail alone.
struct WindowStats {
  double p5 = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

WindowStats WindowStatsOf(std::vector<double> v) {
  WindowStats w;
  if (v.empty()) {
    return w;
  }
  std::sort(v.begin(), v.end());
  w.p5 = QuantileOfSorted(v, 0.05);
  w.q1 = QuantileOfSorted(v, 0.25);
  w.median = QuantileOfSorted(v, 0.5);
  w.q3 = QuantileOfSorted(v, 0.75);
  return w;
}

// A fixed dependent multiply-xorshift chain: its time tracks the speed of
// the host core, not the router. The median of five reps.
double RefKernelMs() {
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    uint64_t x = 0x243f6a8885a308d3ull + static_cast<uint64_t>(r);
    const uint64_t t0 = NowNs();
    for (int i = 0; i < (1 << 22); ++i) {
      x ^= x >> 31;
      x *= 0x9e3779b97f4a7c15ull;
    }
    const uint64_t t1 = NowNs();
    KeepAlive(x);
    ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return Median(ms);
}

double VmRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- the run ----

struct WorkloadShape {
  uint32_t window_packets;  // throughput window
  uint32_t count_chunks;    // deterministic warm-up
};

WorkloadShape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kFwd64:
      return {16384, 128};
    case Workload::kRtrNat64:
      // The 1M-flow ramp plus as many steady frames again; the flow.*
      // counts cover the second half.
      return {16384, 4096};
    case Workload::kIpsecAbilene:
      return {1024, 32};
  }
  return {16384, 128};
}

constexpr double kWarmSeconds = 1.0;
constexpr size_t kMaxStoredSpans = size_t{1} << 18;

struct NatCounts {
  uint64_t packets = 0;
  uint64_t hits = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  int probe_p99 = 0;
};

NatCounts ReadNatCounts(const Rig& rig, uint64_t packets) {
  NatCounts c;
  c.packets = packets;
  for (rb::Nat* nat : rig.nats) {
    const rb::FlowTableStats s = nat->table().stats();
    c.hits += s.hits;
    c.inserts += s.inserts;
    c.evictions += s.evictions();
    c.probe_p99 = std::max(c.probe_p99, nat->table().ProbeLengthPercentile(0.99));
  }
  return c;
}

void Metric(rb::telemetry::JsonWriter* w, const char* name, double value, const char* unit) {
  w->Key(name);
  w->BeginObject();
  w->Key("value");
  w->Double(std::isfinite(value) ? value : 0.0);
  w->Key("unit");
  w->String(unit);
  w->EndObject();
}

double PerPacket(uint64_t ns, uint64_t packets) {
  return packets ? static_cast<double>(ns) / static_cast<double>(packets) : 0.0;
}

int Run(const Options& opt) {
  const uint64_t plan_t0 = NowNs();
  const Plan plan = BuildPlan(opt.workload, opt.seed);
  const double plan_s = static_cast<double>(NowNs() - plan_t0) / 1e9;
  const WorkloadShape shape = ShapeOf(opt.workload);
  Checker checker(plan);
  std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>(kMaxStoredSpans) : nullptr;
  Player player(plan, &checker);
  std::printf("# perfbench workload=%s seed=%llu trace=%d plan_hash=%016llx flows=%zu offers=%zu "
              "plan_s=%.3f\n",
              WorkloadName(opt.workload), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, static_cast<unsigned long long>(plan.hash), plan.flows.size(),
              plan.offers.size(), plan_s);
  std::fflush(stdout);

  // Set-up: constructing the router through Initialize to the first chunk
  // transmitted. The memory it adds is measured against a baseline taken
  // with the plan already resident.
  malloc_trim(0);
  const double rss_before = VmRssMiB();
  auto rig = std::make_unique<Rig>();
  std::vector<double> setup_s;
  {
    const uint64_t build_ns = BuildRig(opt.workload, rig.get());
    const ChunkResult first = player.Play(*rig, nullptr);
    setup_s.push_back(static_cast<double>(build_ns + first.router_ns) / 1e9);
  }

  // Warm-up: a fixed number of chunks (the pool cycles; on rtr_nat_64 the
  // 1M-flow population ramps), then until kWarmSeconds have passed.
  const uint64_t warm_t0 = NowNs();
  const uint32_t ramp_chunks = static_cast<uint32_t>(plan.loop_start / kChunk);
  NatCounts nat_from;
  for (uint32_t c = 1; c < shape.count_chunks; ++c) {
    if (c == ramp_chunks) {
      nat_from = ReadNatCounts(*rig, rig->transmitted);
    }
    player.Play(*rig, nullptr);
  }
  const NatCounts nat_to = ReadNatCounts(*rig, rig->transmitted);
  while (static_cast<double>(NowNs() - warm_t0) / 1e9 < kWarmSeconds) {
    player.Play(*rig, nullptr);
  }
  const double rss_mb = VmRssMiB() - rss_before;

  // The measured phase.
  const double host_before = RefKernelMs();
  uint64_t polls0 = 0, empty0 = 0, polled0 = 0, pcie0 = 0;
  auto read_netdev = [&rig](uint64_t* polls, uint64_t* empty, uint64_t* polled, uint64_t* pcie) {
    *polls = *empty = *polled = *pcie = 0;
    for (rb::FromDevice* fd : rig->pollers) {
      *polls += fd->driver().polls();
      *empty += fd->driver().empty_polls();
      *polled += fd->driver().packets();
    }
    for (int p = 0; p < kPorts; ++p) {
      *pcie += rig->router->port(p).pcie_counters().transactions.load();
    }
  };
  read_netdev(&polls0, &empty0, &polled0, &pcie0);
  std::vector<double> window_mpps;
  std::vector<double> window_gbps;
  ChunkResult window;
  uint64_t chunks = 0, delivered = 0, transmitted = 0, steps = 0, idle_steps = 0;
  const uint64_t measure_t0 = NowNs();
  const uint64_t end = measure_t0 + static_cast<uint64_t>(opt.seconds * 1e9);
  while (NowNs() < end) {
    const ChunkResult r = player.Play(*rig, tracer.get());
    chunks++;
    delivered += r.delivered;
    transmitted += r.transmitted;
    steps += r.steps;
    idle_steps += r.idle_steps;
    window.router_ns += r.router_ns;
    window.transmitted += r.transmitted;
    window.bits += r.bits;
    if (window.transmitted >= shape.window_packets) {
      const double ns = static_cast<double>(window.router_ns);
      window_mpps.push_back(static_cast<double>(window.transmitted) / ns * 1e3);
      window_gbps.push_back(static_cast<double>(window.bits) / ns);
      window = ChunkResult{};
    }
  }
  uint64_t polls1 = 0, empty1 = 0, polled1 = 0, pcie1 = 0;
  read_netdev(&polls1, &empty1, &polled1, &pcie1);
  const double host_after = RefKernelMs();

  Ledger ledger = ReadLedger(*rig);
  ProbeResults probes;
  if (opt.trace) {
    probes = RunProbes(plan);
  }
  rig.reset();

  // More set-up samples: each a fresh router taken to its first chunk.
  // The first routers a process builds are its slowest; these later ones
  // outnumber them, so the median is that of a warm set-up.
  for (int k = 1; !opt.trace && k < opt.setups; ++k) {
    player.Restart();
    Rig extra;
    const uint64_t build_ns = BuildRig(opt.workload, &extra);
    const ChunkResult first = player.Play(extra, nullptr);
    setup_s.push_back(static_cast<double>(build_ns + first.router_ns) / 1e9);
    ledger.Add(ReadLedger(extra));
  }

  const WindowStats mpps = WindowStatsOf(window_mpps);
  const WindowStats gbps = WindowStatsOf(window_gbps);
  const uint64_t failed = checker.bad() + checker.missing() + ledger.alloc_failures;
  const bool correct = failed == 0 && ledger.Holds() && ledger.drops() == 0 &&
                       ledger.resident == 0 && probes.failure.empty() && !window_mpps.empty();
  if (!checker.first_failure().empty()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", checker.first_failure().c_str());
  }
  if (!probes.failure.empty()) {
    std::fprintf(stderr, "perfbench: probe failed: %s\n", probes.failure.c_str());
  }
  if (tracer && !opt.spans_out.empty() && !tracer->Write(opt.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
  }

  std::printf("# windows: %zu x %u frames; throughput_mpps p5=%.4f q1=%.4f median=%.4f "
              "q3=%.4f; throughput_gbps p5=%.4f q1=%.4f median=%.4f q3=%.4f\n",
              window_mpps.size(), shape.window_packets, mpps.p5, mpps.q1, mpps.median, mpps.q3,
              gbps.p5, gbps.q1, gbps.median, gbps.q3);
  std::printf("# host.ref_kernel_ms before=%.4f after=%.4f\n", host_before, host_after);
  std::printf("# ledger: offered=%llu transmitted=%llu ring_drops=%llu element_drops=%llu "
              "(nat %llu) alloc_failures=%llu resident=%llu holds=%d\n",
              static_cast<unsigned long long>(ledger.offered),
              static_cast<unsigned long long>(ledger.transmitted),
              static_cast<unsigned long long>(ledger.ring_drops),
              static_cast<unsigned long long>(ledger.element_drops),
              static_cast<unsigned long long>(ledger.nat_drops),
              static_cast<unsigned long long>(ledger.alloc_failures),
              static_cast<unsigned long long>(ledger.resident), ledger.Holds() ? 1 : 0);
  std::printf("# checks: checked=%llu bad=%llu missing=%llu decapsulated=%llu "
              "udp_zero_checksums=%llu\n",
              static_cast<unsigned long long>(checker.checked()),
              static_cast<unsigned long long>(checker.bad()),
              static_cast<unsigned long long>(checker.missing()),
              static_cast<unsigned long long>(checker.decapsulated()),
              static_cast<unsigned long long>(checker.udp_zero_checksums()));

  rb::telemetry::JsonWriter detail;
  detail.BeginObject();
  detail.Key("detail");
  detail.BeginObject();
  detail.Key("workload");
  detail.String(WorkloadName(opt.workload));
  detail.Key("seed");
  detail.Uint(opt.seed);
  detail.Key("trace");
  detail.Bool(opt.trace);
  detail.Key("plan_hash");
  detail.String(rb::Format("%016llx", static_cast<unsigned long long>(plan.hash)));
  detail.Key("windows");
  detail.Uint(window_mpps.size());
  detail.Key("window_packets");
  detail.Uint(shape.window_packets);
  detail.Key("throughput_mpps");
  detail.Double(mpps.p5);
  detail.Key("throughput_mpps_median");
  detail.Double(mpps.median);
  detail.Key("setup_samples_s");
  detail.BeginArray();
  for (double s : setup_s) {
    detail.Double(s);
  }
  detail.EndArray();
  detail.Key("host_ref_ms_before");
  detail.Double(host_before);
  detail.Key("host_ref_ms_after");
  detail.Double(host_after);
  detail.Key("spans_stored");
  detail.Uint(tracer ? tracer->stored() : 0);
  detail.EndObject();
  detail.EndObject();
  std::printf("%s\n", detail.str().c_str());

  rb::telemetry::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Uint(ledger.offered);
  w.Key("failed");
  w.Uint(failed);
  w.Key("metrics");
  w.BeginObject();
  if (!opt.trace) {
    Metric(&w, "throughput_mpps", mpps.p5, "Mpps");
    Metric(&w, "throughput_gbps", gbps.p5, "Gbps");
    Metric(&w, "setup_s", Median(setup_s), "s");
    Metric(&w, "rss_mb", rss_mb, "MiB");
  } else {
    const double step_ns = PerPacket(tracer->ns(kSpanStep), transmitted);
    // Step's children, probed: the layers this workload's graph runs.
    double children_ns = probes.classify_ns;
    if (opt.workload == Workload::kRtrNat64) {
      children_ns += probes.lpm_ns + probes.find_or_insert_ns;
    } else if (opt.workload == Workload::kIpsecAbilene) {
      children_ns += probes.esp_ns;
    }
    // flow.* come from the router's Nats over the fixed steady stretch of
    // the warm-up where the workload has them, else from the probe table.
    NatCounts flow{probes.flow_ops, probes.flow_stats.hits, probes.flow_stats.inserts,
                   probes.flow_stats.evictions(), probes.flow_probe_p99};
    if (opt.workload == Workload::kRtrNat64) {
      flow = NatCounts{nat_to.packets - nat_from.packets, nat_to.hits - nat_from.hits,
                       nat_to.inserts - nat_from.inserts, nat_to.evictions - nat_from.evictions,
                       nat_to.probe_p99};
    }
    const double lookups = static_cast<double>(flow.hits + flow.inserts);
    const double kpkts = static_cast<double>(flow.packets) / 1e3;
    const uint64_t polls = polls1 - polls0;
    const uint64_t empty = empty1 - empty0;
    Metric(&w, "netdev.rx_deliver_ns", PerPacket(tracer->ns(kSpanDeliverBatch), delivered), "ns");
    Metric(&w, "netdev.tx_drain_ns", PerPacket(tracer->ns(kSpanDrainPort), transmitted), "ns");
    Metric(&w, "netdev.poll_empty_frac", polls ? static_cast<double>(empty) / polls : 0.0, "frac");
    Metric(&w, "netdev.poll_burst_mean",
           polls > empty ? static_cast<double>(polled1 - polled0) / (polls - empty) : 0.0, "pkts");
    Metric(&w, "netdev.pcie_txn_per_pkt",
           delivered ? static_cast<double>(pcie1 - pcie0) / delivered : 0.0, "count");
    Metric(&w, "netdev.ring_drops", static_cast<double>(ledger.ring_drops), "pkts");
    Metric(&w, "click.step_ns", step_ns, "ns");
    Metric(&w, "click.framework_ns", step_ns - children_ns, "ns");
    Metric(&w, "click.steps_per_chunk", chunks ? static_cast<double>(steps) / chunks : 0.0,
           "count");
    Metric(&w, "click.idle_step_frac", steps ? static_cast<double>(idle_steps) / steps : 0.0,
           "frac");
    Metric(&w, "click.element_drops", static_cast<double>(ledger.element_drops), "pkts");
    Metric(&w, "program.classify_ns", probes.classify_ns, "ns");
    Metric(&w, "packet.alloc_ns", PerPacket(tracer->ns(kSpanAllocBulk), delivered), "ns");
    Metric(&w, "packet.free_ns", PerPacket(tracer->ns(kSpanFreeBulk), transmitted), "ns");
    Metric(&w, "packet.pool_in_use_hw", static_cast<double>(player.pool_in_use_hw()), "pkts");
    Metric(&w, "packet.alloc_failures", static_cast<double>(ledger.alloc_failures), "pkts");
    Metric(&w, "lookup.lpm_ns", probes.lpm_ns, "ns");
    Metric(&w, "lookup.build_s", probes.lookup_build_s, "s");
    Metric(&w, "lookup.table_mib", probes.lookup_table_mib, "MiB");
    Metric(&w, "flow.find_or_insert_ns", probes.find_or_insert_ns, "ns");
    Metric(&w, "flow.hit_ratio", lookups > 0 ? static_cast<double>(flow.hits) / lookups : 0.0,
           "frac");
    Metric(&w, "flow.inserts_per_kpkt", kpkts > 0 ? static_cast<double>(flow.inserts) / kpkts : 0.0,
           "1/kpkt");
    Metric(&w, "flow.evictions_per_kpkt",
           kpkts > 0 ? static_cast<double>(flow.evictions) / kpkts : 0.0, "1/kpkt");
    Metric(&w, "flow.probe_p99", static_cast<double>(flow.probe_p99), "buckets");
    Metric(&w, "crypto.esp_ns", probes.esp_ns, "ns");
    Metric(&w, "crypto.esp_ns_per_byte", probes.esp_ns_per_byte, "ns/B");
    Metric(&w, "workload.gen_ns", PerPacket(tracer->ns(kSpanFillFrame), delivered), "ns");
    Metric(&w, "host.ref_kernel_ms", 0.5 * (host_before + host_after), "ms");
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: rb_perfbench --workload fwd_64|rtr_nat_64|ipsec_abilene --seed N "
                 "--seconds S [--trace 0|1] [--spans-out FILE] [--setups K]\n");
    return 2;
  }
  return perfbench::Run(opt);
}
