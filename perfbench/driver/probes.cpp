#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "click/elements/check_ip_header.hpp"
#include "click/elements/nat.hpp"
#include "clock.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "crypto/esp.hpp"
#include "lookup/dir24_8.hpp"
#include "packet/pool.hpp"
#include "program/match_program.hpp"
#include "workload/injector.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kLpmBatch = 32;
constexpr size_t kLpmAddresses = size_t{1} << 20;
constexpr uint64_t kFlowOps = uint64_t{1} << 20;
constexpr uint32_t kFrameGroup = 256;

// Planned frames materialized into packets of a private pool, refilled
// on demand (ESP rewrites them in place).
class ProbeFrames {
 public:
  explicit ProbeFrames(const Plan& plan)
      : plan_(plan), pool_(4 * kFrameGroup), injector_(rb::InjectorConfig{}, &pool_) {}
  ~ProbeFrames() { Release(); }
  ProbeFrames(const ProbeFrames&) = delete;
  ProbeFrames& operator=(const ProbeFrames&) = delete;

  // Fills `n` frames with the offers from plan sequence `seq` on;
  // returns their bytes.
  uint64_t Fill(uint64_t seq, uint32_t n) {
    Release();
    pkts_.resize(n);
    RB_CHECK(pool_.AllocBulk(pkts_.data(), n) == n);
    uint64_t bytes = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const PlanOffer& o = plan_.Offer(seq + i);
      injector_.FillFrame(plan_.Spec(o), pkts_[i]);
      bytes += o.size;
    }
    return bytes;
  }
  rb::Packet* operator[](size_t i) const { return pkts_[i]; }
  size_t size() const { return pkts_.size(); }

 private:
  void Release() {
    if (!pkts_.empty()) {
      pool_.FreeBulk(pkts_.data(), pkts_.size());
      pkts_.clear();
    }
  }

  const Plan& plan_;
  rb::PacketPool pool_;
  rb::BulkInjector injector_;
  std::vector<rb::Packet*> pkts_;
};

uint64_t LoopLength(const Plan& plan) { return plan.offers.size() - plan.loop_start; }

void ProbeClassify(const Plan& plan, ProbeResults* out) {
  rb::program::MatchProgram program;
  RB_CHECK(rb::CheckIpHeader().CompileMatch(&program));
  program.Fuse();
  std::string error;
  RB_CHECK_MSG(program.Validate(&error), error.c_str());

  ProbeFrames frames(plan);
  frames.Fill(plan.loop_start, 2 * kFrameGroup);
  constexpr int kReps = 2048;
  uint64_t lanes = 0;
  const uint64_t t0 = NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (size_t i = 0; i < frames.size(); ++i) {
      lanes += static_cast<uint64_t>(program.Execute(frames[i]->data(), frames[i]->length()));
    }
  }
  const uint64_t t1 = NowNs();
  out->classify_ns = static_cast<double>(t1 - t0) / (static_cast<double>(kReps) * frames.size());
  if (lanes != 0 && out->failure.empty()) {
    out->failure = "compiled CheckIPHeader rejected a planned frame";
  }
}

void ProbeLookup(const Plan& plan, ProbeResults* out) {
  const uint64_t t0 = NowNs();
  const std::vector<rb::RouteEntry> routes = rb::GenerateRoutingTable(RouterTableConfig());
  rb::Dir24_8 table;
  table.InsertAll(routes);
  const uint64_t t1 = NowNs();
  out->lookup_build_s = static_cast<double>(t1 - t0) / 1e9;
  out->lookup_table_mib = static_cast<double>(table.memory_bytes()) / (1024.0 * 1024.0);

  // The destinations the workload offers, in offer order.
  std::vector<uint32_t> addrs(kLpmAddresses);
  for (size_t i = 0; i < addrs.size(); ++i) {
    addrs[i] = plan.flows[plan.Offer(plan.loop_start + i % LoopLength(plan)).flow].key.dst_ip;
  }
  uint32_t hops[kLpmBatch];
  uint64_t hop_sum = 0;
  const uint64_t t2 = NowNs();
  for (size_t i = 0; i < addrs.size(); i += kLpmBatch) {
    table.LookupBatch(&addrs[i], hops, kLpmBatch);
    hop_sum += hops[0] + hops[kLpmBatch - 1];
  }
  const uint64_t t3 = NowNs();
  KeepAlive(hop_sum);
  out->lpm_ns = static_cast<double>(t3 - t2) / static_cast<double>(addrs.size());

  if (plan.workload == Workload::kRtrNat64) {
    // Differential check against the reference trie's answer in the plan.
    for (size_t i = 0; i < addrs.size(); ++i) {
      const PlanFlow& f = plan.flows[plan.Offer(plan.loop_start + i % LoopLength(plan)).flow];
      if (table.Lookup(addrs[i]) != f.out_port + 1u && out->failure.empty()) {
        out->failure = rb::Format("Dir24_8 and RadixTrie disagree on %08x", addrs[i]);
      }
    }
  }
}

void ProbeFlowTable(const Plan& plan, ProbeResults* out) {
  const rb::NatOptions nat;
  rb::FlowTableConfig tc;
  tc.capacity = kNatCapacity;
  tc.shards = nat.shards;
  tc.max_probe_buckets = nat.max_probe_buckets;
  tc.hi_watermark = nat.hi_watermark;
  tc.lo_watermark = nat.lo_watermark;
  tc.idle_timeout = nat.idle_timeout_ms;
  tc.evict_on_full = nat.evict_on_full;
  rb::FlowTable table(tc);

  // One Nat's share of the traffic (ingress port 0), ticking one
  // millisecond per chunk as the benchmark drives the router's Nat clock.
  auto run = [&](uint64_t from, uint64_t to) {
    uint64_t ops = 0;
    for (uint64_t seq = from; seq < to; ++seq) {
      const PlanFlow& f = plan.flows[plan.Offer(seq).flow];
      if (f.in_port == 0) {
        table.FindOrInsert(f.key, static_cast<uint32_t>(seq / kChunk));
        ops++;
      }
    }
    return ops;
  };
  run(0, plan.loop_start);  // the ramp, untimed
  const rb::FlowTableStats before = table.stats();
  uint64_t seq = plan.loop_start;
  uint64_t ns = 0;
  while (out->flow_ops < kFlowOps) {
    const uint64_t t0 = NowNs();
    out->flow_ops += run(seq, seq + LoopLength(plan));
    ns += NowNs() - t0;
    seq += LoopLength(plan);
  }
  const rb::FlowTableStats after = table.stats();
  out->find_or_insert_ns = static_cast<double>(ns) / static_cast<double>(out->flow_ops);
  out->flow_stats.hits = after.hits - before.hits;
  out->flow_stats.inserts = after.inserts - before.inserts;
  out->flow_stats.evict_idle = after.evict_idle - before.evict_idle;
  out->flow_stats.evict_watermark = after.evict_watermark - before.evict_watermark;
  out->flow_stats.evict_full = after.evict_full - before.evict_full;
  out->flow_probe_p99 = table.ProbeLengthPercentile(0.99);
}

void ProbeEsp(const Plan& plan, ProbeResults* out) {
  rb::EspTunnel tunnel{rb::EspConfig{}};
  ProbeFrames frames(plan);
  const uint32_t target = plan.workload == Workload::kIpsecAbilene ? 8192 : 32768;
  uint64_t bytes = 0;
  uint64_t ns = 0;
  bool ok = true;
  for (uint64_t seq = plan.loop_start; seq < plan.loop_start + target; seq += kFrameGroup) {
    bytes += frames.Fill(seq, kFrameGroup);
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < frames.size(); ++i) {
      ok &= tunnel.Encapsulate(frames[i]);
    }
    ns += NowNs() - t0;
  }
  out->esp_ns = static_cast<double>(ns) / target;
  out->esp_ns_per_byte = static_cast<double>(ns) / static_cast<double>(bytes);
  if (!ok && out->failure.empty()) {
    out->failure = "EspTunnel::Encapsulate refused a planned frame";
  }
}

}  // namespace

ProbeResults RunProbes(const Plan& plan) {
  ProbeResults out;
  ProbeClassify(plan, &out);
  ProbeLookup(plan, &out);
  ProbeFlowTable(plan, &out);
  ProbeEsp(plan, &out);
  return out;
}

}  // namespace perfbench
