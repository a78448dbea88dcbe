#include "plan.hpp"

#include "common/log.hpp"
#include "common/rng.hpp"
#include "lookup/radix_trie.hpp"
#include "packet/checksum.hpp"
#include "packet/headers.hpp"
#include "workload/abilene.hpp"
#include "workload/flows.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

// fwd_64 and ipsec_abilene repeat one 64K-frame sequence; rtr_nat_64
// plays a 1M-frame ramp (one new flow per frame) once, then repeats 3M
// frames of steady-state churn.
constexpr size_t kLoopOffers = size_t{1} << 16;
constexpr size_t kNatFlows = size_t{1} << 20;
constexpr size_t kNatSteadyOffers = size_t{3} << 20;
constexpr uint64_t kDstSeedSalt = 0x6473745f73656564ull;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

uint64_t HashPlan(const Plan& plan) {
  uint64_t h = Mix(static_cast<uint64_t>(plan.workload), plan.loop_start);
  for (const PlanFlow& f : plan.flows) {
    h = Mix(h, (uint64_t{f.key.src_ip} << 32) | f.key.dst_ip);
    h = Mix(h, (uint64_t{f.key.src_port} << 24) | (uint64_t{f.key.dst_port} << 8) |
                   f.key.protocol);
    h = Mix(h, (uint64_t{f.udp_checksum} << 16) | (uint64_t{f.in_port} << 8) | f.out_port);
  }
  for (const PlanOffer& o : plan.offers) {
    h = Mix(h, (uint64_t{o.flow} << 16) | o.size);
  }
  return h;
}

// The UDP checksum of a 64 B frame from BulkInjector's template (zero
// payload), so the NAT's incremental L4 patch has a real checksum to keep
// valid.
uint16_t UdpChecksum64(const rb::FlowKey& k) {
  constexpr uint16_t kUdpLen = 64 - rb::EthernetView::kSize - rb::Ipv4View::kMinSize;
  uint8_t buf[20] = {};
  rb::StoreBe32(buf, k.src_ip);
  rb::StoreBe32(buf + 4, k.dst_ip);
  buf[9] = rb::Ipv4View::kProtoUdp;
  rb::StoreBe16(buf + 10, kUdpLen);
  rb::StoreBe16(buf + 12, k.src_port);
  rb::StoreBe16(buf + 14, k.dst_port);
  rb::StoreBe16(buf + 16, kUdpLen);
  const uint16_t c = rb::Checksum(buf, sizeof(buf));
  return c == 0 ? 0xffff : c;
}

PlanFlow CrossFlow(const rb::FlowKey& key) {
  PlanFlow f;
  f.key = key;
  f.in_port = static_cast<uint8_t>(rb::FlowHash32(key) & 1u);
  f.out_port = static_cast<uint8_t>((f.in_port + 1) % kPorts);
  return f;
}

// fwd_64 / ipsec_abilene: a generator over a fixed flow set; every frame
// leaves on the port after the one it arrived on.
template <typename Gen>
void FillFromGenerator(Gen* gen, size_t num_flows, Plan* plan) {
  plan->flows.resize(num_flows);
  std::vector<bool> seen(num_flows, false);
  plan->offers.reserve(kLoopOffers);
  for (size_t i = 0; i < kLoopOffers; ++i) {
    const rb::FrameSpec spec = gen->Next();
    RB_CHECK(spec.flow_id < num_flows);
    if (!seen[spec.flow_id]) {
      seen[spec.flow_id] = true;
      plan->flows[spec.flow_id] = CrossFlow(spec.flow);
    }
    plan->offers.push_back(
        PlanOffer{static_cast<uint32_t>(spec.flow_id), static_cast<uint16_t>(spec.size)});
  }
}

void BuildNatPlan(uint64_t seed, Plan* plan) {
  // Destinations come from the installed prefixes, drawn once per flow;
  // the expected egress port comes from the reference trie, not from the
  // Dir24_8 under test.
  const std::vector<rb::RouteEntry> routes = rb::GenerateRoutingTable(RouterTableConfig());
  rb::RadixTrie trie;
  trie.InsertAll(routes);
  const rb::PrefixSampler sampler(routes);
  rb::Rng dst_rng(seed ^ kDstSeedSalt);

  rb::FlowChurnConfig cc;
  cc.target_flows = kNatFlows;
  cc.zipf_s = 1.1;
  cc.seed = seed;
  rb::FlowChurnGenerator gen(cc);

  const size_t total = kNatFlows + kNatSteadyOffers;
  plan->offers.reserve(total);
  plan->flows.reserve(kNatFlows + kNatSteadyOffers / 512);
  for (size_t i = 0; i < total; ++i) {
    const rb::FlowChurnGenerator::Item item = gen.Next();
    // Flow ids are handed out in birth order; a flow born by churn may be
    // emitted later than one born after it, so births fill forward.
    while (plan->flows.size() <= item.flow_id) {
      rb::FlowKey key = rb::FlowChurnGenerator::KeyFor(plan->flows.size());
      key.protocol = rb::Ipv4View::kProtoUdp;
      key.dst_ip = sampler.NextDst(&dst_rng);
      PlanFlow f;
      f.key = key;
      f.in_port = static_cast<uint8_t>(rb::FlowHash32(key) & 1u);
      const uint32_t hop = trie.Lookup(key.dst_ip);
      RB_CHECK_MSG(hop >= 1 && hop <= static_cast<uint32_t>(kPorts),
                   "sampled destination has no route");
      f.out_port = static_cast<uint8_t>(hop - 1);
      f.udp_checksum = UdpChecksum64(key);
      plan->flows.push_back(f);
    }
    plan->offers.push_back(PlanOffer{static_cast<uint32_t>(item.flow_id), 64});
  }
  plan->loop_start = kNatFlows;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kFwd64, Workload::kRtrNat64, Workload::kIpsecAbilene}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFwd64:
      return "fwd_64";
    case Workload::kRtrNat64:
      return "rtr_nat_64";
    case Workload::kIpsecAbilene:
      return "ipsec_abilene";
  }
  return "?";
}

rb::TableGenConfig RouterTableConfig() {
  rb::TableGenConfig tg;
  tg.num_routes = 256 * 1024;
  tg.num_next_hops = kPorts;
  tg.seed = 42;
  return tg;
}

Plan BuildPlan(Workload w, uint64_t seed) {
  Plan plan;
  plan.workload = w;
  switch (w) {
    case Workload::kFwd64: {
      rb::SyntheticConfig sc;
      sc.packet_size = 64;
      sc.num_flows = 4096;
      sc.random_dst = false;  // a flow keeps its 5-tuple
      sc.seed = seed;
      rb::SyntheticGenerator gen(sc);
      FillFromGenerator(&gen, sc.num_flows, &plan);
      break;
    }
    case Workload::kIpsecAbilene: {
      rb::AbileneConfig ac;
      ac.seed = seed;
      rb::AbileneGenerator gen(ac);
      FillFromGenerator(&gen, ac.num_flows, &plan);
      break;
    }
    case Workload::kRtrNat64:
      BuildNatPlan(seed, &plan);
      break;
  }
  plan.hash = HashPlan(plan);
  return plan;
}

}  // namespace perfbench
