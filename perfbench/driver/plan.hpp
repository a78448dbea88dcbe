// Seeded traffic plans: every frame a run offers, drawn before timing.
//
// A plan is a table of flows plus an ordered list of offers (flow, frame
// size). Offers [0, loop_start) are played once (the rtr_nat_64 flow
// ramp); offers [loop_start, end) then repeat for as long as the run
// lasts. The seed feeds only the traffic generators; the router's own
// routing-table seed is fixed, so every seed routes over the same table.
#ifndef PERFBENCH_PLAN_HPP_
#define PERFBENCH_PLAN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "lookup/table_gen.hpp"
#include "packet/flow.hpp"
#include "workload/workload.hpp"

namespace perfbench {

enum class Workload { kFwd64, kRtrNat64, kIpsecAbilene };

// Parses a workload name; returns false for an unknown one.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// The router-side constants every workload shares.
constexpr int kPorts = 2;
constexpr size_t kPoolPackets = 16384;
constexpr size_t kNatCapacity = 32768;
// Frames offered per chunk: one 512-descriptor tx ring, so a chunk can
// never overflow a transmit queue however it is routed.
constexpr uint32_t kChunk = 512;
// The routing table the rtr workload installs: the paper's 256K routes,
// one next hop per port, and a seed that the traffic seed never touches.
rb::TableGenConfig RouterTableConfig();

struct PlanFlow {
  rb::FlowKey key;
  uint16_t udp_checksum = 0;  // 0: the frame carries no UDP checksum
  uint8_t in_port = 0;
  uint8_t out_port = 0;  // expected egress port
};

struct PlanOffer {
  uint32_t flow = 0;
  uint16_t size = 0;
};

struct Plan {
  Workload workload = Workload::kFwd64;
  std::vector<PlanFlow> flows;
  std::vector<PlanOffer> offers;
  size_t loop_start = 0;
  uint64_t hash = 0;  // over every flow and offer: equal plans, equal hash

  // The offer played as the run's `seq`-th frame.
  const PlanOffer& Offer(uint64_t seq) const {
    if (seq < offers.size()) {
      return offers[seq];
    }
    const uint64_t loop = offers.size() - loop_start;
    return offers[loop_start + (seq - loop_start) % loop];
  }

  // The generator-level frame description FillFrame writes.
  rb::FrameSpec Spec(const PlanOffer& o) const {
    rb::FrameSpec spec;
    spec.size = o.size;
    spec.flow = flows[o.flow].key;
    spec.flow_id = o.flow;
    return spec;
  }
};

Plan BuildPlan(Workload w, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PLAN_HPP_
