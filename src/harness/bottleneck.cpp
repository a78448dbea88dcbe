#include "harness/bottleneck.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"
#include "common/strings.hpp"

namespace rb {
namespace telemetry {

const char* ResourceName(Resource r) {
  switch (r) {
    case Resource::kCpu: return "cpu";
    case Resource::kMemory: return "memory";
    case Resource::kIo: return "io";
    case Resource::kPcie: return "pcie";
    case Resource::kInterSocket: return "inter_socket";
    case Resource::kNicInput: return "nic_input";
  }
  return "?";
}

const char* ResourceClass(Resource r) {
  switch (r) {
    case Resource::kCpu: return "CPU";
    case Resource::kMemory: return "memory";
    case Resource::kIo:
    case Resource::kPcie:
    case Resource::kInterSocket:
    case Resource::kNicInput: return "NIC/IO";
  }
  return "?";
}

const ResourceLimit* BottleneckVerdict::Limit(Resource r) const {
  for (const ResourceLimit& l : limits) {
    if (l.resource == r) {
      return &l;
    }
  }
  return nullptr;
}

std::string BottleneckVerdict::Summary() const {
  const ResourceLimit* l = Limit(bottleneck);
  if (l == nullptr) {
    return "no measurable load";
  }
  return Format("%s-bound at %.2f Mpps (%s: %.0f %s/pkt vs %.3g/s)", verdict.c_str(),
                max_pps / 1e6, ResourceName(bottleneck), l->per_packet,
                bottleneck == Resource::kCpu ? "cyc" : "B", l->capacity_per_sec);
}

BottleneckVerdict AnalyzeBottleneck(const MeasuredWorkload& w, const ServerSpec& spec) {
  BottleneckVerdict v;
  auto add = [&](Resource r, double per_packet, double capacity_per_sec) {
    if (per_packet <= 0 || capacity_per_sec <= 0) {
      return;
    }
    ResourceLimit limit;
    limit.resource = r;
    limit.per_packet = per_packet;
    limit.capacity_per_sec = capacity_per_sec;
    limit.max_pps = capacity_per_sec / per_packet;
    v.limits.push_back(limit);
  };

  add(Resource::kCpu, w.cycles_per_packet, spec.total_cycles_per_sec());
  add(Resource::kMemory, w.per_packet.memory_bytes, spec.memory.empirical_bps / 8.0);
  add(Resource::kIo, w.per_packet.io_bytes, spec.io.empirical_bps / 8.0);
  add(Resource::kPcie, w.per_packet.pcie_bytes, spec.pcie.empirical_bps / 8.0);
  add(Resource::kInterSocket, w.per_packet.inter_socket_bytes,
      spec.inter_socket.empirical_bps / 8.0);
  add(Resource::kNicInput, w.frame_bytes, spec.max_input_bps() / 8.0);

  std::sort(v.limits.begin(), v.limits.end(),
            [](const ResourceLimit& a, const ResourceLimit& b) { return a.max_pps < b.max_pps; });
  if (!v.limits.empty()) {
    v.bottleneck = v.limits.front().resource;
    v.max_pps = v.limits.front().max_pps;
    v.max_payload_gbps = v.max_pps * w.frame_bytes * 8.0 / 1e9;
  }
  v.verdict = ResourceClass(v.bottleneck);
  return v;
}

}  // namespace telemetry
}  // namespace rb
