// Bottleneck attribution: combines a *measured* per-packet profile (the
// cycle-accounting profiler's cycles/packet, plus the model's per-packet
// bus loads) with a model::ServerSpec's empirical capacity bounds to emit
// the paper's CPU / memory / NIC verdict (§4.3, §5.3: "the achievable
// rate is the minimum over components; the arg-min is the bottleneck").
#ifndef RB_HARNESS_BOTTLENECK_HPP_
#define RB_HARNESS_BOTTLENECK_HPP_

#include <string>
#include <vector>

#include "model/server_spec.hpp"
#include "model/throughput.hpp"

namespace rb {
namespace telemetry {

// A workload as measured (or partially measured): cycles_per_packet from
// the profiler, bus loads usually from model::LoadsFor for the matching
// application/frame size (we cannot measure bus bytes without the vendor
// tools the paper used).
struct MeasuredWorkload {
  std::string name;
  double frame_bytes = 64;
  double cycles_per_packet = 0;
  ComponentLoads per_packet;  // cpu_cycles ignored; cycles_per_packet wins
};

enum class Resource {
  kCpu,
  kMemory,
  kIo,
  kPcie,
  kInterSocket,
  kNicInput,
};

// Short resource name, e.g. "cpu", "memory", "pcie".
const char* ResourceName(Resource r);
// The paper's three-way verdict class: "CPU", "memory", or "NIC/IO".
const char* ResourceClass(Resource r);

struct ResourceLimit {
  Resource resource = Resource::kCpu;
  double per_packet = 0;        // cycles/packet or bytes/packet
  double capacity_per_sec = 0;  // cycles/s or bytes/s
  double max_pps = 0;           // capacity / per_packet

  double UtilizationAt(double pps) const {
    return capacity_per_sec > 0 ? pps * per_packet / capacity_per_sec : 0;
  }
};

struct BottleneckVerdict {
  std::vector<ResourceLimit> limits;  // sorted by max_pps ascending
  Resource bottleneck = Resource::kCpu;
  std::string verdict;  // ResourceClass(bottleneck)
  double max_pps = 0;
  double max_payload_gbps = 0;  // frame_bytes * 8 * max_pps / 1e9

  const ResourceLimit* Limit(Resource r) const;
  // e.g. "CPU-bound at 2.41 Mpps (cpu: 9300 cyc/pkt vs 22.4 Gcyc/s)"
  std::string Summary() const;
};

// Analyzes `w` against `spec`'s empirical capacities. Resources with zero
// per-packet load or zero capacity are skipped (e.g. inter-socket traffic
// on a single-socket spec).
BottleneckVerdict AnalyzeBottleneck(const MeasuredWorkload& w, const ServerSpec& spec);

}  // namespace telemetry
}  // namespace rb

#endif  // RB_HARNESS_BOTTLENECK_HPP_
