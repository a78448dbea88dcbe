// Layer probes: each layer's own public function, timed in isolation on
// the workload's planned inputs. They run after the graph phase of a
// traced run and give the per-packet cost of the work a layer does inside
// SingleServerRouter::Step, which the benchmark cannot time from outside.
#ifndef PERFBENCH_PROBES_HPP_
#define PERFBENCH_PROBES_HPP_

#include <cstdint>
#include <string>

#include "flow/flow_table.hpp"
#include "plan.hpp"

namespace perfbench {

struct ProbeResults {
  double classify_ns = 0;       // MatchProgram::Execute of the fused CheckIPHeader program
  double lpm_ns = 0;            // Dir24_8::LookupBatch, batches of 32, per address
  double lookup_build_s = 0;    // GenerateRoutingTable + InsertAll
  double lookup_table_mib = 0;  // Dir24_8::memory_bytes
  double find_or_insert_ns = 0;  // FlowTable::FindOrInsert on a table shaped like the Nat's
  rb::FlowTableStats flow_stats;  // that table's counters over the timed pass
  uint64_t flow_ops = 0;
  int flow_probe_p99 = 0;
  double esp_ns = 0;           // EspTunnel::Encapsulate, per frame
  double esp_ns_per_byte = 0;  // per offered frame byte
  // Empty when every probe agreed with the plan (classification lane,
  // next hop, encapsulation success); else the first disagreement.
  std::string failure;
};

ProbeResults RunProbes(const Plan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP_
