// Top-level RouteBricks configuration: what a downstream user sets up.
#ifndef RB_CORE_ROUTER_CONFIG_HPP_
#define RB_CORE_ROUTER_CONFIG_HPP_

#include <cstdint>

#include "crypto/esp.hpp"
#include "lookup/table_gen.hpp"
#include "workload/workload.hpp"

namespace rb {

// Configuration for one RouteBricks server (a "linecard" of the cluster,
// or a standalone software router).
struct SingleServerConfig {
  int num_ports = 4;          // NIC ports on this server
  int queues_per_port = 8;    // rx/tx queues per port (>= cores for rule 1)
  int cores = 8;              // worker cores for static task assignment
  App app = App::kIpRouting;  // packet-processing application
  uint16_t kp = 32;           // poll-driven batch
  uint16_t kn = 16;           // NIC-driven batch
  // Graph-level batch: the largest PacketBatch FromDevice pushes into the
  // element chain. 0 (default) = no extra split, the whole kp poll burst
  // travels as one batch. Smaller values re-chunk the burst — the knob the
  // Table 1 batching sweep varies independently of kp/kn.
  uint16_t graph_batch = 0;
  size_t pool_packets = 65536;
  // Compiled packet programs (DESIGN.md §16): when set, the graph build
  // runs Router::CompilePrograms, collapsing classification chains
  // (CheckIPHeader, classifiers) into CompiledClassifier elements. The
  // interpreted path stays the reference; benches default this on.
  bool compile_programs = false;
  // Stateful NAT leg (DESIGN.md §17): when set, the IP-routing graph
  // inserts a source-NAPT Nat element (backed by a watermark-evicting
  // FlowTable) between header check and TTL decrement on every
  // (port, queue) chain. Off by default — the baseline graphs stay
  // stateless; ip_router's --stateful flag and the control-socket smoke
  // test flip it on to exercise the live `.flows`/`.hi`/`.lo` handlers.
  bool stateful_nat = false;
  size_t nat_capacity = 4096;  // flow-table slots (== mapping ports) per Nat
  // IP routing (a DIR-24-8 table built from these generated routes).
  TableGenConfig table;
  // IPsec.
  EspConfig esp;

  uint64_t seed = 1;
};

// Validates invariants a user configuration must satisfy; RB_CHECKs on
// violation (programmer error, not data-plane condition).
void ValidateConfig(const SingleServerConfig& config);

}  // namespace rb

#endif  // RB_CORE_ROUTER_CONFIG_HPP_
