// SingleServerRouter: a complete RouteBricks server built from the
// library's pieces — multi-queue NICs, the Click-style element graph, and
// one of the three evaluation applications — following the §4.2 rules:
// every (port, queue) pair is polled by exactly one core's FromDevice,
// every packet is processed start-to-finish on that core's element chain,
// and every tx queue is written by exactly one core.
//
// Element graph per (input port, queue q), run to completion with no Queue:
//   FromDevice(port, q) -> CheckIPHeader -> <app> -> ToDevice(output port, q)
// where <app> is: nothing (minimal forwarding, output = (port+1) % P),
// DecIPTTL -> IPLookup (IP routing, output from the 256 K-entry table), or
// IPsecEncrypt (tunnel to output (port+1) % P). The P chains polled on
// queue q (all on core q % cores) push into one ToDevice per output port,
// so the only tasks are the P·Q FromDevice polls.
#ifndef RB_CORE_SINGLE_SERVER_ROUTER_HPP_
#define RB_CORE_SINGLE_SERVER_ROUTER_HPP_

#include <memory>
#include <vector>

#include "click/elements/misc.hpp"
#include "click/router.hpp"
#include "click/scheduler.hpp"
#include "core/router_config.hpp"
#include "lookup/dir24_8.hpp"
#include "netdev/nic.hpp"
#include "packet/pool.hpp"
#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rb {

class SingleServerRouter {
 public:
  explicit SingleServerRouter(const SingleServerConfig& config);

  // Builds and initializes the element graph. Call once.
  void Initialize();

  // Attaches telemetry before the graph runs: per-element and per-task
  // registry counters, NIC port counters/ring high-water gauges under
  // "nic/port<i>/", and (when `tracer` is non-null) sampled packet-path
  // tracing from FromDevice to ToDevice. Call before Initialize().
  void EnableTelemetry(telemetry::MetricRegistry* registry,
                       telemetry::PathTracer* tracer = nullptr);

  NicPort& port(int i) { return *ports_[static_cast<size_t>(i)]; }
  PacketPool& pool() { return *pool_; }
  Router& graph() { return router_; }
  // The IP-routing application's DIR-24-8 table.
  const Dir24_8& table() const { return *table_; }

  // Injects a frame into `port` (as the wire would) at simulated time t.
  void DeliverFrame(int port, Packet* p, SimTime t);

  // Batch variant: injects every packet in `batch` into `port` (ownership
  // transfers; the batch is left empty). The bulk-injection entry point —
  // a whole burst crosses into the NIC without re-entering the per-packet
  // path.
  void DeliverBatch(int port, PacketBatch* batch, SimTime t);

  // Exports the shared packet pool's state as read handlers
  // ("pool.capacity/available/in_use/alloc_failures"), so pool pressure is
  // visible through the control socket alongside the element handlers.
  void AddHandlers(telemetry::HandlerRegistry* handlers);

  // Runs every polling task once (single-threaded deterministic mode).
  size_t Step();
  // Runs until no task moves a packet.
  size_t RunUntilIdle();

  // Drains transmitted frames from `port`; caller owns the packets.
  size_t DrainPort(int port, Packet** out, size_t max);

  // Total packets forwarded out of all ports so far.
  uint64_t total_tx_packets() const;
  uint64_t total_rx_packets() const;

  const SingleServerConfig& config() const { return config_; }

 private:
  void BuildGraph();

  SingleServerConfig config_;
  std::unique_ptr<PacketPool> pool_;
  std::vector<std::unique_ptr<NicPort>> ports_;
  std::unique_ptr<Dir24_8> table_;
  Router router_;
  bool initialized_ = false;
  telemetry::MetricRegistry* tele_registry_ = nullptr;
  telemetry::PathTracer* tele_tracer_ = nullptr;
};

}  // namespace rb

#endif  // RB_CORE_SINGLE_SERVER_ROUTER_HPP_
