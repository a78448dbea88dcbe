#include "core/single_server_router.hpp"

#include <string>

#include "click/elements/check_ip_header.hpp"
#include "click/elements/dec_ip_ttl.hpp"
#include "click/elements/from_device.hpp"
#include "click/elements/ip_lookup.hpp"
#include "click/elements/ipsec.hpp"
#include "click/elements/nat.hpp"
#include "click/elements/to_device.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace rb {

SingleServerRouter::SingleServerRouter(const SingleServerConfig& config) : config_(config) {
  ValidateConfig(config);
  pool_ = std::make_unique<PacketPool>(config.pool_packets);
  for (int p = 0; p < config.num_ports; ++p) {
    NicConfig nc;
    nc.num_rx_queues = static_cast<uint16_t>(config.queues_per_port);
    nc.num_tx_queues = static_cast<uint16_t>(config.queues_per_port);
    nc.kn = config.kn;
    nc.steering = SteeringMode::kRss;
    ports_.push_back(std::make_unique<NicPort>(nc));
  }
  if (config.app == App::kIpRouting) {
    table_ = std::make_unique<Dir24_8>();
    TableGenConfig tg = config.table;
    tg.num_next_hops = static_cast<uint32_t>(config.num_ports);
    table_->InsertAll(GenerateRoutingTable(tg));
  }
}

void SingleServerRouter::BuildGraph() {
  const int num_ports = config_.num_ports;
  const int queues = config_.queues_per_port;

  // One push ToDevice per (tx queue q, output port), owned by core
  // q % cores — the static thread-to-core mapping of §4.2. The chains that
  // core polls on queue q push straight into it, so every tx queue has
  // exactly one writing core (rule 1) and the core that polled a packet
  // transmits it (rule 2), with no Queue hop in between.
  std::vector<ToDevice*> tx;  // index q * num_ports + out_port
  for (int q = 0; q < queues; ++q) {
    for (int out_port = 0; out_port < num_ports; ++out_port) {
      auto* to = router_.Add<ToDevice>(&port(out_port), static_cast<uint16_t>(q));
      // Every ToDevice of an output port shares one "lat/port<N>" latency
      // histogram: per-port ingress-to-egress percentiles regardless of
      // which chain carried the packet.
      to->set_port_label(out_port);
      tx.push_back(to);
    }
  }

  for (int in_port = 0; in_port < num_ports; ++in_port) {
    for (int q = 0; q < queues; ++q) {
      auto* from = router_.Add<FromDevice>(&port(in_port), static_cast<uint16_t>(q), config_.kp,
                                           q % config_.cores, config_.graph_batch);
      auto* check = router_.Add<CheckIpHeader>();
      router_.Connect(from, 0, check, 0);
      ToDevice* const* to = &tx[static_cast<size_t>(q * num_ports)];  // by output port

      switch (config_.app) {
        case App::kMinimalForwarding: {
          // Blind forwarding to the pre-determined output (§4.2's toy
          // configuration): port i -> port (i+1) % P.
          router_.Connect(check, 0, to[(in_port + 1) % num_ports], 0);
          break;
        }
        case App::kIpRouting: {
          Element* upstream = check;
          if (config_.stateful_nat) {
            // Outbound-only NAPT leg: input/output 0 sit in the chain;
            // the reply side (port 1) stays unwired — this graph has no
            // outside->inside path. Each chain owns its table, so the
            // handler plane exposes one `.flows` surface per Nat.
            NatOptions nat_opt;
            nat_opt.capacity = config_.nat_capacity;
            auto* nat = router_.Add<Nat>(nat_opt);
            router_.Connect(check, 0, nat, 0);
            upstream = nat;
          }
          auto* ttl = router_.Add<DecIpTtl>();
          auto* lookup = router_.Add<IpLookup>(table_.get(), num_ports);
          router_.Connect(upstream, 0, ttl, 0);
          router_.Connect(ttl, 0, lookup, 0);
          for (int out_port = 0; out_port < num_ports; ++out_port) {
            router_.Connect(lookup, out_port, to[out_port], 0);
          }
          break;
        }
        case App::kIpsec: {
          auto* esp = router_.Add<IpsecEncrypt>(config_.esp);
          router_.Connect(check, 0, esp, 0);
          router_.Connect(esp, 0, to[(in_port + 1) % num_ports], 0);
          break;
        }
      }
    }
  }
}

void SingleServerRouter::EnableTelemetry(telemetry::MetricRegistry* registry,
                                         telemetry::PathTracer* tracer) {
  RB_CHECK_MSG(!initialized_, "EnableTelemetry must precede Initialize");
  tele_registry_ = registry;
  tele_tracer_ = tracer;
  for (size_t i = 0; i < ports_.size(); ++i) {
    ports_[i]->BindTelemetry(registry, Format("nic/port%zu/", i));
  }
}

void SingleServerRouter::Initialize() {
  RB_CHECK_MSG(!initialized_, "Initialize called twice");
  initialized_ = true;
  BuildGraph();
  if (config_.compile_programs) {
    // Collapse classification chains before telemetry binds and elements
    // initialize, so the compiled elements get counters and the pollers
    // cache post-rewire backpressure boundaries.
    router_.CompilePrograms();
  }
  if (tele_registry_ != nullptr || tele_tracer_ != nullptr) {
    router_.BindTelemetry(tele_registry_, tele_tracer_);
  }
  router_.Initialize();
}

void SingleServerRouter::DeliverFrame(int p, Packet* frame, SimTime t) {
  RB_CHECK(p >= 0 && p < config_.num_ports);
  port(p).Deliver(frame, t);
}

void SingleServerRouter::DeliverBatch(int p, PacketBatch* batch, SimTime t) {
  RB_CHECK(p >= 0 && p < config_.num_ports);
  port(p).DeliverBatch(batch, t);
}

void SingleServerRouter::AddHandlers(telemetry::HandlerRegistry* handlers) {
  PacketPool* pool = pool_.get();
  handlers->AddRead("pool.capacity", [pool] { return std::to_string(pool->capacity()); });
  handlers->AddRead("pool.available", [pool] { return std::to_string(pool->available()); });
  handlers->AddRead("pool.in_use", [pool] { return std::to_string(pool->in_use()); });
  handlers->AddRead("pool.alloc_failures",
                    [pool] { return std::to_string(pool->alloc_failures()); });
}

size_t SingleServerRouter::Step() {
  RB_CHECK_MSG(initialized_, "router not initialized");
  for (auto& nic : ports_) {
    nic->FlushAllStaged();
  }
  return router_.RunTasksOnce();
}

size_t SingleServerRouter::RunUntilIdle() {
  size_t total = 0;
  while (true) {
    size_t moved = Step();
    total += moved;
    if (moved == 0) {
      break;
    }
  }
  return total;
}

size_t SingleServerRouter::DrainPort(int p, Packet** out, size_t max) {
  return port(p).DrainTx(out, max);
}

uint64_t SingleServerRouter::total_tx_packets() const {
  uint64_t total = 0;
  for (const auto& nic : ports_) {
    total += nic->tx_counters().packets;
  }
  return total;
}

uint64_t SingleServerRouter::total_rx_packets() const {
  uint64_t total = 0;
  for (const auto& nic : ports_) {
    total += nic->rx_counters().packets;
  }
  return total;
}

}  // namespace rb
