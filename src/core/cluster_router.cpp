#include "core/cluster_router.hpp"

#include <algorithm>

#include "click/elements/check_ip_header.hpp"
#include "click/elements/dec_ip_ttl.hpp"
#include "click/elements/from_device.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "packet/headers.hpp"

namespace rb {

VlbRoute::VlbRoute(const LpmTable* table, DirectVlbRouter* vlb, uint16_t self, uint16_t num_nodes)
    : Element(1, num_nodes),
      table_(table),
      vlb_(vlb),
      self_(self),
      num_nodes_(num_nodes),
      lanes_(num_nodes) {
  RB_CHECK(table != nullptr && vlb != nullptr);
  RB_CHECK(self < num_nodes);
}

void VlbRoute::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch bad;
  for (Packet* p : batch) {
    if (p->length() < EthernetView::kSize + Ipv4View::kMinSize) {
      bad.PushBack(p);
      continue;
    }
    Ipv4View ip{p->data() + EthernetView::kSize};
    uint32_t hop = table_->Lookup(ip.dst());
    if (hop == LpmTable::kNoRoute || hop > num_nodes_) {
      bad.PushBack(p);
      continue;
    }
    headers_processed_++;
    uint16_t dst_node = static_cast<uint16_t>(hop - 1);
    p->set_output_node(dst_node);

    // Encode the output node in the destination MAC so no later CPU has
    // to read the IP header (§6.1).
    EthernetView eth{p->data()};
    eth.set_dst(MacForNode(dst_node));

    if (dst_node == self_) {
      p->set_vlb_phase(VlbPhase::kDirect);
      lanes_[self_].PushBack(p);
      continue;
    }

    uint64_t flow_id = p->flow_id() != 0 ? p->flow_id() : p->flow_hash();
    VlbDecision decision = vlb_->Route(dst_node, flow_id, p->length(), p->arrival_time());
    uint16_t wire_to;
    if (decision.direct) {
      p->set_vlb_phase(VlbPhase::kDirect);
      wire_to = dst_node;
    } else {
      p->set_vlb_phase(VlbPhase::kPhase1);
      wire_to = decision.via;
    }
    lanes_[wire_to].PushBack(p);
  }
  batch.Clear();
  DropBatch(bad);
  for (uint16_t j = 0; j < num_nodes_; ++j) {
    OutputBatch(j, lanes_[j]);
  }
}

VlbAdmission::VlbAdmission(const LpmTable* table, AdmissionDrr* drr, uint16_t num_nodes)
    : Element(1, 1), table_(table), drr_(drr), num_nodes_(num_nodes) {
  RB_CHECK(table != nullptr && drr != nullptr);
}

void VlbAdmission::BindTelemetry(telemetry::MetricRegistry* registry,
                                 telemetry::PathTracer* tracer, const std::string& prefix) {
  Element::BindTelemetry(registry, tracer, prefix);
  if (telemetry::Enabled() && registry != nullptr) {
    registry->AddCounterReader(prefix + "elem/" + name() + "/drops/admission",
                               [this] { return admission_drops(); });
  }
}

size_t VlbAdmission::MonitoredDepth() const {
  size_t depth = 0;
  for (const QueueElement* q : watched_) {
    depth = std::max(depth, q->size());
  }
  return depth;
}

void VlbAdmission::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch pass;
  PacketBatch deny;
  const size_t depth = MonitoredDepth();
  for (Packet* p : batch) {
    // Resolve the output node the same way VlbRoute will; packets it
    // cannot resolve pass through so VlbRoute's bad-packet path (not the
    // admission bucket) accounts them.
    uint16_t dst = num_nodes_;
    if (p->length() >= EthernetView::kSize + Ipv4View::kMinSize) {
      Ipv4View ip{p->data() + EthernetView::kSize};
      uint32_t hop = table_->Lookup(ip.dst());
      if (hop != LpmTable::kNoRoute && hop <= num_nodes_) {
        dst = static_cast<uint16_t>(hop - 1);
      }
    }
    if (dst < num_nodes_ && !drr_->Admit(dst, p->length(), p->arrival_time(), depth)) {
      deny.PushBack(p);
    } else {
      pass.PushBack(p);
    }
  }
  batch.Clear();
  if (!deny.empty()) {
    admission_drops_.store(admission_drops() + deny.size(), std::memory_order_relaxed);
    DropBatch(deny);
  }
  OutputBatch(0, pass);
}

VlbSteer::VlbSteer(uint16_t self, uint16_t queue_node)
    : Element(1, 2), self_(self), queue_node_(queue_node) {}

void VlbSteer::PushBatch(int /*port*/, PacketBatch& batch) {
  steered_ += batch.size();
  // The rx queue index IS the output node — no header access needed, and
  // the whole burst shares one phase because the queue decides it.
  const bool local = queue_node_ == self_;
  const VlbPhase phase = local ? VlbPhase::kDirect : VlbPhase::kPhase2;
  for (Packet* p : batch) {
    p->set_output_node(queue_node_);
    p->set_vlb_phase(phase);
  }
  OutputBatch(local ? 0 : 1, batch);
}

FunctionalCluster::FunctionalCluster(const FunctionalClusterConfig& config)
    : config_(config), health_(config.num_nodes) {
  RB_CHECK(config.num_nodes >= 2);
  pool_ = std::make_unique<PacketPool>(config.pool_packets);
  uint16_t n = config.num_nodes;
  nodes_.resize(n);
  vlb_route_.resize(n);
  for (uint16_t i = 0; i < n; ++i) {
    VlbConfig vc = config.vlb;
    vc.num_nodes = n;
    vc.seed = config.seed ^ (0xabcdULL * (i + 1));
    vlb_.push_back(std::make_unique<DirectVlbRouter>(vc, i));
    vlb_.back()->set_health(&health_);
    if (config.admission.enabled) {
      admission_.push_back(std::make_unique<AdmissionDrr>(config.admission, n));
      admission_.back()->set_health(&health_);
    }
  }
  if (config.admission.enabled) {
    vlb_admission_.resize(n);
  }
  for (uint16_t i = 0; i < n; ++i) {
    BuildNode(i);
  }
  for (uint16_t i = 0; i < n; ++i) {
    Node& node = nodes_[i];
    if (config.registry != nullptr || config.tracer != nullptr) {
      std::string prefix = Format("node%u/", i);
      node.graph->BindTelemetry(config.registry, config.tracer, prefix);
      for (size_t p = 0; p < node.ports.size(); ++p) {
        node.ports[p]->BindTelemetry(config.registry, prefix + Format("nic/port%zu/", p));
      }
    }
    node.graph->Initialize();
  }
}

uint32_t FunctionalCluster::AddressForNode(uint16_t node) const {
  // 10.<node>.0.1 — covered by the /16 installed per node.
  return (10u << 24) | (static_cast<uint32_t>(node) << 16) | 1u;
}

int FunctionalCluster::PortIndexFor(uint16_t node, uint16_t peer) const {
  RB_CHECK(node != peer);
  return 1 + (peer < node ? peer : peer - 1);
}

void FunctionalCluster::BuildNode(uint16_t self) {
  Node& node = nodes_[self];
  node.graph = std::make_unique<Router>();
  uint16_t n = config_.num_nodes;

  // Routing table: one /16 per output node plus filler routes that also
  // resolve to valid nodes (keeps the table realistically populated). A
  // filler /24 drawn twice keeps its last next hop.
  std::vector<RouteEntry> routes;
  routes.reserve(n + config_.routes);
  for (uint16_t j = 0; j < n; ++j) {
    routes.push_back({(10u << 24) | (static_cast<uint32_t>(j) << 16), 16, j + 1u});
  }
  Rng rng(config_.seed + self);
  for (size_t k = 0; k < config_.routes; ++k) {
    uint32_t prefix = (192u << 24) | (static_cast<uint32_t>(rng.Next()) & 0x00ffff00u);
    routes.push_back({prefix, 24, 1 + static_cast<uint32_t>(rng.NextBounded(n))});
  }
  node.table = std::make_unique<Dir24_8>();
  node.table->InsertAll(std::move(routes));

  // Port 0: external. Ports 1..n-1: internal, MAC-steered, one rx queue
  // per output node.
  {
    NicConfig nc;
    nc.num_rx_queues = 1;
    nc.num_tx_queues = 1;
    nc.steering = SteeringMode::kRss;
    nc.ring_entries = config_.queue_capacity;
    node.ports.push_back(std::make_unique<NicPort>(nc));
  }
  for (uint16_t peer = 0; peer < n; ++peer) {
    if (peer == self) {
      continue;
    }
    NicConfig nc;
    nc.num_rx_queues = n;
    nc.num_tx_queues = 1;
    nc.steering = SteeringMode::kMacTable;
    nc.ring_entries = config_.queue_capacity;
    auto port = std::make_unique<NicPort>(nc);
    for (uint16_t out = 0; out < n; ++out) {
      port->steering().AddMacRule(MacForNode(out), out);
    }
    node.ports.push_back(std::move(port));
  }

  Router& g = *node.graph;

  // Helper lambdas to build transmit legs.
  auto make_leg = [&](NicPort* out_port) -> QueueElement* {
    auto* queue = g.Add<QueueElement>(config_.queue_capacity);
    auto* to = g.Add<ToDevice>(out_port, 0, 32, -1);
    g.Connect(queue, 0, to, 0);
    return queue;
  };

  // External ingress: full header processing happens only here.
  auto* from_ext = g.Add<FromDevice>(node.ports[0].get(), 0, 32, -1);
  auto* check = g.Add<CheckIpHeader>();
  auto* ttl = g.Add<DecIpTtl>();
  auto* route = g.Add<VlbRoute>(node.table.get(), vlb_[self].get(), self, n);
  g.Connect(from_ext, 0, check, 0);
  g.Connect(check, 0, ttl, 0);
  if (config_.admission.enabled) {
    auto* adm = g.Add<VlbAdmission>(node.table.get(), admission_[self].get(), n);
    g.Connect(ttl, 0, adm, 0);
    g.Connect(adm, 0, route, 0);
    vlb_admission_[self] = adm;
  } else {
    g.Connect(ttl, 0, route, 0);
  }
  vlb_route_[self] = route;
  for (uint16_t j = 0; j < n; ++j) {
    NicPort* out = j == self ? node.ports[0].get()
                             : node.ports[static_cast<size_t>(PortIndexFor(self, j))].get();
    QueueElement* leg = make_leg(out);
    g.Connect(route, j, leg, 0);
    if (config_.admission.enabled) {
      vlb_admission_[self]->WatchQueue(leg);
    }
  }

  // Internal ingress: per (port, MAC-steered queue) forwarding without
  // header processing.
  for (uint16_t peer = 0; peer < n; ++peer) {
    if (peer == self) {
      continue;
    }
    NicPort* in_port = node.ports[static_cast<size_t>(PortIndexFor(self, peer))].get();
    for (uint16_t qnode = 0; qnode < n; ++qnode) {
      auto* from = g.Add<FromDevice>(in_port, qnode, 32, -1);
      auto* steer = g.Add<VlbSteer>(self, qnode);
      g.Connect(from, 0, steer, 0);
      if (qnode == self) {
        g.Connect(steer, 0, make_leg(node.ports[0].get()), 0);
      } else if (qnode != peer) {
        // Phase 2: forward toward the output node. (qnode == peer would
        // mean bouncing the packet back where it came from; VLB never
        // does that, so that output stays unwired and would count drops.)
        NicPort* out = node.ports[static_cast<size_t>(PortIndexFor(self, qnode))].get();
        g.Connect(steer, 1, make_leg(out), 0);
      }
    }
  }
}

void FunctionalCluster::InjectExternal(uint16_t src, Packet* p, SimTime t) {
  RB_CHECK(src < config_.num_nodes);
  now_ = t > now_ ? t : now_;
  nodes_[src].ports[0]->Deliver(p, t);
}

size_t FunctionalCluster::PumpWires() {
  size_t moved = 0;
  Packet* burst[64];
  uint16_t n = config_.num_nodes;
  for (uint16_t i = 0; i < n; ++i) {
    for (uint16_t peer = 0; peer < n; ++peer) {
      if (peer == i) {
        continue;
      }
      NicPort& tx = *nodes_[i].ports[static_cast<size_t>(PortIndexFor(i, peer))];
      NicPort& rx = *nodes_[peer].ports[static_cast<size_t>(PortIndexFor(peer, i))];
      size_t got;
      while ((got = tx.DrainTx(burst, std::size(burst))) > 0) {
        for (size_t k = 0; k < got; ++k) {
          // Wire latency is negligible at functional scope; stamp a
          // monotonically advancing arrival time.
          now_ += 1e-9;
          rx.Deliver(burst[k], now_);
          wire_packets_++;
        }
        moved += got;
      }
    }
  }
  return moved;
}

size_t FunctionalCluster::RunUntilIdle(size_t max_sweeps) {
  size_t total = 0;
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    size_t moved = 0;
    for (auto& node : nodes_) {
      for (auto& port : node.ports) {
        port->FlushAllStaged();
      }
      moved += node.graph->RunTasksOnce();
    }
    moved += PumpWires();
    total += moved;
    if (moved == 0) {
      break;
    }
  }
  return total;
}

size_t FunctionalCluster::DrainExternal(uint16_t node, Packet** out, size_t max) {
  return nodes_[node].ports[0]->DrainTx(out, max);
}

}  // namespace rb
