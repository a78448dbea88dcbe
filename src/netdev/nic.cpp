#include "netdev/nic.hpp"

#include <utility>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "packet/pool.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"

namespace rb {

namespace {

// PCIe data DMA and wire bytes of a burst, read before the burst is
// published: once on a ring, its frames may already be the consumer's.
struct BurstSize {
  uint64_t data_txns = 0;
  uint64_t data_bytes = 0;
  uint64_t wire_bytes = 0;
};

BurstSize Measure(Packet* const* pkts, uint32_t n) {
  BurstSize s;
  for (uint32_t i = 0; i < n; ++i) {
    s.data_txns += PcieDataTxns(pkts[i]->length());
    s.data_bytes += pkts[i]->length();
    s.wire_bytes += pkts[i]->wire_bytes();
  }
  return s;
}

// Releases `pkts[from, n)`, the frames a ring had no room for, and
// returns their wire bytes.
uint64_t ReleaseDropped(Packet* const* pkts, uint32_t from, uint32_t n) {
  uint64_t bytes = 0;
  for (uint32_t i = from; i < n; ++i) {
    bytes += pkts[i]->wire_bytes();
    PacketPool::Release(pkts[i]);
  }
  return bytes;
}

}  // namespace

NicPort::NicPort(const NicConfig& config)
    : config_(config), steering_(config.steering, config.num_rx_queues) {
  RB_CHECK(config.num_rx_queues >= 1 && config.num_tx_queues >= 1);
  RB_CHECK(config.kn >= 1);
  for (uint16_t q = 0; q < config.num_rx_queues; ++q) {
    rx_.rings.push_back(std::make_unique<SpscRing<Packet*>>(config.ring_entries));
  }
  for (uint16_t q = 0; q < config.num_tx_queues; ++q) {
    tx_.rings.push_back(std::make_unique<SpscRing<Packet*>>(config.ring_entries));
  }
  staged_.resize(config.num_rx_queues);
}

void NicPort::BindTelemetry(telemetry::MetricRegistry* registry, const std::string& prefix) {
  if (!telemetry::Enabled() || registry == nullptr) {
    return;
  }
  for (auto [dir, name] : {std::pair{&rx_, "rx"}, std::pair{&tx_, "tx"}}) {
    const PortCounters& c = dir->counters;
    registry->AddCounterReader(prefix + name + "_packets",
                               [&c] { return c.packets.load(std::memory_order_relaxed); });
    registry->AddCounterReader(prefix + name + "_bytes",
                               [&c] { return c.bytes.load(std::memory_order_relaxed); });
    registry->AddCounterReader(prefix + name + "_drops",
                               [&c] { return c.drops.load(std::memory_order_relaxed); });
    for (size_t q = 0; q < dir->rings.size(); ++q) {
      dir->tele_ring_hw.push_back(
          registry->GetGauge(Format("%s%sq%zu/occupancy_hw", prefix.c_str(), name, q)));
    }
  }
}

void NicPort::Deliver(Packet* p, SimTime now) {
  DeliverStamped(p, now,
                 telemetry::IngressStampEnabled() ? telemetry::ReadCycles() : 0);
}

void NicPort::DeliverStamped(Packet* p, SimTime now, uint64_t ingress_cycles) {
  p->set_arrival_time(now);
  p->set_ingress_cycles(ingress_cycles);
  uint16_t q = steering_.SelectRxQueue(p);
  Staged& st = staged_[q];
  if (st.pkts.empty()) {
    st.oldest = now;
  }
  st.pkts.push_back(p);
  if (st.pkts.size() >= config_.kn) {
    CommitStaged(q);
  } else if (config_.batch_timeout > 0 && now - st.oldest >= config_.batch_timeout) {
    CommitStaged(q);
  }
}

void NicPort::DeliverBatch(PacketBatch* batch, SimTime now) {
  const uint32_t n = batch->size();
  // One cycle read covers the whole burst: the frames of one wire batch
  // arrive back-to-back, so per-packet rdtsc would only measure the
  // stamping loop itself.
  const uint64_t ingress_cycles =
      telemetry::IngressStampEnabled() ? telemetry::ReadCycles() : 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      // Steering reads the flow-hash annotation of the next packet; its
      // metadata line may have been evicted by this packet's DMA modeling.
      PrefetchForRead((*batch)[i + 1]);
    }
    DeliverStamped((*batch)[i], now, ingress_cycles);
  }
  batch->Clear();
}

void NicPort::CommitStaged(uint16_t q) {
  Staged& st = staged_[q];
  const auto n = static_cast<uint32_t>(st.pkts.size());
  if (n == 0) {
    return;
  }
  // One batched descriptor transfer for the whole group on top of every
  // frame's data DMA.
  const RingBurst pushed = PushBurst(rx_, q, st.pkts.data(), n, PcieDescriptorTxns(n),
                                     uint64_t{n} * kDescriptorBytes);
  if (pushed.packets < n) {
    // NIC had no free rx descriptors — the event the paper's loss-free
    // envelope is defined against; a = rx queue index, b = frames lost.
    static const telemetry::ScopeId kNicScope = telemetry::InternScopeName("nic/rx");
    telemetry::FrRecord(telemetry::FrEvent::kRxOverflow, kNicScope, q, n - pushed.packets);
  }
  st.pkts.clear();
}

void NicPort::FlushStaged(SimTime now) {
  if (config_.batch_timeout <= 0) {
    return;
  }
  for (uint16_t q = 0; q < config_.num_rx_queues; ++q) {
    Staged& st = staged_[q];
    if (!st.pkts.empty() && now - st.oldest >= config_.batch_timeout) {
      CommitStaged(q);
    }
  }
}

void NicPort::FlushAllStaged() {
  for (uint16_t q = 0; q < config_.num_rx_queues; ++q) {
    CommitStaged(q);
  }
}

size_t NicPort::PollRx(uint16_t q, Packet** out, size_t max) {
  RB_CHECK(q < config_.num_rx_queues);
  return rx_.rings[q]->TryPopBurst(out, max);
}

NicPort::RingBurst NicPort::Transmit(uint16_t q, Packet* const* pkts, uint32_t n) {
  RB_CHECK(q < config_.num_tx_queues);
  if (n == 0) {
    return {};
  }
  // Every frame's data crosses the PCIe bus on transmit too. The driver's
  // NIC-driven batching applies to descriptor writes; we charge the
  // amortized cost assuming the configured kn (the driver groups kn
  // descriptor writebacks per transaction on average).
  return PushBurst(tx_, q, pkts, n, 0, 0);
}

NicPort::RingBurst NicPort::PushBurst(Direction& dir, uint16_t q, Packet* const* pkts,
                                      uint32_t n, uint64_t extra_txns,
                                      uint64_t extra_bytes) {
  const BurstSize size = Measure(pkts, n);
  pcie_.Add(extra_txns + size.data_txns, extra_bytes + size.data_bytes);
  RingBurst pushed;
  pushed.packets = static_cast<uint32_t>(dir.rings[q]->TryPushBurst(pkts, n));
  const uint32_t drops = n - pushed.packets;
  pushed.bytes = size.wire_bytes - ReleaseDropped(pkts, pushed.packets, n);
  dir.counters.Add(pushed.packets, pushed.bytes, drops);
  if (pushed.packets > 0 && !dir.tele_ring_hw.empty()) {
    dir.tele_ring_hw[q]->UpdateMax(static_cast<double>(dir.rings[q]->size()));
  }
  return pushed;
}

size_t NicPort::DrainTx(Packet** out, size_t max) {
  // One TryPopBurst per ring drains a queue's whole backlog under a single
  // head/tail synchronization, instead of two atomics per packet while
  // ping-ponging between rings. Fairness is per-queue rather than
  // per-packet: the starting ring rotates across calls.
  size_t n = 0;
  for (uint16_t visited = 0; visited < config_.num_tx_queues && n < max;
       ++visited) {
    n += tx_.rings[tx_drain_rr_]->TryPopBurst(&out[n], max - n);
    // Wrap without the integer divide a runtime '%' would cost.
    tx_drain_rr_ = static_cast<uint16_t>(
        tx_drain_rr_ + 1 == config_.num_tx_queues ? 0 : tx_drain_rr_ + 1);
  }
  return n;
}

}  // namespace rb
